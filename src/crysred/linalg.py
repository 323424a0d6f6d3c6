"""Dense linear algebra over F_p on numpy int64 arrays, entries reduced mod p.

An ``FpSpace`` holds a subspace as its reduced row-echelon basis, one k x n
array: reducing or expressing vectors is one matrix product, and inserting a
batch of rows eliminates the batch once and merges it by pivot.  ``eliminate``
is the one Gauss-Jordan kernel, under ``rref``, ``row_transform``, ``rank``,
``nullspace`` and ``FpSpace.add_rows``.

Most matrices are small (a few thousand entries at p <= 23), so a pivot
costs what its numpy calls cost, not its arithmetic, and the kernel makes a
handful per pivot.  On a matrix of at most 2^12 entries each pivot is one
rank-1 update of the whole array; on a larger one (the r-row matrices of the
test oracles, sparse in each pivot column) only the rows with a nonzero
entry in the pivot column are updated.  The pivot row is scaled and reduced
mod p before either update, so every int64 product is below p^2 and the
kernel is exact for p < 2^31.
"""

from __future__ import annotations

import numpy as np


def as_vec(v, p: int) -> np.ndarray:
    return np.asarray(v, dtype=np.int64) % p


class FpSpace:
    """A subspace of F_p^n held in reduced row-echelon form: ``rows`` is a
    k x n array whose row i has a unit at column ``pivots[i]`` and zeros at
    every other pivot column, with the pivots ascending."""

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self.rows = np.zeros((0, n), dtype=np.int64)
        self.pivots: list[int] = []

    @classmethod
    def from_rows(cls, rows, n: int, p: int) -> "FpSpace":
        sp = cls(n, p)
        sp.add_rows(np.asarray(rows, dtype=np.int64).reshape(len(rows), n))
        return sp

    @classmethod
    def from_echelon(cls, rows, pivots, n: int, p: int) -> "FpSpace":
        """Trusted constructor for rows already in reduced row-echelon form
        with the given ascending pivots."""
        sp = cls(n, p)
        sp.rows = as_vec(rows, p).reshape(len(pivots), n)
        sp.pivots = list(pivots)
        return sp

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v) -> np.ndarray:
        """Remainder of v (a vector, or the rows of a matrix) after
        elimination against the stored basis."""
        w = as_vec(v, self.p)
        return (w - w[..., self.pivots] @ self.rows) % self.p

    def express(self, v):
        """Coefficients of v (a vector, or the rows of a matrix) in the
        stored basis, or None if some vector is outside."""
        w = as_vec(v, self.p)
        coeffs = w[..., self.pivots]
        if ((w - coeffs @ self.rows) % self.p).any():
            return None
        return coeffs

    def __contains__(self, v) -> bool:
        return not self.reduce(v).any()

    def add(self, v) -> bool:
        """Insert v; returns True if the dimension grew."""
        return len(self.add_rows(np.reshape(v, (1, self.n)))) > 0

    def add_rows(self, vecs) -> np.ndarray:
        """Insert the rows of a matrix at once; returns the echelon rows of
        their part that is new modulo the old space (empty if none)."""
        new, new_pivots = rref(self.reduce(vecs), self.p)
        if new_pivots:
            # the new rows vanish at the old pivots; clear theirs from the old rows
            old = (self.rows - self.rows[:, new_pivots] @ new) % self.p
            pivots = self.pivots + new_pivots
            order = np.argsort(pivots)
            self.rows = np.vstack([old, new])[order]
            self.pivots = sorted(pivots)
        return new

    def matrix(self) -> np.ndarray:
        return self.rows

    def nonpivot_columns(self) -> list[int]:
        piv = set(self.pivots)
        return [j for j in range(self.n) if j not in piv]

    def intersect(self, other: "FpSpace") -> "FpSpace":
        """Intersection of two row spaces via a kernel computation."""
        A, B = self.rows, other.rows
        if not len(A) or not len(B):
            return FpSpace(self.n, self.p)
        kernel = nullspace(np.vstack([A, B]).T, self.p)
        return FpSpace.from_rows([c[: len(A)] @ A % self.p for c in kernel], self.n, self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpSpace)
            and self.n == other.n
            and self.p == other.p
            and self.pivots == other.pivots
            and np.array_equal(self.rows, other.rows)
        )


def eliminate(A: np.ndarray, p: int, ncols: int) -> list[int]:
    """Gauss-Jordan elimination of A in place, with pivots taken only among
    its first ``ncols`` columns.  A holds int64 entries reduced mod p, p < 2^31.
    Returns the pivot columns; row i of the result carries the i-th pivot,
    and the rows below the last pivot vanish on the first ``ncols`` columns.

    The pivot of each step is the first nonzero entry, in row order, of the
    first column that has one at or below the current row; that row is
    swapped up and scaled to a leading 1 mod p.  Then either every row of A
    (if A has at most 2^12 entries) or only the rows hit by the pivot column
    lose their multiple of the pivot row.  Both give the same array."""
    pivots: list[int] = []
    # measured on the matrices of the structure and witness benchmark items
    # and of the r-row oracles: the two updates cost the same near 2^11
    # entries, and past 2^12 the hit-row update wins on sparse pivot columns
    # (4-34x on the oracles' square matrices)
    whole = A.size <= 2**12
    col = 0
    for row in range(A.shape[0]):
        if col >= ncols:
            break
        below = A[row:, col].nonzero()[0]
        if not below.size:
            live = A[row:, col + 1:ncols].any(axis=0).nonzero()[0]
            if not live.size:
                break
            col += 1 + int(live[0])
            below = A[row:, col].nonzero()[0]
        k = row + int(below[0])
        piv = A[k] * pow(int(A[k, col]), -1, p) % p
        if k != row:
            A[k] = A[row]
        if whole:
            A -= A[:, col, None] * piv
            A %= p
        else:
            hit = A[:, col].nonzero()[0]
            A[hit] = (A[hit] - A[hit, col, None] * piv) % p
        A[row] = piv
        pivots.append(col)
        col += 1
    return pivots


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a k x n matrix over F_p: the nonzero
    rows (a rank x n array) and their pivot columns."""
    A = np.array(mat, dtype=np.int64) % p
    pivots = eliminate(A, p, A.shape[1])
    return A[: len(pivots)], pivots


def row_transform(S, p: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Gauss-Jordan elimination of [S | I] with pivots among the columns of
    S: the reduced row-echelon basis B of the row space of S, a transform T
    with B = T S mod p, and the pivots of B.  For an invertible S, T is its
    inverse."""
    k, n = S.shape
    A = np.hstack([np.asarray(S, dtype=np.int64) % p, np.eye(k, dtype=np.int64)])
    pivots = eliminate(A, p, n)
    return A[: len(pivots), :n], A[: len(pivots), n:], pivots


def rank(mat, p: int) -> int:
    return len(rref(mat, p)[1])


def nullspace(mat, p: int) -> list[np.ndarray]:
    """Basis of the right kernel of ``mat`` over F_p, one vector per free column."""
    mat = np.asarray(mat, dtype=np.int64) % p
    R, pivots = rref(mat, p)
    piv_set = set(pivots)
    free = [j for j in range(mat.shape[1]) if j not in piv_set]
    basis = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots:
        basis[:, pivots] = -R[:, free].T % p
    return list(basis)
