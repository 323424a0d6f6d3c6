"""Dense linear algebra over F_p on numpy int64 arrays.

Row-echelon bookkeeping is incremental: an ``FpSpace`` keeps a reduced
echelon basis and absorbs new vectors one at a time, which is what the
span-closure and spinning loops need.  A whole matrix is reduced at once by
``eliminate``, one pivot column per step.  Entries are always reduced mod p.
"""

from __future__ import annotations

import numpy as np


def as_vec(v, p: int) -> np.ndarray:
    a = np.asarray(v, dtype=np.int64) % p
    return a


class FpSpace:
    """A subspace of F_p^n held in reduced row-echelon form."""

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @classmethod
    def from_rows(cls, rows, n: int, p: int) -> "FpSpace":
        if not len(rows):
            return cls(n, p)
        R, pivots = rref(np.asarray(rows, dtype=np.int64).reshape(len(rows), n), p)
        return cls.from_echelon(R, pivots, n, p)

    @classmethod
    def from_echelon(cls, rows, pivots, n: int, p: int) -> "FpSpace":
        """Trusted constructor for rows already in ascending-pivot echelon
        form with unit pivots and support only at columns >= their pivot.
        The rows need not be reduced against each other: ``_eliminate``
        then repeats its pass until every pivot entry is cleared."""
        sp = cls(n, p)
        sp.rows = [as_vec(row, p) for row in rows]
        sp.pivots = list(pivots)
        return sp

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _eliminate(self, v) -> tuple[np.ndarray, np.ndarray]:
        # One pass clears the pivots of a reduced basis.  For a basis that is
        # only echelon, each pass multiplies the pivot entries by the
        # strictly triangular part of the pivot block, which is nilpotent.
        w = as_vec(v, self.p)
        coeffs = np.zeros(w.shape[:-1] + (len(self.rows),), dtype=np.int64)
        R = self.matrix()
        c = w[..., self.pivots]
        while c.any():
            coeffs = (coeffs + c) % self.p
            w = (w - c @ R) % self.p
            c = w[..., self.pivots]
        return w, coeffs

    def reduce(self, v) -> np.ndarray:
        """Remainder of v (a vector, or the rows of a matrix) after
        elimination against the stored basis."""
        return self._eliminate(v)[0]

    def express(self, v):
        """Coefficients of v (a vector, or the rows of a matrix) in the
        stored basis, or None if some vector is outside."""
        w, coeffs = self._eliminate(v)
        if w.any():
            return None
        return coeffs

    def __contains__(self, v) -> bool:
        return not self.reduce(v).any()

    def add(self, v) -> bool:
        """Insert v; returns True if the dimension grew."""
        w = self.reduce(v)
        nz = np.flatnonzero(w)
        if nz.size == 0:
            return False
        piv = int(nz[0])
        w = (w * pow(int(w[piv]), -1, self.p)) % self.p
        # back-eliminate the new pivot from the existing rows
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = (row - c * w) % self.p
        # keep rows ordered by pivot
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < piv:
            pos += 1
        self.rows.insert(pos, w)
        self.pivots.insert(pos, piv)
        return True

    def add_rows(self, vecs) -> np.ndarray:
        """Insert the rows of a matrix at once; returns the echelon rows of
        their part that is new modulo the old space (empty if none)."""
        new, new_pivots = rref(self.reduce(vecs), self.p)
        if new_pivots:
            # the new rows vanish at the old pivots; clear theirs from the old rows
            old = [(row - row[new_pivots] @ new) % self.p for row in self.rows]
            merged = sorted(zip(self.pivots + new_pivots, old + list(new)), key=lambda pr: pr[0])
            self.pivots = [piv for piv, _ in merged]
            self.rows = [row for _, row in merged]
        return new

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.n), dtype=np.int64)
        return np.vstack(self.rows)

    def nonpivot_columns(self) -> list[int]:
        piv = set(self.pivots)
        return [j for j in range(self.n) if j not in piv]

    def intersect(self, other: "FpSpace") -> "FpSpace":
        """Intersection of two row spaces via a kernel computation."""
        A, B = self.matrix(), other.matrix()
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
            and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows))
        )


def eliminate(A: np.ndarray, p: int, ncols: int) -> list[int]:
    """Gauss-Jordan elimination of A in place, with pivots taken only among
    its first ``ncols`` columns.  A holds int64 entries reduced mod p.
    Returns the pivot columns; row i of the result carries the i-th pivot,
    and the rows below the last pivot vanish on the first ``ncols`` columns."""
    pivots: list[int] = []
    col = 0
    for row in range(A.shape[0]):
        live = np.flatnonzero(A[row:, col:ncols].any(axis=0))
        if not live.size:
            break
        col += int(live[0])
        k = row + int(np.flatnonzero(A[row:, col])[0])
        if k != row:
            A[[row, k]] = A[[k, row]]
        A[row] = A[row] * pow(int(A[row, col]), -1, p) % p
        f = A[:, col].copy()
        f[row] = 0
        hit = np.flatnonzero(f)
        A[hit] = (A[hit] - np.outer(f[hit], A[row])) % p
        pivots.append(col)
        col += 1
    return pivots


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a matrix over F_p."""
    if not len(mat):
        return np.zeros((0, 0), dtype=np.int64), []
    A = np.array(mat, dtype=np.int64) % p
    pivots = eliminate(A, p, A.shape[1])
    return A[: len(pivots)], pivots


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
