"""Dense linear algebra over F_p on numpy int64 arrays.

Row-echelon bookkeeping is incremental: an ``FpSpace`` keeps a reduced
echelon basis and absorbs new vectors one at a time, which is what the
span-closure and spinning loops need.  Entries are always reduced mod p.
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
        sp = cls(n, p)
        for row in rows:
            sp.add(row)
        return sp

    @classmethod
    def from_echelon(cls, rows, pivots, n: int, p: int) -> "FpSpace":
        """Trusted constructor for rows already in ascending-pivot echelon
        form with unit pivots and support only at columns >= their pivot
        (single-pass reduction stays correct without mutual reduction)."""
        sp = cls(n, p)
        sp.rows = [as_vec(row, p) for row in rows]
        sp.pivots = list(pivots)
        return sp

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "FpSpace":
        sp = FpSpace(self.n, self.p)
        sp.rows = [r.copy() for r in self.rows]
        sp.pivots = list(self.pivots)
        return sp

    def reduce(self, v) -> np.ndarray:
        """Remainder of v after elimination against the stored basis."""
        w = as_vec(v, self.p).copy()
        for row, piv in zip(self.rows, self.pivots):
            c = w[piv]
            if c:
                w -= c * row
                w %= self.p
        return w

    def express(self, v):
        """Coefficients of v in the stored basis, or None if v is outside."""
        w = as_vec(v, self.p).copy()
        coeffs = np.zeros(len(self.rows), dtype=np.int64)
        for i, (row, piv) in enumerate(zip(self.rows, self.pivots)):
            c = w[piv]
            if c:
                coeffs[i] = c
                w -= c * row
                w %= self.p
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

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.n), dtype=np.int64)
        return np.vstack(self.rows)

    def nonpivot_columns(self) -> list[int]:
        piv = set(self.pivots)
        return [j for j in range(self.n) if j not in piv]

    def union(self, other: "FpSpace") -> "FpSpace":
        out = self.copy()
        for row in other.rows:
            out.add(row)
        return out

    def intersect(self, other: "FpSpace") -> "FpSpace":
        """Intersection of two row spaces via a kernel computation."""
        A, B = self.matrix(), other.matrix()
        if not len(A) or not len(B):
            return FpSpace(self.n, self.p)
        stacked = np.vstack([A, B])
        out = FpSpace(self.n, self.p)
        for coeffs in nullspace(stacked.T, self.p):
            out.add(coeffs[: len(A)] @ A % self.p)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpSpace)
            and self.n == other.n
            and self.p == other.p
            and self.pivots == other.pivots
            and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows))
        )


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a matrix over F_p."""
    sp = FpSpace(np.asarray(mat).shape[1] if len(mat) else 0, p)
    for row in np.asarray(mat, dtype=np.int64) % p:
        sp.add(row)
    return sp.matrix(), list(sp.pivots)


def rank(mat, p: int) -> int:
    return len(rref(mat, p)[1])


def nullspace(mat, p: int) -> list[np.ndarray]:
    """Basis of the right kernel of ``mat`` over F_p."""
    mat = np.asarray(mat, dtype=np.int64) % p
    m, n = mat.shape
    R, pivots = rref(mat, p)
    basis = []
    piv_set = set(pivots)
    for j in range(n):
        if j in piv_set:
            continue
        v = np.zeros(n, dtype=np.int64)
        v[j] = 1
        for i, piv in enumerate(pivots):
            v[piv] = (-R[i, j]) % p
        basis.append(v)
    return basis

