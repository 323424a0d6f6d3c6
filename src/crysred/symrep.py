"""Symmetric-power modules of GL2(F_p) and M2(F_p) over F_p.

The model for the degree-r module is the space of homogeneous two-variable
polynomials F = sum_j c_j X^(r-j) Y^j, stored as the coefficient vector
(c_0, ..., c_r), the one polynomial representation of the package; a
matrix g = (a b; c d) acts by substitution F -> F(aX + cY, bX + dY), a left
action whose matrix is ``SymPower.action_matrix(g)``.

Provided here: the submodule X_(r-1) generated by the second monomial,
built from its classical spanning set and certified stable under the full
matrix monoid, with the submodule X_r generated by X^r read inside it; the
theta-divisibility filtration and the classes modulo theta and theta^2;
the terminal quotient of the degree-r module by (X_(r-1) +
twice-theta-divisible part), computed in the 2p+2 coordinates of the module
modulo theta^2; and the socle and Jordan-Hoelder factors of a torus-graded
module.

X_(r-1) is read on column types, not on (r+1)-long rows.  Rank, monoid
stability and the module action are row relations among the spanning
images h . X^(r-1) Y and their images under the generators, so any matrix
with the same column space gives them exactly.  Entry i of h . X^(r-1) Y,
h = (a b; c d), is sum_t binom(r-1, i-t) a^(r-1-i+t) c^(i-t) m_t, t in
{0, 1}, with m = (b, d).  For 2 <= i <= r-2 every exponent is >= 1, so the
power factor V_(t,c) depends on i only through its class c mod p-1, and
column i is sum_t binom(r-1, i-t) V_(t,c).  The columns of class c thus
span the combinations sum_t beta_t V_(t,c), beta in a basis of the span of
their pairs (binom(r-1, i), binom(r-1, i-1)): at most two columns per
class.  With the edge columns 0, 1, r-1 and r, computed exactly with
0^0 = 1, that is at most 4 + 2(p-1) columns in place of r+1.  The module
comes in the basis T S, S the spanning set and T the row transform of its
column types.  The pairs come from the base-p digits n_m of n = r-1
(Lucas): i = H p^(m+1) + d p^m, 0 < d < p, has the pair B(H) times
(binom(n_m, d), e_m binom(n_m, d-1)), as i-1 has the digits p-1 below
m: e_m = 1 exactly when n's digits below m are all p-1, and B(H) != 0
exactly when H's digits are at most n's above m.  The class of i is d
plus H's digit sum, so counting those H by digit sum mod p-1 gives each
class's directions (m, d) (``_class_pairs``), with nothing sized by r.

X_r lies in X_(r-1), since X^r = (1 1; 0 0) . X^(r-1) Y, and it is the
span of the g . X^r = (aX + cY)^r: c^r (kX + Y)^r with k = a/c if c != 0,
a^r X^r if c = 0.  So X_r is the span of X^r, the first spanning image
S[0], and the p powers (kX + Y)^r = (k k; 1 1) . X^(r-1) Y, read as images
beside the others and monoid-stable by construction.

The theta filtration and the terminal quotient need no r-row basis of the
submodule: g . theta = det(g) theta for every matrix g, so the
twice-theta-divisible part V** is stable under the whole monoid, which
therefore acts on V_r/V**, a module of dimension 2p+2 from r = 2p+1 on
(``_residue_module``).  Its u comes from class sums of binomials read off
characters mod p, and the classes of the spanning images are p products
with u (``_spanning_classes``).  For either submodule, with basis M S,
dim(X n V*) and dim(X n V**) read the ranks of M S's classes there and
modulo theta; the image of X_(r-1) in V_r/V** is their span, and the
terminal quotient is V_r/V** modulo it.

The socle comes from Hom spaces, as in the MeatAxe (Holt and Rees,
"Testing modules for irreducibility", 1994), read by Frobenius reciprocity
for the Borel subgroup (``socle_simples``): the torus weights of the
unipotent-fixed vectors name the candidate simple modules L, and Hom(L, M)
is the nullspace of L's coset relations on the fixed vectors of L's
weight.  The factors are read one Loewy layer at a time.  Span closures
under the full matrix monoid, spun by ``GammaModule.spin`` on the
(r+1)-square action matrices, the r-row theta-multiple spaces and
subquotients remain as the reference the fast engine is tested against;
the other oracles live in ``tests/reference.py``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .arith import digits, padic_val
from .errors import DimensionBoundError, DomainError
from .linalg import FpSpace

JH_DIMENSION_BOUND = 2000

GEN_NAMES = ("u", "w", "d1", "d2")


class JHLabel(NamedTuple):
    """Irreducible label: the s-th symmetric power twisted by det^t."""

    s: int
    t: int

    def render(self) -> str:
        return f"V{self.s}" if self.t == 0 else f"V{self.s}*D^{self.t}"


def jh_label(s: int, t: int, p: int) -> JHLabel:
    if not 0 <= s <= p - 1:
        raise ValueError(f"s out of range: {s}")
    return JHLabel(s, t % (p - 1))


@functools.lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    for g in range(2, p):
        seen, x = set(), 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


# ---------------------------------------------------------------------------
# polynomials


def poly_mul_vec(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Product of homogeneous polynomials as coefficient vectors."""
    return np.convolve(u, v) % p


def theta_vec(p: int) -> np.ndarray:
    """X^p Y - X Y^p as a degree-(p+1) coefficient vector."""
    v = np.zeros(p + 2, dtype=np.int64)
    v[1] = 1
    v[p] = p - 1
    return v


# ---------------------------------------------------------------------------
# the matrix action


class SymPower:
    """Action machinery for the degree-r module, with cached generator matrices."""

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        self._mats: dict[tuple[int, int, int, int], np.ndarray] = {}

    def monomial(self, j: int) -> np.ndarray:
        v = np.zeros(self.r + 1, dtype=np.int64)
        v[j] = 1
        return v

    def action_matrix(self, g) -> np.ndarray:
        key = tuple(int(x) % self.p for x in g)
        M = self._mats.get(key)
        if M is None:
            M = self._build_matrix(key)
            self._mats[key] = M
        return M

    def _build_matrix(self, g: tuple[int, int, int, int]) -> np.ndarray:
        """Column j is (aX + cY)^(r-j) (bX + dY)^j."""
        p, r = self.p, self.r
        a, b, c, d = g
        first = [np.array([1], dtype=np.int64)]
        second = [np.array([1], dtype=np.int64)]
        for _ in range(r):
            first.append(np.convolve(first[-1], np.array([a, c], dtype=np.int64)) % p)
            second.append(np.convolve(second[-1], np.array([b, d], dtype=np.int64)) % p)
        return np.array([np.convolve(first[r - j], second[j]) % p for j in range(r + 1)]).T

    def monoid_generators(self) -> list[tuple[int, int, int, int]]:
        """u, w, diag(1, 0) and diag(g, 1), g a primitive root: every
        diag(c, 1) is a power of the last."""
        return [(1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (primitive_root(self.p), 0, 0, 1)]


def gamma_generators(p: int) -> list[tuple[int, int, int, int]]:
    return [(1, 1, 0, 1), (0, 1, 1, 0), (primitive_root(p), 0, 0, 1), (1, 0, 0, primitive_root(p))]


@functools.lru_cache(maxsize=8)
def sym_power(p: int, r: int) -> SymPower:
    """Bounded cache of action machinery; sweeps touch each degree once."""
    return SymPower(p, r)


def mat_mul(g, h, p: int) -> tuple[int, int, int, int]:
    a, b, c, d = g
    e, f, gg, hh = h
    return (
        (a * e + b * gg) % p,
        (a * f + b * hh) % p,
        (c * e + d * gg) % p,
        (c * f + d * hh) % p,
    )


def check_int64_domain(p: int, r: int) -> None:
    """Projections into V_r/V** sum up to r+2 products of residues in int64
    (``QuotientModule.project_entries`` of a residue, ``witness.QEnv.cls``);
    refuse degrees where such a sum could wrap around.  The classes of
    V_r/V** itself sum p-1 products per entry at any r."""
    if p * p * (r + 2) >= 2**63:
        raise DomainError(f"p*p*(r+2) >= 2^63 at p={p}, r={r}: int64 arithmetic could overflow")


@functools.lru_cache(maxsize=32)
def _pascal(p: int) -> np.ndarray:
    """binom(a, b) mod p for 0 <= a, b < p, read-only."""
    small = np.zeros((p, p), dtype=np.int64)
    small[:, 0] = 1
    for a in range(1, p):
        small[a, 1:] = (small[a - 1, 1:] + small[a - 1, :-1]) % p
    small.flags.writeable = False
    return small


@functools.lru_cache(maxsize=32)
def _power_cycles(p: int) -> np.ndarray:
    """a^e mod p for 0 <= a < p and 0 <= e < p-1, read-only."""
    cyc = np.ones((p, p - 1), dtype=np.int64)
    for e in range(1, p - 1):
        cyc[:, e] = cyc[:, e - 1] * np.arange(p) % p
    cyc.flags.writeable = False
    return cyc


def _power_mod_p(x, e, p: int) -> np.ndarray:
    """x^e mod p elementwise over broadcast arrays of 0 <= x < p and integers
    e, read off ``_power_cycles``, with 0^0 = 1 and 0^e = 0 for e != 0."""
    return _power_cycles(p)[x, e % (p - 1)] * ((x != 0) | (e == 0))


def _binomials(n, i, p: int) -> np.ndarray:
    """binom(n, i) mod p elementwise over broadcast arrays with 0 <= n,
    digit by digit (Lucas); zero where i > n."""
    small = _pascal(p)
    n, i = np.broadcast_arrays(np.asarray(n, dtype=np.int64), np.asarray(i, dtype=np.int64))
    out = np.ones(n.shape, dtype=np.int64)
    while n.any() or i.any():
        out = out * small[n % p, i % p] % p
        n, i = n // p, i // p
    return out


def _edges(r: int) -> list[int]:
    """The monomial indices 0, 1, r-1, r (those in 0..r), the columns where
    a power in a spanning image can have exponent 0."""
    return sorted(i for i in {0, 1, r - 1, r} if 0 <= i <= r)


def _image_parts(hs, r: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The images h . X^(r-1) Y for h = (a, b, c, d) in ``hs``, in the parts
    of the module docstring: their entries at the ``_edges(r)`` columns,
    exactly (0^0 = 1), and V[t][:, m] = a^(r-1-i+t) c^(i-t) m_t for the
    middle indices i of class 2 + m mod p-1."""
    a, b, c, d = (np.array(col, dtype=np.int64)[:, None] % p for col in zip(*hs))
    n, P = r - 1, p - 1
    edges, mid = np.array(_edges(r)), 2 + np.arange(P)
    E, V = 0, []
    for t, m in enumerate([b, d]):
        s = edges - t  # the degree in Y taken from (aX + cY)^(r-1)
        ok = (s >= 0) & (s <= n)
        s = np.where(ok, s, 0)
        binoms = np.array([math.comb(n, int(k)) % p for k in s]) * ok
        E = E + binoms * _power_mod_p(a, n - s, p) % p * _power_mod_p(c, s, p) % p * m
        # exponents >= 1 in the middle: the representatives in 1..p-1 of their classes
        V.append(_power_mod_p(a, (n - mid + t - 1) % P + 1, p)
                 * _power_mod_p(c, (mid - t - 1) % P + 1, p) % p * m % p)
    return E % p, np.stack(V)


def _digit_sum_counts(n, p: int) -> np.ndarray:
    """counts[m, s]: how many H have base-p digits at most n[m+1:], one by
    one, and digit sum s mod p-1; exact in int64 (prod(n + 1) of them)."""
    P, top = p - 1, np.asarray(n)[:, None]
    box = (np.arange(P) <= top).astype(np.int64) + ((np.arange(P) == 0) & (top == P))
    shift = (np.arange(P)[:, None] - np.arange(P)) % P  # a digit h = t mod p-1 adds t to s
    counts = [np.eye(1, P, dtype=np.int64)[0]]  # no digits above the top: H = 0
    for row in box[:0:-1]:
        counts.append(row[shift] @ counts[-1])
    return np.array(counts[::-1])


def _class_pairs(p: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per class 2 + c mod p-1 of the middle indices 2 <= i <= r-2: whether
    a pair (binom(r-1, i), binom(r-1, i-1)) mod p is nonzero, whether the
    pairs span F_p^2, and a nonzero pair if any (column c), off the digits
    of r-1 (module docstring); the edge indices 1, r-1 and r are taken off."""
    P, n, d = p - 1, np.array(digits(r - 1, p) + [0]), np.arange(1, p)
    e = np.cumprod(np.concatenate([[1], n[:-1] == P]))  # n's digits below m all p-1
    dirs = np.stack([_pascal(p)[n[:, None], d], e[:, None] * _pascal(p)[n[:, None], d - 1]])
    cells = _digit_sum_counts(n, p)[:, (np.arange(P)[:, None] + 2 - d) % P]
    cells *= dirs.any(axis=0)[:, None]  # cells[m, c, d-1]: the i of class 2 + c at (m, d)
    for i in _edges(r)[1:]:  # 0 has no pair
        m = padic_val(i, p)
        cells[m, (i - 2) % P, i // p**m % p - 1] -= 1
    live, dirs = cells.transpose(1, 0, 2).reshape(P, -1) > 0, dirs.reshape(2, -1)
    first = dirs[:, live.argmax(axis=1)]
    off = (first[0, :, None] * dirs[1] - first[1, :, None] * dirs[0]) % p != 0  # off its line
    return live.any(axis=1), (live & off).any(axis=1), first


# ---------------------------------------------------------------------------
# span closures and the distinguished submodules


@dataclass
class ClosedSubspace:
    """X_(r-1), built from its classical spanning set S: its basis is the
    rows of ``transform`` @ S, on which ``module`` is the action of the Gamma
    generators.  ``top`` is X_r in those coordinates,
    ``filtration_dims`` the dimensions of X_(r-1) n V*, X_(r-1) n V**,
    X_r n V* and X_r n V**, and ``quotient`` the terminal quotient
    V_r/(X_(r-1) + V**) from r = 2p+1 on (None below)."""

    p: int
    r: int
    transform: np.ndarray
    module: GammaModule
    top: FpSpace
    filtration_dims: tuple[int, int, int, int]
    quotient: QuotientModule | None

    @property
    def dim(self) -> int:
        return len(self.transform)


def span_closure(generators, *, p: int, r: int) -> FpSpace:
    """Smallest subspace containing the degree-r coefficient vectors
    ``generators`` and stable under the full matrix monoid, as an echelon
    ``FpSpace``: their ``GammaModule.spin`` under the (r+1)-square action
    matrices of ``SymPower.monoid_generators``."""
    vecs = [linalg.as_vec(v, p) for v in generators]
    if not vecs:
        raise ValueError("empty generator list")
    symp = sym_power(p, r)
    # u, w, e = diag(1, 0) and d1 = diag(g, 1), in the order of monoid_generators
    mats = dict(zip(("u", "w", "e", "d1"), map(symp.action_matrix, symp.monoid_generators())))
    return GammaModule(p, mats).spin(vecs)


def _spanning_matrices(p: int) -> list[tuple[int, int, int, int]]:
    """Matrices h whose images h . X^(r-1)Y are the classical spanning set
    X^r, Y^r, X (kX + Y)^(r-1) and (X + lY)^(r-1) Y, X^r first."""
    return ([(1, 1, 0, 0), (0, 0, 1, 1)] + [(k, 1, 1, 0) for k in range(p)]
            + [(1, 0, l, 1) for l in range(p)])


def build_X(p: int, r: int) -> ClosedSubspace:
    """Submodule X_(r-1) generated by X^(r-1)Y under the full matrix monoid,
    as the span of its classical spanning set S, the images h . X^(r-1)Y for
    h in ``_spanning_matrices``, with X_r and the theta filtration read
    inside it.

    The span is certified to be the closure: it contains the generator, and
    (g h) . X^(r-1)Y lies in it for every spanning image and every g among
    the Gamma generators and diag(1, 0), which generate the monoid.  The
    same images give the Gamma action on the basis T S, T the row transform
    of S.  Rank, stability and action are row relations, read off the
    spanning set and all five image sets on their column types: no
    (r+1)-long row is formed.  X_r is the span of X^r = S[0] and the p
    powers (kX + Y)^r, read as further images under the same residual
    check (see the module docstring).  The theta filtration and the
    terminal quotient read S's classes in V_r/V** (``_spanning_classes``):
    the echelon basis of X_(r-1)'s image there, formed for the filtration,
    is the submodule Q is taken modulo, certified by the check above."""
    if r < 1:
        raise ValueError("need r >= 1")
    check_int64_domain(p, r)
    T, module, top = _closure_on_column_types(p, r)
    # X_(r-1) has basis T S, and X_r the rows of top times it
    ambient = _residue_module(p, r)
    dims, image = _filtration_dims(_spanning_classes(ambient), (T, top.matrix() @ T % p), p, r)
    quotient = QuotientModule(r, ambient, image) if r > 2 * p else None
    return ClosedSubspace(p, r, T, module, top, dims, quotient)


def _closure_on_column_types(p: int, r: int) -> tuple[np.ndarray, GammaModule, FpSpace]:
    """``build_X``'s certified closure on column types: the row transform T
    of S, the Gamma action on T S, and X_r in those coordinates.  Its arrays
    of images are freed before V_r/V** is built."""
    hs = _spanning_matrices(p)
    gens = gamma_generators(p) + [(1, 0, 0, 0)]
    powers = [(k, k, 1, 1) for k in range(p)]  # (k k; 1 1) . X^(r-1) Y = (kX + Y)^r
    E, V = _image_parts(hs + [mat_mul(g, h, p) for g in gens for h in hs] + powers, r, p)
    nz, full, first = _class_pairs(p, r)  # a class on a line keeps one combination
    line = nz & ~full
    vecs = np.hstack([E, *V[:, :, full], (first[:, None, line] * V[:, :, line]).sum(axis=0) % p])
    S, images = vecs[: len(hs)], vecs[len(hs):]
    B, T, pivots = linalg.row_transform(S, p)  # echelon basis B = T S
    coords = images[:, pivots]
    if ((images - coords @ B) % p).any():
        raise ArithmeticError(f"spanning set of X_(r-1) is not monoid-stable at p={p}, r={r}")
    # generator g's block of coords holds the images g . (h . v0); diag(1, 0) is last
    blocks = np.split(coords[: -len(powers)], len(gens))
    module = GammaModule(p, {name: (T @ block % p).T for name, block in zip(GEN_NAMES, blocks)})
    top = FpSpace.from_rows(np.vstack([S[:1, pivots], coords[-len(powers):]]), len(pivots), p)
    return T, module, top


# ---------------------------------------------------------------------------
# the theta filtration


def theta_multiple_space(p: int, r: int, k: int) -> FpSpace:
    """Subspace of degree-r polynomials divisible by theta^k."""
    s = r - k * (p + 1)
    if s < 0:
        return FpSpace(r + 1, p)
    tk = theta_vec(p)
    for _ in range(k - 1):
        tk = poly_mul_vec(tk, theta_vec(p), p)
    # theta^k * X^(s-m) Y^m is theta^k shifted by m: already echelon, with a
    # leading 1 at column m + k.  Back-substitution, bottom-up, reduces it;
    # row m meets the pivots of the next kp rows only
    rows = np.zeros((s + 1, r + 1), dtype=np.int64)
    for m in range(s + 1):
        rows[m, m : m + len(tk)] = tk
    for m in range(s - 1, -1, -1):
        top = min(m + k * p, s)
        rows[m] = (rows[m] - rows[m, m + k + 1 : top + k + 1] @ rows[m + 1 : top + 1]) % p
    return FpSpace.from_echelon(rows, range(k, s + k + 1), r + 1, p)


def filtration_spaces(p: int, r: int) -> tuple[FpSpace, FpSpace]:
    """Bases of the theta- and theta^2-divisible subspaces of degree r."""
    return theta_multiple_space(p, r, 1), theta_multiple_space(p, r, 2)


def _theta_coordinates(p: int, r: int, k: int) -> np.ndarray:
    """The monomials outside k..r-kp, coordinates modulo theta^k, since
    theta^k X^(s-m) Y^m leads at index m + k: (p+1)k of them once r >= kp+k-1."""
    return np.concatenate([np.arange(min(k, r + 1)), np.arange(max(k, r - k * p + 1), r + 1)])


def theta_index_classes(idx, p: int, r: int, k: int) -> np.ndarray:
    """The classes of the monomials e_i, i in the 1-d array ``idx``, modulo
    theta^k (k in {1, 2}), as rows in the ``_theta_coordinates``, in O(1)
    each, so no (r+1)-long row is built.  A coordinate monomial is its own
    class; by e_i = e_(i+p-1) (k = 1) and e_i = 2 e_(i+p-1) - e_(i+2p-2)
    (k = 2), a middle one i = j - m(p-1), j the coordinate in
    r-kp+1..r-kp+p-1 of its class mod p-1, is e_j (k = 1) or
    (1+m) e_j - m e_(j+p-1) (k = 2).  Below degree k(p+1) - 1 theta^k
    divides nothing, and every monomial is its own class."""
    idx = np.asarray(idx, dtype=np.int64)
    if r < k * (p + 1) - 1:
        return np.eye(r + 1, dtype=np.int64)[idx]
    P, lo = p - 1, r - k * p + 1  # lo: the first upper coordinate
    m = np.where(idx < k, 0, np.maximum(0, (lo - idx + P - 1) // P))
    pos = np.where(idx < k, idx, idx + m * P - lo + k)
    rows, at = np.zeros((len(idx), (p + 1) * k), dtype=np.int64), np.arange(len(idx))
    rows[at, pos] = 1 if k == 1 else (1 + m) % p
    if k == 2:
        up = m > 0
        rows[at[up], pos[up] + P] = -m[up] % p
    return rows


def _filtration_dims(classes, bases, p: int, r: int) -> tuple[tuple[int, ...], FpSpace]:
    """dim(X n V*) and dim(X n V**) for each submodule X with basis M S in
    ``bases``, S the spanning set with ``classes`` in V_r/V**: X's dimension
    less the rank of M S's classes modulo theta and theta^2.  Since V** lies
    in V*, the classes modulo theta are those modulo theta^2 times the
    classes modulo theta of the coordinates of V_r/V**, so the rank modulo
    theta is that of the echelon basis modulo theta^2 times them.  Also the
    first submodule's image in V_r/V**, that echelon basis."""
    R1 = theta_index_classes(_theta_coordinates(p, r, 2), p, r, 1)
    dims, images = (), []
    for M in bases:
        B, pivots = linalg.rref(M @ classes % p, p)
        dims += (len(M) - linalg.rank(B @ R1 % p, p), len(M) - len(pivots))
        images.append(FpSpace.from_echelon(B, pivots, classes.shape[1], p))
    return dims, images[0]


# ---------------------------------------------------------------------------
# abstract modules with the standard generator action


class GammaModule:
    """A finite-dimensional module given by matrices for the generators
    u = (1 1; 0 1), w = (0 1; 1 0), d1 = diag(g, 1), d2 = diag(1, g).
    ``dim`` and ``spin`` read only square matrices keyed with 'u' among any
    others, so ``span_closure`` spins a monoid with them; the other methods
    need the four generators."""

    def __init__(self, p: int, mats: dict[str, np.ndarray]):
        self.p = p
        self.mats = {k: np.asarray(m, dtype=np.int64) % p for k, m in mats.items()}
        self.dim = self.mats["u"].shape[0] if self.mats["u"].size else 0

    def spin(self, vecs) -> FpSpace:
        """Smallest subspace containing the given vectors and stable under the
        module's matrices: each round applies every one to the rows the last
        round added.  Span closures are spins."""
        space = FpSpace(self.dim, self.p)
        new = space.add_rows(np.asarray(vecs, dtype=np.int64).reshape(-1, self.dim))
        while len(new):
            new = space.add_rows(np.vstack([new @ M.T for M in self.mats.values()]))
        return space

    def restrict(self, sub: FpSpace) -> "GammaModule":
        B = sub.matrix()
        mats = {}
        for name in GEN_NAMES:
            coeffs = sub.express(B @ self.mats[name].T)
            if coeffs is None:
                raise ValueError("subspace is not invariant")
            mats[name] = coeffs.T
        return GammaModule(self.p, mats)

    def quotient(self, sub: FpSpace) -> tuple["GammaModule", Callable[[np.ndarray], np.ndarray]]:
        """Quotient module and the projection map onto its coordinates."""
        nonpiv = sub.nonpivot_columns()

        def project(v: np.ndarray) -> np.ndarray:
            return sub.reduce(v)[..., nonpiv]

        # column j of each matrix: the class of the image of basis vector nonpiv[j]
        mats = {name: project(self.mats[name][:, nonpiv].T).T for name in GEN_NAMES}
        return GammaModule(self.p, mats), project

    def torus_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonals of d1 and d2.  Raises ArithmeticError unless both act
        diagonally, i.e. unless the coordinates are torus weight vectors."""
        for name in ("d1", "d2"):
            if (self.mats[name] != np.diag(np.diagonal(self.mats[name]))).any():
                raise ArithmeticError(f"{name} is not diagonal: the module is not torus-graded")
        return np.diagonal(self.mats["d1"]), np.diagonal(self.mats["d2"])


class SubquotientModule(GammaModule):
    """W / U for subspaces U <= W of the degree-r module (W = None: the
    whole module), with projection from ambient coefficient vectors.  It
    works on (r+1)-long rows and is the reference for ``QuotientModule``."""

    def __init__(self, symp: SymPower, W: FpSpace | None, U: FpSpace | None):
        self.symp = symp
        p, r = symp.p, symp.r
        self.U = U if U is not None else FpSpace(r + 1, p)
        if W is None:
            # ambient quotient: coordinates are the non-pivot monomials of U
            self._comp = None
            self._cols = self.U.nonpivot_columns()
            basis = np.eye(r + 1, dtype=np.int64)[self._cols]
        else:
            # coordinates: an echelon basis of W reduced modulo U
            self._comp = FpSpace.from_rows(self.U.reduce(W.matrix()), r + 1, p)
            basis = self._comp.matrix()
        mats = {name: self._project_vec(basis @ symp.action_matrix(g).T).T
                for name, g in zip(GEN_NAMES, gamma_generators(p))}
        super().__init__(p, mats)

    def _project_vec(self, v: np.ndarray) -> np.ndarray:
        w = self.U.reduce(v)
        if self._comp is None:
            return w[..., self._cols]
        coeffs = self._comp.express(w)
        if coeffs is None:
            raise ValueError("vector not in the subquotient")
        return coeffs

    def project(self, vec) -> np.ndarray:
        """Class of ambient coefficient vectors (rows) in module coordinates."""
        return self._project_vec(linalg.as_vec(vec, self.p))


def weight_module(p: int, s: int, t: int) -> GammaModule:
    """Model of the irreducible with label (s, t) on degree-s polynomials,
    the determinant twist entering as a scalar."""
    symp = sym_power(p, s)
    return GammaModule(p, {name: symp.action_matrix(g) * pow(g[0] * g[3] - g[1] * g[2], t, p)
                           for name, g in zip(GEN_NAMES, gamma_generators(p))})


# ---------------------------------------------------------------------------
# socle and Jordan-Hoelder decomposition by Hom spaces


def _weight_candidates(alpha: int, beta: int, p: int) -> list[JHLabel]:
    """Labels whose highest-weight vector has torus weight (g^alpha, g^beta)."""
    s0, t = (alpha - beta) % (p - 1), beta % (p - 1)
    return [JHLabel(s, t) for s in (s0, s0 + p - 1) if s <= p - 1]


def _coset_relations(p: int, s: int) -> np.ndarray:
    """The p-s relations of L_s (see ``socle_simples``) as the rows of a
    (p-s) x (p+1) matrix, on x = X^s and the u^lambda w x, lambda = 0..p-1:
    row k is [k = p-1-s], then lambda^k (0^0 = 1)."""
    R = np.zeros((p - s, p + 1), dtype=np.int64)
    R[:, 1:] = _power_mod_p(np.arange(p), np.arange(p - s)[:, None], p)
    R[-1, 0] = 1
    return R


def _hom_images(Z: np.ndarray, s: int, p: int) -> np.ndarray:
    """Z = [C, u^lambda w C for lambda in F_p] for the U-fixed vectors C of
    L_s's weight: the images u^lambda w v, lambda = 0..s, of L_s's basis
    (lambda X + Y)^s, v over a basis of the combinations of C's columns on
    which the relations hold, i.e. of Hom(L_s, M)."""
    conds = (_coset_relations(p, s) @ Z.reshape(p + 1, -1) % p).reshape(-1, Z.shape[2])
    theta = np.array(linalg.nullspace(conds[conds.any(axis=1)], p)).reshape(-1, Z.shape[2])
    return (np.tensordot(theta, Z[1 : s + 2], axes=(1, 2)) % p).reshape(-1, Z.shape[1])


def socle_simples(mod: GammaModule) -> tuple[FpSpace, list[tuple[JHLabel, np.ndarray]]]:
    """The socle of a torus-graded module M (see ``GammaModule.torus_weights``)
    as one echelon form, and per label, sorted, the rows spanning its
    isotypic component: the images of L's basis under a basis of
    Hom(L, M), so L's multiplicity is len(rows) // (s+1).

    Hom(L, M) comes from Frobenius reciprocity for the Borel subgroup B,
    generated by u, d1 and d2 (Alperin, Local Representation Theory, 1986,
    section 8).  G = GL2(F_p) is B and the p cosets u^lambda w B.  L = L_s
    tensor det^t is a quotient of Ind_B^G chi, chi the character of B on
    its U-fixed vector x = X^s, and Hom_G(Ind_B^G chi, M) = M^U_chi; so v in
    M^U_chi is the image of x under a map L -> M exactly when the relations
    among x and the u^lambda w x = (lambda X + Y)^s hold for v and the
    u^lambda w v.  As sum_lambda lambda^m is -1 if (p-1) | m and m > 0, else
    0 (0^0 = 1), the relations are, for k = 0..p-1-s,

        sum_lambda lambda^k (lambda X + Y)^s + [k = p-1-s] X^s = 0:

    p-s independent ones (Vandermonde), dim Ind - dim L, so all of them
    (``_coset_relations``).  The twist moves to M, Hom(L, M) = Hom(L_s, M
    tensor det^-t), which changes only w, by (-1)^t (det u = 1, det w = -1).
    A basis vector v of their nullspace (``_hom_images``) gives the rows
    u^lambda w v, lambda = 0..s, the images of L's basis (lambda X + Y)^s
    (Vandermonde, and binom(s, i) != 0 for s <= p-1).  No model of L is built.

    The nullspace basis of u - 1 consists of weight vectors (the kernel is
    torus-stable, with one vector per choice of free-column entries), so a
    row's weight is read at its first nonzero entry, and each weight names
    one or two labels.  Raises ArithmeticError unless the rows are
    independent and each label's rows span a submodule, as the argument
    above guarantees."""
    p = mod.p
    fixed = linalg.nullspace(mod.mats["u"] - np.eye(mod.dim, dtype=np.int64), p)
    if not fixed:
        if mod.dim:
            raise ArithmeticError("nonzero module without unipotent-fixed vectors")
        return FpSpace(0, p), []
    B = np.array(fixed)
    diags = np.array(mod.torus_weights())
    weights = diags[:, (B != 0).argmax(axis=1)]  # on d1 and d2, at each row's first nonzero
    if ((B * diags[:, None] - weights[..., None] * B) % p).any():
        raise ArithmeticError("torus is not diagonal on the unipotent-fixed space")
    g = primitive_root(p)
    dlog = {pow(g, e, p): e for e in range(p - 1)}
    spaces: dict[tuple[int, int], list[np.ndarray]] = {}
    for row, e1, e2 in zip(B, *weights):
        spaces.setdefault((dlog[int(e1)], dlog[int(e2)]), []).append(row)
    found: list[tuple[JHLabel, np.ndarray]] = []
    for (alpha, beta), rows in spaces.items():
        C = np.array(rows).T  # then u^lambda w C in M tensor det^-t, t = beta
        Z = [C, (-1) ** beta * mod.mats["w"] @ C % p]
        for _ in range(p - 1):
            Z.append(mod.mats["u"] @ Z[-1] % p)
        for label in _weight_candidates(alpha, beta, p):
            images = _hom_images(np.array(Z), label.s, p)
            if len(images):
                found.append((label, images))
    found.sort(key=lambda pair: pair[0])
    images = np.vstack([B[:0], *(rows for _, rows in found)])
    basis, T, pivots = linalg.row_transform(images, p)  # basis = T images
    if len(pivots) != len(images):
        raise ArithmeticError(f"the {len(images)} images of the socle's Hom maps "
                              f"span only {len(pivots)} dimensions")
    socle = FpSpace.from_echelon(basis, pivots, mod.dim, p)
    # each g . image must lie in the socle, on the images of its own label
    moved = np.stack([images @ mod.mats[name].T % p for name in GEN_NAMES])
    labels = np.repeat(np.arange(len(found)), [len(rows) for _, rows in found])
    if (socle.reduce(moved).any()
            or (moved[..., pivots] @ T % p * (labels[:, None] != labels)).any()):
        raise ArithmeticError("an isotypic component of the socle is not a submodule")
    return socle, found


def jh_decompose(mod: GammaModule) -> tuple[Counter, Counter]:
    """The multisets of irreducible labels of a module's Jordan-Hoelder
    factors and of its socle.  Each step passes to the quotient by the
    socle that ``socle_simples`` returns, so there is one socle search per
    Loewy layer, and the last layer, a socle that is the whole module, forms
    no quotient.  Refuses a module of dimension above ``JH_DIMENSION_BOUND``."""
    if mod.dim > JH_DIMENSION_BOUND:
        raise DimensionBoundError(f"module dimension {mod.dim} exceeds bound {JH_DIMENSION_BOUND}")
    layers: list[Counter] = []
    current = mod
    while current.dim > 0:
        socle, simples = socle_simples(current)
        if not simples:
            raise ArithmeticError("no simple submodule found")
        layers.append(Counter({label: len(rows) // (label.s + 1) for label, rows in simples}))
        if socle.dim == current.dim:
            break
        current, _ = current.quotient(socle)
    return sum(layers, Counter()), layers[0] if layers else Counter()


def gamma_iso(
    src: GammaModule, src_gen: np.ndarray, dst: GammaModule, dst_gen: np.ndarray
) -> np.ndarray:
    """Matrix T of the equivariant isomorphism pinned by src_gen -> dst_gen.
    src_gen is spun in src, one ``FpSpace.add`` per vector x_i = g x_parent,
    and each step is replayed on dst_gen as y_i = g y_parent, so T = Y X^-1;
    T is then checked against the four generators and to be bijective."""
    if src.dim != dst.dim:
        raise ValueError("dimension mismatch")
    p = src.p
    space = FpSpace(src.dim, p)
    xs, ys = [], []
    work = [(np.asarray(src_gen) % p, np.asarray(dst_gen) % p)]
    while work:
        x, y = work.pop()
        if space.add(x):
            xs.append(x)
            ys.append(y)
            work += [(src.mats[name] @ x % p, dst.mats[name] @ y % p) for name in GEN_NAMES]
    if space.dim != src.dim:
        raise ValueError("generator does not generate the source module")
    T = np.array(ys).T @ linalg.row_transform(np.array(xs).T, p)[1] % p
    if any(((T @ src.mats[name] - dst.mats[name] @ T) % p).any() for name in GEN_NAMES):
        raise ValueError("constructed map is not equivariant")
    if linalg.rank(T, p) != src.dim:
        raise ValueError("constructed map is not invertible")
    return T


# ---------------------------------------------------------------------------
# the terminal quotient


def _class_sums_mod_p(N: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The sums of binom(N, i) and of i binom(N, i) over i = rho mod p-1,
    mod p, row rho and one column per N >= 0 in ``N``: the characters
    -sum_lambda lambda^(-rho) (1 + lambda)^N and -sum_lambda lambda^(-rho)
    N lambda (1 + lambda)^(N-1), lambda in F_p^*, since sum_lambda lambda^m
    is -1 if (p-1) | m, else 0.  ``arith._step_class_sums`` reads the first
    mod p^k, but with one row of lifts per (degree, class) where this form
    multiplies one character matrix: at k = 1 on the coordinates of V_r/V**
    (2-core x86 VM) it took 467 us to 44 us here at (p, r) = (23, 502) and
    111 ms to 19 ms at (211, 1000)."""
    P, cyc, lam = p - 1, _power_cycles(p), np.arange(1, p)
    base = (1 + lam[:, None]) % p  # 0 at lambda = -1, where only 0^0 = 1 survives
    chars = cyc[lam, -np.arange(P)[:, None] % P]  # lambda^(-rho)
    sums = -(chars @ np.hstack([_power_mod_p(base, N, p),
                                N % p * lam[:, None] * _power_mod_p(base, N - 1, p) % p])) % p
    return sums[:, : len(N)], sums[:, len(N):]


def _residue_u(p: int, r: int, c: np.ndarray) -> np.ndarray:
    """u on V_r/V**, c its coordinates: column j is the class of
    X^(r-c_j) (X + Y)^(c_j) = sum_i binom(c_j, i) e_i, with no (r+1)-long row.
    Its entries at the coordinates are binomials by Lucas.  A middle index i
    of class rho mod p-1 has the class (1+m) e_J - m e_(J+p-1), J the
    coordinate in r-2p+1..r-p-1 of class rho and m = (J - i)/(p-1) = i - J
    mod p, so the middle indices of class rho add e_J (S0 + W) - e_(J+p-1) W,
    W = S1 - J S0, for S0 and S1 the sums of binom(c_j, i) and
    i binom(c_j, i) over them: the ``_class_sums_mod_p`` less the
    coordinate indices."""
    K = _binomials(c, c[:, None], p)
    if r < 2 * p + 2:  # every monomial is a coordinate
        return K
    P, lo = p - 1, r - 2 * p + 1
    T0, T1 = _class_sums_mod_p(c, p)
    at = c % P == np.arange(P)[:, None]  # the coordinates of each class
    S0, S1 = (T0 - at @ K) % p, (T1 - at @ (c[:, None] % p * K)) % p
    shift = (np.arange(P) - lo) % P  # J = lo + shift, at coordinate 2 + shift
    W = (S1 - (lo + shift)[:, None] % p * S0) % p
    u = K.copy()
    u[2 + shift] += S0 + W
    u[2 + P + shift] -= W
    return u % p


def _residue_module(p: int, r: int) -> GammaModule:
    """V_r/V**, on which the whole matrix monoid acts (g . theta = det(g)
    theta), in the coordinates ``_theta_coordinates(p, r, 2)``: u, w, d1,
    d2 and e = diag(1, 0), column j of each the class of g . X^(r-c_j) Y^(c_j)."""
    c, g = _theta_coordinates(p, r, 2), primitive_root(p)
    return GammaModule(p, {
        "u": _residue_u(p, r, c),
        "w": theta_index_classes(r - c, p, r, 2).T,
        "d1": np.diag([pow(g, r - j, p) for j in c.tolist()]),
        "d2": np.diag([pow(g, j, p) for j in c.tolist()]),
        # e fixes X^r, a coordinate monomial, and kills every other monomial
        "e": np.diag((c == 0).astype(np.int64)),
    })


def _spanning_classes(ambient: GammaModule) -> np.ndarray:
    """The classes in V_r/V** (``_residue_module``) of the images of
    ``_spanning_matrices``, in its order: X^r = e_0, Y^r = w e_0,
    X (kX + Y)^(r-1) = u^k w e_1 and (X + kY)^(r-1) Y = w u^k w e_1."""
    p, u, w = ambient.p, ambient.mats["u"], ambient.mats["w"]
    rows = [w[:, 1]]
    for _ in range(p - 1):
        rows.append(u @ rows[-1] % p)
    Y = np.array(rows)
    return np.vstack([np.eye(1, len(u), dtype=np.int64), w[:, :1].T, Y, Y @ w.T % p])


class QuotientModule(GammaModule):
    """V_r / (X + V**), X the second-monomial submodule: the module
    ``ambient``, V_r/V** (``_residue_module``), modulo ``image``, an echelon
    basis of X's image there.  No r-row basis of X is built."""

    def __init__(self, r: int, ambient: GammaModule, image: FpSpace):
        self.r = r
        self.cols = _theta_coordinates(ambient.p, r, 2)
        mod, self.project_coords = ambient.quotient(image)
        super().__init__(ambient.p, mod.mats)

    def project_entries(self, rows, idx, vals, n: int) -> np.ndarray:
        """Classes of n ambient degree-r rows, given by their entries (row,
        monomial index, value), in module coordinates.  Each distinct
        monomial goes to its class modulo theta^2 by
        ``theta_index_classes`` and is projected once, and each row sums its
        entries' images, so no (r+1)-long row is built."""
        uniq, where = np.unique(idx, return_inverse=True)
        images = self.project_coords(theta_index_classes(uniq, self.p, self.r, 2))
        out = np.zeros((n, self.dim), dtype=np.int64)
        np.add.at(out, np.asarray(rows), images[where] * (np.asarray(vals) % self.p)[:, None])
        return out % self.p

    def star_image(self) -> FpSpace:
        """Image of the theta-divisible subspace inside the quotient: the
        kernel of the classes modulo theta on V_r/V**, projected."""
        R1 = theta_index_classes(self.cols, self.p, self.r, 1)
        kernel = np.reshape(linalg.nullspace(R1.T, self.p), (-1, len(self.cols)))
        return FpSpace.from_rows(self.project_coords(kernel), self.dim, self.p)


def quotient_Q(p: int, r: int) -> QuotientModule:
    """The terminal quotient V_r/(X + V**), X the second-monomial submodule.
    X's image in V_r/V** is the span of the classes of its spanning set
    (``_spanning_classes``): that span contains the class of X^(r-1) Y,
    lies in the image, and is certified stable under u, w, d1, d2 and
    e = diag(1, 0), which generate the monoid, by one reduce; so it is the
    whole image, and X itself is never built.  Refuses r < 2p+1, and
    degrees where the int64 class sums of a projection could overflow."""
    if r < 2 * p + 1:
        raise DomainError(f"need r >= 2p+1; got r={r}, p={p}")
    check_int64_domain(p, r)
    ambient = _residue_module(p, r)
    image = FpSpace.from_rows(_spanning_classes(ambient), len(ambient.mats["u"]), p)
    moved = np.vstack([np.eye(1, image.n, 1, dtype=np.int64)]  # X^(r-1) Y
                      + [image.rows @ M.T % p for M in ambient.mats.values()])
    if image.reduce(moved).any():
        raise ArithmeticError(f"the spanning classes of X's image in V_r/V** are not "
                              f"monoid-stable at p={p}, r={r}")
    return QuotientModule(r, ambient, image)
