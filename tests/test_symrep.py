import itertools
import math
import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crysred import symrep
from crysred.arith import _step_class_sums, digit_sum, digits
from crysred.classify import case_descriptor, predict_dim_X
from crysred.errors import DomainError
from crysred.linalg import FpSpace, eliminate, nullspace, rank, row_transform, rref
from crysred.report import structure_report
from crysred.symrep import (
    GEN_NAMES,
    JHLabel,
    SubquotientModule,
    build_X,
    check_int64_domain,
    filtration_spaces,
    gamma_generators,
    gamma_iso,
    jh_decompose,
    jh_label,
    mat_mul,
    quotient_Q,
    socle_simples,
    span_closure,
    sym_power,
    theta_index_classes,
    theta_vec,
    weight_module,
)
from reference import (
    build_X_rows,
    class_pairs_by_columns,
    dense_classes,
    eliminate_by_hit_rows,
    filtration_dims_by_columns,
    gamma_iso_by_graph_spin,
    hom_maps_by_spin,
    insert_vector,
    quotient_by_spin,
    residue_module_by_rows,
    standard_spanning_set,
    theta_classes,
    theta_divides,
    theta_divides_criterion,
    unipotent_fixed,
    union,
)


def x_rows(X) -> np.ndarray:
    """X_(r-1)'s basis T S as (r+1)-long rows: its transform times the
    classical spanning set."""
    return X.transform @ np.array(standard_spanning_set(X.p, X.r, "second")) % X.p


def top_rows(X) -> np.ndarray:
    """X_r's echelon basis in X's coordinates, as (r+1)-long rows."""
    return X.top.matrix() @ x_rows(X) % X.p


def x_space(X) -> FpSpace:
    return FpSpace.from_rows(x_rows(X), X.r + 1, X.p)


def top_space(X) -> FpSpace:
    return FpSpace.from_rows(top_rows(X), X.r + 1, X.p)


def module_on_rows(rows: np.ndarray, p: int, r: int) -> dict[str, np.ndarray] | None:
    """The Gamma generators on the independent rows ``rows``: column i of
    each matrix holds the coordinates of g . rows[i] in the rows, or None
    when an image leaves their span."""
    B, T, pivots = row_transform(rows, p)  # B = T rows
    if len(pivots) != len(rows):
        return None
    symp, mats = sym_power(p, r), {}
    for name, g in zip(GEN_NAMES, gamma_generators(p)):
        images = rows @ symp.action_matrix(g).T % p
        coords = images[:, pivots]
        if ((images - coords @ B) % p).any():
            return None
        mats[name] = (coords @ T % p).T
    return mats


def frobenius_twist_check(p: int, u: int, n: int) -> bool:
    """Raising variables to the p^n power identifies the top-monomial module
    in degree u with the one in degree p^n u; checks ranks and a basis map."""
    if u % p == 0 or n < 1:
        raise ValueError("need p coprime to u and n >= 1")
    r = p**n * u
    Xu = build_X(p, u)
    Xr = build_X(p, r)
    if Xu.top.dim != Xr.top.dim:
        return False
    stretched, target = FpSpace(r + 1, p), top_space(Xr)
    for row in top_rows(Xu):
        img = np.zeros(r + 1, dtype=np.int64)
        img[np.arange(u + 1) * p**n] = row
        if img not in target:
            return False
        stretched.add(img)
    return stretched.dim == Xu.top.dim


def _conjugated_weight_module():
    """weight_module(5, 3, 2), a copy of it in scrambled (not torus-graded)
    coordinates, and the change of basis P."""
    p = 5
    m1 = weight_module(p, 3, 2)
    P = np.array([[1, 2, 0, 4], [0, 1, 0, 0], [3, 0, 1, 0], [0, 0, 0, 1]], dtype=np.int64)
    Pinv = row_transform(P, p)[1]
    m2 = symrep.GammaModule(p, {k: P @ v @ Pinv % p for k, v in m1.mats.items()})
    return m1, m2, P


def _spin_by_worklist(mod, vecs) -> FpSpace:
    """Vector-at-a-time spin, the reference for GammaModule.spin."""
    space = FpSpace(mod.dim, mod.p)
    work = [v for v in (np.asarray(v, dtype=np.int64) % mod.p for v in vecs) if space.add(v)]
    while work:
        v = work.pop()
        for name in symrep.GEN_NAMES:
            w = mod.mats[name] @ v % mod.p
            if space.add(w):
                work.append(w)
    return space


def _lines(vectors: list[np.ndarray], p: int, cap: int = 20000):
    """Representatives of the lines in the span of independent vectors
    (leading coefficient normalized to 1)."""
    k = len(vectors)
    if k == 1:
        yield vectors[0] % p
        return
    if (p**k - 1) // (p - 1) > cap:
        raise ArithmeticError("weight space too large to enumerate lines")
    for i in range(k):
        for tail in itertools.product(range(p), repeat=k - 1 - i):
            v = vectors[i] % p
            for j, c in enumerate(tail):
                v = (v + c * vectors[i + 1 + j]) % p
            yield v


def _socle_by_line_enumeration(mod):
    """Every simple submodule, found by spinning each line of each
    highest-weight space of the unipotent-fixed vectors and keeping the
    spans whose own fixed space is a line; deduplicated.  The reference
    for the Hom-space ``socle_simples``, with weights read off the torus
    diagonal."""
    p = mod.p
    fixed = unipotent_fixed(mod)
    if fixed.dim == 0:
        if mod.dim:
            raise ArithmeticError("nonzero module without unipotent-fixed vectors")
        return []
    B = fixed.matrix()
    weights = []
    for diag in mod.torus_weights():
        w = diag[fixed.pivots]
        if ((B * diag - w[:, None] * B) % p).any():
            raise ArithmeticError("torus is not diagonal on the unipotent-fixed space")
        weights.append(w)
    g = symrep.primitive_root(p)
    dlog = {pow(g, e, p): e for e in range(p - 1)}
    spaces = {}
    for row, e1, e2 in zip(B, *weights):
        spaces.setdefault((dlog[int(e1)], dlog[int(e2)]), []).append(row)
    found, seen = [], set()
    for (alpha, beta), ambient in sorted(spaces.items()):
        cands = symrep._weight_candidates(alpha, beta, p)
        for line in _lines(ambient, p):
            span = mod.spin([line])
            if unipotent_fixed(mod.restrict(span)).dim != 1:
                continue
            match = [c for c in cands if c.s + 1 == span.dim]
            if not match:
                raise ArithmeticError(
                    f"simple submodule of dim {span.dim} matches no label "
                    f"of weight ({alpha}, {beta})"
                )
            key = span.matrix().tobytes()
            if key not in seen:
                seen.add(key)
                found.append((match[0], span))
    found.sort(key=lambda lab_sp: (lab_sp[1].dim, lab_sp[0], lab_sp[1].matrix().tobytes()))
    return found


def _socle_by_weight_search(mod):
    """The (p-1)^2 kernel search for highest-weight lines that the line
    enumeration replaced by reading weights off the torus diagonal; the
    second reference."""
    p = mod.p
    fixed = unipotent_fixed(mod)
    if fixed.dim == 0:
        return []
    g = symrep.primitive_root(p)
    B = fixed.matrix()
    D = {name: np.array([fixed.express(mod.mats[name] @ row % p) for row in B]).T for name in ("d1", "d2")}
    eye = np.eye(fixed.dim, dtype=np.int64)
    found, seen = [], set()
    for alpha in range(p - 1):
        for beta in range(p - 1):
            ker = nullspace(np.vstack([(D["d1"] - pow(g, alpha, p) * eye) % p,
                                       (D["d2"] - pow(g, beta, p) * eye) % p]), p)
            cands = symrep._weight_candidates(alpha, beta, p)
            for line in (_lines([c @ B % p for c in ker], p) if ker else []):
                span = mod.spin([line])
                if unipotent_fixed(mod.restrict(span)).dim != 1:
                    continue
                key = span.matrix().tobytes()
                if key not in seen:
                    seen.add(key)
                    found.append((next(c for c in cands if c.s + 1 == span.dim), span))
    found.sort(key=lambda lab_sp: (lab_sp[1].dim, lab_sp[0], lab_sp[1].matrix().tobytes()))
    return found


def _engine_vs_reference(job):
    """Mismatches at (p, r) between the fixed-size engine and the r-row
    reference.  X_(r-1)'s rows are T S, its transform times the classical
    spanning set, and X_r's rows are ``top`` in that basis: each must span
    the span closure of its monomial, be independent, carry its module (for
    X_r, X's module restricted to ``top``) as the generators' action in its
    own coordinates, and agree with the r-row build ``build_X_rows`` up to
    its echelon basis.  Then the four filtration dims against the
    intersections with the theta-multiple spaces, and the quotient-mode
    SubquotientModule by X + V**."""
    p, r = job
    symp = sym_power(p, r)
    X = build_X(p, r)
    bad, spaces = [], {}
    for which, j, rows, module in (("top", 0, top_rows(X), X.module.restrict(X.top)),
                                   ("second", 1, x_rows(X), X.module)):
        ref = span_closure([symp.monomial(j)], p=p, r=r)
        if FpSpace.from_rows(rows, r + 1, p) != ref:
            bad.append(f"{which}: span")
            continue
        mats = module_on_rows(rows, p, r)
        if mats is None or any(not np.array_equal(module.mats[n], mats[n]) for n in GEN_NAMES):
            bad.append(f"{which}: module matrices")
        # the r-row oracle's module is X's in its echelon basis E, rows = C E
        space, oracle = build_X_rows(p, r, which)
        C = rows[:, space.pivots]
        if space != ref or any(((module.mats[n].T @ C - C @ oracle.mats[n].T) % p).any()
                               for n in GEN_NAMES):
            bad.append(f"{which}: r-row oracle")
        spaces[which] = ref
    if r < 2 * p + 1 or bad:
        return [(p, r, b) for b in bad]
    vs, vss = filtration_spaces(p, r)
    ref_dims = tuple(spaces[which].intersect(v).dim for which in ("second", "top")
                     for v in (vs, vss))
    if X.filtration_dims != ref_dims:
        bad.append("filtration dims")
    q = quotient_Q(p, r)
    ref_q = SubquotientModule(symp, None, union(spaces["second"], vss))
    if any(not np.array_equal(q.mats[n], ref_q.mats[n]) for n in symrep.GEN_NAMES):
        bad.append("Q: generator matrices")
    vecs = np.random.default_rng(p * 10000 + r).integers(0, p, size=(8, r + 1))
    if not np.array_equal(dense_classes(q, vecs), ref_q.project(vecs)):
        bad.append("Q: projection")
    rows, idx = np.nonzero(vecs)
    if not np.array_equal(q.project_entries(rows, idx, vecs[rows, idx], 8), ref_q.project(vecs)):
        bad.append("Q: projection by monomial index")
    if q.star_image() != FpSpace.from_rows(ref_q.project(vs.matrix()), ref_q.dim, p):
        bad.append("Q: image of V*")
    return [(p, r, b) for b in bad]


def verify_stability(sub, samples: int = 20, seed: int = 0) -> bool:
    """Re-check stability on random elements of the full matrix monoid."""
    rng = np.random.default_rng(seed)
    symp, space = sym_power(sub.p, sub.r), x_space(sub)
    mats = rng.integers(0, sub.p, size=(samples, 4))
    for g in mats:
        M = symp.action_matrix(tuple(int(x) for x in g))
        for row in space.rows:
            if M @ row % sub.p not in space:
                return False
    return True


class TestLinalg:
    def test_rref_and_rank(self):
        M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        R, piv = rref(M, 5)
        assert piv == [0, 1]
        assert rank(M, 5) == 2

    def test_nullspace(self):
        M = np.array([[1, 2, 3], [0, 1, 1]])
        for v in nullspace(M, 7):
            assert not (M @ v % 7).any()

    def test_space_ops(self):
        sp = FpSpace.from_rows([[1, 1, 0], [0, 1, 1]], 3, 5)
        assert sp.dim == 2
        assert [1, 2, 1] in sp
        assert [1, 0, 0] not in sp
        coeffs = sp.express(np.array([1, 2, 1]))
        assert coeffs is not None
        other = FpSpace.from_rows([[1, 1, 0], [1, 0, 1]], 3, 5)
        inter = sp.intersect(other)
        assert inter.dim == 1
        assert all(row in sp and row in other for row in inter.matrix())

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_space_roundtrips_random(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        n = data.draw(st.integers(2, 8))
        rows = [
            [data.draw(st.integers(0, p - 1)) for _ in range(n)]
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        sp = FpSpace.from_rows(rows, n, p)
        assert sp.dim <= min(len(rows), n)
        for row in rows:
            assert row in sp
            coeffs = sp.express(np.array(row))
            assert coeffs is not None
            assert np.array_equal(coeffs @ sp.matrix() % p, np.array(row) % p)
        # union with itself changes nothing
        assert union(sp, sp) == sp

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_eliminate_matches_hit_row_oracle(self, data):
        # the same array and pivots as the hit-row oracle: on small matrices
        # (at most 12 x 24 entries, the whole-array update) and on large ones
        # (more than 2^12 entries, the hit-row update); with pivots among all
        # columns, among the first ncols, or among those of S in [S | I] (the
        # shape of row_transform); with zero, repeated and sparse rows and
        # columns and empty shapes.  At p = 2^31 - 1 a pivot row left
        # unreduced before the update would overflow int64 (p^3 > 2^63).
        p = data.draw(st.sampled_from([3, 23, 1009, 2**31 - 1]), label="p")
        large = data.draw(st.booleans(), label="large")
        if large:
            k = data.draw(st.integers(40, 80), label="k")
            n = data.draw(st.integers(2**12 // k + 1, 130), label="n")
        else:
            k = data.draw(st.integers(0, 12), label="k")
            n = data.draw(st.integers(0, 12), label="n")
        density = data.draw(st.sampled_from([0.03, 0.3, 1.0]), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        S = rng.integers(0, p, size=(k, n)) * (rng.random((k, n)) < density)
        S[rng.random(k) < 0.2] = 0
        S[:, rng.random(n) < 0.2] = 0
        if k:
            S[rng.integers(0, k, size=k // 3)] = S[rng.integers(0, k, size=k // 3)]
        if data.draw(st.booleans(), label="transform"):
            A, ncols = np.hstack([S, np.eye(k, dtype=np.int64)]), n
        else:
            A, ncols = S, data.draw(st.integers(0, n), label="ncols")
        want = A.copy()
        want_pivots = eliminate_by_hit_rows(want, p, ncols)
        assert eliminate(A, p, ncols) == want_pivots
        assert np.array_equal(A, want)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_insertion_paths_match_oracle(self, data):
        # one row at a time, in random batches and all at once give the same
        # reduced echelon basis as the vector-at-a-time oracle
        p = data.draw(st.sampled_from([3, 5, 7]), label="p")
        n = data.draw(st.integers(0, 8), label="n")
        vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
        base = data.draw(st.lists(vec, min_size=1, max_size=6), label="base") + [[0] * n]
        rows = data.draw(st.lists(st.sampled_from(base), max_size=10), label="rows")
        M = np.array(rows, dtype=np.int64).reshape(len(rows), n)

        oracle_rows, oracle_pivots = [], []
        grew = [insert_vector(oracle_rows, oracle_pivots, row, p) for row in rows]
        oracle = np.array(oracle_rows, dtype=np.int64).reshape(len(oracle_rows), n)

        one = FpSpace(n, p)
        assert [one.add(row) for row in rows] == grew
        batched = FpSpace(n, p)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4), label="cuts"))
        for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
            before = batched.dim
            assert len(batched.add_rows(M[lo:hi])) == batched.dim - before
        whole = FpSpace.from_rows(rows, n, p)
        for sp in (one, batched, whole):
            assert sp.pivots == oracle_pivots
            assert sp.rows.shape == (len(oracle_pivots), n)
            assert np.array_equal(sp.rows, oracle)
            coeffs = sp.express(M)
            assert coeffs is not None and np.array_equal(coeffs @ sp.rows % p, M)
            w = np.array(data.draw(vec, label="w"), dtype=np.int64)
            rem = sp.reduce(np.vstack([M, w]))
            assert not rem[:, sp.pivots].any() and not rem[: len(rows)].any()
            assert (w - rem[-1]) % p in sp


class TestAction:
    def test_identity(self):
        F = np.arange(12) % 5
        assert np.array_equal(sym_power(5, 11).action_matrix((1, 0, 0, 1)) @ F % 5, F)

    def test_swap(self):
        symp = sym_power(5, 11)
        # X^10 Y -> X Y^10
        assert np.array_equal(symp.action_matrix((0, 1, 1, 0)) @ symp.monomial(1) % 5,
                              symp.monomial(10))

    def test_unipotent_on_second_monomial(self):
        # (1 1; 0 1) X^(r-1)Y = X^r + X^(r-1)Y
        symp = sym_power(5, 11)
        assert np.array_equal(symp.action_matrix((1, 1, 0, 1)) @ symp.monomial(1) % 5,
                              symp.monomial(0) + symp.monomial(1))

    @given(st.integers(0, 624), st.integers(0, 624), st.data())
    @settings(max_examples=60, deadline=None)
    def test_left_action_law(self, gi, hi, data):
        p = 5
        g = (gi // 125 % 5, gi // 25 % 5, gi // 5 % 5, gi % 5)
        h = (hi // 125 % 5, hi // 25 % 5, hi // 5 % 5, hi % 5)
        coeffs = data.draw(st.lists(st.integers(0, 4), min_size=9, max_size=9))
        symp = sym_power(p, 8)
        F = np.array(coeffs)
        act = symp.action_matrix
        assert np.array_equal(act(g) @ (act(h) @ F % p) % p, act(mat_mul(g, h, p)) @ F % p)


class TestSpanClosure:
    def test_small_degree_is_irreducible(self):
        # X^r generates everything when r <= p-1
        for p, r in [(5, 3), (7, 6), (3, 2)]:
            X = build_X(p, r)
            assert X.top.dim == r + 1

    def test_second_monomial_dims(self):
        assert build_X(5, 11).dim == 6
        assert build_X(5, 25).dim == 8  # p + 3
        assert build_X(5, 19).dim == 12  # 2p + 2
        assert build_X(5, 30).dim == 9  # a + p + 2
        assert build_X(3, 11).dim == 6

    def test_standard_spanning_sets(self):
        # T S is a basis of the span of X_(r-1)'s spanning set, and X_r's
        # rows one of the span of X^r and the (kX + Y)^r; each span is the
        # span closure and the r-row oracle's space
        for p, r in [(5, 11), (5, 19), (5, 30), (3, 13), (7, 23)]:
            X = build_X(p, r)
            for which, j, rows in (("top", 0, top_rows(X)), ("second", 1, x_rows(X))):
                S = FpSpace.from_rows(standard_spanning_set(p, r, which), r + 1, p)
                assert rank(rows, p) == len(rows) == S.dim, (p, r, which)
                assert FpSpace.from_rows(rows, r + 1, p) == S == build_X_rows(p, r, which)[0]
                assert S == span_closure([sym_power(p, r).monomial(j)], p=p, r=r)

    def test_closure_is_stable(self):
        X = build_X(5, 19)
        symp, space = sym_power(5, 19), x_space(X)
        for g in symp.monoid_generators():
            M = symp.action_matrix(g)
            for row in space.rows:
                assert M @ row % 5 in space
        assert verify_stability(X, samples=25)

    def test_top_contained_in_second_strictly(self):
        for p, r in [(3, 5), (5, 11), (5, 25), (7, 15)]:
            X = build_X(p, r)
            second = x_space(X)
            assert all(row in second for row in top_rows(X))
            if r >= p:
                assert X.top.dim < second.dim

    def test_dim_bounds_coupling_and_strict_containment(self):
        for p in (3, 5):
            for r in range(p, 3 * p * p + 1):
                second = build_X(p, r)
                top = second.top
                assert top.dim <= p + 1 and second.dim <= 2 * p + 2
                if second.dim == 2 * p + 2:
                    assert top.dim == p + 1
                # containment is always strict from degree p on
                space = x_space(second)
                assert all(row in space for row in top_rows(second))
                assert top.dim < second.dim, (p, r)

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            span_closure([], p=5, r=10)

    def test_four_monoid_generators_close_like_p_plus_one(self):
        # u, w, diag(1, 0) and diag(g, 1) generate the monoid that u, w,
        # diag(1, 0) and every diag(c, 1) do: the closures agree, for the
        # two monomials and for random vectors
        rng = np.random.default_rng(11)
        for p in (3, 5, 7):
            for r in range(1, p * p + 1, 1 if p < 7 else 3):
                symp = sym_power(p, r)
                old = [(1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0)] + [(c, 0, 0, 1) for c in range(2, p)]
                assert len(symp.monoid_generators()) == 4
                for vecs in ([symp.monomial(0)], [symp.monomial(1)],
                             list(rng.integers(0, p, size=(2, r + 1)))):
                    space = FpSpace(r + 1, p)
                    work = [v for v in vecs if space.add(v)]
                    while work:
                        v = work.pop()
                        for g in old:
                            w = symp.action_matrix(g) @ v % p
                            if space.add(w):
                                work.append(w)
                    assert span_closure(vecs, p=p, r=r) == space, (p, r)

    def test_top_is_the_span_closure_of_x_to_the_r(self):
        # X_r, read as the spin of X^r inside X_(r-1), is the closure of X^r
        # past the tier-1 grid's primes
        for p in (13, 17, 19, 23, 29, 31):
            for r in range(1, 2 * p + 1):
                X = build_X(p, r)
                assert top_space(X) == span_closure([sym_power(p, r).monomial(0)], p=p, r=r), (p, r)
                assert rank(top_rows(X), p) == X.top.dim, (p, r)

    def test_top_filtration_dims_far_outside_the_grid(self):
        # the four filtration dims against the r-row intersections, X_r from
        # its own classical spanning set
        for p, r in [(3, 731), (5, 632), (7, 346)]:
            X = build_X(p, r)
            vs, vss = filtration_spaces(p, r)
            top = FpSpace.from_rows(standard_spanning_set(p, r, "top"), r + 1, p)
            assert top_space(X) == top, (p, r)
            want = tuple(space.intersect(v).dim for space in (x_space(X), top) for v in (vs, vss))
            assert X.filtration_dims == want, (p, r, X.filtration_dims, want)


class TestColumnTypes:
    """build_X reads X_(r-1) on at most 4 + 2(p-1) column types, never on
    (r+1)-long rows: the matrices it eliminates are recorded."""

    @staticmethod
    def _widths(monkeypatch, degrees):
        seen = []

        def recording(S, p):
            seen.append(S.shape[1])
            return row_transform(S, p)

        monkeypatch.setattr(symrep.linalg, "row_transform", recording)
        out = {}
        for p, r in degrees:
            seen.clear()
            build_X(p, r)
            out[p, r] = max(seen)
        return out

    def test_width_bound(self, monkeypatch):
        degrees = [(p, r) for p in (3, 5, 7, 11) for r in range(1, 3 * p * p + 1)]
        degrees += [(p, r) for p in (13, 17, 19, 23, 29, 31) for r in range(1, 2 * p + 1)]
        widths = self._widths(monkeypatch, degrees)
        assert len(widths) == len(degrees)
        for (p, r), width in widths.items():
            assert width <= 2 * (p - 1) + 4, (p, r, width)

    def test_reports_far_outside_the_grid(self):
        # degrees up to 3^8 + 2 against the closed forms; the compressed
        # engine's dimension is the digit-sum formula's
        for p, r in [(3, 3**8 + 2), (7, 7**4 + 3), (5, 5**5 + 7), (31, 2000)]:
            rec = structure_report(p, r)
            assert rec.passed, (p, r, rec.discrepancies)
            assert rec.dim_computed == predict_dim_X(case_descriptor(p, r)), (p, r)

    @pytest.mark.parametrize("p, r", [(3, 3**20), (3, 3**30), (31, 31**8), (3, 2**63 // 9 - 3)])
    def test_reports_where_no_r_long_row_fits(self, p, r):
        # an (r+1)-long int64 row would take 26 GiB at (3, 3^20); the last
        # degree is the largest p = 3 one the int64 guard lets through
        rec = structure_report(p, r)
        assert rec.passed, rec.discrepancies


def _class_pairs_mismatch(p, r):
    """What ``symrep._class_pairs`` gets wrong at (p, r) against the rows of
    ``middle_binomials``: which classes hold a nonzero pair, which span
    F_p^2, and, up to a scalar, a line's direction; None if nothing."""
    nz, full, first = symrep._class_pairs(p, r)
    want_nz, want_full, want_first = class_pairs_by_columns(p, r)
    if not np.array_equal(nz, want_nz):
        return "nonzero classes"
    if not np.array_equal(full, want_full):
        return "spanning classes"
    if not (first[:, nz] % p).any(axis=0).all():
        return "a zero pair"
    if ((first[0] * want_first[1] - first[1] * want_first[0]) % p)[nz & ~full].any():
        return "a line's direction"
    return None


class TestClassPairs:
    """X's column types per class mod p-1 read off the digits of r-1
    (Lucas) against the (r+1)-long rows of binomial pairs."""

    PRIMES = (3, 5, 7, 11, 13, 23)

    def test_against_the_rows(self):
        degrees = [(p, r) for p in self.PRIMES for r in range(1, 3 * p * p + 1)]
        # r-1 ending in runs of p-1 digits or of zeros
        degrees += [(p, r) for p in self.PRIMES for k in range(1, 10) if 2 * p**k + 3 <= 50_000
                    for r in (p**k - 1, p**k, p**k + 1, p**k + 2, 2 * p**k + 3)]
        bad = [(p, r, what) for p, r in degrees if (what := _class_pairs_mismatch(p, r))]
        assert not bad, bad[:10]

    def test_digit_sum_counts_by_enumeration(self):
        for p in (3, 5, 7):
            for n in range(0, 2 * p**3):
                n_digits = digits(n, p) + [0]
                counts = symrep._digit_sum_counts(n_digits, p)
                for m in range(len(n_digits)):
                    top = n // p ** (m + 1)  # H's digits at most top's (Lucas)
                    sums = Counter(digit_sum(H, p) % (p - 1) for H in range(top + 1)
                                   if math.comb(top, H) % p)
                    assert counts[m].tolist() == [sums[s] for s in range(p - 1)], (p, n, m)

    @pytest.mark.parametrize("edge, p, r", [("1", 7, 15), ("r-1", 5, 16), ("r", 11, 25)])
    def test_each_edge_index_comes_off(self, monkeypatch, edge, p, r):
        # the mutant that leaves one of 1, r-1, r counted is seen at (p, r)
        keep = {"1": 1, "r-1": r - 1, "r": r}[edge]
        edges = symrep._edges
        monkeypatch.setattr(symrep, "_edges", lambda r: [i for i in edges(r) if i != keep])
        assert _class_pairs_mismatch(p, r)

    def test_counts_are_not_capped(self, monkeypatch):
        # at (3, 25) the cell of direction (0, 1) in the odd class holds the
        # indices 1, 7, 13, 19 and 25: capped at 2, it is emptied by taking
        # off the edges 1 and 25, and the class, which spans F_3^2, reads as a line
        assert _class_pairs_mismatch(3, 25) is None
        counts = symrep._digit_sum_counts
        monkeypatch.setattr(symrep, "_digit_sum_counts", lambda n, p: np.minimum(counts(n, p), 2))
        assert _class_pairs_mismatch(3, 25)


class TestTheta:
    def test_theta_itself(self):
        p = 5
        assert theta_divides(theta_vec(p), 1, p)
        assert not theta_divides(theta_vec(p), 2, p)

    def test_antisymmetric_monomial_difference(self):
        # X^(r-1)Y - XY^(r-1) is divisible by theta when r = 2 mod (p-1)
        F = sym_power(5, 14).monomial(1) - sym_power(5, 14).monomial(13)
        assert theta_divides(F, 1, 5)
        G = sym_power(5, 11).monomial(1) - sym_power(5, 11).monomial(10)  # 9 not divisible by 4
        assert not theta_divides(G, 1, 5)

    def test_single_class_average(self):
        # sum over k of (kX + Y)^r is divisible by theta exactly once
        # when r = 1 mod (p-1) and p does not divide r
        p, r = 5, 21
        symp = sym_power(p, r)
        vec = np.zeros(r + 1, dtype=np.int64)
        for k in range(p):
            vec += symp.action_matrix((k, 0, 1, 1)) @ symp.monomial(0) % p  # (kX + Y)^r
        assert theta_divides(vec, 1, p)
        assert not theta_divides(vec, 2, p)

    def test_dual_paths_agree_random(self):
        rng = np.random.default_rng(7)
        for p in (3, 5, 7):
            for _ in range(300):
                r = int(rng.integers(2 * p + 2, 60))
                a = int(rng.integers(1, p))
                vec = np.zeros(r + 1, dtype=np.int64)
                js = [j for j in range(r + 1) if j % (p - 1) == a % (p - 1)]
                for j in js:
                    vec[j] = rng.integers(0, p)
                for k in (1, 2):
                    crit = theta_divides_criterion(vec, k, p)
                    assert crit is not None
                    assert crit == theta_divides(vec, k, p)  # also cross-checked inside

    def test_filtration_dims_closed_form(self):
        for p in (3, 5, 7, 11):
            for r in range(0, 3 * p * p + 1):
                vs, vss = filtration_spaces(p, r)
                assert vs.dim == (r - p if r >= p + 1 else 0)
                assert vss.dim == (r - 2 * p - 1 if r >= 2 * p + 2 else 0)

    def test_echelon_fast_path_matches_generic(self):
        # the theta^k-multiple space is the span of theta^k X^(s-m) Y^m,
        # inserted one vector at a time by the oracle
        for p, r in [(5, 23), (3, 17), (7, 30)]:
            for k in (1, 2):
                space = symrep.theta_multiple_space(p, r, k)
                tk = theta_vec(p) if k == 1 else symrep.poly_mul_vec(theta_vec(p), theta_vec(p), p)
                rows, pivots = [], []
                for m in range(r - k * (p + 1) + 1):
                    multiple = np.zeros(r + 1, dtype=np.int64)
                    multiple[m : m + len(tk)] = tk
                    insert_vector(rows, pivots, multiple, p)
                assert space.pivots == pivots
                assert np.array_equal(space.rows, np.array(rows))


class TestJordanHoelder:
    def test_weight_models(self):
        for p, s, t in [(5, 3, 2), (5, 0, 1), (7, 6, 3), (3, 1, 1)]:
            mod = weight_module(p, s, t)
            assert jh_decompose(mod)[0] == Counter({jh_label(s, t, p): 1})

    def test_quotient_by_theta_part(self):
        # degree r modulo the theta-divisible part: two constituents,
        # socle V_a, split only at a = p-1
        p = 5
        for r, a in [(11, 3), (12, 4), (13, 1), (14, 2)]:
            vstar, _ = filtration_spaces(p, r)
            mod = SubquotientModule(sym_power(p, r), None, vstar)
            want = Counter({jh_label(a, 0, p): 1, jh_label(p - a - 1, a, p): 1})
            factors, soc = jh_decompose(mod)
            assert factors == want
            if a == p - 1:
                assert soc == want
            else:
                assert soc == Counter({jh_label(a, 0, p): 1})

    def test_theta_layer_splits_only_at_a2(self):
        p = 5
        for r in (23, 24, 25, 26):
            a = r % (p - 1) or p - 1
            v1, v2 = filtration_spaces(p, r)
            mod = SubquotientModule(sym_power(p, r), v1, v2)
            soc = jh_decompose(mod)[1]
            assert (len(list(soc.elements())) == 2) == (a == 2), (r, soc)

    def test_quotient_by_theta_part_sweep(self):
        # V_r modulo its theta-divisible part: constituents (a, 0) and
        # (p-a-1, a), socle (a, 0), splitting exactly at a = p-1
        for p in (3, 5, 7):
            for r in range(p, 3 * p * p + 1, 2 if p == 7 else 1):
                a = r % (p - 1) or p - 1
                vstar, _ = filtration_spaces(p, r)
                mod = SubquotientModule(sym_power(p, r), None, vstar)
                want = Counter({jh_label(a, 0, p): 1, jh_label(p - a - 1, a, p): 1})
                factors, soc = jh_decompose(mod)
                assert factors == want, (p, r)
                assert (soc == want) == (a == p - 1), (p, r, soc)
                if a != p - 1:
                    assert soc == Counter({jh_label(a, 0, p): 1}), (p, r, soc)

    def test_theta_layer_sweep(self):
        # the layer between single and double theta divisibility: lower
        # constituent (a-2, 1), upper (p-a+1, a-1), splitting exactly at a = 2
        for p in (3, 5, 7):
            for r in range(2 * p + 1, 3 * p * p + 1, 2 if p == 7 else 1):
                a = r % (p - 1) or p - 1
                lower = jh_label(a - 2, 1, p) if a >= 2 else jh_label(p - 2, 1, p)
                upper = jh_label(p - a + 1, a - 1, p) if a >= 2 else jh_label(1, 0, p)
                v1, v2 = filtration_spaces(p, r)
                mod = SubquotientModule(sym_power(p, r), v1, v2)
                want = Counter({lower: 1, upper: 1})
                factors, soc = jh_decompose(mod)
                assert factors == want, (p, r)
                assert (soc == want) == (a == 2), (p, r, soc)

    def test_full_symmetric_power_a_plus_p_minus_1(self):
        # degree a+p-1 has exactly three constituents
        p = 5
        for a in range(2, p):
            mod = SubquotientModule(sym_power(p, a + p - 1), None, None)
            want = Counter(
                {jh_label(a - 2, 1, p): 1, jh_label(a, 0, p): 1, jh_label(p - a - 1, a, p): 1}
            )
            assert jh_decompose(mod)[0] == want

    def test_dimension_bound(self, monkeypatch):
        from crysred.errors import DimensionBoundError

        mod = weight_module(5, 4, 0)
        monkeypatch.setattr(symrep, "JH_DIMENSION_BOUND", 3)
        with pytest.raises(DimensionBoundError):
            jh_decompose(mod)

    def test_gamma_iso_roundtrip(self):
        p = 5
        m1, m2, P = _conjugated_weight_module()
        gen = sym_power(p, 3).monomial(0)
        T = gamma_iso(m1, gen, m2, P @ gen % p)
        assert np.array_equal(T @ gen % p, P @ gen % p)

    def test_gamma_iso_matches_the_graph_spin_oracle(self):
        # the generator pins the isomorphism, here c P, for both constructions
        p = 5
        m1, m2, P = _conjugated_weight_module()
        gens = [sym_power(p, 3).monomial(j) for j in range(4)] + [np.array([1, 2, 3, 4])]
        for gen, c in itertools.product(gens, range(1, p)):
            T = gamma_iso(m1, gen, m2, c * P @ gen % p)
            assert np.array_equal(T, c * P % p), (gen, c)
            assert np.array_equal(T, gamma_iso_by_graph_spin(m1, gen, m2, c * P @ gen % p)), (gen, c)

    def test_gamma_iso_refusals(self):
        p = 5
        m1, _, _ = _conjugated_weight_module()
        symp = sym_power(p, 3)
        with pytest.raises(ValueError, match="does not generate"):
            gamma_iso(m1, np.zeros(4, dtype=np.int64), m1, symp.monomial(0))
        with pytest.raises(ValueError, match="not equivariant"):
            gamma_iso(m1, symp.monomial(0), m1, symp.monomial(1))
        with pytest.raises(ValueError, match="not invertible"):
            gamma_iso(m1, symp.monomial(0), m1, np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="dimension mismatch"):
            gamma_iso(m1, symp.monomial(0), weight_module(p, 2, 2), sym_power(p, 2).monomial(0))

    def test_socle_counts_multiplicity(self):
        # X's socle is V1 + V1 at these degrees: two copies, not the p + 1
        # simple submodules inside their sum
        for p, r in [(3, 9), (3, 27), (5, 25), (7, 49)]:
            socle = jh_decompose(build_X(p, r).module)[1]
            assert socle == Counter({jh_label(1, 0, p): 2}), (p, r)

    def test_isotypic_module_with_a_large_weight_space(self):
        # ten copies of V1 at p = 3: the highest-weight space has dimension
        # 10, i.e. 29524 lines, and is decomposed without enumerating them
        m = weight_module(3, 1, 0)
        mod = symrep.GammaModule(3, {k: np.kron(np.eye(10, dtype=np.int64), v)
                                     for k, v in m.mats.items()})
        factors, socle = jh_decompose(mod)
        assert factors == socle == Counter({jh_label(1, 0, 3): 10})
        space, [(label, rows)] = socle_simples(mod)
        assert label == jh_label(1, 0, 3) and len(rows) == space.dim == 20
        assert FpSpace.from_rows(rows, mod.dim, 3) == space


def _u_matches(p, r) -> bool:
    """u on V_r/V** from class sums equals the classes of the binomial rows."""
    return np.array_equal(symrep._residue_module(p, r).mats["u"],
                          residue_module_by_rows(p, r).mats["u"])


def _model_vs_oracles(p, r):
    """Mismatches at (p, r) between V_r/V** read off characters (its
    generators, the Q of build_X and of quotient_Q, build_X's filtration
    dims) and the whole-row oracles: generators on the classes of whole rows,
    Q modulo the spin of X^(r-1) Y there, and the dims from the rows
    ``middle_binomials``."""
    bad = []
    ambient, ref = symrep._residue_module(p, r), residue_module_by_rows(p, r)
    bad += [f"V_r/V** {n}" for n in ref.mats if not np.array_equal(ambient.mats[n], ref.mats[n])]
    X = build_X(p, r)
    if X.filtration_dims != filtration_dims_by_columns(X):
        bad.append("filtration dims")
    want = quotient_by_spin(p, r)
    vecs = np.random.default_rng(r).integers(0, p, size=(4, len(ambient.mats["u"])))
    for tag, q in (("build_X", X.quotient), ("quotient_Q", quotient_Q(p, r))):
        if any(not np.array_equal(q.mats[n], want.mats[n]) for n in GEN_NAMES):
            bad.append(f"{tag}: Q matrices")
        if not np.array_equal(q.project_coords(vecs), want.project_coords(vecs)):
            bad.append(f"{tag}: Q projection")
    return [(p, r, b) for b in bad]


GRID = [(p, r) for p in (3, 5, 7, 11) for r in range(2 * p + 1, 3 * p * p + 1)]


class TestResidueModel:
    """V_r/V** from class sums of characters, with the theta filtration and Q
    read off the classes of X's spanning set there, against whole rows."""

    def test_tier1_grid(self):
        assert len(GRID) == 560
        mismatches = [m for p, r in GRID for m in _model_vs_oracles(p, r)]
        assert not mismatches, mismatches[:10]

    @pytest.mark.parametrize("p, r", [(3, 3**9 + 2), (7, 7**5 + 3), (31, 20_000)])
    def test_far_points(self, p, r):
        assert not _model_vs_oracles(p, r)

    def test_filtration_dims_below_2p_plus_1(self):
        # V_r/V** is V_r itself there, and V_r/V* too below p+1
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for r in range(1, 2 * p + 1):
                X = build_X(p, r)
                assert X.quotient is None
                assert X.filtration_dims == filtration_dims_by_columns(X), (p, r)

    def test_generators_repeat_with_period_p_times_p_minus_1(self):
        # the character sums depend on N mod p-1, the theta^2 weight and
        # the coordinate binomials on N mod p
        for p, r in GRID:
            a, b = symrep._residue_module(p, r), symrep._residue_module(p, r + p * (p - 1))
            assert all(np.array_equal(a.mats[n], b.mats[n]) for n in GEN_NAMES), (p, r)

    def test_class_sums_against_the_kernel(self):
        # the sums of binom(N, i) and i binom(N, i) over a class, mod p,
        # against arith's kernel at k = 1: T(N, rho) and N T(N-1, rho-1).
        # The two forms stay apart on purpose (the kernel builds one lift row
        # per pair), so they meet at a large p and a degree near 10^15 too
        for p in (3, 5, 7, 11, 13, 31, 211):
            N = np.array([0, 1, 2, p - 1, p, p * p + 1, 3 * p * p, 10**9 + 7, 10**15 + 37])
            N = np.concatenate([N, np.arange(2 * p, 4 * p)])
            sums, weighted = symrep._class_sums_mod_p(N, p)
            degrees = [n for n in N.tolist() if n]  # one kernel call, p-1 classes a degree
            rows = iter(_step_class_sums([n for n in degrees for _ in range(p - 1)],
                                         [n - rho for n in degrees for rho in range(p - 1)], p, 1, 2))
            for j, n in enumerate(N.tolist()):
                if n == 0:
                    want = [[int(rho == 0), 0] for rho in range(p - 1)]
                else:
                    want = [[t0, n * t1 % p] for t0, t1 in itertools.islice(rows, p - 1)]
                assert np.array_equal(np.stack([sums[:, j], weighted[:, j]], axis=1), want), (p, n)

    def test_a_class_sum_off_by_one_fails_the_u_check(self, monkeypatch):
        class_sums = symrep._class_sums_mod_p

        def off_by_one(N, p):
            sums, weighted = class_sums(N, p)
            sums[0, -1] += 1  # class 0 at the top coordinate, X^0 Y^r
            return sums, weighted

        degrees = [(p, r) for p, r in GRID if r >= 2 * p + 2]
        assert all(_u_matches(p, r) for p, r in degrees)
        monkeypatch.setattr(symrep, "_class_sums_mod_p", off_by_one)
        assert not any(_u_matches(p, r) for p, r in degrees)

    def test_a_short_span_fails_the_certificate(self, monkeypatch):
        # without the classes of (X + kY)^(r-1) Y, quotient_Q's one reduce
        # refuses the span wherever it falls short of X's image, and
        # returns the oracle's Q wherever it does not
        spanning = symrep._spanning_classes
        monkeypatch.setattr(symrep, "_spanning_classes", lambda amb: spanning(amb)[: -amb.p])
        refused = Counter()
        for p, r in GRID:
            classes = spanning(symrep._residue_module(p, r))
            short = rank(classes[: -p], p) < rank(classes, p)
            try:
                q = quotient_Q(p, r)
            except ArithmeticError:
                assert short, (p, r)
                refused[p] += 1
                continue
            assert not short, (p, r)
            want = quotient_by_spin(p, r)
            assert all(np.array_equal(q.mats[n], want.mats[n]) for n in GEN_NAMES), (p, r)
        assert all(refused[p] > 0 for p in (3, 5, 7, 11)), refused

    def test_jh_forms_no_empty_quotient(self, monkeypatch):
        # the last Loewy layer is the whole module: no quotient is formed
        # by it, and each quotient formed is nonzero
        quotient, dims = symrep.GammaModule.quotient, []

        def recording(self, sub):
            dims.append(self.dim - sub.dim)
            return quotient(self, sub)

        monkeypatch.setattr(symrep.GammaModule, "quotient", recording)
        assert jh_decompose(weight_module(5, 3, 2))[0] == Counter({jh_label(3, 2, 5): 1})
        assert not dims
        for p, r in [(5, 23), (5, 25), (7, 49)]:
            jh_decompose(build_X(p, r).module)
            jh_decompose(quotient_Q(p, r))
        assert dims and min(dims) > 0


class TestQuotient:
    def test_examples(self):
        factors, _ = jh_decompose(quotient_Q(5, 11))
        assert factors == Counter({JHLabel(3, 2): 1, JHLabel(1, 3): 1})
        factors, socle = jh_decompose(quotient_Q(5, 23))
        assert factors == Counter({JHLabel(1, 1): 1, JHLabel(3, 2): 1, JHLabel(1, 3): 1})
        assert socle == Counter({JHLabel(1, 1): 1})
        factors, _ = jh_decompose(quotient_Q(5, 22))  # class 2, p coprime to r(r-1)
        assert factors == Counter({JHLabel(2, 2): 1})

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            quotient_Q(5, 10)

    def test_star_image_dimension(self):
        q = quotient_Q(5, 23)
        img = q.star_image()
        assert img.dim == 6  # both lower constituents


def _x_filtration_dims(p, r):
    X = build_X(p, r)
    X, xt = x_space(X), top_space(X)
    vs, vss = filtration_spaces(p, r)
    return (
        X.intersect(vs).dim,
        X.intersect(vss).dim,
        xt.intersect(vs).dim,
        xt.intersect(vss).dim,
    )


class TestSingularParts:
    def test_class_one_top_module(self):
        # the singular part of the top-monomial module exceeds its doubly
        # divisible part by p-1 exactly when p does not divide r
        for p in (3, 5):
            for r in range(p + 1, 3 * p * p + 1):
                if (r - 1) % (p - 1):
                    continue
                d = _x_filtration_dims(p, r)
                assert d[2] - d[3] == ((p - 1) if r % p else 0), (p, r, d)

    def test_higher_classes_coincide(self):
        for p in (3, 5, 7):
            for r in range(2 * p, 2 * p + 45):
                a = r % (p - 1) or p - 1
                if a == 1:
                    continue
                d = _x_filtration_dims(p, r)
                assert d[2] == d[3], (p, r, d)

    def test_known_profiles(self):
        # digit sum p-1; large digit sum; pure p-power; p | r composite;
        # and the congruence-exceptional case where both parts coincide
        assert _x_filtration_dims(5, 21) == (4, 0, 4, 0)
        assert _x_filtration_dims(5, 49) == (6, 2, 4, 0)
        assert _x_filtration_dims(5, 25) == (2, 2, 0, 0)
        assert _x_filtration_dims(5, 45) == (6, 6, 4, 4)
        d = _x_filtration_dims(5, 23)
        assert d[0] == d[1] == 8


class TestFrobeniusTwist:
    def test_examples(self):
        assert frobenius_twist_check(5, 7, 1)
        assert frobenius_twist_check(3, 5, 2)
        assert frobenius_twist_check(5, 1, 2)
        assert build_X(5, 25).top.dim == build_X(5, 1).top.dim == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            frobenius_twist_check(5, 10, 1)


class TestEngineAgainstReference:
    def test_full_grid(self):
        # fast build_X (X_(r-1) and X_r in it) equals the span closure for
        # 1 <= r <= 3p^2; from r = 2p+1 on, the filtration dims, the Q
        # generator matrices, its projection and the image of V* equal the
        # r-row reference as well
        jobs = [(p, r) for p in (3, 5, 7, 11) for r in range(1, 3 * p * p + 1)]
        jobs.sort(key=lambda job: -job[0] ** 2 * job[1])  # costliest first
        workers = min(8, max(1, os.cpu_count() or 1))
        if workers > 1 and os.environ.get("CRYSRED_TEST_SERIAL") != "1":
            with multiprocessing.get_context("spawn").Pool(workers) as pool:
                results = pool.map(_engine_vs_reference, jobs, chunksize=4)
        else:
            results = [_engine_vs_reference(job) for job in jobs]
        assert len(results) == 3 * (9 + 25 + 49 + 121)
        mismatches = [m for res in results for m in res]
        assert not mismatches, mismatches[:10]


class TestThetaNormalForms:
    def test_match_echelon_reduction(self):
        # every monomial's class equals its remainder against the
        # theta^k-multiple echelon space, read on the non-pivot columns
        for p in (3, 5, 7):
            for r in range(0, 3 * p * p + 1):
                for k in (1, 2):
                    space = symrep.theta_multiple_space(p, r, k)
                    cols = list(symrep._theta_coordinates(p, r, k))
                    assert cols == space.nonpivot_columns()
                    if r >= k * p + k - 1:
                        assert len(cols) == (p + 1) * k
                    eye = np.eye(r + 1, dtype=np.int64)
                    rem = space.reduce(eye)
                    assert np.array_equal(theta_classes(eye, p, k), rem[:, cols]), (p, r, k)
                    assert not rem[:, space.pivots].any()

    def test_random_batches_far_outside_the_grid(self):
        rng = np.random.default_rng(7)
        for p in (3, 31):
            for r in (2000, 2001):
                for k in (1, 2):
                    space = symrep.theta_multiple_space(p, r, k)
                    vecs = rng.integers(0, p, size=(8, r + 1))
                    want = space.reduce(vecs)[:, space.nonpivot_columns()]
                    assert np.array_equal(theta_classes(vecs, p, k), want), (p, r, k)


class TestIndexClasses:
    """``theta_index_classes`` reads the class of one monomial in O(1) by
    ``theta_classes``' rule; on unit rows the two must agree."""

    def test_unit_rows_on_the_grid(self):
        for p in (3, 5, 7, 11):
            for r in range(2 * p + 1, 3 * p * p + 1):
                idx = np.arange(r + 1)
                eye = np.eye(r + 1, dtype=np.int64)
                for k in (1, 2):
                    want = theta_classes(eye, p, k)
                    assert np.array_equal(theta_index_classes(idx, p, r, k), want), (p, r, k)

    @pytest.mark.parametrize("p, r", [(7, 10_003), (17, 4_641), (101, 5_000)])
    def test_unit_rows_at_large_degree(self, p, r):
        # in blocks of unit rows, so no (r+1)-square matrix is built
        for start in range(0, r + 1, 512):
            idx = np.arange(start, min(start + 512, r + 1))
            eye = (idx[:, None] == np.arange(r + 1)).astype(np.int64)
            assert np.array_equal(theta_index_classes(idx, p, r, 2), theta_classes(eye, p, 2)), start


class TestGradedSocle:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_weight_search_on_random_subquotients(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]), label="p")
        r = data.draw(st.integers(1, 3 * p), label="r")
        full = SubquotientModule(sym_power(p, r), None, None)

        def weight_vectors(n):
            # torus weight vectors: supported on one class of Y-degrees mod p-1
            out = []
            for _ in range(n):
                j = data.draw(st.integers(0, r))
                v = np.zeros(r + 1, dtype=np.int64)
                for i in range(j % (p - 1), r + 1, p - 1):
                    v[i] = data.draw(st.integers(0, p - 1))
                v[j] = 1
                out.append(v)
            return out

        gens_u = weight_vectors(data.draw(st.integers(0, 2)))
        gens_w = gens_u + weight_vectors(data.draw(st.integers(1, 2)))
        U, W = full.spin(gens_u), full.spin(gens_w)
        assert U == _spin_by_worklist(full, gens_u) and W == _spin_by_worklist(full, gens_w)
        mod = SubquotientModule(sym_power(p, r), W, U)
        by_lines, by_weights = _socle_by_line_enumeration(mod), _socle_by_weight_search(mod)
        assert [label for label, _ in by_lines] == [label for label, _ in by_weights]
        assert all(a == b for (_, a), (_, b) in zip(by_lines, by_weights))
        # per label: the rows span the span of the reference's simple
        # submodules with that label, independently, so the multiplicity is
        # len(rows)/(s+1); the socle is the span of all the rows
        (space, got), socle = socle_simples(mod), jh_decompose(mod)[1]
        assert [label for label, _ in got] == sorted({label for label, _ in by_lines})
        assert set(socle) == {label for label, _ in got}
        for label, rows in got:
            simples = np.vstack([span.matrix() for lab, span in by_lines if lab == label])
            assert FpSpace.from_rows(rows, mod.dim, p) == FpSpace.from_rows(simples, mod.dim, p)
            assert socle[label] * (label.s + 1) == len(rows) == rank(rows, p)
        want = FpSpace(mod.dim, p)
        for _, span in by_lines:
            want.add_rows(span.matrix())
        assert space == want

    def test_rejects_a_module_not_graded_by_the_torus(self):
        m1, m2, _ = _conjugated_weight_module()
        assert jh_decompose(m1)[1] == Counter({jh_label(3, 2, 5): 1})
        with pytest.raises(ArithmeticError):
            socle_simples(m2)

    def test_refuses_overlapping_hom_images(self, monkeypatch):
        # Hom images that are dependent would count a simple twice: with
        # _hom_images giving its first copy twice, the socle's one echelon
        # form falls short of its rows and the module is refused
        hom_images = symrep._hom_images
        monkeypatch.setattr(symrep, "_hom_images",
                            lambda Z, s, p: np.tile(hom_images(Z, s, p)[: s + 1], (2, 1)))
        for mod in (weight_module(5, 3, 2), build_X(5, 25).module):
            with pytest.raises(ArithmeticError, match="span only"):
                socle_simples(mod)
            with pytest.raises(ArithmeticError, match="span only"):
                jh_decompose(mod)

    def test_refuses_a_component_that_is_not_a_submodule(self, monkeypatch):
        # at these modules a U-fixed vector outside the socle has the weight
        # of a socle label; taken without the coset relations, its images
        # are independent of the others but span no submodule, and the
        # per-component stability check refuses them
        cases = [(build_X(3, 7).module, 1), (quotient_Q(5, 23), 1)]
        for mod, mult in cases:
            fixed = nullspace(mod.mats["u"] - np.eye(mod.dim, dtype=np.int64), mod.p)
            assert sum(jh_decompose(mod)[1].values()) == mult < len(fixed)
        monkeypatch.setattr(symrep, "_hom_images", lambda Z, s, p:
                            np.moveaxis(Z[1 : s + 2], 2, 0).reshape(-1, Z.shape[1]))
        for mod, _ in cases:
            with pytest.raises(ArithmeticError, match="not a submodule"):
                socle_simples(mod)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_components_match_the_spin_of_the_top_images(self, data):
        # per label, the rows span what the maps of the spin oracle give,
        # from the model of L_s into the target twisted by det^-t, with one
        # copy of L's basis per map; and each component is the spin of the
        # images of the model's top vector under those maps
        p = data.draw(st.sampled_from([3, 5, 7]), label="p")
        r = data.draw(st.integers(1, 3 * p), label="r")
        full = SubquotientModule(sym_power(p, r), None, None)

        def weight_vectors(n):
            out = []
            for _ in range(n):
                j = data.draw(st.integers(0, r))
                v = np.zeros(r + 1, dtype=np.int64)
                for i in range(j % (p - 1), r + 1, p - 1):
                    v[i] = data.draw(st.integers(0, p - 1))
                v[j] = 1
                out.append(v)
            return out

        gens_u = weight_vectors(data.draw(st.integers(0, 2)))
        gens_w = gens_u + weight_vectors(data.draw(st.integers(1, 2)))
        mod = SubquotientModule(sym_power(p, r), full.spin(gens_w), full.spin(gens_u))
        C = unipotent_fixed(mod).matrix().T
        for label, rows in socle_simples(mod)[1]:
            top = sym_power(p, label.s).monomial(0)
            dets = [pow(a * d - b * c, -label.t, p) for a, b, c, d in gamma_generators(p)]
            twisted = symrep.GammaModule(p, {name: mod.mats[name] * det
                                             for name, det in zip(GEN_NAMES, dets)})
            maps = hom_maps_by_spin(weight_module(p, label.s, 0), top, twisted, C)
            assert len(rows) == len(maps) * (label.s + 1)
            span = FpSpace.from_rows(rows, mod.dim, p)
            assert span == FpSpace.from_rows(np.hstack(maps).T, mod.dim, p)
            assert span == mod.spin([T @ top % p for T in maps])


class TestCosetRelations:
    def test_span_the_relations_of_each_simple(self):
        # the p-s relations are independent and span every relation among
        # x = X^s and the u^lambda w x in weight_module(p, s, 0)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for s in range(p):
                m, x = weight_module(p, s, 0), sym_power(p, s).monomial(0)
                cols = [x, m.mats["w"] @ x % p]
                for _ in range(p - 1):
                    cols.append(m.mats["u"] @ cols[-1] % p)
                A = np.array(cols).T  # (s+1) x (p+1): x, then u^lambda w x
                R = symrep._coset_relations(p, s)
                assert R.shape == (p - s, p + 1) and rank(R, p) == p - s, (p, s)
                assert not (A @ R.T % p).any(), (p, s)
                assert len(nullspace(A, p)) == p - s, (p, s)


class TestInt64Guard:
    def test_boundary(self):
        # the first degree with p*p*(r+2) >= 2^63 is refused before any
        # module is built; the degree below it passes the guard
        for p in (3, 5, 53):
            r = -(-(2**63) // (p * p)) - 2
            check_int64_domain(p, r - 1)
            for call in (lambda: build_X(p, r), lambda: quotient_Q(p, r),
                         lambda: structure_report(p, r)):
                with pytest.raises(DomainError):
                    call()
