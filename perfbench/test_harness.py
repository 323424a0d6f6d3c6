"""Tests of the benchmark harness itself (not of crysred).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import make_pool
import run
import spans
import workloads

run.import_library()

from crysred import symrep  # noqa: E402
from crysred.witness import WitnessCase, _validate  # noqa: E402

POOL = workloads.load_pool()
SEEDS = (0, 1, 2, 17, 123456)


def slots(workload):
    return workloads.slots(POOL, workload)


def entries(workload):
    return [e for slot in slots(workload) for e in slot]


def draw(workload, seed, rounds=5):
    sl = slots(workload)
    return workloads.take(workloads.item_sequence(sl, workload, seed), rounds * len(sl))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sequence_is_determined_by_the_seed(workload):
    assert draw(workload, 5) == draw(workload, 5)
    assert draw(workload, 5) != draw(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_round_visits_every_slot_once(workload):
    sl = slots(workload)
    where = {id(e): i for i, s in enumerate(sl) for e in s}
    seq = draw(workload, 3)
    for k in range(0, len(seq), len(sl)):
        assert sorted(where[id(e)] for e in seq[k:k + len(sl)]) == list(range(len(sl)))


@pytest.mark.parametrize("seed", SEEDS)
def test_structure_degrees_are_distinct_and_in_band(seed):
    degrees = [tuple(e["args"]) for e in draw("structure", seed)]
    assert len(set(degrees)) == len(degrees)
    for p, r in degrees:
        assert 2 * p + 1 <= r <= 3 * p * p


def test_witness_pool_is_admissible():
    for stratum in POOL["witness"]:
        for e in (e for slot in stratum["slots"] for e in slot):
            tag, p, r, sigma, star = e["args"]
            if stratum["stratum"] == "high-r":
                assert make_pool.WITNESS_R_CAP[p] < r <= make_pool.WITNESS_R_MAX
            else:
                assert tag == stratum["stratum"] and r <= make_pool.WITNESS_R_CAP[p]
            # genericity at slope 3/2 is asserted, never left unknown
            assert (star == "holds") == (sigma == "3/2")
            _validate(WitnessCase(tag, p, r, Fraction(sigma), star))


def test_lemma_pool_is_in_range():
    for e in entries("lemmas"):
        p, r_to = e["args"]
        assert p in (3, 5, 7, 11, 13) and 1 <= r_to <= 2000


def cheapest(workload):
    return min(entries(workload), key=lambda e: e["cost_s"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_recorded_digest_passes_and_tampered_digest_fails(workload):
    entry = cheapest(workload)
    tampered = dict(entry, digest="0" * 16)
    good, bad = run.run_pass(workload, [entry, tampered])
    assert good["ok"] and good["error"] is None
    assert not bad["ok"] and "digest" in bad["error"]


def test_raising_item_is_a_failure():
    # T8.2 needs p >= 5, so the audit refuses this case
    entry = {"args": ["T8.2", 3, 10, "5/4", "unknown"], "digest": "-"}
    [res] = run.run_pass("witness", [entry])
    assert not res["ok"] and res["error"].startswith("HypothesisError")


def test_self_time_on_a_nested_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = spans.Tracer(clock=lambda: next(ticks))
    tr.enter("A")          # A: 0..10
    tr.enter("B")          #   B: 1..4
    tr.enter("C")          #     C: 2..3
    tr.exit()
    tr.exit()
    tr.enter("B")          #   B: 5..9
    tr.exit()
    tr.exit()
    assert dict(tr.self_s) == {"A": 3.0, "B": 6.0, "C": 1.0}
    assert dict(tr.calls) == {"A": 1, "B": 2, "C": 1}
    assert list(tr.span_parent) == [-1, 0, 1, 0]
    assert list(tr.span_start) == [0.0, 1.0, 2.0, 5.0]
    assert list(tr.span_end) == [10.0, 4.0, 3.0, 9.0]


def test_spans_cover_every_binding_site_and_restore():
    original = symrep.build_X
    tr = spans.Tracer()
    patches = spans.install_spans(tr)
    try:
        from crysred import report

        assert report.build_X is symrep.build_X is not original
    finally:
        patches.restore()
    assert symrep.build_X is original and report.build_X is original
    spans.install_counters(tr.counts).restore()


def test_traced_counts_repeat_exactly():
    items = [cheapest("structure"), cheapest("witness")]
    runs = []
    for _ in range(2):
        tr = spans.Tracer()
        patches = spans.install_spans(tr)
        try:
            for e, w in zip(items, ("structure", "witness")):
                assert run.run_pass(w, [e], tr)[0]["ok"]
        finally:
            patches.restore()
        runs.append((dict(tr.calls), dict(tr.counts)))
    assert runs[0] == runs[1]
    calls, counts = runs[0]
    assert calls["linalg.add"] > 0 and calls["hecke.Tplus"] > 0
    assert counts["hecke.terms_out"] > 0
