"""Workload definitions: the seeded item sequence, the item runners and the
answer digests.

Every workload draws its items from a fixed pool (``pool.json``), written by
``make_pool.py``.  The pool is split into strata: one per prime for
``structure`` and ``lemmas``, one per scenario tag for ``witness``.  Each
stratum holds a few slots at fixed cost quantiles (the (j + 1/2) / k
quantiles of the stratum's candidates), and each slot holds the five
candidates nearest to its quantile, which cost about the same.

A round takes one item from every slot, in a seeded order.  Within a slot a
Kronecker sequence (golden-ratio steps from a seeded offset) picks the item,
and no item of a slot repeats until the slot is used up.  So the seed picks
the inputs and their order, while every round does the same mix of work, and
the per-item quantiles of a run of whole rounds hardly depend on the seed.
No item comes back within five rounds, which is more than a run takes.  So
the degrees of a ``structure`` run are distinct, and the 8-entry
``sym_power`` cache never serves a repeated item.

The pool also records each item's answer digest.  A run counts an item as
failed when its verdict is not ok, when it raises, when the CLI exit code is
not 0, or when its digest differs from the recorded one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"
WORKLOADS = ("structure", "witness", "lemmas")
GOLDEN = (5**0.5 - 1) / 2

# Warm-up items: outside the pool, small, and run once before timing so that
# numpy initialisation and lazy tables are not charged to the first item.
WARMUP = {
    "structure": (5, 11),
    "witness": ("T8.2", 5, 11, "5/4", "unknown"),
    "lemmas": (5, 50),
}


def load_pool(path: Path = POOL_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def slots(pool: dict, workload: str) -> list[list[dict]]:
    return [slot for stratum in pool[workload] for slot in stratum["slots"]]


def item_sequence(slots: list[list[dict]], workload: str, seed: int):
    """Endless, seed-determined sequence of pool entries, one per slot per
    round."""
    rng = random.Random(f"{workload}/{seed}")
    offsets = [rng.random() for _ in slots]
    used: list[set[int]] = [set() for _ in slots]
    k = 0
    while True:
        order = list(range(len(slots)))
        rng.shuffle(order)
        for s in order:
            entries = slots[s]
            if len(used[s]) == len(entries):
                used[s].clear()
            i = int(((offsets[s] + k * GOLDEN) % 1.0) * len(entries))
            while i in used[s]:
                i = (i + 1) % len(entries)
            used[s].add(i)
            yield entries[i]
        k += 1


def take(sequence, n: int) -> list:
    return [next(sequence) for _ in range(n)]


def digest(answer) -> str:
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# item runners
#
# ``prepare`` turns a pool entry's arguments into the call's inputs outside
# the timed region; ``call`` is the timed library call; ``answer`` extracts
# (ok, answer) from its result.  Library names are looked up on the module at
# call time so that the trace wrappers, when installed, are the ones called.


def _structure_call(args):
    from crysred import report

    p, r = args
    return report.structure_report(p, r)


def _structure_answer(rec):
    answer = {
        "dim": rec.dim_computed,
        "x": rec.x_factors_computed,
        "q": rec.q_factors_computed,
        "filtration": list(rec.filtration_dims),
    }
    return rec.passed, answer


def _witness_prepare(args):
    from crysred.witness import WitnessCase

    tag, p, r, sigma, hyp_star = args
    return WitnessCase(tag, p, r, Fraction(sigma), hyp_star)


def _witness_call(case):
    from crysred import witness

    return witness.verify_witness(case)


def _witness_answer(rep):
    answer = {
        "ok": rep.ok,
        "constant": rep.constant,
        "image_factor": list(rep.image_factor) if rep.image_factor else None,
        "factorization": rep.factorization,
        "min_valuation": str(rep.min_valuation),
    }
    return rep.ok, answer


def _lemmas_prepare(args):
    p, r_to = args
    return ["verify-lemmas", "--p", str(p), "--r-to", str(r_to), "--format", "json"]


def _lemmas_call(argv):
    from crysred import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _lemmas_answer(result):
    code, text = result
    payload = json.loads(text)
    answer = {
        "code": code,
        "lemma_rows": payload["lemma_rows"],
        "failed": payload["failed"],
        "families": payload["families"],
    }
    return code == 0 and payload["failed"] == 0, answer


RUNNERS = {
    "structure": (tuple, _structure_call, _structure_answer),
    "witness": (_witness_prepare, _witness_call, _witness_answer),
    "lemmas": (_lemmas_prepare, _lemmas_call, _lemmas_answer),
}


def run_item(workload: str, args, clock):
    """Run one item; returns (seconds, ok, digest or None, error or None)."""
    prepare, call, answer = RUNNERS[workload]
    inputs = prepare(args)
    t0 = clock()
    seconds = None
    try:
        result = call(inputs)
        seconds = clock() - t0
        ok, ans = answer(result)
    except Exception as exc:  # a raising item is a failed item, not a crash
        if seconds is None:
            seconds = clock() - t0
        return seconds, False, None, f"{type(exc).__name__}: {exc}"
    return seconds, ok, digest(ans), None
