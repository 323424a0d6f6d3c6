"""Build ``pool.json``: every item the benchmark can draw, with its answer
digest and its cost on the machine that built the pool.

    python3 perfbench/make_pool.py                      # all workloads
    python3 perfbench/make_pool.py --workload lemmas    # rebuild one
    python3 perfbench/make_pool.py --workload witness --stratum high-r

Each stratum's candidates are put in cost order.  For ``structure`` and
``witness`` that means timing every candidate once; for ``lemmas`` the cost
grows with R, so R gives the order.  The pool keeps SLOTS windows per
stratum, each holding the WINDOW candidates nearest to one cost quantile
(see ``workloads.py``).

Rebuild the pool only when the item set itself changes.  A library change
must reproduce the recorded digests, and the benchmark counts every item
whose digest differs as failed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# structure: all degrees 2p+1 <= r <= cap.  The cap is 3p^2 for p <= 13, and
# lower for p = 17 and 23, where items at 3p^2 take several seconds each.
STRUCTURE_BANDS = {7: 147, 11: 363, 13: 507, 17: 400, 23: 300}
# witness: one stratum per tag, with every admissible case for these primes
# and slopes up to r = cap(p); and one "high-r" stratum, a seeded sample of
# the admissible cases of all tags with cap(p) < r <= 200.  The high-r cases
# are too many to time all (1615, at 0.5 to 7 s each), and they are where T+
# and the valuation audit dominate.
WITNESS_R_CAP = {3: 150, 5: 130, 7: 100, 11: 60}
WITNESS_R_MAX = 200
WITNESS_SLOPES = ("5/4", "4/3", "3/2", "5/3", "7/4")
HIGH_R_SAMPLE = 60
# lemmas: verify-lemmas up to R <= 2000 for every prime of the acceptance sweep.
LEMMA_PRIMES = (3, 5, 7, 11, 13)
LEMMA_R_MAX = 2000

# Windows per stratum, and candidates per window.  A round (one item from
# every window) takes 9 to 15 s on a 2-core machine with Python 3.11, so a
# 25 s run does two or three rounds.
SLOTS = {"structure": 5, "witness": 3, "lemmas": 4}
STRATUM_SLOTS = {"high-r": 2}
WINDOW = 5


def structure_candidates():
    return {f"p={p}": [[p, r] for r in range(2 * p + 1, cap + 1)]
            for p, cap in STRUCTURE_BANDS.items()}


def witness_candidates():
    from crysred.errors import HypothesisError
    from crysred.witness import TAGS, WitnessCase, _validate

    def admissible(tag, p, degrees):
        for r in degrees:
            for sigma in WITNESS_SLOPES:
                # slope 3/2 is admissible only under the genericity hypothesis
                star = "holds" if sigma == "3/2" else "unknown"
                try:
                    _validate(WitnessCase(tag, p, r, Fraction(sigma), star))
                except HypothesisError:
                    continue
                if [tag, p, r, sigma, star] != warm:
                    yield [tag, p, r, sigma, star]

    warm = list(workloads.WARMUP["witness"])
    out = {tag: [c for p, cap in WITNESS_R_CAP.items()
                 for c in admissible(tag, p, range(p + 1, cap + 1))]
           for tag in TAGS}
    high = [c for tag in TAGS for p, cap in WITNESS_R_CAP.items()
            for c in admissible(tag, p, range(cap + 1, WITNESS_R_MAX + 1))]
    out["high-r"] = random.Random("high-r").sample(high, HIGH_R_SAMPLE)
    return out


def lemmas_candidates():
    return {f"p={p}": [[p, r] for r in range(1, LEMMA_R_MAX + 1)] for p in LEMMA_PRIMES}


def measure(workload: str, args) -> dict:
    seconds, ok, dig, err = workloads.run_item(workload, args, time.perf_counter)
    if not ok:
        raise SystemExit(f"{workload} item {args} did not verify: {err}")
    return {"args": args, "digest": dig, "cost_s": round(seconds, 4)}


def windows(ordered: list, slots: int) -> list[list]:
    """The WINDOW entries around each of the quantiles (j + 1/2) / slots."""
    n = len(ordered)
    width = min(WINDOW, n // slots)
    out = []
    for j in range(slots):
        lo = min(max(0, int((j + 0.5) * n / slots) - width // 2), n - width)
        out.append(ordered[lo:lo + width])
    return out


def build(workload: str, old: list[dict], only=None) -> list[dict]:
    """The workload's strata; with ``only``, the strata not named there are
    taken from ``old`` unchanged."""
    candidates = {"structure": structure_candidates, "witness": witness_candidates,
                  "lemmas": lemmas_candidates}[workload]()
    kept = {st["stratum"]: st for st in old}
    measure(workload, workloads.WARMUP[workload])
    out = []
    for name, cands in candidates.items():
        if only and name not in only:
            out.append(kept[name])
            continue
        n_slots = STRATUM_SLOTS.get(name, SLOTS[workload])
        if workload == "lemmas":
            slots = [[measure(workload, args) for args in win]
                     for win in windows(cands, n_slots)]
        else:
            # slope-major order, so that no case reuses the (p, r) caches
            # of the case timed just before it
            timed = [measure(workload, args) for args in sorted(cands, key=lambda a: a[::-1])]
            timed.sort(key=lambda e: (e["cost_s"], e["args"]))
            slots = windows(timed, n_slots)
        out.append({"stratum": name, "slots": slots})
        print(f"{workload} {name}: {len(cands)} candidates, window costs "
              + " ".join(f"{min(e['cost_s'] for e in s):.3f}-{max(e['cost_s'] for e in s):.3f}"
                         for s in slots), file=sys.stderr, flush=True)
    return out


def format_pool(pool: dict) -> str:
    """JSON with one item per line, so that a rebuilt pool diffs by item."""
    blocks = []
    for workload, strata in pool.items():
        parts = []
        for st in strata:
            slots = ",\n".join(
                "   [\n" + ",\n".join("    " + json.dumps(e) for e in slot) + "\n   ]"
                for slot in st["slots"])
            parts.append(f'  {{"stratum": {json.dumps(st["stratum"])}, "slots": [\n{slots}\n  ]}}')
        blocks.append(f" {json.dumps(workload)}: [\n" + ",\n".join(parts) + "\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    ap.add_argument("--stratum", action="append",
                    help="rebuild only this stratum; the others are kept")
    ap.add_argument("--out", type=Path, default=workloads.POOL_PATH)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    pool = workloads.load_pool(args.out) if args.out.exists() else {}
    for workload in args.workload or workloads.WORKLOADS:
        pool[workload] = build(workload, pool.get(workload, []), args.stratum)
    pool = {w: pool[w] for w in workloads.WORKLOADS if w in pool}
    with open(args.out, "w") as fh:
        fh.write(format_pool(pool))
    return 0


if __name__ == "__main__":
    sys.exit(main())
