"""crysred benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 25 --trace 0

The loop is closed, with one in-process caller: items run back to back,
serially, in the seeded order of ``workloads.item_sequence``.  Each item is
timed from outside with ``perf_counter`` and its answer digest is checked
against ``pool.json``.

Both modes run a fixed number of whole rounds (one item from every pool
slot), set by ``--seconds`` and the pool's recorded item costs, never by how
fast the items run; so a run's item count, and the percentile its tail
metric reads, do not depend on the speed of the code.  ``--trace 0`` runs the
rounds once and reports the end-to-end metrics.  ``--trace 1`` runs them three
times: with spans on every layer, with the ApCoeff counters only, and bare.
It reports the per-layer metrics from the first two passes and the ratio of
the first pass's wall time to the bare one's.

Every metric is printed by name, with its unit, before the last line.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Records of the run, and in a
traced run its spans, are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# A traced run's three passes together take about this many times the
# nominal (pool-recorded) cost of its items.
TRACED_PASSES_COST = 3.5
# Layers whose functions are the items' entry points.  Their self time is
# whatever no inner layer covers, so trace.coverage leaves them out.
ENTRY_LAYERS = ("report.structure_report", "witness.verify", "cli.verify_lemmas")

COUNT_METRICS = ("symrep.socle", "symrep.spin", "linalg.add", "linalg.nullspace",
                 "arith.class_sum_table")


def end_to_end_units() -> dict:
    return {"items_per_s": "1/s", "item_s_p50": "s", "item_s_tail": "s",
            "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in spans.LAYERS}
    units.update({f"{layer}.calls": "count" for layer in COUNT_METRICS})
    units.update({
        "linalg.add.accept_ratio": "ratio",
        "hecke.terms_out": "count",
        "hecke.high_val_share": "ratio",
        "arith.apcoeff_ops": "count",
        f"{spans.COUNT_SPAN}.self_s": "s",
        "trace.coverage": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# set-up


def fail(message: str):
    """Stop without a result: exit code 2 and the reason on stderr."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import crysred from this checkout's ``src``; nothing else will do."""
    if not (SRC / "crysred" / "__init__.py").is_file():
        fail(f"no crysred sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crysred
    # the workloads' entry modules: set-up pays for importing them, and the
    # span wrappers need them loaded to find every binding site
    from crysred import cli, report, witness  # noqa: F401

    if Path(crysred.__file__).resolve().parent != SRC / "crysred":
        fail(f"crysred imported from {crysred.__file__}, not {SRC}")
    return crysred


def warm_up(workload: str) -> None:
    _, ok, _, err = workloads.run_item(workload, workloads.WARMUP[workload], time.perf_counter)
    if not ok:
        fail(f"warm-up item failed: {err}")


def setup_probe(workload: str) -> float:
    """Set-up as a fresh process pays it: import, then the warm-up item."""
    t0 = time.perf_counter()
    import_library()
    warm_up(workload)
    return time.perf_counter() - t0


def measure_setup(workload: str) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# timed passes


def run_pass(workload: str, entries, tracer=None) -> list[dict]:
    out = []
    for i, entry in enumerate(entries):
        if tracer is not None:
            tracer.item = i
        seconds, ok, dig, err = workloads.run_item(workload, entry["args"], time.perf_counter)
        if ok and dig != entry["digest"]:
            ok, err = False, f"answer digest {dig} differs from recorded {entry['digest']}"
        out.append({"args": entry["args"], "seconds": seconds, "ok": ok, "error": err})
    return out


def round_count(slots, seconds: float, passes_cost: float = 1.0) -> int:
    """Whole rounds whose recorded cost, times ``passes_cost``, comes
    nearest to ``seconds``."""
    nominal_round = sum(statistics.mean(e["cost_s"] for e in s) for s in slots)
    return max(1, round(seconds / (passes_cost * nominal_round)))


def round_entries(workload: str, seed: int, slots, rounds: int) -> list[dict]:
    return workloads.take(workloads.item_sequence(slots, workload, seed), rounds * len(slots))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has ten
    items beyond it: the eleventh-largest value."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(workload: str, seed: int, seconds: int, slots) -> tuple[dict, list, dict]:
    setup = measure_setup(workload)
    warm_up(workload)
    rounds = round_count(slots, seconds)
    entries = round_entries(workload, seed, slots, rounds)
    t0 = time.perf_counter()
    done = run_pass(workload, entries)
    elapsed = time.perf_counter() - t0
    times = [d["seconds"] for d in done]
    verified = sum(d["ok"] for d in done)
    tail_s, tail_pct = tail(times)
    metrics = {
        "items_per_s": verified / elapsed,
        "item_s_p50": statistics.median(times),
        "item_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"items": len(done), "rounds": rounds, "timed_s": elapsed, "tail_percentile": tail_pct,
             "failed_frac": (len(done) - verified) / len(done), "setup_samples_s": setup}
    return metrics, done, notes


def traced(workload: str, seed: int, seconds: int, slots) -> tuple[dict, list, dict]:
    warm_up(workload)
    rounds = round_count(slots, seconds, TRACED_PASSES_COST)
    entries = round_entries(workload, seed, slots, rounds)

    tracer = spans.Tracer()
    patches = spans.install_spans(tracer)
    try:
        traced_pass = run_pass(workload, entries, tracer)
    finally:
        patches.restore()
    counts = Counter()
    counters = spans.install_counters(counts)
    try:
        count_pass = run_pass(workload, entries)
    finally:
        counters.restore()
    bare_pass = run_pass(workload, entries)

    traced_s = sum(d["seconds"] for d in traced_pass)
    bare_s = sum(d["seconds"] for d in bare_pass)
    census_s = tracer.self_s[spans.COUNT_SPAN]
    metrics = {f"{layer}.self_s": tracer.self_s[layer] for layer in spans.LAYERS}
    metrics.update({f"{layer}.calls": tracer.calls[layer] for layer in COUNT_METRICS})
    add_calls = tracer.calls["linalg.add"]
    terms = tracer.counts["hecke.terms_out"]
    metrics.update({
        "linalg.add.accept_ratio": tracer.counts["linalg.add.accepted"] / add_calls if add_calls else 0.0,
        "hecke.terms_out": terms,
        "hecke.high_val_share": tracer.counts["hecke.terms_high_val"] / terms if terms else 0.0,
        "arith.apcoeff_ops": counts["arith.apcoeff_ops"],
        f"{spans.COUNT_SPAN}.self_s": census_s,
        "trace.coverage": sum(tracer.self_s[layer] for layer in spans.LAYERS
                              if layer not in ENTRY_LAYERS) / (traced_s - census_s),
        "trace.overhead_ratio": traced_s / bare_s,
    })
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.npz"
    tracer.write(span_file)
    notes = {"items": len(entries), "rounds": rounds, "traced_s": traced_s, "bare_s": bare_s,
             "spans": len(tracer.span_start), "span_file": str(span_file.relative_to(ROOT))}
    return metrics, traced_pass + count_pass + bare_pass, notes


# ---------------------------------------------------------------------------
# reporting


def machine(seed: int, workload: str) -> dict:
    import numpy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "crysred").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "commit": git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="crysred benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload))
        return 0
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    import_library()
    slots = workloads.slots(workloads.load_pool(), args.workload)
    measure = traced if args.trace else end_to_end
    metrics, done, notes = measure(args.workload, args.seed, args.seconds, slots)
    units = per_layer_units() if args.trace else end_to_end_units()
    failed = [d for d in done if not d["ok"]]
    info = machine(args.seed, args.workload)

    print(" ".join(f"{k}={v}" for k, v in info.items()))
    print(f"items: {len(done)} attempted, {len(failed)} failed; "
          + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in notes.items() if not isinstance(v, list)))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit:6s} ({notes['items']} items)")
    for d in failed[:5]:
        print(f"FAILED {d['args']}: {d['error']}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, machine=info, notes=notes,
                  items=[[d["args"], d["seconds"], d["ok"]] for d in done])
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
