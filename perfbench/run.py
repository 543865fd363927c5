#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of didom on four real workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --quick

Run from the repository root.  It imports the didom under ``src/`` and uses
whichever kernel backend ``didom.kernels`` selects.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Times are in reference seconds:
CPU time scaled by the host's speed as ``calibrate.py`` measures it while
the workload runs.  ``--workload all`` runs every workload, each in its own
process.  ``--quick`` runs every workload once at a reduced size with all
of its checks, plus the tracer self-test.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibrate
import tracer as tracing
import workloads
from calibrate import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 6  # fresh processes that only set up; with this one, 7 samples
CALIBRATIONS = 5  # taken before and after set-up and the timed loop
CHILD_TIMEOUT_S = 600

END_TO_END = {
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def import_didom() -> SimpleNamespace:
    """Import the didom of this working tree and no other."""
    package = ROOT / "src" / "didom"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no didom package at {package}")
    sys.path.insert(0, str(package.parent))
    import didom
    import didom.families
    import didom.verify

    if Path(didom.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported didom from {didom.__file__}, not from {package}")
    return SimpleNamespace(
        auxgraph=didom.auxgraph,
        bnb_py=didom._bnb_py,
        compiled=getattr(didom.kernels, "_compiled", None),
        core=didom.core,
        families=didom.families,
        kernels=didom.kernels,
        products=didom.products,
        solvers=didom.solvers,
        verify=didom.verify,
    )


def backend_name(dd: SimpleNamespace) -> str:
    if not dd.kernels.has_compiled_kernels():
        return "pure (compiled extension not importable)"
    if os.environ.get("DIDOM_PURE_PYTHON"):
        return "pure (DIDOM_PURE_PYTHON is set)"
    return "compiled up to 64 vertices, pure above"


def percentile(sorted_values: list, pct: int) -> float:
    """Nearest-rank percentile: the smallest value with pct% at or below it;
    0 when no item finished."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def run_workload(args) -> dict:
    # every time reported is in reference seconds (calibrate.py)
    cal = calibrate.Calibrator()
    cal.burst(CALIBRATIONS)
    first = len(cal.at)
    start_setup = clock()
    with cal.periodic():
        dd = import_didom()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        wl = workloads.WORKLOADS[args.workload](dd, args.seed, args.quick, OUT)
    setup_ns = clock() - start_setup - cal.spent_ns(first)
    cal.burst(CALIBRATIONS)
    setup_s = setup_ns * cal.scale() / 1e9
    if args.setup_only:
        wl.close()
        return {"setup_s": setup_s}
    rounds = 1 if args.quick else wl.trace_rounds if tracer else None
    setup_samples = [setup_s]
    probing = not (tracer or args.quick)
    if tracer:
        tracer.reset()
    elif probing:
        # half before and half after the timed loop, which samples two
        # states of a host whose speed drifts over tens of seconds
        setup_samples += probe_setup(args, SETUP_PROBES // 2)

    wl.cal = cal = calibrate.Calibrator()
    cal.burst(CALIBRATIONS)
    first = len(cal.at)
    attempted = r = 0
    start, start_cpu = perf_counter(), clock()
    # in a traced run, a calibration counts in no span's self time
    with cal.periodic(tracer.untraced(cal.sample) if tracer else None):
        while True:
            if tracer:
                tracer.new_round()
            attempted += wl.run_round(r)
            r += 1
            if r == rounds or (rounds is None and perf_counter() - start >= args.seconds):
                break
    elapsed = (clock() - start_cpu - cal.spent_ns(first)) / 1e9
    cal.burst(CALIBRATIONS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    start_check = perf_counter()
    problems = wl.check() + workloads.backend_problems(dd)
    wl.close()
    check_s = perf_counter() - start_check
    if probing:
        setup_samples += probe_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
    for problem in (wl.errors + problems)[:20]:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    failed = min(attempted, wl.failed + len(problems))
    items = len(wl.times)
    scale = cal.scale()
    items_per_s = items / (elapsed * scale)

    print(
        f"{args.workload}: seed={args.seed} backend={backend_name(dd)} rounds={r} "
        f"items={items} timed={elapsed:.3f}s checked={check_s:.3f}s trace={int(bool(tracer))}"
    )
    if tracer:
        metrics = tracer.layer_metrics(wl.records, items_per_s)
        path = OUT / f"trace-{args.workload}-{args.seed}.tsv"
        tracer.write(path)
        print(f"spans: {len(tracer.span_name)} written to {path.relative_to(ROOT)}")
    else:
        times_ms = sorted(t / 1e6 for t in wl.times)
        values = {
            "items_per_s": items_per_s,
            "item_ms.p50": percentile(times_ms, 50),
            "item_ms.p99": percentile(times_ms, 99),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        print(
            f"host scale {scale:.4f} from {len(cal.at)} calibrations; "
            f"raw items_per_s {items / elapsed:.6g}"
        )
        print("setup samples: " + " ".join(f"{s:.4f}" for s in setup_samples))
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']}")
    # an operation that raised counts as failed; correct speaks of the outputs
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def child(argv: list) -> dict:
    """Run this script in a fresh process; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}")
    if len(lines) > 1:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def probe_setup(args, count: int) -> list:
    """Set-up times of fresh processes that build the same inputs."""
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    return [child(argv)["setup_s"] for _ in range(count)]


def add_result(total: dict, name: str, res: dict, metrics: bool = True) -> None:
    total["correct"] = total["correct"] and res["correct"]
    total["attempted"] += res["attempted"]
    total["failed"] += res["failed"]
    if metrics:
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m


def run_all(args) -> dict:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        res = child(argv + ["--trace", str(args.trace)])
        add_result(total, name, res)
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    return total


def run_quick(args) -> dict:
    """Every workload at reduced size, untraced and traced twice, plus the
    tracer self-test; the traced runs' counts must repeat exactly."""
    problems = tracing.self_test()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        base = ["--workload", name, "--seed", str(args.seed), "--quick"]
        runs = [child(base + ["--trace", str(t)]) for t in (0, 1, 1)]
        for i, res in enumerate(runs):
            add_result(total, name, res, metrics=i == 0)
        first, second = runs[1]["metrics"], runs[2]["metrics"]
        for key in tracing.COUNTS:
            if first[key]["value"] != second[key]["value"]:
                problems.append(f"{name}: {key} {first[key]['value']} then {second[key]['value']}")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    print(f"tracer self-test: {'ok' if not problems else f'{len(problems)} problems'}")
    total["correct"] = total["correct"] and not problems
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.quick and args.workload == "all":
            result = run_quick(args)
        elif args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args)
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    if args.quick and args.workload == "all":
        return 0 if result["correct"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
