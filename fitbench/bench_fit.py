"""End-to-end SRDA benchmark: whole fits, predictions and served requests.

Times what a user of the package waits for on the paper's workload
shapes — a complete ``SRDA.fit`` + ``predict``, and a request served
through ``repro.serving`` while the model is being updated — checks
that every timed output is correct, and, in a separate traced pass,
splits the time into the program's layers (see ``layers.py`` and
``README.md`` in this directory).

Run from the repository root.  Every workload, each in its own child
process, untraced and then traced; writes ``fitbench/BENCH_fit.json``::

    python3 fitbench/bench_fit.py [--seed N] [--smoke] [--out PATH]

One workload, one pass; prints one metric per line and, last, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 fitbench/bench_fit.py --workload news_lsqr --seed 3 \\
        --seconds 12 --trace 0

Both forms first build the compiled CSR kernels in place
(``python setup.py build_ext --inplace``); that build is not part of
any measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Names the workloads, their reasons and the metrics with their units.
SPEC = ROOT / "BENCHMARK.json"

#: The traced pass must explain this much of a traced fit's wall time.
MIN_LAYER_COVERAGE = 0.95

#: Seconds one workload run measures, by mode.
DEFAULT_SECONDS = {"full": 12.0, "smoke": 0.5}

#: Per-child limit of the all-workload run.
CHILD_TIMEOUT_S = 180.0

#: BLAS on one thread, set before numpy loads: the program's own
#: threads (the shard workers, the batcher) are then the only
#: parallelism, and no idle BLAS worker spins on a core the measured
#: code needs — on 2 cores such spinning made one predict use 2 cores'
#: worth of CPU time.
SINGLE_THREAD_BLAS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

INFO_PREFIX = "# info "


def build_extension() -> None:
    """Compile ``repro.linalg._csr_kernels`` in place, quietly."""
    setup = ROOT / "setup.py"
    if not setup.is_file():
        raise SystemExit(f"bench_fit: no {setup}; run from a repository checkout")
    proc = subprocess.run(
        [sys.executable, str(setup), "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("bench_fit: building the CSR kernels failed")


def _import_program() -> None:
    # The program and this benchmark's modules load only after the
    # build, because repro.linalg.kernels looks for the extension at
    # import time.
    for path in (str(HERE), str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads in run order, metrics with units."""
    if not SPEC.is_file():
        raise SystemExit(f"bench_fit: no {SPEC}; run from a repository checkout")
    with open(SPEC) as handle:
        return json.load(handle)


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One workload, one pass: metric lines, an info line, the result."""
    import workloads

    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        "smoke" if args.smoke else "full",
    )
    # a layer that does not run on this workload reads 0
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {
            "value": float(outcome.metrics.get(m["name"], 0.0)),
            "unit": m["unit"],
        }
        for m in declared
    }
    for name, metric in metrics.items():
        print(f"{args.workload:<13} {name:<30} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    for check in outcome.checks:
        status = "ok" if check.ok else "FAILED"
        print(f"{args.workload:<13} check {check.name}: {status} {check.detail}")
    info = dict(outcome.info)
    info["checks"] = [[c.name, c.ok, c.detail] for c in outcome.checks]
    print(INFO_PREFIX + json.dumps(info))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


def _child(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(trace), "--no-build",
    ]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith(INFO_PREFIX):
            print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_fit: {workload} (trace {trace}) failed")
    result = json.loads(lines[-1])
    result["info"] = next(
        json.loads(line[len(INFO_PREFIX):])
        for line in lines if line.startswith(INFO_PREFIX)
    )
    return result


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload in a fresh child, untraced then traced."""
    from benchmarks._provenance import provenance
    from workloads import SERVE_WORKLOAD

    report: Dict[str, Any] = {}
    for entry in spec["workloads"]:
        workload = entry["name"]
        plain = _child(args, workload, 0)
        traced = _child(args, workload, 1)
        report[workload] = {
            "why": entry["why"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "info": plain["info"],
            "trace_info": traced["info"],
        }
    coverage = {
        workload: 1.0 - entry["per_layer"]["srda.glue_share"]["value"]
        for workload, entry in report.items()
        if workload != SERVE_WORKLOAD
    }
    gate_passed = all(share >= MIN_LAYER_COVERAGE for share in coverage.values())
    failed: List[str] = [w for w, entry in report.items() if not entry["correct"]]
    print(f"layer coverage of traced fit wall time (gate >= "
          f"{MIN_LAYER_COVERAGE:.0%}): "
          + ", ".join(f"{w} {share:.1%}" for w, share in coverage.items()))
    payload = {
        "benchmark": "fit",
        "mode": "smoke" if args.smoke else "full",
        "seed": args.seed,
        "seconds": args.seconds,
        **provenance(gates_enforced=True),
        "coverage_gate": {
            "min_layer_coverage": MIN_LAYER_COVERAGE,
            "coverage": coverage,
            "passed": gate_passed,
        },
        "workloads": report,
    }
    out = args.out or (None if args.smoke else str(HERE / "BENCH_fit.json"))
    if out:
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {out}")
    if failed:
        print(f"incorrect output: {', '.join(failed)}")
    return 0 if gate_passed and not failed else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time whole SRDA fits, predictions and served requests."
    )
    spec = load_spec()
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload once (default: all, each "
                        "untraced and traced in its own child process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the data and the splits")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds each run measures (default 12; "
                        "0.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, reporting per-layer "
                        "metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets: checks the plumbing in seconds")
    parser.add_argument("--out", help="where the all-workload run writes "
                        "its JSON (default fitbench/BENCH_fit.json; "
                        "nothing with --smoke)")
    parser.add_argument("--no-build", action="store_true",
                        help="skip building the CSR kernels (the "
                        "all-workload run builds once for its children)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = DEFAULT_SECONDS["smoke" if args.smoke else "full"]
    os.environ.update(SINGLE_THREAD_BLAS)
    if not args.no_build:
        build_extension()
    _import_program()
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
