"""Command-line interface: ``python -m repro <command>``.

Three commands mirror the repository's main entry points:

- ``bench`` — run one dataset's (algorithm × training size × split)
  sweep and print the paper-style error and time tables;
- ``table1`` — print the Table-I complexity model for a problem size;
- ``serve`` — expose a fitted (or demo) model over HTTP with request
  batching and SLO metrics (see ``docs/SERVING.md``);
- ``info`` — package version and component inventory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

DATASET_BUILDERS = {
    "pie": lambda scale, seed: _faces(scale, seed),
    "isolet": lambda scale, seed: _isolet(scale, seed),
    "mnist": lambda scale, seed: _mnist(scale, seed),
    "news": lambda scale, seed: _news(scale, seed),
}


def _faces(scale, seed):
    from repro.datasets import make_faces

    if scale == "paper":
        return make_faces(seed=seed)
    # 80 images/subject keeps the declared default train sizes (up to
    # 60/class) feasible at the small scale
    return make_faces(n_subjects=20, images_per_subject=80, seed=seed)


def _isolet(scale, seed):
    from repro.datasets import make_spoken_letters

    if scale == "paper":
        return make_spoken_letters(seed=seed)
    # 60 train speakers = 120 samples/class, enough for the largest
    # declared size (110/class)
    return make_spoken_letters(
        n_train_speakers=60, n_test_speakers=10, seed=seed
    )


def _mnist(scale, seed):
    from repro.datasets import make_digits

    if scale == "paper":
        return make_digits(seed=seed)
    # 2000 train = 200/class, covering the declared sizes up to 170
    return make_digits(n_train=2000, n_test=400, seed=seed)


def _news(scale, seed):
    from repro.datasets import make_text

    if scale == "paper":
        return make_text(seed=seed)
    return make_text(n_docs=3000, vocab_size=26214, seed=seed)


def _algorithms(
    names: List[str],
    sparse: bool,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    solver: Optional[str] = None,
):
    from repro import IDRQR, LDA, RLDA, SRDA, SolverConfig

    parallel = {}
    if backend is not None:
        # Route SRDA's operator products through the chosen backend
        # (results are bitwise identical for a given data shape — the
        # shard layout never depends on the backend or worker count).
        parallel = {"backend": backend, "n_jobs": workers}
    # --solver overrides SRDA's solver choice on both the sparse path
    # (default "lsqr" per the paper's 20Newsgroups protocol) and the
    # dense path (default "auto").
    sparse_config = SolverConfig(
        solver=solver if solver is not None else "lsqr", **parallel
    )
    dense_config = SolverConfig(
        solver=solver if solver is not None else "auto", **parallel
    )
    registry = {
        "lda": ("LDA", lambda: LDA()),
        "rlda": ("RLDA", lambda: RLDA(alpha=1.0)),
        "srda": (
            "SRDA",
            (
                lambda: SRDA(
                    alpha=1.0, config=sparse_config, max_iter=15, tol=0.0,
                )
            )
            if sparse
            else (lambda: SRDA(alpha=1.0, config=dense_config)),
        ),
        "idrqr": ("IDR/QR", lambda: IDRQR(alpha=1.0)),
    }
    selected = {}
    for name in names:
        key = name.lower()
        if key not in registry:
            raise SystemExit(
                f"unknown algorithm {name!r}; choose from "
                f"{sorted(registry)}"
            )
        label, factory = registry[key]
        selected[label] = factory
    return selected


def _configure_tracing(args):
    """Install the global tracer per --trace-jsonl/--profile.

    Returns the in-memory sink that backs ``--profile`` (or ``None``),
    so the caller can render the table after the run.
    """
    if not (args.trace_jsonl or args.profile):
        return None
    from repro.observability import (
        InMemorySink,
        JsonlSink,
        MultiSink,
        configure,
    )

    sinks = []
    profile_sink = None
    if args.trace_jsonl:
        sinks.append(JsonlSink(args.trace_jsonl))
    if args.profile:
        profile_sink = InMemorySink()
        sinks.append(profile_sink)
    configure(sink=sinks[0] if len(sinks) == 1 else MultiSink(sinks))
    return profile_sink


def _finish_tracing(profile_sink) -> None:
    """Flush the global tracer and print the profile table if asked."""
    from repro.observability import format_profile, get_tracer

    tracer = get_tracer()
    if not tracer.enabled:
        return
    tracer.close()
    if profile_sink is not None:
        print()
        print(format_profile(profile_sink.spans, metrics=tracer.metrics))


def cmd_bench(args) -> int:
    from repro.eval import (
        format_error_table,
        format_time_table,
        run_experiment,
    )

    profile_sink = _configure_tracing(args)
    if args.cache:
        from repro.datasets.cache import cached

        dataset = cached(
            lambda: DATASET_BUILDERS[args.dataset](args.scale, args.seed),
            args.cache,
        )
    else:
        dataset = DATASET_BUILDERS[args.dataset](args.scale, args.seed)
    algorithms = _algorithms(
        args.algorithms,
        dataset.is_sparse,
        backend=args.backend,
        workers=args.workers,
        solver=args.solver,
    )
    sizes = None
    if args.sizes:
        raw = [float(s) for s in args.sizes.split(",")]
        sizes = [s if s < 1 else int(s) for s in raw]
    budget = args.memory_budget_gb * 1e9 if args.memory_budget_gb else None
    result = run_experiment(
        dataset,
        algorithms,
        train_sizes=sizes,
        n_splits=args.splits,
        seed=args.seed,
        memory_budget_bytes=budget,
        continue_on_error=not args.fail_fast,
        retries=args.retries,
        checkpoint_path=args.checkpoint,
        n_jobs=args.jobs,
    )
    print(format_error_table(result))
    print()
    print(format_time_table(result))
    _finish_tracing(profile_sink)
    return 0


def cmd_table1(args) -> int:
    from repro.complexity import table1

    rows = table1(args.m, args.n, args.c, k=args.k, s=args.s)
    print(
        f"Table I model at m={args.m}, n={args.n}, c={args.c}, "
        f"k={args.k}" + (f", s={args.s}" if args.s else "")
    )
    print(f"{'algorithm':28} {'flam':>14} {'memory (floats)':>16}")
    print("-" * 60)
    for name, row in rows.items():
        print(f"{name:28} {row['flam']:14.3e} {row['memory']:16.3e}")
    return 0


def cmd_serve(args) -> int:
    import numpy as np

    from repro.serving.registry import ModelRegistry
    from repro.serving.server import ServingApp, serve_forever

    tracer = None
    if args.trace_jsonl:
        from repro.observability import JsonlSink, configure, get_tracer

        configure(sink=JsonlSink(args.trace_jsonl))
        tracer = get_tracer()

    if args.model_path:
        from repro.io import load_model

        model = load_model(args.model_path)
        name = args.name or type(model).__name__.lower()
    else:
        # Demo model: a small synthetic problem so the server is
        # exercisable without any dataset on disk.
        from repro import SRDA, SolverConfig

        rng = np.random.default_rng(args.seed)
        centers = 4.0 * rng.standard_normal((args.classes, args.features))
        X = np.vstack(
            [
                centers[k]
                + rng.standard_normal(
                    (args.rows // args.classes, args.features)
                )
                for k in range(args.classes)
            ]
        )
        y = np.repeat(np.arange(args.classes), args.rows // args.classes)
        # Seed via partial_fit so POST /partial_fit extends this same
        # incremental stream instead of starting a fresh one.
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), tol=1e-8
        ).partial_fit(X, y)
        name = args.name or "srda-demo"
        print(
            f"fitted demo SRDA on {X.shape[0]}x{X.shape[1]} "
            f"synthetic rows ({args.classes} classes)"
        )

    registry = ModelRegistry()
    registry.register(name, model, note="served at startup")
    app = ServingApp(
        registry,
        name,
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        tracer=tracer,
    )
    try:
        serve_forever(app, args.host, args.port)
    finally:
        if tracer is not None:
            tracer.close()
    return 0


def cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — SRDA (ICDE 2008) reproduction")
    print("estimators: " + ", ".join(sorted(repro.all_estimators())))
    print("datasets:   pie, isolet, mnist, news (synthetic, Table II shapes)")
    print("run 'python -m repro bench --help' to reproduce a table")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.parallel.backends import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SRDA paper reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench", help="run a table sweep")
    bench.add_argument("dataset", choices=sorted(DATASET_BUILDERS))
    bench.add_argument(
        "--algorithms", nargs="+", default=["lda", "rlda", "srda", "idrqr"]
    )
    bench.add_argument(
        "--sizes",
        help="comma-separated per-class counts or ratios (<1), "
        "e.g. '10,20,30' or '0.05,0.1'",
    )
    bench.add_argument("--splits", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--scale", choices=("small", "paper"), default="small"
    )
    bench.add_argument(
        "--memory-budget-gb", type=float, default=None,
        help="fail algorithms whose predicted working set exceeds this",
    )
    bench.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first algorithm error instead of "
        "recording it as a failed cell and continuing",
    )
    bench.add_argument(
        "--retries", type=int, default=0,
        help="re-attempt a failed fit this many times before recording "
        "the failure",
    )
    bench.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="persist sweep progress to PATH after each split and "
        "resume from it on restart",
    )
    bench.add_argument(
        "--cache", default=None, metavar="PATH",
        help="load the dataset from this .npz cache (generating and "
        "saving it on first use; corrupt caches are regenerated)",
    )
    bench.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run each split's per-algorithm cells on N worker threads "
        "(-1 = all cores); results are bitwise identical to --jobs 1",
    )
    bench.add_argument(
        "--backend", default=None,
        choices=BACKEND_NAMES,
        help="execution backend for SRDA's operator products: 'serial' "
        "runs the shards inline, 'thread' on --workers threads",
    )
    bench.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker count for --backend (-1 = all cores)",
    )
    bench.add_argument(
        "--solver", default=None,
        choices=("auto", "normal", "lsqr", "sketched_lsqr"),
        help="override SRDA's solver; 'sketched_lsqr' adds a "
        "sketch-and-precondition step that cuts LSQR iteration counts "
        "2-5x at equal accuracy on ill-conditioned data",
    )
    bench.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="write observability spans, solver iteration events, and "
        "metrics to PATH as JSON Lines (validate with "
        "'python -m repro.observability PATH')",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="print a per-span wall-time profile (and counters) after "
        "the sweep",
    )
    bench.set_defaults(func=cmd_bench)

    model = commands.add_parser("table1", help="print the complexity model")
    model.add_argument("--m", type=int, required=True)
    model.add_argument("--n", type=int, required=True)
    model.add_argument("--c", type=int, default=10)
    model.add_argument("--k", type=int, default=20)
    model.add_argument("--s", type=float, default=None)
    model.set_defaults(func=cmd_table1)

    serve = commands.add_parser(
        "serve",
        help="serve a fitted model over HTTP with request batching",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="0 binds an ephemeral port (printed at startup)",
    )
    serve.add_argument(
        "--model-path", default=None, metavar="PATH",
        help="serve a model saved with repro.io.save_model; omitted = "
        "fit a demo SRDA on synthetic data",
    )
    serve.add_argument(
        "--name", default=None,
        help="registry name for the served model",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="max rows coalesced into one block predict",
    )
    serve.add_argument(
        "--max-wait", type=float, default=0.002,
        help="seconds to wait for stragglers after a batch opens",
    )
    serve.add_argument("--rows", type=int, default=600)
    serve.add_argument("--features", type=int, default=32)
    serve.add_argument("--classes", type=int, default=6)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="write spans and the final SLO metrics snapshot "
        "(p50/p95/p99 latency histograms) to PATH as JSON Lines",
    )
    serve.set_defaults(func=cmd_serve)

    info = commands.add_parser("info", help="package summary")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, RuntimeError, OSError) as exc:
        # Dataset errors (CorruptCacheError), solver errors
        # (NotPositiveDefiniteError, SolverFailure), and I/O failures all
        # derive from these; surface one actionable line, not a
        # traceback.  Genuine bugs (TypeError, AssertionError, ...)
        # still propagate.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
