"""Command-line front end: ``python -m repro.analysis [paths...]``.

Exit status is the CI contract: 0 when no findings survive suppression,
1 when any finding is reported, 2 on usage errors.  The JSON reporter
(``--format json``) emits a machine-readable document for tooling; the
text reporter prints one ``path:line:col: RPRnnn message`` line per
finding plus a summary.

``--complexity`` switches from AST linting to the empirical harness
(:mod:`repro.analysis.complexity.harness`): registered kernel probes
run at geometrically spaced sizes, fitted exponents are checked against
the docstring claims and the ``complexity_baseline.json`` ratchet, and
violations come back as RPR009 findings through the same reporters and
exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, TextIO

from repro.analysis.linter import LintResult, lint_paths
from repro.analysis.rules import DEFAULT_RULES, rule_catalog

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Numeric-contract linter: AST rules (RPR001...) guarding the "
            "kernel invariants this reproduction depends on.  See "
            "docs/STATIC_ANALYSIS.md for the catalog and noqa policy."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="ID",
        help="print one rule's summary and rationale and exit",
    )
    complexity = parser.add_argument_group(
        "complexity contracts (rule RPR009)"
    )
    complexity.add_argument(
        "--complexity",
        action="store_true",
        help=(
            "run the empirical scaling harness instead of the AST "
            "linter; positional paths are ignored"
        ),
    )
    complexity.add_argument(
        "--complexity-scale",
        choices=("smoke", "full"),
        default="smoke",
        help="size ladder: smoke (CI, seconds) or full (baseline tier)",
    )
    complexity.add_argument(
        "--complexity-probes",
        metavar="NAMES",
        help="comma-separated probe names to run (default: all)",
    )
    complexity.add_argument(
        "--complexity-baseline",
        metavar="PATH",
        default="complexity_baseline.json",
        help="ratchet file (default: complexity_baseline.json)",
    )
    complexity.add_argument(
        "--update-complexity-baseline",
        action="store_true",
        help=(
            "rewrite the baseline from this run instead of checking it "
            "(with --complexity-probes, only those entries are replaced)"
        ),
    )
    complexity.add_argument(
        "--complexity-report",
        metavar="PATH",
        help="also write the fitted-exponent report (CI artifact) here",
    )
    complexity.add_argument(
        "--complexity-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the probe problem draws (default: 0)",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def _report_text(result: LintResult, stream: TextIO) -> None:
    for finding in result.findings:
        stream.write(
            f"{finding.location}: {finding.rule_id} {finding.message}\n"
        )
    stream.write(
        f"{len(result.findings)} finding(s), "
        f"{result.n_suppressed} suppressed, "
        f"{result.n_files} file(s) checked\n"
    )


def _report_json(result: LintResult, stream: TextIO) -> None:
    document = {
        "findings": [finding.to_dict() for finding in result.findings],
        "n_findings": len(result.findings),
        "n_suppressed": result.n_suppressed,
        "n_files": result.n_files,
    }
    json.dump(document, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _run_complexity(args: argparse.Namespace) -> int:
    # Imported here: the harness pulls in numpy and (lazily) the kernel
    # modules, none of which a plain lint run should pay for.
    from repro.analysis.complexity.harness import (
        baseline_payload,
        contention_notice,
        findings_from_results,
        host_load,
        load_baseline,
        run_harness,
        write_report,
    )
    from repro.analysis.complexity.probes import PROBES

    names = _split_codes(args.complexity_probes)
    if names:
        unknown = sorted(set(names) - set(PROBES))
        if unknown:
            print(
                f"unknown probe(s): {', '.join(unknown)}; "
                f"registered: {', '.join(sorted(PROBES))}",
                file=sys.stderr,
            )
            return 2
    host = host_load()
    notice = contention_notice(host)
    if notice is not None:
        print(notice, file=sys.stderr)
    results = run_harness(
        names=names, scale=args.complexity_scale, seed=args.complexity_seed
    )

    baseline_path = Path(args.complexity_baseline)
    if args.update_complexity_baseline:
        payload = baseline_payload(results, scale=args.complexity_scale)
        previous = load_baseline(baseline_path) if names else None
        if previous is not None:
            # A probe subset regenerates its own entries and keeps the rest.
            payload["probes"] = {**previous["probes"], **payload["probes"]}
        with baseline_path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"wrote {len(results)} probe baseline(s) to {baseline_path}",
            file=sys.stderr,
        )
        findings = findings_from_results(results, baseline=None)
    else:
        baseline = load_baseline(baseline_path)
        findings = findings_from_results(results, baseline=baseline)

    if args.complexity_report:
        write_report(
            Path(args.complexity_report),
            results,
            findings,
            scale=args.complexity_scale,
            host=host,
        )

    result = LintResult(
        findings=findings, n_files=len(results), n_suppressed=0
    )
    if args.format == "json":
        _report_json(result, sys.stdout)
    else:
        for probe in results:
            sys.stderr.write(
                f"probe {probe.name}: claim {probe.claim} "
                f"(exponent {probe.claimed_exponent:.2f}), "
                f"fitted {probe.fitted_exponent:.2f}\n"
            )
        _report_text(result, sys.stdout)
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(rule_catalog())
        return 0
    if args.explain:
        wanted = args.explain.upper()
        for rule in DEFAULT_RULES:
            if rule.rule_id == wanted:
                print(f"{rule.rule_id} ({rule.name})")
                print(f"  {rule.summary}")
                print(f"  rationale: {rule.rationale}")
                return 0
        print(f"unknown rule {args.explain!r}", file=sys.stderr)
        return 2

    if args.complexity:
        return _run_complexity(args)

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    result = lint_paths(
        [Path(path) for path in args.paths],
        select=_split_codes(args.select),
        ignore=_split_codes(args.ignore),
    )
    if args.format == "json":
        _report_json(result, sys.stdout)
    else:
        _report_text(result, sys.stdout)
    return 0 if result.ok else 1
