"""The empirical half of the complexity contract (rule RPR009).

Runs every registered probe over its geometric size ladder with the
scaling primitives of :mod:`repro.complexity.counter`, fits the
log–log slope, and turns violations into :class:`~repro.analysis.rules.
Finding` records so they flow through the same reporters and exit-code
contract as the AST rules.

Two independent checks per probe:

- **tolerance** — the fitted exponent must not exceed the *claimed*
  exponent (the docstring claim evaluated under the probe's couplings)
  by more than ``DEFAULT_TOLERANCE``.  Wall-clock slopes are noisy and
  biased *low* by constant overhead at small sizes, so the band is
  generous; a real class change (O(nnz) decaying to O(m·n)) overshoots
  it by a multiple.  A probe with ``measure="flam"`` sweeps operation
  counts instead of seconds — deterministic, so those probes carry a
  much tighter per-probe ``tolerance`` override.
- **ratchet** — the fitted exponent must not exceed the value recorded
  in the checked-in ``complexity_baseline.json`` by more than
  ``RATCHET_MARGIN``.  This catches regressions that stay inside the
  absolute band (a claim with slack, quietly eaten).

``--update-complexity-baseline`` rewrites the baseline from the current
run; the diff is then reviewed like any other ratchet move.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.complexity.probes import (
    PROBES,
    ProbeSpec,
    claim_for,
    get_probe,
    resolve_target,
)
from repro.analysis.rules import Finding

__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_TOLERANCE",
    "RATCHET_MARGIN",
    "ProbeResult",
    "baseline_payload",
    "contention_notice",
    "findings_from_results",
    "host_load",
    "load_baseline",
    "run_harness",
    "run_probe",
    "write_report",
]

DEFAULT_TOLERANCE = 0.45
RATCHET_MARGIN = 0.35
BASELINE_VERSION = 1
DEFAULT_BASELINE_PATH = "complexity_baseline.json"

#: Measurement knobs per scale tier: (repeats, min_time seconds).  The
#: smoke tier trades precision for CI latency; the full tier is what
#: regenerates the baseline.
_MEASUREMENT: Mapping[str, Tuple[int, float]] = {
    "smoke": (2, 0.01),
    "full": (3, 0.05),
}


@dataclass(frozen=True)
class ProbeResult:
    """One probe's sweep: the claim, its exponent, and the fit."""

    name: str
    module: str
    qualname: str
    claim: str
    claimed_exponent: float
    fitted_exponent: float
    sizes: Tuple[int, ...]
    costs: Tuple[float, ...]

    def to_json(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "qualname": self.qualname,
            "claim": self.claim,
            "claimed_exponent": round(self.claimed_exponent, 4),
            "fitted_exponent": round(self.fitted_exponent, 4),
            "sizes": list(self.sizes),
            "costs": [float(f"{c:.3e}") for c in self.costs],
        }


def run_probe(spec: ProbeSpec, scale: str = "smoke", seed: int = 0) -> ProbeResult:
    """Sweep one probe and fit its scaling exponent.

    Each size gets a child generator spawned from ``seed``, so a probe
    run is reproducible end to end while sizes stay independent draws.
    """
    from repro.complexity.counter import loglog_slope, measure_seconds

    claim = claim_for(spec)
    claimed = claim.scaling_exponent(dict(spec.couplings))
    repeats, min_time = _MEASUREMENT.get(scale, _MEASUREMENT["smoke"])
    sizes = spec.sizes_for(scale)
    root = np.random.default_rng(seed)
    streams = root.spawn(len(sizes))
    costs: List[float] = []
    for size, rng in zip(sizes, streams):
        thunk = spec.build(size, rng)
        if spec.measure == "flam":
            # The thunk returns a deterministic operation count: one
            # call is exact, no repeats or autoranging needed.
            costs.append(float(thunk()))  # type: ignore[arg-type]
        else:
            costs.append(
                measure_seconds(thunk, repeats=repeats, min_time=min_time)
            )
    fitted = loglog_slope(sizes, costs)
    return ProbeResult(
        name=spec.name,
        module=spec.module,
        qualname=spec.qualname,
        claim=claim.normalized(),
        claimed_exponent=claimed,
        fitted_exponent=fitted,
        sizes=tuple(sizes),
        costs=tuple(costs),
    )


def run_harness(
    names: Optional[Sequence[str]] = None,
    scale: str = "smoke",
    seed: int = 0,
) -> List[ProbeResult]:
    """Run the selected (default: all) probes in name order."""
    selected = sorted(names) if names else sorted(PROBES)
    return [run_probe(get_probe(name), scale=scale, seed=seed) for name in selected]


def _target_location(spec: ProbeSpec, root: Path) -> Tuple[str, int]:
    """(repo-relative path, def line) of the probe's claimed object."""
    target = resolve_target(spec)
    if isinstance(target, property):  # pragma: no cover - none registered
        target = target.fget
    try:
        source_file = inspect.getsourcefile(target)
        line = inspect.getsourcelines(target)[1]
    except (TypeError, OSError):  # pragma: no cover - builtins only
        source_file, line = None, 1
    if source_file is None:  # pragma: no cover
        return spec.module.replace(".", "/") + ".py", 1
    path = Path(source_file).resolve()
    try:
        return str(path.relative_to(root.resolve())), line
    except ValueError:  # pragma: no cover - run from outside the repo
        return str(path), line


def findings_from_results(
    results: Sequence[ProbeResult],
    baseline: Optional[Mapping[str, Any]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    ratchet: float = RATCHET_MARGIN,
    root: Optional[Path] = None,
) -> List[Finding]:
    """RPR009 findings for exponent violations, reporter-ready."""
    root = root or Path.cwd()
    baseline_probes: Mapping[str, Any] = (
        baseline.get("probes", {}) if baseline else {}
    )
    findings: List[Finding] = []
    for result in results:
        spec = get_probe(result.name)
        path, line = _target_location(spec, root)
        band = spec.tolerance if spec.tolerance is not None else tolerance
        excess = result.fitted_exponent - result.claimed_exponent
        if excess > band:
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=0,
                    rule_id="RPR009",
                    message=(
                        f"probe {result.name!r}: measured scaling exponent "
                        f"{result.fitted_exponent:.2f} exceeds the claimed "
                        f"{result.claimed_exponent:.2f} (claim "
                        f"{result.claim}) by {excess:.2f} > tolerance "
                        f"{band:.2f}"
                    ),
                )
            )
            continue
        recorded = baseline_probes.get(result.name)
        if recorded is None:
            continue
        drift = result.fitted_exponent - float(recorded["fitted_exponent"])
        if drift > ratchet:
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=0,
                    rule_id="RPR009",
                    message=(
                        f"probe {result.name!r}: measured scaling exponent "
                        f"{result.fitted_exponent:.2f} drifted {drift:.2f} "
                        f"above the complexity_baseline.json value "
                        f"{float(recorded['fitted_exponent']):.2f} "
                        f"(ratchet margin {ratchet:.2f}); investigate, or "
                        "regenerate with --update-complexity-baseline"
                    ),
                )
            )
    return findings


def load_baseline(path: Path) -> Optional[Dict[str, Any]]:
    """The parsed baseline, or ``None`` when the file does not exist."""
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "probes" not in payload:
        raise ValueError(f"{path} is not a complexity baseline file")
    return payload


def baseline_payload(
    results: Sequence[ProbeResult],
    scale: str,
    tolerance: float = DEFAULT_TOLERANCE,
    ratchet: float = RATCHET_MARGIN,
) -> Dict[str, Any]:
    """The JSON document written to ``complexity_baseline.json``."""
    return {
        "version": BASELINE_VERSION,
        "scale": scale,
        "tolerance": tolerance,
        "ratchet_margin": ratchet,
        "probes": {result.name: result.to_json() for result in results},
    }


def host_load() -> Dict[str, Any]:
    """The host's load averages and this process's usable cores.

    The probes fit exponents to wall time, so other work on the host
    bends them: two probes read 2.01 and 2.42 against a claimed 1.00
    while a test suite shared a 2-core host, and 0 findings run alone.
    ``loadavg`` is ``os.getloadavg()`` (1, 5, 15 minutes), ``None``
    where the platform has none.
    """
    from repro.parallel.backends import effective_n_jobs

    try:
        load: Optional[List[float]] = [float(v) for v in os.getloadavg()]
    except (AttributeError, OSError):
        load = None
    return {"loadavg": load, "usable_cores": effective_n_jobs(-1)}


def contention_notice(host: Mapping[str, Any]) -> Optional[str]:
    """One line when the 1-minute load reaches the usable cores, else ``None``."""
    load = host.get("loadavg")
    cores = host["usable_cores"]
    if load is None or load[0] < cores:
        return None
    return (
        f"notice: 1-minute load {load[0]:.2f} >= {cores} usable core(s); "
        "the wall-clock probes may read high from contention, so run "
        "them alone"
    )


def write_report(
    path: Path,
    results: Sequence[ProbeResult],
    findings: Sequence[Finding],
    scale: str,
    host: Optional[Mapping[str, Any]] = None,
) -> None:
    """Persist the fitted-exponent report (the CI artifact).

    ``host`` (see :func:`host_load`) records the load the probes ran
    under; it informs the reader and changes no verdict.
    """
    payload = {
        "host": dict(host) if host is not None else None,
        "scale": scale,
        "probes": {result.name: result.to_json() for result in results},
        "violations": [
            {
                "path": f.path,
                "line": f.line,
                "rule": f.rule_id,
                "message": f.message,
            }
            for f in findings
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
