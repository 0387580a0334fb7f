"""The complexity-contract machinery: grammar, probes, harness, ratchet.

Grammar tests pin the claim language (what parses, what the exponents
evaluate to); registry tests assert every registered probe is wired to
a real object whose docstring carries a parseable claim; harness tests
drive the tolerance and ratchet verdicts on synthetic results so they
stay deterministic, plus one real (tiny) empirical sweep.
"""

import json
import math

import numpy as np
import pytest

from repro.analysis.complexity.grammar import (
    CLAIM_MARKER_RE,
    VOCABULARY,
    ClaimParseError,
    claim_from_docstring,
    extract_claim_text,
    parse_claim,
)
from repro.analysis.complexity.harness import (
    DEFAULT_TOLERANCE,
    RATCHET_MARGIN,
    ProbeResult,
    baseline_payload,
    contention_notice,
    findings_from_results,
    host_load,
    load_baseline,
    run_probe,
    write_report,
)
from repro.analysis.complexity.probes import (
    PROBES,
    ProbeSpec,
    claim_for,
    claimed_exponent,
    get_probe,
    resolve_target,
)
from repro.complexity.counter import (
    ScalingMeasurement,
    loglog_slope,
    measure_scaling,
    measure_seconds,
)


# ----------------------------------------------------------------------
# Claim grammar
# ----------------------------------------------------------------------
class TestGrammar:
    @pytest.mark.parametrize(
        "text, variables",
        [
            ("nnz", ("nnz",)),
            ("m·c^2", ("c", "m")),
            ("m c", ("c", "m")),  # juxtaposition is multiplication
            ("iters·(nnz + m + n)", ("iters", "m", "n", "nnz")),
            ("nnz log nnz", ("nnz",)),
            ("m·n²", ("m", "n")),  # unicode superscript power
            ("m×n", ("m", "n")),  # unicode multiplication sign
            ("1", ()),
        ],
    )
    def test_valid_claims_parse(self, text, variables):
        claim = parse_claim(text)
        assert claim.variables == variables

    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty
            "q",  # not in the vocabulary
            "m +",  # dangling operator
            "m^x",  # non-integer power
            "m (",  # unbalanced
            "m n ~",  # stray character
        ],
    )
    def test_invalid_claims_raise(self, text):
        with pytest.raises(ClaimParseError):
            parse_claim(text)

    def test_vocabulary_is_the_documented_seven(self):
        assert sorted(VOCABULARY) == [
            "c",
            "iters",
            "k",
            "m",
            "n",
            "nnz",
            "s",
        ]

    def test_evaluate(self):
        claim = parse_claim("iters·(nnz + m + n)")
        value = claim.evaluate({"iters": 2, "nnz": 100, "m": 10, "n": 5})
        assert value == 2 * (100 + 10 + 5)

    def test_scaling_exponent_linear(self):
        claim = parse_claim("nnz")
        assert claim.scaling_exponent({"nnz": 1.0}) == pytest.approx(1.0)

    def test_scaling_exponent_held_variables_are_constant(self):
        # c is held, so O(m·c^2) grows linearly in the size parameter.
        claim = parse_claim("m·c^2")
        assert claim.scaling_exponent({"m": 1.0}) == pytest.approx(1.0)

    def test_scaling_exponent_quadratic_coupling(self):
        claim = parse_claim("m·n")
        exponent = claim.scaling_exponent({"m": 1.0, "n": 1.0})
        assert exponent == pytest.approx(2.0)

    def test_scaling_exponent_sum_takes_dominant_term(self):
        claim = parse_claim("m^2 + n")
        exponent = claim.scaling_exponent({"m": 1.0, "n": 1.0})
        assert 1.9 < exponent <= 2.0

    def test_log_factor_contributes_sub_polynomial_growth(self):
        claim = parse_claim("nnz log nnz")
        exponent = claim.scaling_exponent({"nnz": 1.0})
        assert 1.0 < exponent < 1.2

    def test_normalized_rendering_round_trips(self):
        for text in ("m c", "iters·(nnz + m + n)", "nnz log nnz", "m·n²"):
            rendered = parse_claim(text).normalized()
            inner = rendered[len("O(") : -1]
            again = parse_claim(inner)
            values = {name: 3.0 for name in again.variables}
            assert again.evaluate(values) == pytest.approx(
                parse_claim(text).evaluate(values)
            )

    def test_extract_from_docstring_prose_tail_ignored(self):
        doc = "Does a thing.\n\nComplexity: O(m·c) per call, amortized.\n"
        assert extract_claim_text(doc) == "m·c"

    def test_extract_unclosed_parenthesis_raises(self):
        with pytest.raises(ClaimParseError):
            extract_claim_text("Complexity: O(m·c per call.\n")

    def test_literal_ellipsis_is_a_mention_not_a_claim(self):
        # This is how docs talk *about* the grammar.
        doc = "Requires a `Complexity: O(...)` line."
        assert CLAIM_MARKER_RE.search(doc) is None
        assert claim_from_docstring(doc) is None

    def test_no_claim_returns_none(self):
        assert claim_from_docstring("Just prose.") is None
        assert claim_from_docstring(None) is None


# ----------------------------------------------------------------------
# Probe registry wiring
# ----------------------------------------------------------------------
class TestProbeRegistry:
    def test_at_least_eight_probes_including_the_required_kernels(self):
        assert len(PROBES) >= 8
        for required in (
            "csr_matvec",
            "csr_matmat",
            "countsketch_apply",
            "srda_fit_sparse",
        ):
            assert required in PROBES

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_every_probe_targets_a_parseable_claim(self, name):
        spec = get_probe(name)
        assert resolve_target(spec) is not None
        claim = claim_for(spec)
        exponent = claimed_exponent(spec)
        assert math.isfinite(exponent)
        assert 0.0 <= exponent <= 3.0
        # every coupling variable must be meaningful to the claim or a
        # documented vocabulary symbol (couplings may scale variables
        # the claim does not mention, e.g. m for an O(nnz) claim)
        for variable in spec.couplings:
            assert variable in VOCABULARY
        assert claim.variables  # a constant claim cannot be probed

    def test_unknown_probe_name_raises(self):
        with pytest.raises(ValueError, match="unknown probe"):
            get_probe("definitely_not_registered")

    def test_duplicate_registration_rejected(self):
        from repro.analysis.complexity.probes import register_probe

        existing = get_probe("csr_matvec")
        with pytest.raises(ValueError, match="duplicate"):
            register_probe(existing)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            get_probe("csr_matvec").sizes_for("galactic")


# ----------------------------------------------------------------------
# Scaling-probe primitives (repro.complexity.counter)
# ----------------------------------------------------------------------
class TestScalingPrimitives:
    def test_measure_seconds_positive_and_repeat_validated(self):
        assert measure_seconds(lambda: None, repeats=1, min_time=0.0) > 0
        with pytest.raises(ValueError):
            measure_seconds(lambda: None, repeats=0)

    def test_measure_scaling_fits_a_linear_kernel(self):
        def make(size):
            x = np.zeros(size)
            return lambda: x + 1.0

        sweep = measure_scaling(make, [50_000, 100_000, 200_000, 400_000])
        assert isinstance(sweep, ScalingMeasurement)
        assert len(sweep.costs) == 4
        assert 0.4 < sweep.slope < 1.6

    def test_measure_scaling_needs_two_sizes(self):
        with pytest.raises(ValueError):
            measure_scaling(lambda size: (lambda: None), [100])

    def test_slope_property_matches_loglog_slope(self):
        sweep = ScalingMeasurement(sizes=(10, 100), costs=(1.0, 10.0))
        assert sweep.slope == pytest.approx(
            loglog_slope((10, 100), (1.0, 10.0))
        )


# ----------------------------------------------------------------------
# Harness verdicts (synthetic, deterministic)
# ----------------------------------------------------------------------
def _result(name="csr_matvec", fitted=1.0, claimed=1.0):
    spec = get_probe(name)
    return ProbeResult(
        name=name,
        module=spec.module,
        qualname=spec.qualname,
        claim="O(nnz)",
        claimed_exponent=claimed,
        fitted_exponent=fitted,
        sizes=(1000, 2000),
        costs=(1e-4, 2e-4),
    )


class TestHarnessVerdicts:
    def test_within_tolerance_is_clean(self):
        results = [_result(fitted=1.0 + DEFAULT_TOLERANCE - 0.01)]
        assert findings_from_results(results) == []

    def test_exceeding_tolerance_fires_rpr009_at_the_kernel_def(self):
        results = [_result(fitted=2.1)]
        (finding,) = findings_from_results(results)
        assert finding.rule_id == "RPR009"
        assert "exceeds the claimed" in finding.message
        assert finding.path.endswith("src/repro/linalg/sparse.py")
        assert finding.line > 1  # anchored at the claimed def, not line 1

    def test_ratchet_fires_inside_the_absolute_band(self):
        # 1.30 is within tolerance of the claim but far above a 0.9
        # baseline: the ratchet catches claims whose slack erodes.
        baseline = {
            "probes": {"csr_matvec": {"fitted_exponent": 0.9}},
        }
        results = [_result(fitted=0.9 + RATCHET_MARGIN + 0.1)]
        (finding,) = findings_from_results(results, baseline=baseline)
        assert finding.rule_id == "RPR009"
        assert "complexity_baseline.json" in finding.message

    def test_ratchet_silent_without_baseline_entry(self):
        baseline = {"probes": {"some_other_probe": {"fitted_exponent": 1.0}}}
        results = [_result(fitted=1.3)]
        assert findings_from_results(results, baseline=baseline) == []

    def test_baseline_round_trip(self, tmp_path):
        results = [_result()]
        payload = baseline_payload(results, scale="smoke")
        path = tmp_path / "complexity_baseline.json"
        path.write_text(json.dumps(payload))
        loaded = load_baseline(path)
        assert loaded["probes"]["csr_matvec"]["claim"] == "O(nnz)"
        assert load_baseline(tmp_path / "missing.json") is None

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a complexity baseline"):
            load_baseline(path)

    def test_report_written_with_violations(self, tmp_path):
        results = [_result(fitted=2.5)]
        findings = findings_from_results(results)
        report = tmp_path / "out" / "report.json"
        write_report(report, results, findings, scale="smoke")
        payload = json.loads(report.read_text())
        assert payload["scale"] == "smoke"
        assert payload["probes"]["csr_matvec"]["fitted_exponent"] == 2.5
        assert payload["violations"][0]["rule"] == "RPR009"
        assert payload["host"] is None

    def test_report_records_host_load(self, tmp_path):
        host = host_load()
        assert host["usable_cores"] >= 1
        assert host["loadavg"] is None or len(host["loadavg"]) == 3
        report = tmp_path / "report.json"
        write_report(report, [_result(fitted=1.0)], [], "smoke", host=host)
        assert json.loads(report.read_text())["host"] == host

    @pytest.mark.parametrize(
        "load, notice", [(None, False), (1.99, False), (2.0, True), (5.0, True)]
    )
    def test_contention_notice_at_load_of_usable_cores(self, load, notice):
        host = {
            "loadavg": None if load is None else [load, 0.0, 0.0],
            "usable_cores": 2,
        }
        line = contention_notice(host)
        assert (line is not None) == notice
        if notice:
            assert line.startswith("notice:") and "\n" not in line


# ----------------------------------------------------------------------
# One real sweep, kept tiny: the machinery measures an actual kernel.
# ----------------------------------------------------------------------
class TestEmpiricalSweep:
    def test_csr_matvec_probe_measures_near_linear(self):
        spec = get_probe("csr_matvec")
        tiny = ProbeSpec(
            name="csr_matvec_tiny",
            module=spec.module,
            qualname=spec.qualname,
            couplings=spec.couplings,
            build=spec.build,
            sizes={"smoke": (4_000, 16_000, 64_000)},
        )
        result = run_probe(tiny, scale="smoke", seed=7)
        assert result.claim == "O(nnz)"
        assert result.claimed_exponent == pytest.approx(1.0)
        # generous band: CI machines are noisy, and the harness's own
        # tolerance is what real enforcement uses
        assert 0.3 < result.fitted_exponent < 1.7
        assert result.sizes == (4_000, 16_000, 64_000)
        assert all(cost > 0 for cost in result.costs)

    def test_checked_in_baseline_matches_registry(self):
        from pathlib import Path

        baseline_file = (
            Path(__file__).resolve().parents[2] / "complexity_baseline.json"
        )
        payload = load_baseline(baseline_file)
        assert payload is not None
        assert sorted(payload["probes"]) == sorted(PROBES)
        for name, entry in payload["probes"].items():
            spec = get_probe(name)
            assert entry["module"] == spec.module
            assert entry["qualname"] == spec.qualname
            # the recorded claim must match the docstring's current one
            assert entry["claim"] == claim_for(spec).normalized()
            assert abs(
                entry["fitted_exponent"] - entry["claimed_exponent"]
            ) <= DEFAULT_TOLERANCE
