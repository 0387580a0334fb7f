"""Per-rule fixtures for the numeric-contract linter.

Every rule gets a *bad* snippet that must fire with the right rule ID
and line, and a *good twin* — the closest conforming code — that must
stay silent.  Paths are synthetic: rule scoping keys off path parts,
so ``src/repro/linalg/sparse.py`` marks a kernel module without any
file existing on disk.
"""

import textwrap

from repro.analysis.linter import lint_paths, lint_source
from repro.analysis.rules import DEFAULT_RULES, rules_by_id

KERNEL_PATH = "src/repro/linalg/sparse.py"
CORE_PATH = "src/repro/core/srda.py"
PLAIN_PATH = "src/repro/eval/experiment.py"
TEST_PATH = "tests/linalg/test_sparse.py"


def findings_for(source, path, rule_id=None):
    findings, _ = lint_source(textwrap.dedent(source), path)
    if rule_id is None:
        return findings
    return [f for f in findings if f.rule_id == rule_id]


def suppressed_count(source, path):
    _, n_suppressed = lint_source(textwrap.dedent(source), path)
    return n_suppressed


# ----------------------------------------------------------------------
# RPR001 — dtype-literal drift in kernel modules
# ----------------------------------------------------------------------
class TestDtypeLiteralDrift:
    def test_dtype_float_keyword_fires(self):
        bad = """
        import numpy as np

        def kernel(v):
            return np.zeros(3, dtype=float)
        """
        found = findings_for(bad, KERNEL_PATH, "RPR001")
        assert len(found) == 1
        assert found[0].line == 5

    def test_dtype_string_literal_fires(self):
        bad = """
        import numpy as np

        out = np.empty(4, dtype="float")
        """
        assert len(findings_for(bad, KERNEL_PATH, "RPR001")) == 1

    def test_float64_cast_call_fires(self):
        bad = """
        import numpy as np

        def shift(mu, v):
            return np.float64(mu @ v)
        """
        assert len(findings_for(bad, KERNEL_PATH, "RPR001")) == 1

    def test_good_twin_dtype_np_float64_is_deliberate(self):
        good = """
        import numpy as np

        def kernel(v):
            return np.zeros(3, dtype=np.float64)
        """
        assert findings_for(good, KERNEL_PATH, "RPR001") == []

    def test_good_twin_propagated_dtype(self):
        good = """
        import numpy as np

        def kernel(v, op):
            return np.zeros(3, dtype=op.dtype)
        """
        assert findings_for(good, KERNEL_PATH, "RPR001") == []

    def test_rule_scoped_to_kernel_modules(self):
        bad = """
        import numpy as np

        out = np.zeros(3, dtype=float)
        """
        assert findings_for(bad, PLAIN_PATH, "RPR001") == []


# ----------------------------------------------------------------------
# RPR002 — bare / over-broad except
# ----------------------------------------------------------------------
class TestOverBroadExcept:
    def test_bare_except_fires(self):
        bad = """
        try:
            risky()
        except:
            pass
        """
        found = findings_for(bad, PLAIN_PATH, "RPR002")
        assert len(found) == 1
        assert found[0].line == 4

    def test_except_exception_fires(self):
        bad = """
        try:
            risky()
        except Exception:
            pass
        """
        assert len(findings_for(bad, PLAIN_PATH, "RPR002")) == 1

    def test_exception_inside_tuple_fires(self):
        bad = """
        try:
            risky()
        except (ValueError, Exception):
            pass
        """
        assert len(findings_for(bad, PLAIN_PATH, "RPR002")) == 1

    def test_good_twin_specific_exception(self):
        good = """
        try:
            risky()
        except ValueError:
            pass
        """
        assert findings_for(good, PLAIN_PATH, "RPR002") == []


# ----------------------------------------------------------------------
# RPR003 — foreign exception types from numeric packages
# ----------------------------------------------------------------------
class TestForeignException:
    def test_raise_runtime_error_fires_in_core(self):
        bad = """
        def fit():
            raise RuntimeError("solver diverged")
        """
        found = findings_for(bad, CORE_PATH, "RPR003")
        assert len(found) == 1
        assert found[0].line == 3

    def test_raise_exception_fires(self):
        bad = """
        def fit():
            raise Exception("boom")
        """
        assert len(findings_for(bad, CORE_PATH, "RPR003")) == 1

    def test_good_twin_repro_exception(self):
        good = """
        from repro.exceptions import ConvergenceError

        def fit():
            raise ConvergenceError("solver diverged")
        """
        assert findings_for(good, CORE_PATH, "RPR003") == []

    def test_value_error_is_allowed(self):
        good = """
        def fit(n):
            if n < 0:
                raise ValueError("n must be non-negative")
        """
        assert findings_for(good, CORE_PATH, "RPR003") == []

    def test_tests_are_out_of_scope(self):
        bad = """
        def helper():
            raise RuntimeError("fixture failure")
        """
        assert findings_for(bad, TEST_PATH, "RPR003") == []


# ----------------------------------------------------------------------
# RPR004 — unseeded randomness in package source
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_legacy_global_call_fires(self):
        bad = """
        import numpy as np

        noise = np.random.randn(10)
        """
        found = findings_for(bad, CORE_PATH, "RPR004")
        assert len(found) == 1
        assert found[0].line == 4

    def test_seedless_default_rng_fires(self):
        bad = """
        import numpy as np

        rng = np.random.default_rng()
        """
        assert len(findings_for(bad, CORE_PATH, "RPR004")) == 1

    def test_good_twin_seeded_generator(self):
        good = """
        import numpy as np

        def sample(seed):
            rng = np.random.default_rng(seed)
            return rng.standard_normal(10)
        """
        assert findings_for(good, CORE_PATH, "RPR004") == []

    def test_tests_are_out_of_scope(self):
        bad = """
        import numpy as np

        noise = np.random.randn(10)
        """
        assert findings_for(bad, TEST_PATH, "RPR004") == []


# ----------------------------------------------------------------------
# RPR005 — missing adjoint methods
# ----------------------------------------------------------------------
class TestMissingAdjoint:
    def test_matvec_without_rmatvec_fires(self):
        bad = """
        class Lopsided:
            def matvec(self, v):
                return v
        """
        found = findings_for(bad, PLAIN_PATH, "RPR005")
        assert len(found) == 1
        assert "rmatvec" in found[0].message

    def test_private_matmat_without_rmatmat_fires(self):
        bad = """
        class Lopsided:
            def _matmat(self, B):
                return B
        """
        assert len(findings_for(bad, PLAIN_PATH, "RPR005")) == 1

    def test_good_twin_complete_pair(self):
        good = """
        class Balanced:
            def matvec(self, v):
                return v

            def rmatvec(self, u):
                return u
        """
        assert findings_for(good, PLAIN_PATH, "RPR005") == []

    def test_unrelated_class_silent(self):
        good = """
        class Report:
            def summary(self):
                return "ok"
        """
        assert findings_for(good, PLAIN_PATH, "RPR005") == []


# ----------------------------------------------------------------------
# RPR006 — mutable default arguments
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_list_literal_default_fires(self):
        bad = """
        def record(history=[]):
            history.append(1)
            return history
        """
        found = findings_for(bad, PLAIN_PATH, "RPR006")
        assert len(found) == 1
        assert found[0].line == 2

    def test_dict_call_default_fires(self):
        bad = """
        def record(stats=dict()):
            return stats
        """
        assert len(findings_for(bad, PLAIN_PATH, "RPR006")) == 1

    def test_keyword_only_default_fires(self):
        bad = """
        def record(*, history=[]):
            return history
        """
        assert len(findings_for(bad, PLAIN_PATH, "RPR006")) == 1

    def test_good_twin_none_sentinel(self):
        good = """
        def record(history=None):
            if history is None:
                history = []
            return history
        """
        assert findings_for(good, PLAIN_PATH, "RPR006") == []

    def test_immutable_defaults_silent(self):
        good = """
        def configure(shape=(3, 4), name="x", count=0):
            return shape, name, count
        """
        assert findings_for(good, PLAIN_PATH, "RPR006") == []


# ----------------------------------------------------------------------
# RPR007 — noqa suppressions must carry a justification
# ----------------------------------------------------------------------
class TestUnjustifiedNoqa:
    def test_bare_noqa_without_justification_fires(self):
        bad = """
        try:
            risky()
        except Exception:  # repro: noqa-RPR002
            pass
        """
        found = findings_for(bad, PLAIN_PATH, "RPR007")
        assert len(found) == 1
        assert found[0].line == 4

    def test_inline_prose_is_a_justification(self):
        good = """
        try:
            risky()
        except Exception:  # repro: noqa-RPR002 — CLI boundary
            pass
        """
        assert findings_for(good, PLAIN_PATH, "RPR007") == []

    def test_comment_line_above_is_a_justification(self):
        good = """
        try:
            risky()
        # the retry harness must survive any solver failure mode
        except Exception:  # repro: noqa-RPR002
            pass
        """
        assert findings_for(good, PLAIN_PATH, "RPR007") == []

    def test_noqa_comment_above_does_not_justify(self):
        bad = """
        def f(a=[]):  # repro: noqa-RPR006 — fixture
            return a
        def g(b=[]):  # repro: noqa-RPR006
            return b
        """
        found = findings_for(bad, PLAIN_PATH, "RPR007")
        assert [f.line for f in found] == [4]

    def test_noqa_inside_string_literal_is_ignored(self):
        good = '''
        DOC = """
        suppress with  # repro: noqa-RPR002
        """
        '''
        assert findings_for(good, PLAIN_PATH, "RPR007") == []

    def test_rpr007_cannot_suppress_itself(self):
        # A blanket noqa would normally silence every rule on its line;
        # the hygiene rule must still fire or it would be vacuous.
        bad = """
        def record(history=[]):  # repro: noqa
            return history
        """
        assert len(findings_for(bad, PLAIN_PATH, "RPR007")) == 1
        assert not rules_by_id()["RPR007"].suppressible


# ----------------------------------------------------------------------
# noqa suppression
# ----------------------------------------------------------------------
class TestNoqaSuppression:
    def test_coded_noqa_suppresses_matching_rule(self):
        source = """
        try:
            risky()
        except Exception:  # repro: noqa-RPR002
            pass
        """
        assert findings_for(source, PLAIN_PATH, "RPR002") == []
        assert suppressed_count(source, PLAIN_PATH) == 1

    def test_coded_noqa_does_not_suppress_other_rules(self):
        source = """
        def record(history=[]):  # repro: noqa-RPR002
            return history
        """
        assert len(findings_for(source, PLAIN_PATH, "RPR006")) == 1

    def test_blanket_noqa_suppresses_everything(self):
        source = """
        def record(history=[]):  # repro: noqa — test fixture
            return history
        """
        assert findings_for(source, PLAIN_PATH) == []
        assert suppressed_count(source, PLAIN_PATH) == 1

    def test_comma_separated_codes(self):
        source = """
        try:
            risky()
        except Exception:  # repro: noqa-RPR002,RPR006 — test fixture
            pass
        """
        assert findings_for(source, PLAIN_PATH) == []

    def test_noqa_on_other_line_does_not_leak(self):
        source = """
        # repro: noqa-RPR006
        def record(history=[]):
            return history
        """
        assert len(findings_for(source, PLAIN_PATH, "RPR006")) == 1


# ----------------------------------------------------------------------
# Driver-level behavior
# ----------------------------------------------------------------------
class TestDriver:
    def test_syntax_error_reports_rpr000(self):
        findings = findings_for("def broken(:\n    pass\n", CORE_PATH)
        assert [f.rule_id for f in findings] == ["RPR000"]

    def test_rule_ids_are_unique_and_stable(self):
        ids = [rule.rule_id for rule in DEFAULT_RULES]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)
        assert set(rules_by_id()) == set(ids)

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def fit():\n    raise RuntimeError('x')\n"
        )
        (pkg / "good.py").write_text("VALUE = 1\n")
        result = lint_paths([tmp_path / "src"])
        assert result.n_files == 2
        assert [f.rule_id for f in result.findings] == ["RPR003"]
        assert not result.ok

    def test_lint_paths_select_and_ignore(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def fit(h=[]):\n    raise RuntimeError('x')\n"
        )
        only_006 = lint_paths([tmp_path / "src"], select=["RPR006"])
        assert [f.rule_id for f in only_006.findings] == ["RPR006"]
        without_006 = lint_paths([tmp_path / "src"], ignore=["RPR006"])
        assert "RPR006" not in [f.rule_id for f in without_006.findings]


# ----------------------------------------------------------------------
# RPR008 — complexity claims on kernel entry points
# ----------------------------------------------------------------------
class TestComplexityClaim:
    def test_public_kernel_function_without_claim_fires(self):
        bad = '''
        def matvec(v):
            """Multiply, quickly."""
            return v
        '''
        found = findings_for(bad, KERNEL_PATH, "RPR008")
        assert len(found) == 1
        assert found[0].line == 2
        assert "matvec()" in found[0].message

    def test_missing_docstring_fires(self):
        bad = """
        def matvec(v):
            return v
        """
        assert len(findings_for(bad, KERNEL_PATH, "RPR008")) == 1

    def test_good_twin_parseable_claim(self):
        good = '''
        def matvec(v):
            """Multiply.

            Complexity: O(nnz) — one pass over stored entries.
            """
            return v
        '''
        assert findings_for(good, KERNEL_PATH, "RPR008") == []

    def test_malformed_claim_fires_even_when_present(self):
        bad = '''
        def matvec(v):
            """Multiply.

            Complexity: O(rows·cols)
            """
            return v
        '''
        found = findings_for(bad, KERNEL_PATH, "RPR008")
        assert len(found) == 1
        assert "grammar" in found[0].message

    def test_malformed_claim_on_method_fires_outside_kernel_scope(self):
        # Claims are optional on methods and in non-designated modules,
        # but a claim that IS written must parse anywhere.
        bad = '''
        class Model:
            def fit(self, X):
                """Complexity: O(banana)"""
                return self
        '''
        found = findings_for(bad, PLAIN_PATH, "RPR008")
        assert len(found) == 1

    def test_private_and_non_kernel_functions_exempt(self):
        good = '''
        def _helper(v):
            """No claim needed on private helpers."""
            return v
        '''
        assert findings_for(good, KERNEL_PATH, "RPR008") == []
        no_claim = '''
        def run(v):
            """Non-kernel modules need no claims."""
            return v
        '''
        assert findings_for(no_claim, PLAIN_PATH, "RPR008") == []

    def test_prose_mention_of_the_grammar_is_not_a_claim(self):
        good = '''
        def _describe():
            """Every kernel carries a `Complexity: O(...)` line."""
            return None
        '''
        assert findings_for(good, PLAIN_PATH, "RPR008") == []

    def test_noqa_with_justification_suppresses_rpr008(self):
        source = '''
        def matvec(v):  # repro: noqa-RPR008 — cost depends on the plugin
            """Dispatch to a plugin kernel."""
            return v
        '''
        assert findings_for(source, KERNEL_PATH, "RPR008") == []
        assert findings_for(source, KERNEL_PATH, "RPR007") == []
        assert suppressed_count(source, KERNEL_PATH) == 1

    def test_bare_noqa_on_rpr008_requires_justification(self):
        source = '''
        def matvec(v):  # repro: noqa-RPR008
            """Dispatch."""
            return v
        '''
        assert findings_for(source, KERNEL_PATH, "RPR008") == []
        assert len(findings_for(source, KERNEL_PATH, "RPR007")) == 1


# ----------------------------------------------------------------------
# RPR009 — catalog-only: produced by the harness, never by the AST
# ----------------------------------------------------------------------
class TestEmpiricalComplexityCatalogEntry:
    def test_registered_with_stable_id(self):
        rule = rules_by_id()["RPR009"]
        assert rule.name == "complexity-contract-violation"

    def test_never_applies_to_any_path(self):
        rule = rules_by_id()["RPR009"]
        assert not rule.applies_to(KERNEL_PATH)
        assert not rule.applies_to("anything/at/all.py")

    def test_lint_never_yields_rpr009(self):
        source = """
        import numpy as np

        def kernel(v):
            return np.dot(v, v)
        """
        assert findings_for(source, KERNEL_PATH, "RPR009") == []


# ----------------------------------------------------------------------
# RPR010 — float64 temporaries inside kernel loops
# ----------------------------------------------------------------------
class TestFloat64LoopTemporary:
    def test_dtypeless_zeros_in_loop_fires(self):
        bad = """
        import numpy as np

        def kernel(blocks):
            for block in blocks:
                scratch = np.zeros(block.shape)
                scratch += block
        """
        found = findings_for(bad, KERNEL_PATH, "RPR010")
        assert len(found) == 1
        assert found[0].line == 6

    def test_explicit_float64_in_while_loop_fires(self):
        bad = """
        import numpy as np

        def kernel(n):
            while n > 0:
                buf = np.empty(n, dtype=np.float64)
                n -= 1
        """
        assert len(findings_for(bad, KERNEL_PATH, "RPR010")) == 1

    def test_astype_float64_in_loop_fires(self):
        bad = """
        import numpy as np

        def kernel(blocks):
            for block in blocks:
                yield block.astype(np.float64)
        """
        assert len(findings_for(bad, KERNEL_PATH, "RPR010")) == 1

    def test_good_twin_threaded_dtype(self):
        good = """
        import numpy as np

        def kernel(blocks, value_dtype):
            for block in blocks:
                scratch = np.zeros(block.shape, dtype=value_dtype)
                scratch += block
        """
        assert findings_for(good, KERNEL_PATH, "RPR010") == []

    def test_good_twin_hoisted_allocation(self):
        good = """
        import numpy as np

        def kernel(blocks, shape):
            scratch = np.zeros(shape)
            for block in blocks:
                scratch += block
        """
        assert findings_for(good, KERNEL_PATH, "RPR010") == []

    def test_good_twin_zeros_like_inherits_dtype(self):
        good = """
        import numpy as np

        def kernel(blocks):
            for block in blocks:
                yield np.zeros_like(block)
        """
        assert findings_for(good, KERNEL_PATH, "RPR010") == []

    def test_astype_threaded_dtype_in_loop_silent(self):
        good = """
        import numpy as np

        def kernel(blocks, value_dtype):
            for block in blocks:
                yield block.astype(value_dtype, copy=False)
        """
        assert findings_for(good, KERNEL_PATH, "RPR010") == []

    def test_out_of_scope_module_silent(self):
        source = """
        import numpy as np

        def run(blocks):
            for block in blocks:
                scratch = np.zeros(block.shape)
                scratch += block
        """
        assert findings_for(source, PLAIN_PATH, "RPR010") == []

    def test_noqa_with_justification_suppresses_rpr010(self):
        source = """
        import numpy as np

        def kernel(blocks):
            for block in blocks:
                # accumulation is deliberately double precision
                scratch = np.zeros(block.shape)  # repro: noqa-RPR010
                scratch += block
        """
        assert findings_for(source, KERNEL_PATH, "RPR010") == []
        assert findings_for(source, KERNEL_PATH, "RPR007") == []
        assert suppressed_count(source, KERNEL_PATH) == 1

    def test_bare_noqa_on_rpr010_requires_justification(self):
        source = """
        import numpy as np

        def kernel(blocks):
            for block in blocks:
                scratch = np.zeros(block.shape)  # repro: noqa-RPR010
                scratch += block
        """
        assert findings_for(source, KERNEL_PATH, "RPR010") == []
        assert len(findings_for(source, KERNEL_PATH, "RPR007")) == 1


# ----------------------------------------------------------------------
# RPR011 — allocations inside the solver hot loops
# ----------------------------------------------------------------------
HOT_PATH = "src/repro/linalg/block_lsqr.py"


class TestHotLoopAllocation:
    def test_concatenate_in_iteration_loop_fires(self):
        bad = """
        import numpy as np

        def iterate(u, v, iter_lim):
            for _ in range(iter_lim):
                u = np.concatenate([u, v])
        """
        found = findings_for(bad, HOT_PATH, "RPR011")
        assert len(found) == 1
        assert "scratch buffer" in found[0].message

    def test_zeros_like_in_iteration_loop_fires(self):
        bad = """
        import numpy as np

        def iterate(u, iter_lim):
            for _ in range(iter_lim):
                w = np.zeros_like(u)
                u = u + w
        """
        assert len(findings_for(bad, HOT_PATH, "RPR011")) == 1

    def test_good_twin_scratch_reuse(self):
        good = """
        import numpy as np

        def iterate(u, v, iter_lim):
            scratch = np.empty_like(u)
            for _ in range(iter_lim):
                np.multiply(u, v, out=scratch)
                u = u - scratch
        """
        assert findings_for(good, HOT_PATH, "RPR011") == []

    def test_allocation_outside_loop_silent(self):
        good = """
        import numpy as np

        def setup(u, v):
            stacked = np.concatenate([u, v])
            return stacked
        """
        assert findings_for(good, HOT_PATH, "RPR011") == []

    def test_allocation_in_helper_called_from_loop_fires(self):
        # A loop calls a function, a method and (through the method) a
        # second function; each runs per iteration, so each allocation
        # is flagged once.  `setup` is never called from a loop.
        bad = """
        import numpy as np

        def _scratch(u):
            return np.zeros_like(u)

        def _grow(u, v):
            return np.concatenate([u, v])

        class State:
            def rotate(self, u, v):
                return _grow(u, v)

        def setup(u):
            return np.empty_like(u)

        def iterate(u, v, state, iter_lim):
            for _ in range(iter_lim):
                u = u + _scratch(u)
                state.rotate(u, v)
        """
        found = findings_for(bad, HOT_PATH, "RPR011")
        assert sorted(f.line for f in found) == [5, 8]

    def test_non_hot_module_silent(self):
        source = """
        import numpy as np

        def kernel(blocks, value_dtype):
            out = []
            for block in blocks:
                out.append(np.concatenate([block, block]))
            return out
        """
        assert findings_for(source, KERNEL_PATH, "RPR011") == []

    def test_noqa_with_justification_suppresses_rpr011(self):
        source = """
        import numpy as np

        def iterate(u, v, iter_lim):
            for _ in range(iter_lim):
                # restart path rebuilds the basis, once per breakdown
                u = np.concatenate([u, v])  # repro: noqa-RPR011
        """
        assert findings_for(source, HOT_PATH, "RPR011") == []
        assert findings_for(source, HOT_PATH, "RPR007") == []
        assert suppressed_count(source, HOT_PATH) == 1


# ----------------------------------------------------------------------
# RPR000 — parse failures report consistent locations
# ----------------------------------------------------------------------
class TestUnparsableSource:
    def test_syntax_error_location_is_zero_based_column(self):
        findings = findings_for("def broken(:\n    pass\n", CORE_PATH)
        (finding,) = findings
        assert finding.rule_id == "RPR000"
        assert finding.line == 1
        # ast columns are 0-based everywhere else; RPR000 must match
        assert 0 <= finding.col < len("def broken(:")

    def test_null_byte_source_reports_line_one_col_zero(self):
        findings, suppressed = lint_source("x = 1\x00\n", CORE_PATH)
        (finding,) = findings
        assert finding.rule_id == "RPR000"
        assert (finding.line, finding.col) == (1, 0)
        assert suppressed == 0

    def test_rpr000_location_identical_across_reporters(self):
        # the to_dict() payload (JSON reporter) and the location string
        # (text reporter) must agree on the same line/col
        findings, _ = lint_source("def broken(:\n", CORE_PATH)
        (finding,) = findings
        payload = finding.to_dict()
        assert payload["line"] == finding.line
        assert payload["col"] == finding.col
        assert finding.location == (
            f"{finding.path}:{payload['line']}:{payload['col']}"
        )
