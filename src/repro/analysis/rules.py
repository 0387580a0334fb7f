"""AST lint rules for numeric-kernel hazards.

Each rule is a small AST visitor with a stable ID (``RPR001``…), a
one-line summary, and a rationale tied to a contract the solvers depend
on.  Rules are deliberately narrow: they flag the patterns that have
actually broken (or would silently break) the numerical guarantees of
this package, not general style.  Anything a rule flags can be
suppressed per line with ``# repro: noqa-RPRnnn`` — the suppression is
part of the contract too, because it forces the sanctioned sites to be
annotated and reviewable.

The rule set:

========  ==============================================================
RPR001    dtype-literal drift in kernel modules (``dtype=float``,
          ``np.float64(...)`` casts) — breaks float32 end-to-end
          propagation.
RPR002    bare or over-broad ``except`` — swallows the exception
          taxonomy the guarded fallback chains dispatch on.
RPR003    raising foreign exception types (``RuntimeError``,
          ``Exception``) from ``linalg``/``core``/``robustness`` —
          failures must flow through :mod:`repro.exceptions`.
RPR004    unseeded global-state ``np.random.*`` calls in ``src/`` —
          experiments must be reproducible from a recorded seed.
RPR005    operator classes defining ``matvec`` without ``rmatvec`` (or
          ``matmat`` without ``rmatmat``) — an adjoint pair with one
          side missing cannot satisfy ``⟨Ax, u⟩ = ⟨x, Aᵀu⟩`` and LSQR
          will fall back to a broken default or crash mid-iteration.
RPR006    mutable default arguments — shared state across calls
          corrupts per-fit diagnostics.
RPR007    a ``# repro: noqa`` suppression without an adjacent
          justification comment — sanctioned exceptions must say why
          they are sanctioned.
RPR008    a public function in a designated kernel module without a
          parseable ``Complexity: O(...)`` claim (or a malformed claim
          anywhere in package source) — the paper's bound must be
          machine-checkable, not prose.
RPR009    an empirically measured scaling exponent exceeding the
          docstring claim (produced by the
          :mod:`repro.analysis.complexity` harness, not by AST
          inspection).
RPR010    a float64 temporary allocated inside a loop in a kernel
          module — ``np.zeros``/``np.empty``/``.astype`` without a
          dtype threaded from an argument.
RPR011    an allocation call inside the per-iteration body of the
          block_lsqr / sharded hot loops, or in a function or
          method of the same module that such a loop calls by name —
          the loops must allocate their buffers outside the iteration.
========  ==============================================================
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.complexity.grammar import (
    CLAIM_MARKER_RE,
    ClaimParseError,
    VOCABULARY,
    claim_from_docstring,
)

__all__ = [
    "CLAIMED_MODULE_SUFFIXES",
    "DEFAULT_RULES",
    "Finding",
    "HOT_LOOP_MODULE_SUFFIXES",
    "KERNEL_LOOP_MODULE_SUFFIXES",
    "KERNEL_MODULE_SUFFIXES",
    "NOQA_RE",
    "Rule",
    "rule_catalog",
    "rules_by_id",
]

#: Matches ``# repro: noqa`` and ``# repro: noqa-RPR001,RPR002``.  Lives
#: here (not in the linter) so the noqa-hygiene rule below can reuse it
#: without importing the driver that imports this module.
NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:-(?P<codes>RPR\d{3}(?:\s*,\s*RPR\d{3})*))?",
    re.IGNORECASE,
)

#: Modules holding the memory-bound value-dtype kernels: the files where
#: a stray dtype literal silently upcasts the whole float32 path.
KERNEL_MODULE_SUFFIXES: Tuple[str, ...] = (
    "linalg/sparse.py",
    "linalg/operators.py",
    "linalg/block_lsqr.py",
)

#: Modules whose loops are numeric hot paths: a float64 temporary
#: allocated per iteration doubles the memory traffic the linear-time
#: claim budgets for (RPR010's scope).
KERNEL_LOOP_MODULE_SUFFIXES: Tuple[str, ...] = KERNEL_MODULE_SUFFIXES + (
    "linalg/sketch.py",
    "linalg/gram_schmidt.py",
    "parallel/sharded.py",
    "core/responses.py",
)

#: The solver hot loops: any allocation per iteration is a regression
#: (RPR011's scope).
HOT_LOOP_MODULE_SUFFIXES: Tuple[str, ...] = (
    "linalg/block_lsqr.py",
    "parallel/sharded.py",
)

#: Modules whose public functions must carry a machine-checkable
#: ``Complexity: O(...)`` claim (RPR008's requirement scope): the whole
#: linalg package plus the sharded operator layer and the response
#: construction the paper prices in Table I.
CLAIMED_MODULE_SUFFIXES: Tuple[str, ...] = (
    "parallel/sharded.py",
    "core/responses.py",
)

#: Names the numpy module is commonly bound to.
_NUMPY_ALIASES = frozenset({"np", "numpy"})

#: Legacy global-state sampling functions of ``np.random``.
_LEGACY_RANDOM = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "choice",
        "exponential",
        "gamma",
        "multivariate_normal",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "sample",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

#: Forward/adjoint product pairs every operator must define together.
_ADJOINT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("matvec", "rmatvec"),
    ("matmat", "rmatmat"),
    ("_matmat", "_rmatmat"),
)


@dataclass(frozen=True)
class Finding:
    """One lint hit: where, which rule, and why."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "message": self.message,
        }


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _path_parts(path: str) -> Tuple[str, ...]:
    return PurePosixPath(path.replace("\\", "/")).parts


def _in_package_source(parts: Sequence[str]) -> bool:
    """True for files under the package source (not tests/benchmarks)."""
    return ("src" in parts or "repro" in parts) and not (
        "tests" in parts or "benchmarks" in parts
    )


class Rule:
    """Base class: an identified, scoped AST check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding a :class:`Finding` per hit.  :meth:`applies_to` restricts
    the rule to the paths where its contract is in force; the linter
    consults it before parsing, so out-of-scope files cost nothing.
    Rules that inspect comments (invisible to the AST) override
    :meth:`check_source` instead of (or as well as) :meth:`check`.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""

    #: When False, ``# repro: noqa`` comments cannot silence this rule —
    #: used by the noqa-hygiene rule, which would otherwise be
    #: self-suppressing on every line it flags.
    suppressible: bool = True

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        """AST-level findings; the default contributes none."""
        return iter(())

    def check_source(self, source: str, path: str) -> Iterator[Finding]:
        """Source-level findings (comments, layout); default none."""
        return iter(())

    def line_finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        """A finding at an explicit position (for source-level rules)."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


class DtypeLiteralDriftRule(Rule):
    """RPR001 — dtype literals that silently upcast the float32 path."""

    rule_id = "RPR001"
    name = "dtype-literal-drift"
    summary = (
        "kernel module hardcodes a drifting dtype literal (dtype=float, "
        "dtype='float', or an np.float64(...) cast) instead of "
        "propagating the value dtype"
    )
    rationale = (
        "The memory-bound kernels run at half the traffic on float32 "
        "data, but only if every intermediate preserves the value dtype "
        "(see repro.linalg.sparse.as_value_dtype).  `dtype=float` and "
        "np.float64(...) casts re-introduce float64 silently.  "
        "Deliberate double-precision accumulation is still allowed — "
        "spell it `dtype=np.float64` to make the intent visible."
    )

    def applies_to(self, path: str) -> bool:
        posix = "/".join(_path_parts(path))
        return posix.endswith(KERNEL_MODULE_SUFFIXES)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func_name = _dotted_name(node.func)
            if func_name is not None:
                head, _, tail = func_name.rpartition(".")
                if tail == "float64" and head in _NUMPY_ALIASES:
                    yield self.finding(
                        path,
                        node,
                        "np.float64(...) cast in a kernel module; "
                        "propagate the operand's value dtype (or use "
                        "dtype=np.float64 where double accumulation is "
                        "deliberate)",
                    )
            for keyword in node.keywords:
                if keyword.arg != "dtype":
                    continue
                value = keyword.value
                is_builtin_float = (
                    isinstance(value, ast.Name) and value.id == "float"
                )
                is_float_string = (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and value.value == "float"
                )
                if is_builtin_float or is_float_string:
                    yield self.finding(
                        path,
                        keyword.value,
                        "dtype=float in a kernel module silently means "
                        "float64; propagate the value dtype or spell "
                        "dtype=np.float64 if double precision is "
                        "deliberate",
                    )


class OverBroadExceptRule(Rule):
    """RPR002 — bare/over-broad ``except`` clauses."""

    rule_id = "RPR002"
    name = "over-broad-except"
    summary = "bare `except:` or `except Exception` handler"
    rationale = (
        "The guarded fallback chains dispatch on a strict exception "
        "taxonomy (repro.exceptions).  A broad handler swallows "
        "InjectedFaultError, SolverFailure, and NotPositiveDefiniteError "
        "alike, turning a documented degradation path into silent "
        "garbage.  The sanctioned broad sites (the CLI boundary, the "
        "experiment retry harness) carry an annotated noqa."
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    path,
                    node,
                    "bare `except:` catches everything including "
                    "KeyboardInterrupt; name the exception types",
                )
                continue
            for exc in self._exception_names(node.type):
                if exc in self._BROAD or exc.split(".")[-1] in self._BROAD:
                    yield self.finding(
                        path,
                        node,
                        f"`except {exc}` is over-broad; catch the "
                        "specific repro exception types (or annotate a "
                        "sanctioned boundary with "
                        "`# repro: noqa-RPR002`)",
                    )

    @staticmethod
    def _exception_names(node: ast.AST) -> List[str]:
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        names = []
        for elt in elts:
            dotted = _dotted_name(elt)
            if dotted is not None:
                names.append(dotted)
        return names


class ForeignExceptionRule(Rule):
    """RPR003 — foreign exception types raised from numeric packages."""

    rule_id = "RPR003"
    name = "foreign-exception"
    summary = (
        "numeric package raises RuntimeError/Exception instead of a "
        "repro exception type"
    )
    rationale = (
        "PR 1's fallback chains catch repro types precisely; a bare "
        "RuntimeError from linalg/core/robustness either escapes the "
        "chain or forces callers into over-broad handlers (RPR002).  "
        "Raise a member of repro.exceptions — ConvergenceError, "
        "InvariantViolationError, SolverFailure, ... — instead.  "
        "Builtin argument-validation errors (ValueError, TypeError, "
        "IndexError) remain fine: they mean caller error, not numeric "
        "failure."
    )

    _FOREIGN = frozenset({"Exception", "BaseException", "RuntimeError"})
    _PACKAGES = frozenset({"linalg", "core", "robustness"})

    def applies_to(self, path: str) -> bool:
        parts = _path_parts(path)
        return (
            "repro" in parts
            and "tests" not in parts
            and bool(self._PACKAGES.intersection(parts))
        )

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            dotted = _dotted_name(exc)
            if dotted is not None and dotted in self._FOREIGN:
                yield self.finding(
                    path,
                    node,
                    f"raise of foreign type {dotted} from a numeric "
                    "package; use a repro.exceptions type so the "
                    "guarded fallback chains can dispatch on it",
                )


class UnseededRandomRule(Rule):
    """RPR004 — global-state ``np.random`` calls in package source."""

    rule_id = "RPR004"
    name = "unseeded-random"
    summary = (
        "call into the legacy global-state np.random API (or a seedless "
        "default_rng()/SeedSequence())"
    )
    rationale = (
        "Every figure and table in the reproduction must be replayable "
        "from a recorded seed.  Legacy np.random.* functions share "
        "hidden global state across the whole process; a seedless "
        "default_rng() draws OS entropy.  Thread an explicit "
        "np.random.Generator (or an integer seed) through instead."
    )

    def applies_to(self, path: str) -> bool:
        return _in_package_source(_path_parts(path))

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            is_np_random = (
                len(parts) == 3
                and parts[0] in _NUMPY_ALIASES
                and parts[1] == "random"
            )
            if is_np_random and parts[2] in _LEGACY_RANDOM:
                yield self.finding(
                    path,
                    node,
                    f"{dotted}() uses the legacy shared global RNG; "
                    "pass an explicit np.random.Generator",
                )
                continue
            seedless_ctor = (
                is_np_random and parts[2] in ("default_rng", "SeedSequence")
            ) or (
                len(parts) == 1 and parts[0] in ("default_rng", "SeedSequence")
            )
            if (
                seedless_ctor
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    path,
                    node,
                    f"{dotted}() without a seed draws OS entropy; "
                    "runs become unreproducible — pass a seed",
                )


class MissingAdjointRule(Rule):
    """RPR005 — operator classes with half an adjoint pair."""

    rule_id = "RPR005"
    name = "missing-adjoint"
    summary = (
        "class defines matvec without rmatvec (or matmat without "
        "rmatmat)"
    )
    rationale = (
        "LSQR touches the data only through the pair (A@v, A.T@u); the "
        "graph-embedding factorization of Theorem 1 assumes the two are "
        "true adjoints.  A class shipping one side of a pair either "
        "crashes mid-iteration or silently inherits a base "
        "implementation that is NOT the adjoint of its override.  "
        "Define both (and validate with "
        "repro.analysis.contracts.verify_operator)."
    )

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for forward, adjoint in _ADJOINT_PAIRS:
                if forward in methods and adjoint not in methods:
                    yield self.finding(
                        path,
                        node,
                        f"class {node.name} defines {forward} but not "
                        f"{adjoint}; the adjoint identity "
                        "<Ax, u> = <x, A^T u> cannot hold against an "
                        "inherited fallback",
                    )
                elif adjoint in methods and forward not in methods:
                    yield self.finding(
                        path,
                        node,
                        f"class {node.name} defines {adjoint} but not "
                        f"{forward}; define the pair together so the "
                        "adjoint identity stays checkable",
                    )


class MutableDefaultRule(Rule):
    """RPR006 — mutable default arguments."""

    rule_id = "RPR006"
    name = "mutable-default"
    summary = "function default argument is a mutable object"
    rationale = (
        "Defaults are evaluated once; a list/dict/set default is shared "
        "by every call.  For estimators this corrupts per-fit "
        "diagnostics (one fit_report_ accumulating another fit's "
        "warnings).  Use None and create the object in the body."
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set"})

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        path,
                        default,
                        f"mutable default in {node.name}(); use None "
                        "and construct inside the body",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            return dotted in self._MUTABLE_CALLS
        return False


class UnjustifiedNoqaRule(Rule):
    """RPR007 — noqa suppressions without a justification comment."""

    rule_id = "RPR007"
    name = "unjustified-noqa"
    summary = (
        "`# repro: noqa` suppression without an adjacent justification "
        "comment"
    )
    rationale = (
        "A suppression is a claim that this line is a sanctioned "
        "exception to a numeric contract.  Unjustified claims rot: "
        "nobody can review whether the exemption still holds after the "
        "code around it changes.  Say why — either as trailing prose on "
        "the same comment (`# repro: noqa-RPR002 — CLI boundary`) or as "
        "a plain comment line directly above.  This rule cannot itself "
        "be noqa'd; the justification IS the suppression mechanism."
    )
    suppressible = False

    def check_source(self, source: str, path: str) -> Iterator[Finding]:
        # Tokenize rather than regex-scan raw lines: a "# repro: noqa"
        # inside a docstring or a test fixture string is prose ABOUT
        # suppressions, not a suppression, and only COMMENT tokens are
        # the real thing.
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = {
                token.start[0]: (token.start[1], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            }
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # unparsable source is RPR000's job
        lines = source.splitlines()
        for lineno in sorted(comments):
            col, text = comments[lineno]
            match = NOQA_RE.search(text)
            if match is None:
                continue
            trailing = text[match.end():].strip().lstrip("-—:;,. ").strip()
            if trailing:
                continue  # justified inline, after the directive
            if self._comment_above(lines, lineno):
                continue
            yield self.line_finding(
                path,
                lineno,
                col + match.start() + 1,
                "noqa suppression has no justification; add prose after "
                "the directive or a comment line directly above",
            )

    @staticmethod
    def _comment_above(lines: List[str], lineno: int) -> bool:
        """True when the previous line is a pure (non-noqa) comment."""
        if lineno < 2:
            return False
        above = lines[lineno - 2].strip()
        return above.startswith("#") and NOQA_RE.search(above) is None


class ComplexityClaimRule(Rule):
    """RPR008 — kernel entry points must carry parseable complexity claims."""

    rule_id = "RPR008"
    name = "missing-complexity-claim"
    summary = (
        "public kernel function without a parseable `Complexity: O(...)` "
        "docstring claim (or a malformed claim anywhere)"
    )
    rationale = (
        "The paper's contribution IS a complexity bound (O(ms) per LSQR "
        "iteration), and prose O(...) statements rot silently as hot "
        "paths are rewritten.  Every public function in the designated "
        "kernel modules (repro.linalg.*, repro.parallel.sharded, "
        "repro.core.responses) must state its cost in the machine-"
        "checkable grammar — vocabulary {"
        + ", ".join(sorted(VOCABULARY))
        + "} — so the empirical harness (RPR009) can hold the code to "
        "it.  Claims on methods or in other modules are optional but, "
        "when present, must parse too."
    )

    def applies_to(self, path: str) -> bool:
        parts = _path_parts(path)
        return _in_package_source(parts) and not path.endswith("__init__.py")

    @staticmethod
    def _designated(path: str) -> bool:
        parts = _path_parts(path)
        posix = "/".join(parts)
        return (
            "linalg" in parts and not posix.endswith("__init__.py")
        ) or posix.endswith(CLAIMED_MODULE_SUFFIXES)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        require = self._designated(path)
        module = tree if isinstance(tree, ast.Module) else None
        if module is None:  # pragma: no cover - linter always passes Modules
            return
        # Claims anywhere in the file must parse (module, class, and
        # method docstrings included).
        for node in ast.walk(module):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield from self._check_docstring_parses(
                path, node, ast.get_docstring(node, clean=False)
            )
        module_doc = ast.get_docstring(module, clean=False)
        if module_doc and module.body:
            yield from self._check_docstring_parses(
                path, module.body[0], module_doc
            )
        if not require:
            return
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            docstring = ast.get_docstring(node, clean=False)
            if docstring and CLAIM_MARKER_RE.search(docstring):
                continue  # parse failures already reported above
            yield self.finding(
                path,
                node,
                f"public kernel function {node.name}() has no "
                "`Complexity: O(...)` claim; state its cost in the "
                "claim grammar (see docs/STATIC_ANALYSIS.md)",
            )

    def _check_docstring_parses(
        self, path: str, node: ast.AST, docstring: Optional[str]
    ) -> Iterator[Finding]:
        if not docstring or not CLAIM_MARKER_RE.search(docstring):
            return
        try:
            claim_from_docstring(docstring)
        except ClaimParseError as exc:
            label = getattr(node, "name", "module")
            yield self.finding(
                path,
                node,
                f"complexity claim on {label} does not follow the "
                f"grammar: {exc}",
            )


class EmpiricalComplexityRule(Rule):
    """RPR009 — measured scaling exceeding the claim (harness-produced).

    This rule never fires from the AST: findings with this ID are
    produced by the empirical harness (``python -m repro.analysis
    --complexity``), which runs each registered kernel at geometrically
    spaced sizes, fits the log–log slope, and compares it with the
    docstring claim's exponent.  It lives in the catalog so the ID,
    summary, and rationale are documented and ``--explain RPR009``
    works.
    """

    rule_id = "RPR009"
    name = "complexity-contract-violation"
    summary = (
        "measured scaling exponent exceeds the docstring's "
        "`Complexity: O(...)` claim (empirical harness finding)"
    )
    rationale = (
        "A claim that parses can still be wrong — a hidden "
        "densification or Gram product turns O(nnz) into O(m·n) with "
        "no AST-visible signature (the IDR/QR comparison in PAPERS.md "
        "is exactly such a degradation).  The harness measures each "
        "registered kernel at 4–6 geometrically spaced sizes, fits "
        "log(cost) against log(size), and fails when the fitted "
        "exponent exceeds the claimed one beyond tolerance or creeps "
        "past the checked-in complexity_baseline.json ratchet."
    )

    def applies_to(self, path: str) -> bool:
        return False  # findings come from the harness, never the AST


def _is_float64_constant(node: ast.AST) -> bool:
    """True for the spellings that pin a value to float64 (or default
    to it): ``float``, ``"float"``, ``"float64"``, ``np.float64``."""
    if isinstance(node, ast.Name) and node.id == "float":
        return True
    if isinstance(node, ast.Constant) and node.value in ("float", "float64"):
        return True
    dotted = _dotted_name(node)
    if dotted is not None:
        head, _, tail = dotted.rpartition(".")
        return tail == "float64" and head in _NUMPY_ALIASES
    return False


def _iter_loop_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """Every Call inside a ``for``/``while`` body, deduplicated."""
    seen: Set[Tuple[int, int]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                key = (sub.lineno, sub.col_offset)
                if key not in seen:
                    seen.add(key)
                    yield sub


def _called_name(call: ast.Call) -> Optional[str]:
    """``f`` for both ``f(...)`` and ``obj.f(...)``."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _iter_hot_loop_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """Loop-body calls plus every call in the functions they reach.

    A function or method of the same module that a loop calls runs once
    per iteration too, so moving a step into a helper must not take it
    out of scope.  Calls resolve by bare name, transitively: ``f(...)``
    and ``obj.f(...)`` both reach every ``def f`` in the module.  A
    function called under another name (an alias, a callback argument)
    is not followed.
    """
    defs: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    seen: Set[Tuple[int, int]] = set()
    scanned: Set[int] = set()
    pending = list(_iter_loop_calls(tree))
    while pending:
        call = pending.pop()
        key = (call.lineno, call.col_offset)
        if key in seen:
            continue
        seen.add(key)
        yield call
        for func in defs.get(_called_name(call) or "", ()):
            if id(func) not in scanned:
                scanned.add(id(func))
                pending.extend(
                    sub for sub in ast.walk(func) if isinstance(sub, ast.Call)
                )


#: numpy allocation constructors that take an explicit dtype.
_ALLOC_FUNCS = frozenset({"zeros", "empty", "ones", "full"})
#: ``*_like`` variants inherit the prototype's dtype when none is given,
#: which IS threading — they are only flagged with an explicit float64.
_ALLOC_LIKE_FUNCS = frozenset(
    {"zeros_like", "empty_like", "ones_like", "full_like"}
)
#: Calls that materialize a fresh array (RPR011's hot-loop scope).
_HOT_ALLOC_FUNCS = _ALLOC_FUNCS | _ALLOC_LIKE_FUNCS | frozenset(
    {"concatenate", "hstack", "vstack", "stack", "tile"}
)


def _numpy_call_name(node: ast.Call) -> Optional[str]:
    """``zeros`` for ``np.zeros(...)``/``numpy.zeros(...)``, else None."""
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    head, _, tail = dotted.rpartition(".")
    if head in _NUMPY_ALIASES:
        return tail
    return None


class Float64LoopTemporaryRule(Rule):
    """RPR010 — float64 temporaries allocated inside kernel loops."""

    rule_id = "RPR010"
    name = "float64-loop-temporary"
    summary = (
        "loop body in a kernel module allocates a float64 temporary "
        "(np.zeros/np.empty/.astype without a dtype threaded from an "
        "argument)"
    )
    rationale = (
        "An allocation inside a loop repeats every iteration, and "
        "without a threaded dtype it lands on float64 — double the "
        "bytes the float32 path budgeted, once per iteration.  Thread "
        "the operand's dtype (dtype=v.dtype, dtype=value_dtype) or "
        "hoist the buffer out of the loop.  Deliberate float64 "
        "accumulation inside a loop is still possible behind an "
        "annotated `# repro: noqa-RPR010`."
    )

    def applies_to(self, path: str) -> bool:
        posix = "/".join(_path_parts(path))
        return posix.endswith(KERNEL_LOOP_MODULE_SUFFIXES)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for call in _iter_loop_calls(tree):
            name = _numpy_call_name(call)
            dtype_kw = next(
                (kw.value for kw in call.keywords if kw.arg == "dtype"), None
            )
            if name in _ALLOC_FUNCS:
                if dtype_kw is None:
                    yield self.finding(
                        path,
                        call,
                        f"np.{name}(...) inside a loop with no dtype "
                        "defaults to a float64 temporary; thread the "
                        "value dtype or hoist the buffer",
                    )
                elif _is_float64_constant(dtype_kw):
                    yield self.finding(
                        path,
                        call,
                        f"np.{name}(..., dtype=float64) inside a loop "
                        "allocates a double-width temporary every "
                        "iteration; thread the value dtype instead",
                    )
            elif name in _ALLOC_LIKE_FUNCS:
                if dtype_kw is not None and _is_float64_constant(dtype_kw):
                    yield self.finding(
                        path,
                        call,
                        f"np.{name}(..., dtype=float64) inside a loop "
                        "overrides the prototype's dtype with a "
                        "double-width temporary",
                    )
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "astype"
            ):
                target = dtype_kw
                if target is None and call.args:
                    target = call.args[0]
                if target is not None and _is_float64_constant(target):
                    yield self.finding(
                        path,
                        call,
                        ".astype(float64) inside a loop copies to a "
                        "double-width temporary every iteration; "
                        "thread the dtype from an argument",
                    )


class HotLoopAllocationRule(Rule):
    """RPR011 — allocations inside the solver hot loops."""

    rule_id = "RPR011"
    name = "hot-loop-allocation"
    summary = (
        "allocation call inside a per-iteration body of the "
        "block_lsqr/sharded hot loops, or in a same-module "
        "function or method such a loop calls"
    )
    rationale = (
        "The solver iteration bodies are the O(ms)-per-iteration bound "
        "itself.  A fresh np.zeros/np.empty/np.concatenate per "
        "iteration adds allocator traffic and page faults that grow "
        "with the operand, silently degrading the measured constant — "
        "allocate once outside the loop and write into the buffer.  "
        "A helper the loop calls runs every iteration too."
    )

    def applies_to(self, path: str) -> bool:
        posix = "/".join(_path_parts(path))
        return posix.endswith(HOT_LOOP_MODULE_SUFFIXES)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for call in _iter_hot_loop_calls(tree):
            name = _numpy_call_name(call)
            if name in _HOT_ALLOC_FUNCS:
                yield self.finding(
                    path,
                    call,
                    f"np.{name}(...) runs every iteration of a solver hot "
                    "loop; reuse a scratch buffer allocated outside the "
                    "iteration",
                )


#: The shipped rule set, in ID order.
DEFAULT_RULES: Tuple[Rule, ...] = (
    DtypeLiteralDriftRule(),
    OverBroadExceptRule(),
    ForeignExceptionRule(),
    UnseededRandomRule(),
    MissingAdjointRule(),
    MutableDefaultRule(),
    UnjustifiedNoqaRule(),
    ComplexityClaimRule(),
    EmpiricalComplexityRule(),
    Float64LoopTemporaryRule(),
    HotLoopAllocationRule(),
)


def rules_by_id() -> Dict[str, Rule]:
    """Map rule ID → rule instance for the default set."""
    return {rule.rule_id: rule for rule in DEFAULT_RULES}


def rule_catalog() -> str:
    """Human-readable catalog of the default rules (for ``--list-rules``)."""
    lines = []
    for rule in DEFAULT_RULES:
        lines.append(f"{rule.rule_id} ({rule.name}): {rule.summary}")
    return "\n".join(lines)
