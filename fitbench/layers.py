"""Per-layer timing for the traced pass, measured from outside the program.

Nothing under ``src/`` knows about this module.  It times layers in two
ways:

- it wraps public entry points at module level while a traced fit runs
  (:class:`Instrumented`): the CSR kernels in ``repro.linalg.kernels``,
  the public products of every ``LinearOperator``, the response step,
  the guarded solve and the LSQR call that ``repro.core.srda`` makes,
  and the adjoint fan-in of ``repro.parallel.sharded``;
- it reads the spans the program already emits (``srda.validate``,
  ``srda.responses``, ``srda.solve``, ``srda.embed``, ``guarded_solve``
  and the per-iteration LSQR events) through :class:`LayerTracer`, a
  ``Tracer`` whose spans are also layer frames.

Every wrapped call and every span is a frame on a per-thread stack.  A
frame's self time is its duration minus the time of the frames nested
in it, so on the fitting thread the self times of all layers add up to
the fit's wall time exactly; whatever no named layer claims lands in
``glue``.  Frames on threads that have no root frame (the thread
backend's shard workers) are kept apart as worker busy time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.complexity.flam import srda_lsqr_flam, srda_normal_flam
from repro.core import srda as srda_module
from repro.linalg import kernels
from repro.linalg.operators import LinearOperator
from repro.observability import InMemorySink, Tracer
from repro.parallel import sharded as sharded_module

#: Kernel entry points of ``repro.linalg.kernels``, by short name.
KERNELS = (
    "matvec",
    "rmatvec",
    "matmat",
    "rmatmat",
    "adjoint_products",
    "reduce_adjoint",
)

#: Layer that each span the program emits is charged to.
SPAN_LAYERS = {
    "srda.fit": "glue",
    "srda.partial_fit": "glue",
    "srda.validate": "srda.validate",
    "srda.responses": "responses",
    "srda.solve": "ridge.gram",
    "srda.embed": "srda.embed",
    "guarded_solve": "guarded_solve",
}


class _Frame:
    __slots__ = ("label", "start", "nested", "rooted", "outermost")

    def __init__(self, label: str, rooted: bool, outermost: bool) -> None:
        self.label = label
        self.rooted = rooted
        self.outermost = outermost
        self.nested = 0.0
        self.start = time.perf_counter()


class LayerClock:
    """Self and inclusive time per layer, from per-thread frame stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget every recorded frame and count."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.worker_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, label: str, root: bool = False) -> _Frame:
        stack = self.stack()
        rooted = root or bool(stack and stack[0].rooted)
        outermost = all(frame.label != label for frame in stack)
        frame = _Frame(label, rooted, outermost)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        elapsed = time.perf_counter() - frame.start
        stack = self.stack()
        stack.pop()
        if stack:
            stack[-1].nested += elapsed
        with self._lock:
            if frame.rooted:
                self.self_s[frame.label] += elapsed - frame.nested
                if frame.outermost:
                    self.inclusive_s[frame.label] += elapsed
            else:
                self.worker_s[frame.label] += elapsed - frame.nested
            self.calls[frame.label] += 1
        return elapsed

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def run_root(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` under a root frame; returns ``(result, wall_s)``."""
        frame = self.enter("glue", root=True)
        try:
            result = fn()
        finally:
            wall = self.exit(frame)
        return result, wall


class _FramedSpan:
    """A program span that is also a frame on the layer clock."""

    __slots__ = ("_clock", "_label", "_inner", "_frame")

    def __init__(self, clock: LayerClock, label: str, inner: Any) -> None:
        self._clock = clock
        self._label = label
        self._inner = inner
        self._frame: Optional[_Frame] = None

    def __enter__(self) -> Any:
        self._frame = self._clock.enter(self._label)
        return self._inner.__enter__()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        try:
            return bool(self._inner.__exit__(exc_type, exc, tb))
        finally:
            if self._frame is not None:
                self._clock.exit(self._frame)


class LayerTracer(Tracer):
    """An enabled in-memory tracer whose spans are layer frames."""

    def __init__(self, clock: LayerClock) -> None:
        super().__init__(sink=InMemorySink(), enabled=True)
        self.clock = clock

    def span(self, name: str, **attributes: Any) -> Any:
        return _FramedSpan(
            self.clock, SPAN_LAYERS.get(name, name), super().span(name, **attributes)
        )

    def lsqr_iterations(self) -> int:
        """Solver iteration events recorded on the ``srda.solve`` spans."""
        return sum(
            1
            for record in self.sink.find("srda.solve")
            for event in record["events"]
            if event["name"].endswith(".iteration")
        )


def _columns(operand: Any) -> int:
    shape = getattr(operand, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


class Instrumented:
    """Context manager that installs the layer wrappers, then removes them.

    Entry points a later version of the program no longer has are
    skipped, so the traced pass keeps running; their layers read zero.
    """

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _frame(self, label: str, after: Optional[Callable[[Any], None]] = None):
        clock = self.clock

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = clock.enter(label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    clock.exit(frame)
                if after is not None:
                    after(result)
                return result

            return wrapper

        return make

    def _kernel(self, name: str):
        clock = self.clock
        label = "kernels." + name

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(matrix: Any, operand: Any, *args: Any, **kwargs: Any) -> Any:
                stack = clock.stack()
                if stack and stack[-1].label.startswith("kernels."):
                    # csr_rmatmat calls csr_matmat: time the outermost only
                    return fn(matrix, operand, *args, **kwargs)
                frame = clock.enter(label)
                try:
                    return fn(matrix, operand, *args, **kwargs)
                finally:
                    clock.exit(frame)
                    if name != "reduce_adjoint":
                        # one multiply-add per stored entry and column; the
                        # adjoint products carry the multiplies and the
                        # reduction the adds of one rmatvec
                        clock.count(
                            "kernels.flam", float(matrix.nnz * _columns(operand))
                        )

            return wrapper

        return make

    def _operator(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = self.clock
        sharded_type = sharded_module.ShardedOperator

        def wrapper(op: Any, operand: Any) -> Any:
            frame = clock.enter(
                "sharded" if isinstance(op, sharded_type) else "operators"
            )
            try:
                return fn(op, operand)
            finally:
                clock.exit(frame)

        return wrapper

    def __enter__(self) -> "Instrumented":
        for name in KERNELS:
            self._patch(kernels, "csr_" + name, self._kernel(name))
        for method in ("matvec", "rmatvec", "matmat", "rmatmat"):
            self._patch(LinearOperator, method, self._operator)
        self._patch(srda_module, "generate_responses", self._frame("responses"))
        self._patch(
            srda_module, "response_table_from_counts", self._frame("responses")
        )
        self._patch(
            srda_module,
            "guarded_solve",
            self._frame(
                "guarded_solve",
                lambda result: self.clock.count(
                    "guarded_solve.fallbacks", len(result.fallbacks)
                ),
            ),
        )
        self._patch(srda_module, "block_lsqr", self._frame("lsqr"))
        self._patch(srda_module, "lsqr", self._frame("lsqr"))
        self._patch(sharded_module, "_ordered_fold", self._frame("sharded.reduce"))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def cost_model_flam(solver: str, m: int, n: int, c: int, k: int, nnz: int) -> float:
    """Table I's predicted flam for one fit of the workload's shape."""
    if solver == "normal":
        return srda_normal_flam(m, n, c)
    return srda_lsqr_flam(m, n, c, k=k, s=nnz / m)


def breakdown(
    clock: LayerClock,
    wall: float,
    iterations: int,
    tracer: Optional[Tracer] = None,
    flam_model: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced fit or update, in seconds and counts."""
    own = clock.self_s
    worker = clock.worker_s
    metrics: Dict[str, float] = {}
    kernel_s = 0.0
    for name in KERNELS:
        label = "kernels." + name
        seconds = own[label] + worker[label]
        kernel_s += seconds
        metrics[label + ".calls"] = float(clock.calls[label])
        metrics[label + ".s"] = seconds
    flam = clock.counts["kernels.flam"]
    lsqr_s = clock.inclusive_s["lsqr"]
    program_counter = (
        tracer.metrics.counter if tracer is not None and tracer.enabled else None
    )
    metrics.update(
        {
            "responses.s": own["responses"],
            "guarded_solve.s": own["guarded_solve"],
            "guarded_solve.fallbacks": clock.counts["guarded_solve.fallbacks"],
            "ridge.gram_s": own["ridge.gram"],
            "kernels.flam": flam,
            "kernels.flam_per_s": flam / kernel_s if kernel_s > 0 else 0.0,
            "operators.s": own["operators"],
            "lsqr.s": lsqr_s,
            "lsqr.vector_s": own["lsqr"],
            "lsqr.iters": float(iterations),
            "lsqr.s_per_iter": lsqr_s / iterations if iterations else 0.0,
            "sharded.s": clock.inclusive_s["sharded"],
            "sharded.kernel_busy_s": sum(
                worker["kernels." + name] for name in KERNELS
            ),
            "sharded.reduce_s": own["sharded.reduce"]
            + own["kernels.reduce_adjoint"],
            "parallel.shard_products": (
                program_counter("parallel.shard_products").value
                if program_counter is not None
                else 0.0
            ),
            "srda.validate_s": own["srda.validate"],
            "srda.embed_s": own["srda.embed"],
            "srda.glue_s": own["glue"],
            "srda.glue_share": own["glue"] / wall if wall > 0 else 0.0,
            "flam.model": flam_model,
            "flam.ratio": flam / flam_model if flam_model > 0 else 0.0,
            "srda.flam": (
                program_counter("srda.flam").value
                if program_counter is not None
                else 0.0
            ),
        }
    )
    return metrics
