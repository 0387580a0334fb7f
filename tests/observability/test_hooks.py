"""Per-iteration solver hooks: firing counts match reported iterations."""

import numpy as np
import pytest

from repro.linalg.block_lsqr import SharedBidiagonalization, block_lsqr
from repro.linalg.operators import as_operator
from repro.observability import (
    InMemorySink,
    IterationEvent,
    IterationRecorder,
    Tracer,
)


@pytest.fixture
def problem(rng):
    A = rng.standard_normal((40, 15))
    B = rng.standard_normal((40, 3))
    return as_operator(A), B


class TestIterationEvent:
    def test_to_attributes_is_json_friendly(self):
        event = IterationEvent(
            solver="block_lsqr",
            itn=4,
            r2norm=np.float64(1.5),
            arnorm=np.float64(0.25),
            istop=np.int64(7),
            active=np.array([0, 2]),
        )
        attributes = event.to_attributes()
        assert attributes == {
            "solver": "block_lsqr",
            "itn": 4,
            "r2norm": 1.5,
            "arnorm": 0.25,
            "istop": 7,
            "active": [0, 2],
        }
        assert isinstance(attributes["istop"], int)
        assert all(isinstance(j, int) for j in attributes["active"])

    def test_single_rhs_event_omits_active(self):
        event = IterationEvent(solver="lsqr", itn=1, r2norm=1.0, arnorm=0.1)
        assert "active" not in event.to_attributes()


class TestLsqrHook:
    """One right-hand side (a 1-D ``b``): a one-column block solve."""

    def test_count_equals_reported_iterations(self, problem):
        op, B = problem
        recorder = IterationRecorder()
        result = block_lsqr(
            op, B[:, 0], damp=0.5, on_iteration=recorder
        ).column(0)
        assert result.itn > 0
        assert len(recorder) == result.itn
        assert [e.itn for e in recorder.events] == list(
            range(1, result.itn + 1)
        )
        assert all(e.solver == "block_lsqr" for e in recorder.events)
        assert all(list(e.active) == [0] for e in recorder.events)
        # The final event carries the stop decision.
        assert recorder.last.istop == result.istop
        assert all(e.istop == 0 for e in recorder.events[:-1])

    def test_count_when_capped_by_iter_lim(self, problem):
        op, B = problem
        recorder = IterationRecorder()
        result = block_lsqr(
            op, B[:, 0], damp=0.5, atol=0.0, btol=0.0, iter_lim=4,
            on_iteration=recorder,
        ).column(0)
        assert result.itn == 4
        assert len(recorder) == 4

    def test_none_hook_changes_nothing(self, problem):
        op, B = problem
        recorder = IterationRecorder()
        with_hook = block_lsqr(
            op, B[:, 0], damp=0.5, on_iteration=recorder
        ).column(0)
        without = block_lsqr(
            op, B[:, 0], damp=0.5, on_iteration=None
        ).column(0)
        np.testing.assert_allclose(with_hook.x, without.x)
        assert with_hook.itn == without.itn

    def test_hook_exception_propagates(self, problem):
        op, B = problem

        def hook(event):
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            block_lsqr(op, B[:, 0], damp=0.5, on_iteration=hook)


class TestBlockLsqrHook:
    def test_count_equals_max_column_iterations(self, problem):
        op, B = problem
        recorder = IterationRecorder()
        result = block_lsqr(op, B, damp=0.5, on_iteration=recorder)
        assert len(recorder) == int(np.max(result.itn))
        assert all(e.solver == "block_lsqr" for e in recorder.events)
        # `active` names original RHS columns and only ever shrinks.
        for event in recorder.events:
            assert event.active is not None
            assert set(event.active) <= set(range(B.shape[1]))
        sizes = [len(e.active) for e in recorder.events]
        assert sizes == sorted(sizes, reverse=True)

    def test_finite_norms_even_on_final_iteration(self, problem):
        op, B = problem
        recorder = IterationRecorder()
        block_lsqr(
            op, B, damp=0.5, atol=0.0, btol=0.0, iter_lim=6,
            on_iteration=recorder,
        )
        for event in recorder.events:
            assert np.isfinite(event.r2norm)
            assert np.isfinite(event.arnorm)


class TestSharedBidiagonalizationHook:
    def test_replay_fires_per_block_iteration(self, problem):
        op, B = problem
        basis = SharedBidiagonalization(op, B, iter_lim=8)
        recorder = IterationRecorder()
        result = basis.solve(damp=0.7, on_iteration=recorder)
        assert len(recorder) == int(np.max(result.itn))
        assert all(
            e.solver == "shared_bidiagonalization" for e in recorder.events
        )


class TestTracerHookIntegration:
    def test_span_collects_one_event_per_iteration(self, problem):
        op, B = problem
        sink = InMemorySink()
        tracer = Tracer(sink=sink)
        with tracer.span("solve") as span:
            result = block_lsqr(
                op, B[:, 0], damp=0.5,
                on_iteration=tracer.iteration_hook(span),
            ).column(0)
        events = sink.find("solve")[0]["events"]
        assert len(events) == result.itn
        assert all(e["name"] == "block_lsqr.iteration" for e in events)
        assert events[-1]["attributes"]["itn"] == result.itn
