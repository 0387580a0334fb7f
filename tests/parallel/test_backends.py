"""Unit tests for the execution backends."""

import contextvars
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.observability import InMemorySink, Tracer, current_tracer
from repro.parallel import (
    SerialBackend,
    ThreadBackend,
    effective_n_jobs,
    resolve_backend,
)
from repro.parallel.backends import BACKEND_NAMES, check_backend_name

pytestmark = pytest.mark.parallel


class TestEffectiveNJobs:
    def test_none_means_one(self):
        assert effective_n_jobs(None) == 1

    def test_all_cores(self):
        assert effective_n_jobs(-1) >= 1

    def test_all_cores_counts_the_affinity_mask(self, monkeypatch):
        # -1 means the cores this process may run on, not every core
        # the machine has.
        monkeypatch.setattr(os, "cpu_count", lambda: 64, raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert effective_n_jobs(-1) == 3

    def test_positive_passthrough(self):
        assert effective_n_jobs(3) == 3

    @pytest.mark.parametrize("bad", [0, -2, -17])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError, match="n_jobs"):
            effective_n_jobs(bad)


#: Every in-host backend shape: inline, and pools of several sizes.
BACKEND_SHAPES = {
    "serial": SerialBackend,
    "thread-1": lambda: ThreadBackend(n_workers=1),
    "thread-2": lambda: ThreadBackend(n_workers=2),
    "thread-4": lambda: ThreadBackend(n_workers=4),
}

_CALLER_VALUE = contextvars.ContextVar("caller_value", default="unset")


def _square(x):
    return x * x


def _fail_on_odd(i):
    if i % 2:
        raise ValueError(f"injected failure on {i}")
    return i


@pytest.fixture(params=sorted(BACKEND_SHAPES))
def backend(request):
    with BACKEND_SHAPES[request.param]() as built:
        yield built


class TestBackendContract:
    """What every backend promises: the same results, in submission
    order, with the first failure (in submission order) raised."""

    def test_map_matches_builtin_map(self, backend):
        items = list(range(17))
        got = backend.map(_square, items)
        assert isinstance(got, list)
        assert got == [_square(x) for x in items]

    def test_map_empty(self, backend):
        assert backend.map(_square, []) == []

    def test_map_single_item(self, backend):
        assert backend.map(_square, [7]) == [49]

    def test_map_consumes_a_generator_once(self, backend):
        pulled = []

        def items():
            for i in range(6):
                pulled.append(i)
                yield i

        assert backend.map(_square, items()) == [0, 1, 4, 9, 16, 25]
        assert pulled == list(range(6))

    def test_results_in_submission_order(self, backend):
        def slow_identity(i):
            # Later items finish first on a pool.
            time.sleep(0.005 * (5 - i))
            return i

        assert backend.map(slow_identity, range(5)) == list(range(5))

    def test_first_failure_in_submission_order_is_raised(self, backend):
        with pytest.raises(ValueError, match="injected failure on 1"):
            backend.map(_fail_on_odd, range(6))

    def test_usable_after_a_failing_map(self, backend):
        with pytest.raises(ValueError):
            backend.map(_fail_on_odd, range(4))
        assert backend.map(_square, range(8)) == [x * x for x in range(8)]

    def test_context_manager_returns_the_backend(self, backend):
        with backend as entered:
            assert entered is backend

    def test_name_resolves_to_the_same_kind(self, backend):
        assert backend.name in BACKEND_NAMES
        rebuilt = resolve_backend(backend.name, backend.n_workers)
        try:
            assert type(rebuilt) is type(backend)
        finally:
            rebuilt.close()

    def test_worker_count_is_positive(self, backend):
        assert backend.n_workers >= 1
        if isinstance(backend, SerialBackend):
            assert backend.n_workers == 1

    def test_tasks_see_the_callers_context(self, backend):
        token = _CALLER_VALUE.set("caller")
        try:
            seen = backend.map(lambda _: _CALLER_VALUE.get(), range(4))
        finally:
            _CALLER_VALUE.reset(token)
        assert seen == ["caller"] * 4


class TestSerialBackend:
    def test_map_preserves_order(self):
        with SerialBackend() as backend:
            assert backend.map(lambda i: i * i, range(5)) == [0, 1, 4, 9, 16]

    def test_shape(self):
        backend = SerialBackend()
        assert backend.n_workers == 1
        backend.close()

    def test_exceptions_propagate(self):
        with SerialBackend() as backend:
            with pytest.raises(ZeroDivisionError):
                backend.map(lambda i: 1 // i, [2, 1, 0])


class TestThreadBackend:
    def test_map_preserves_submission_order(self):
        import time

        def slow_square(i):
            # Later items finish first; results must still come back in
            # submission order.
            time.sleep(0.01 * (4 - i))
            return i * i

        with ThreadBackend(n_workers=4) as backend:
            assert backend.map(slow_square, range(4)) == [0, 1, 4, 9]

    def test_exceptions_propagate(self):
        with ThreadBackend(n_workers=2) as backend:
            with pytest.raises(ZeroDivisionError):
                backend.map(lambda i: 1 // i, [1, 0, 1])

    def test_workers_inherit_current_tracer(self):
        tracer = Tracer(sink=InMemorySink(), enabled=True)
        with ThreadBackend(n_workers=2) as backend:
            with tracer.span("outer"):
                seen = backend.map(
                    lambda _: current_tracer() is tracer, range(4)
                )
        assert all(seen)

    def test_close_idempotent(self):
        backend = ThreadBackend(n_workers=2)
        backend.map(lambda i: i, [1])
        backend.close()
        backend.close()

    def test_single_task_runs_on_the_calling_thread(self):
        with ThreadBackend(n_workers=2) as backend:
            [name] = backend.map(
                lambda _: threading.current_thread().name, [0]
            )
        assert name == threading.current_thread().name

    def test_several_tasks_run_on_pool_threads(self):
        with ThreadBackend(n_workers=2) as backend:
            names = backend.map(
                lambda _: threading.current_thread().name, range(4)
            )
        assert all(name.startswith("repro-shard") for name in names)

    def test_context_changes_in_a_task_stay_in_the_task(self):
        # Each task runs in its own copy of the caller's context.
        token = _CALLER_VALUE.set("caller")
        try:
            with ThreadBackend(n_workers=2) as backend:
                seen = backend.map(
                    lambda i: (_CALLER_VALUE.set(f"task {i}"),
                               _CALLER_VALUE.get())[1],
                    range(4),
                )
            assert seen == [f"task {i}" for i in range(4)]
            assert _CALLER_VALUE.get() == "caller"
        finally:
            _CALLER_VALUE.reset(token)


class TestResolveBackend:
    def test_default_is_serial(self):
        backend = resolve_backend(None, None)
        assert isinstance(backend, SerialBackend)
        backend.close()

    def test_jobs_above_one_select_threads(self):
        backend = resolve_backend(None, 3)
        assert isinstance(backend, ThreadBackend)
        assert backend.n_workers == 3
        backend.close()

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("serial", SerialBackend),
            ("thread", ThreadBackend),
        ],
    )
    def test_names(self, name, cls):
        backend = resolve_backend(name, 2)
        assert isinstance(backend, cls)
        backend.close()

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend, 4) is backend
        backend.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("quantum", 2)

    def test_removed_process_backend_names_replacements(self):
        for name in ("process", "distributed"):
            with pytest.raises(
                ValueError, match=f"{name} backend was removed"
            ) as err:
                resolve_backend(name, 2)
            assert "'thread'" in str(err.value)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_check_accepts_every_buildable_name(self, name):
        check_backend_name(name)

    def test_import_loads_no_multiprocessing(self):
        # In-host fan-out is threads; nothing on the import path may pull
        # in the multiprocessing machinery the process backend needed.
        code = (
            "import sys, repro, repro.parallel; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing'))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(repro.__file__)),
                        env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"
