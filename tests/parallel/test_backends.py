"""Unit tests for the execution backends."""

import os
import subprocess
import sys

import pytest

import repro
from repro.observability import InMemorySink, Tracer, current_tracer
from repro.distributed import DistributedBackend
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

    def test_positive_passthrough(self):
        assert effective_n_jobs(3) == 3

    @pytest.mark.parametrize("bad", [0, -2, -17])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError, match="n_jobs"):
            effective_n_jobs(bad)


class TestSerialBackend:
    def test_map_preserves_order(self):
        with SerialBackend() as backend:
            assert backend.map(lambda i: i * i, range(5)) == [0, 1, 4, 9, 16]

    def test_shape(self):
        backend = SerialBackend()
        assert backend.n_workers == 1
        assert not backend.remote
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
            ("distributed", DistributedBackend),
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
        with pytest.raises(ValueError, match="process backend was removed") as err:
            resolve_backend("process", 2)
        assert "'thread'" in str(err.value)
        assert "'distributed'" in str(err.value)

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
