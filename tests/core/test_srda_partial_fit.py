"""SRDA.partial_fit: equivalence to fit, warm-start payoff, edge cases.

The contract under test (documented on :meth:`SRDA.partial_fit`):

- streaming batches and cold-fitting the concatenation minimize the
  same ridge objective, so converged solves agree to solver tolerance
  (``<= 1e-6`` here, float64);
- the warm start pays in *iterations* — on ill-conditioned data each
  incremental solve must take strictly fewer LSQR iterations than the
  cold refit at the same tolerance;
- the response construction is an exact integer function of the class
  histogram, hence bitwise independent of batch order.
"""

import copy
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro import SRDA, SolverConfig
from repro.core.responses import response_table_from_counts
from repro.robustness.report import RobustnessWarning

pytestmark = pytest.mark.partial_fit

LSQR = dict(
    alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=500, tol=1e-12
)

#: Acceptance bound for partial_fit-vs-fit agreement (float64).
EQUIVALENCE_BOUND = 1e-6

#: Fixed-iteration solves, as the serving writer runs them: streams fed
#: the same rows must agree bit for bit.
FIXED = dict(
    alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=20, tol=0.0
)


def _blobs(rng, m, n_features=12, n_classes=4, centers=None):
    if centers is None:
        centers = 4.0 * rng.standard_normal((n_classes, n_features))
    y = rng.integers(0, centers.shape[0], size=m)
    y[: centers.shape[0]] = np.arange(centers.shape[0])
    X = centers[y] + rng.standard_normal((m, centers.shape[0] and n_features))
    return X, y, centers


def _ill_conditioned_stream(seed, n=80, c=6, cond=1e2):
    """Class blobs pushed through a power-law column spectrum.

    On this conditioning the cold LSQR at tol=1e-10 needs hundreds of
    iterations, so the warm start's head start is measurable — on
    well-conditioned data both converge in a handful of iterations and
    "strictly fewer" would be vacuous or flaky.
    """
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    base = U * cond ** (-np.arange(n) / (n - 1))
    centers = 2.0 * rng.standard_normal((c, n))

    def make(m):
        y = rng.integers(0, c, size=m)
        y[:c] = np.arange(c)
        return (centers[y] + rng.standard_normal((m, n))) @ base, y

    return make


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_fit_and_saves_iterations(self, seed):
        """The acceptance claim: <= 1e-6 agreement, strictly fewer iters."""
        make = _ill_conditioned_stream(seed)
        kwargs = dict(
            alpha=0.01,
            config=SolverConfig(solver="lsqr"),
            max_iter=1000,
            tol=1e-10,
        )
        warm = SRDA(**kwargs)
        X0, y0 = make(1000)
        warm.partial_fit(X0, y0)
        seen_X, seen_y = [X0], [y0]
        for _ in range(2):
            Xb, yb = make(10)
            seen_X.append(Xb)
            seen_y.append(yb)
            warm.partial_fit(Xb, yb)
            cold = SRDA(**kwargs).fit(
                np.vstack(seen_X), np.concatenate(seen_y)
            )
            diff = np.abs(warm.components_ - cold.components_).max()
            assert diff <= EQUIVALENCE_BOUND
            assert max(warm.lsqr_iterations_) < max(cold.lsqr_iterations_)
            assert warm.fit_report_.incremental["warm_started"]

    def test_predictions_match_fit(self):
        rng = np.random.default_rng(5)
        X, y, centers = _blobs(rng, 120)
        stream = SRDA(**LSQR)
        for start in range(0, 120, 40):
            stream.partial_fit(X[start:start + 40], y[start:start + 40])
        full = SRDA(**LSQR).fit(X, y)
        X_new = centers[y[:30]] + rng.standard_normal((30, X.shape[1]))
        np.testing.assert_array_equal(
            stream.predict(X_new), full.predict(X_new)
        )


class TestUnseenClasses:
    def test_class_set_grows_mid_stream(self):
        rng = np.random.default_rng(2)
        X, y, _ = _blobs(rng, 90, n_classes=5)
        first = y < 3  # classes {0,1,2} only
        model = SRDA(**LSQR)
        model.partial_fit(X[first], y[first])
        assert model.classes_.tolist() == [0, 1, 2]
        model.partial_fit(X[~first], y[~first])
        assert model.classes_.tolist() == [0, 1, 2, 3, 4]
        added = model.fit_report_.incremental["classes_added"]
        assert added == [3, 4]
        full = SRDA(**LSQR).fit(
            np.vstack([X[first], X[~first]]),
            np.concatenate([y[first], y[~first]]),
        )
        diff = np.abs(model.components_ - full.components_).max()
        assert diff <= EQUIVALENCE_BOUND

    def test_single_class_stream_widens(self):
        """A stream may legitimately start with one class: no raise,
        zero-dimensional embedding, then a real model once it widens."""
        rng = np.random.default_rng(3)
        X, y, _ = _blobs(rng, 60, n_classes=3)
        model = SRDA(**LSQR)
        with pytest.warns(RobustnessWarning, match="one class"):
            model.partial_fit(X[y == 0], y[y == 0])
        assert model.classes_.tolist() == [0]
        assert model.transform(X[:4]).shape == (4, 0)
        model.partial_fit(X[y != 0], y[y != 0])
        assert model.classes_.tolist() == [0, 1, 2]
        assert model.components_.shape[1] == 2


class TestBatchShapes:
    def test_single_row_batches(self):
        rng = np.random.default_rng(4)
        X, y, _ = _blobs(rng, 50)
        model = SRDA(**LSQR)
        model.partial_fit(X[:30], y[:30])
        for i in range(30, 50):
            model.partial_fit(X[i:i + 1], y[i:i + 1])
        assert model.fit_report_.incremental["batches"] == 21
        assert model.fit_report_.incremental["rows_total"] == 50
        full = SRDA(**LSQR).fit(X, y)
        diff = np.abs(model.components_ - full.components_).max()
        assert diff <= EQUIVALENCE_BOUND

    def test_dtype_mixed_batches(self):
        """float32 / float64 / integer batches share one stream; the
        result matches a fit on the same values upcast to float64."""
        rng = np.random.default_rng(6)
        X, y, _ = _blobs(rng, 90)
        batches = [
            X[:30].astype(np.float32),
            X[30:60],  # float64
            np.round(X[60:] * 4.0).astype(np.int32),
        ]
        model = SRDA(**LSQR)
        for Xb, yb in zip(batches, (y[:30], y[30:60], y[60:])):
            model.partial_fit(Xb, yb)
        X_ref = np.vstack([b.astype(np.float64) for b in batches])
        full = SRDA(**LSQR).fit(X_ref, y)
        diff = np.abs(model.components_ - full.components_).max()
        assert diff <= EQUIVALENCE_BOUND

    def test_feature_count_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        X, y, _ = _blobs(rng, 40)
        model = SRDA(**LSQR)
        model.partial_fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.partial_fit(X[:, :5], y)


class TestDeterminism:
    def test_counts_and_table_bitwise_under_batch_permutation(self):
        """The class histogram and the response table built from it are
        integer-exact, so any batch order produces bitwise-identical
        values — the documented guarantee behind reproducible streams."""
        rng = np.random.default_rng(8)
        X, y, _ = _blobs(rng, 120, n_classes=5)
        splits = [(0, 50), (50, 80), (80, 120)]
        reference = None
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            model = SRDA(**LSQR)
            for k in order:
                lo, hi = splits[k]
                model.partial_fit(X[lo:hi], y[lo:hi])
            counts = model._incremental.counts
            table = response_table_from_counts(counts)
            if reference is None:
                reference = (counts.copy(), table.copy())
            else:
                assert np.array_equal(counts, reference[0])
                # bitwise, not allclose: the table is a pure function
                # of integer counts
                assert np.array_equal(table, reference[1])

    def test_incremental_report_fields(self):
        rng = np.random.default_rng(9)
        X, y, _ = _blobs(rng, 60)
        model = SRDA(**LSQR)
        model.partial_fit(X[:40], y[:40])
        first = model.fit_report_.incremental
        assert first["batches"] == 1
        assert first["rows_new"] == 40
        assert not first["warm_started"]
        model.partial_fit(X[40:], y[40:])
        second = model.fit_report_.incremental
        assert second["batches"] == 2
        assert second["rows_total"] == 60
        assert second["warm_started"]


class TestStreamSemantics:
    def test_fit_discards_stream(self):
        rng = np.random.default_rng(10)
        X, y, _ = _blobs(rng, 80)
        model = SRDA(**LSQR)
        model.partial_fit(X[:40], y[:40])
        model.fit(X[40:], y[40:])
        fresh = SRDA(**LSQR).fit(X[40:], y[40:])
        np.testing.assert_array_equal(
            model.components_, fresh.components_
        )
        assert model.fit_report_.incremental is None

    def test_partial_fit_after_fit_starts_fresh(self):
        rng = np.random.default_rng(11)
        X, y, _ = _blobs(rng, 80)
        model = SRDA(**LSQR)
        model.fit(X[:40], y[:40])
        model.partial_fit(X[40:], y[40:])
        assert model.fit_report_.incremental["batches"] == 1
        assert model.fit_report_.incremental["rows_total"] == 40
        fresh = SRDA(**LSQR)
        fresh.partial_fit(X[40:], y[40:])
        diff = np.abs(model.components_ - fresh.components_).max()
        assert diff <= EQUIVALENCE_BOUND

    def test_normal_solver_rejected(self):
        rng = np.random.default_rng(12)
        X, y, _ = _blobs(rng, 40)
        model = SRDA(alpha=1.0, config=SolverConfig(solver="normal"))
        with pytest.raises(ValueError, match="iterative solver"):
            model.partial_fit(X, y)

    def test_sparse_dense_mixing_rejected(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(13)
        X, y, _ = _blobs(rng, 60)
        model = SRDA(**LSQR)
        model.partial_fit(sp.csr_matrix(X[:30]), y[:30])
        with pytest.raises(ValueError, match="mix sparse and dense"):
            model.partial_fit(X[30:], y[30:])


def _stream(batches):
    """A fresh model fed ``batches`` (pairs of rows and labels) in order."""
    model = SRDA(**FIXED)
    for Xb, yb in batches:
        model.partial_fit(Xb, yb)
    return model


def _stored(model):
    return model._incremental.store.matrix()


def _assert_same_model(model, reference):
    np.testing.assert_array_equal(model.components_, reference.components_)
    np.testing.assert_array_equal(model.intercept_, reference.intercept_)


class TestBatchCopies:
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_caller_may_reuse_its_batch_buffers(self, layout):
        """The stream copies each batch: editing the caller's row and
        label buffers after the call changes no later solve."""
        rng = np.random.default_rng(14)
        X, y, _ = _blobs(rng, 90)
        if layout == "csr":
            X = sp.csr_matrix(X)
        first = (X[:60].copy(), y[:60].copy())
        second = (X[60:], y[60:])
        expected = _stream([(first[0].copy(), first[1].copy()), second])
        model = _stream([first])
        (first[0].data if layout == "csr" else first[0])[:] = 0.0
        first[1][:] = first[1][::-1].copy()
        model.partial_fit(*second)
        _assert_same_model(model, expected)


class TestCopyIsolation:
    """Copies of a streaming model share one row buffer; whichever holder
    appends, every holder keeps its own rows and continues its own
    stream exactly as a fresh model fed the same batches would."""

    @pytest.fixture
    def holders(self):
        rng = np.random.default_rng(15)
        X, y, _ = _blobs(rng, 96, n_classes=3)
        base = [(X[:60], y[:60]), (X[60:66], y[60:66]), (X[66:72], y[66:72])]
        extra = {
            "original": (X[72:80], y[72:80]),
            "copy": (X[80:88], y[80:88]),
            "older": (X[88:], y[88:]),
        }
        model = _stream(base[:2])  # the second batch grows the store
        older = copy.deepcopy(model)
        model.partial_fit(*base[2])  # appended in place
        holders = {
            "original": model, "copy": copy.deepcopy(model), "older": older
        }
        assert np.shares_memory(_stored(model), _stored(older))
        assert np.shares_memory(_stored(holders["copy"]), _stored(older))
        expected = {
            "original": _stream(base + [extra["original"]]),
            "copy": _stream(base + [extra["copy"]]),
            "older": _stream(base[:2] + [extra["older"]]),
        }
        return holders, extra, expected, X[:12]

    @staticmethod
    def _snapshot(holders, probe):
        return {
            name: (_stored(model).copy(), model.predict(probe))
            for name, model in holders.items()
        }

    @staticmethod
    def _assert_kept(holders, snapshot, probe, names):
        for name in names:
            rows, predictions = snapshot[name]
            np.testing.assert_array_equal(_stored(holders[name]), rows)
            np.testing.assert_array_equal(
                holders[name].predict(probe), predictions
            )

    @pytest.mark.parametrize(
        "order", [("original", "copy", "older"), ("older", "copy", "original")]
    )
    def test_each_holder_continues_its_own_stream(self, holders, order):
        holders, extra, expected, probe = holders
        shared = _stored(holders["older"])
        for name in order:
            snapshot = self._snapshot(holders, probe)
            holders[name].partial_fit(*extra[name])
            self._assert_kept(holders, snapshot, probe, set(holders) - {name})
        for name in holders:
            _assert_same_model(holders[name], expected[name])
        # only the first of the two holders at the high-water mark wrote
        # in place; the other one and the older version reallocated
        in_place = [name for name in order if name != "older"][0]
        for name in holders:
            assert np.shares_memory(_stored(holders[name]), shared) == (
                name == in_place
            )

    def test_concurrent_appends(self, holders):
        holders, extra, expected, probe = holders
        shared = _stored(holders["older"])
        snapshot = self._snapshot(holders, probe)
        barrier = threading.Barrier(2)
        errors = []

        def append(name):
            try:
                barrier.wait()
                holders[name].partial_fit(*extra[name])
            # Boundary: the worker thread hands its failure to the test.
            except Exception as exc:  # repro: noqa-RPR002
                errors.append(exc)

        threads = [
            threading.Thread(target=append, args=(name,))
            for name in ("original", "copy")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        self._assert_kept(holders, snapshot, probe, ["older"])
        holders["older"].partial_fit(*extra["older"])
        for name in holders:
            _assert_same_model(holders[name], expected[name])
        in_place = [
            np.shares_memory(_stored(holders[name]), shared)
            for name in ("original", "copy")
        ]
        assert sorted(in_place) == [False, True]

    def test_store_appends_from_more_threads_than_cores(self):
        """Eight handles at the high-water mark append at once, with the
        interpreter switching threads as often as it can: one writes in
        place, each other one copies its rows first, and every handle
        ends with exactly its own rows (two in-place writers would
        overwrite each other's)."""
        rng = np.random.default_rng(19)
        X, y, _ = _blobs(rng, 44)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                # the second batch leaves spare capacity behind the mark
                model = _stream([(X[:40], y[:40]), (X[40:], y[40:])])
                base = _stored(model)
                handles = [
                    copy.deepcopy(model._incremental.store) for _ in range(8)
                ]
                batches = [
                    (rng.standard_normal((2, X.shape[1])), y[:2])
                    for _ in handles
                ]
                barrier = threading.Barrier(len(handles))

                def append(handle, batch, barrier=barrier):
                    barrier.wait()
                    handle.append(*batch)

                threads = [
                    threading.Thread(target=append, args=pair)
                    for pair in zip(handles, batches)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for handle, (rows, labels) in zip(handles, batches):
                    np.testing.assert_array_equal(
                        handle.matrix(), np.vstack([X, rows])
                    )
                    np.testing.assert_array_equal(
                        handle.labels(), np.concatenate([y, labels])
                    )
                in_place = [
                    np.shares_memory(handle.matrix(), base)
                    for handle in handles
                ]
                assert sum(in_place) == 1
        finally:
            sys.setswitchinterval(interval)


class TestRowStore:
    def test_dense_view_is_the_vstack(self):
        rng = np.random.default_rng(16)
        X, y, _ = _blobs(rng, 70)
        batches = [(X[:40], y[:40]), (X[40:50], y[40:50]), (X[50:], y[50:])]
        store = _stream(batches)._incremental.store
        view = store.matrix()
        assert view.flags.c_contiguous and not view.flags.writeable
        np.testing.assert_array_equal(view, np.vstack([b for b, _ in batches]))
        np.testing.assert_array_equal(store.labels(), y)

    @pytest.mark.parametrize(
        "dtypes",
        [
            ("float64", "float64", "float32"),
            ("float32", "float32", "float64"),
            ("float32", "float32", "float32"),
        ],
    )
    def test_csr_view_is_the_vstack(self, dtypes):
        """Array for array, the stored CSR matrix is scipy's ``vstack``
        of the batches, with its value-dtype promotion."""
        rng = np.random.default_rng(17)
        batches = []
        for k, (rows, dtype) in enumerate(zip((40, 5, 5), dtypes)):
            block = sp.random(
                rows, 30, density=0.2, format="csr", dtype=dtype,
                random_state=np.random.default_rng([17, k]),
            )
            labels = rng.integers(0, 3, size=rows)
            labels[:3] = np.arange(3)
            batches.append((block, labels))
        view = _stored(_stream(batches))
        expected = sp.vstack([b for b, _ in batches], format="csr")
        assert view.shape == expected.shape
        assert view.data.dtype == expected.data.dtype
        np.testing.assert_array_equal(view.data, expected.data)
        np.testing.assert_array_equal(view.indices, expected.indices)
        np.testing.assert_array_equal(view.indptr, expected.indptr)


class TestWorkingSet:
    def test_copy_and_update_allocate_no_rows(self):
        """An update that fits the store's capacity copies the model and
        appends the batch in place: nothing the size of the stored rows
        is allocated, only the solve's ``(m + n)·c`` blocks."""
        rng = np.random.default_rng(18)
        X, y, _ = _blobs(rng, 2020, n_features=400, n_classes=3)
        model = _stream([(X[:2000], y[:2000]), (X[2000:2010], y[2000:2010])])
        stored = _stored(model).nbytes
        tracemalloc.start()
        try:
            copy.deepcopy(model).partial_fit(X[2010:], y[2010:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * stored, peak / stored

    def test_copy_shares_the_streamed_responses(self):
        """A streamed model's ``responses_`` are read-only and shared by
        its copies: ``deepcopy`` allocates far less than their bytes,
        and the copy's next batch replaces its own without touching the
        original's."""
        rng = np.random.default_rng(19)
        X, y, _ = _blobs(rng, 3010, n_features=16, n_classes=12)
        model = _stream([(X[:1500], y[:1500]), (X[1500:3000], y[1500:3000])])
        responses = model.responses_
        before = responses.tobytes()
        assert not responses.flags.writeable
        tracemalloc.start()
        try:
            twin = copy.deepcopy(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert twin.responses_ is responses
        assert peak <= 0.25 * responses.nbytes, peak / responses.nbytes
        twin.partial_fit(X[3000:], y[3000:])
        assert twin.responses_.shape[0] == 3010
        assert model.responses_ is responses
        assert responses.tobytes() == before

    def test_copy_of_a_cold_fit_owns_its_responses(self):
        rng = np.random.default_rng(20)
        X, y, _ = _blobs(rng, 200, n_classes=4)
        model = SRDA(**FIXED).fit(X, y)
        twin = copy.deepcopy(model)
        assert model.responses_.flags.writeable
        assert twin.responses_ is not model.responses_
        assert np.array_equal(twin.responses_, model.responses_)
