"""HTTP serving front end: endpoints, lifecycle, SLO surfacing."""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro import SRDA, SolverConfig
from repro.serving import ModelRegistry
from repro.serving.server import ServingApp, make_server

pytestmark = pytest.mark.serving


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.fixture
def serving(small_classification):
    """A live server on an ephemeral port; yields (base_url, X, y, app)."""
    X, y = small_classification
    model = SRDA(
        alpha=1.0, config=SolverConfig(solver="lsqr"), tol=1e-8
    ).fit(X, y)
    registry = ModelRegistry()
    registry.register("srda", model)
    app = ServingApp(registry, "srda", max_wait=0.001)
    server = make_server(app)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}", X, y, app
    finally:
        server.shutdown()
        server.server_close()
        app.close()


class TestEndpoints:
    def test_healthz(self, serving):
        base, _, _, _ = serving
        status, payload = _get(base, "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_predict_rows(self, serving):
        base, X, y, app = serving
        status, payload = _post(base, "/predict", {"rows": X[:5].tolist()})
        assert status == 200
        expected = app.registry.active("srda").predict(
            X[:5].astype(np.float32)
        )
        assert payload["results"] == expected.tolist()
        assert payload["version"] == 1

    def test_predict_single_row_auto_wraps(self, serving):
        base, X, _, _ = serving
        status, payload = _post(base, "/predict", {"rows": X[0].tolist()})
        assert status == 200
        assert len(payload["results"]) == 1

    def test_predict_transform_method(self, serving):
        base, X, _, _ = serving
        status, payload = _post(
            base,
            "/predict",
            {"rows": X[:2].tolist(), "method": "transform"},
        )
        assert status == 200
        assert len(payload["results"]) == 2
        assert isinstance(payload["results"][0], list)

    def test_predict_validation_errors(self, serving):
        base, _, _, _ = serving
        status, payload = _post(base, "/predict", {})
        assert status == 400 and "rows" in payload["error"]
        status, payload = _post(
            base, "/predict", {"rows": [[1.0]], "method": "classify"}
        )
        assert status == 400

    def test_ragged_rows_return_http_400(self, serving):
        """Malformed arrays must be a 400, not a dropped connection."""
        base, _, _, _ = serving
        ragged = [[1.0, 2.0], [3.0]]
        status, payload = _post(base, "/predict", {"rows": ragged})
        assert status == 400 and "error" in payload
        status, payload = _post(
            base, "/partial_fit", {"rows": ragged, "labels": [0, 1]}
        )
        assert status == 400 and "error" in payload
        status, payload = _post(
            base, "/predict", {"rows": [["not", "numbers"]]}
        )
        assert status == 400 and "error" in payload

    def test_unknown_path_404(self, serving):
        base, _, _, _ = serving
        assert _get(base, "/nope")[0] == 404
        assert _post(base, "/nope", {})[0] == 404

    def test_models_listing(self, serving):
        base, _, _, _ = serving
        status, payload = _get(base, "/models")
        assert status == 200
        assert payload["srda"]["active_version"] == 1

    def test_metrics_expose_slo_percentiles(self, serving):
        base, X, _, _ = serving
        _post(base, "/predict", {"rows": X[:8].tolist()})
        status, payload = _get(base, "/metrics")
        assert status == 200
        assert payload["slo"]["requests"] >= 8
        assert payload["slo"]["p99_latency_s"] > 0
        histograms = payload["instruments"]["histograms"]
        assert histograms["serving.request_latency_s"]["p99"] > 0


class TestLifecycle:
    def test_partial_fit_registers_new_version(self, serving):
        base, X, y, _ = serving
        status, payload = _post(
            base,
            "/partial_fit",
            {"rows": X[:6].tolist(), "labels": y[:6].tolist()},
        )
        assert status == 200
        assert payload["version"] == 2
        assert payload["incremental"]["batches"] >= 1
        status, payload = _get(base, "/models")
        assert payload["srda"]["active_version"] == 2

    def test_promote_and_rollback(self, serving):
        base, X, y, _ = serving
        _post(
            base,
            "/partial_fit",
            {"rows": X[:6].tolist(), "labels": y[:6].tolist()},
        )
        status, payload = _post(base, "/rollback", {})
        assert status == 200 and payload["active_version"] == 1
        status, payload = _post(base, "/promote", {"version": 2})
        assert status == 200 and payload["active_version"] == 2

    def test_rollback_without_history(self, serving):
        base, _, _, _ = serving
        status, payload = _post(base, "/rollback", {})
        assert status == 409

    def test_partial_fit_never_mutates_served_model(self, serving):
        """The update runs on a deep copy; version 1 keeps its exact
        pre-update state, so rollback is a real undo."""
        base, X, y, app = serving
        original = app.registry.get("srda", 1).model
        components_before = original.components_.copy()
        expected = original.predict(X[:5].astype(np.float32)).tolist()

        status, _ = _post(
            base,
            "/partial_fit",
            {"rows": X[:6].tolist(), "labels": y[:6].tolist()},
        )
        assert status == 200
        # Version 2 is a different object; version 1 is bit-identical.
        assert app.registry.get("srda", 2).model is not original
        assert app.registry.get("srda", 1).model is original
        np.testing.assert_array_equal(
            original.components_, components_before
        )
        # Rollback serves the genuine pre-update model.
        _post(base, "/rollback", {})
        status, payload = _post(base, "/predict", {"rows": X[:5].tolist()})
        assert status == 200
        assert payload["version"] == 1
        assert payload["results"] == expected

    def test_update_after_rollback_keeps_the_rolled_back_update(
        self, serving
    ):
        """Registry versions of a stream share one row buffer. After
        /partial_fit → /rollback → /partial_fit, the second update starts
        behind the first one's rows, so it copies its own and the first
        updated version keeps its rows and its model."""
        base, X, y, app = serving

        def stream(*bounds):
            model = SRDA(config=SolverConfig(solver="lsqr"), tol=0.0)
            for lo, hi in zip(bounds, bounds[1:]):
                model.partial_fit(X[lo:hi], y[lo:hi])
            return model

        served = stream(0, 48, 51)  # the second batch left spare capacity
        app.registry.promote("srda", app.registry.register("srda", served))
        status, payload = _post(
            base,
            "/partial_fit",
            {"rows": X[51:54].tolist(), "labels": y[51:54].tolist()},
        )
        assert status == 200
        first = app.registry.get("srda", payload["version"]).model
        rows = first._incremental.store.matrix()
        assert np.shares_memory(rows, served._incremental.store.matrix())
        expected = first.predict(X)

        assert _post(base, "/rollback", {})[0] == 200
        status, payload = _post(
            base,
            "/partial_fit",
            {"rows": X[54:57].tolist(), "labels": y[54:57].tolist()},
        )
        assert status == 200
        second = app.registry.get("srda", payload["version"]).model
        assert not np.shares_memory(
            second._incremental.store.matrix(), rows
        )
        np.testing.assert_array_equal(
            first._incremental.store.matrix(), X[:54]
        )
        np.testing.assert_array_equal(first.predict(X), expected)
        reference = stream(0, 48, 51, 54)
        np.testing.assert_array_equal(first.components_, reference.components_)
        np.testing.assert_array_equal(first.intercept_, reference.intercept_)

    def test_promote_missing_version(self, serving):
        base, _, _, _ = serving
        assert _post(base, "/promote", {"version": 41})[0] == 404
        assert _post(base, "/promote", {})[0] == 400

    def test_shutdown_endpoint_stops_server(self, small_classification):
        X, y = small_classification
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="normal")
        ).fit(X, y)
        registry = ModelRegistry()
        registry.register("srda", model)
        app = ServingApp(registry, "srda")
        server = make_server(app)
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            status, payload = _post(base, "/shutdown", {})
            assert status == 200
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.server_close()
            app.close()
