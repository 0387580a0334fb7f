"""Model persistence — save fitted estimators to ``.npz`` archives.

Every linear estimator in this package is, once fitted, a handful of
arrays (components, intercept, classes, centroids) plus its constructor
parameters.  Saving those to a plain numpy archive keeps the format
inspectable, dependency-free, and stable — no pickle, so archives from
untrusted sources cannot execute code on load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.baselines.idrqr import IDRQR
from repro.baselines.lda import LDA
from repro.baselines.rlda import RLDA
from repro.core.sparse_srda import SparseSRDA
from repro.core.srda import SRDA

#: type tag -> (class, constructor parameter names).  SRDA's solver
#: settings are stored *flat* (``solver``/``sketch_size``/...), read
#: from its ``SolverConfig``: the flat spelling keeps old archives
#: loadable and the format free of nested JSON.  ``load_model`` folds
#: them back into a config.
_SRDA_CONFIG_FIELDS = (
    "solver",
    "sketch_size",
    "sketch_seed",
    "kernel_backend",
)

_REGISTRY = {
    "SRDA": (SRDA, ("alpha", "centering", "max_iter", "tol")),
    "SparseSRDA": (SparseSRDA, ("alpha", "l1_ratio", "max_iter", "tol")),
    "LDA": (LDA, ("n_components", "svd_tol")),
    "RLDA": (RLDA, ("alpha", "n_components", "svd_tol")),
    "IDRQR": (IDRQR, ("alpha", "n_components")),
}

#: fitted-state arrays common to every LinearEmbedder
_ARRAYS = ("components_", "intercept_", "classes_", "centroids_")


def save_model(model, path: Union[str, Path]) -> Path:
    """Serialize a fitted estimator to ``path`` (``.npz`` appended).

    Raises if the model type is not registered or the model is unfitted.
    """
    type_name = type(model).__name__
    if type_name not in _REGISTRY:
        raise TypeError(
            f"cannot serialize {type_name}; supported: "
            f"{sorted(_REGISTRY)}"
        )
    if getattr(model, "components_", None) is None:
        raise ValueError("cannot save an unfitted model")
    _, param_names = _REGISTRY[type_name]
    params = {name: getattr(model, name) for name in param_names}
    if type_name == "SRDA":
        for name in _SRDA_CONFIG_FIELDS:
            params[name] = getattr(model.config, name)

    payload = {
        "model_type": np.array(type_name),
        "params_json": np.array(json.dumps(params)),
    }
    for name in _ARRAYS:
        value = getattr(model, name, None)
        if value is not None:
            payload[name] = np.asarray(value)

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez(path, **payload)
    return path


def load_model(path: Union[str, Path]):
    """Load an estimator saved by :func:`save_model`.

    Reconstructs the estimator with its constructor parameters and
    restores the fitted arrays; ``transform``/``predict`` work
    immediately.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        type_name = str(archive["model_type"])
        if type_name not in _REGISTRY:
            raise ValueError(f"unknown model type {type_name!r} in archive")
        cls, _ = _REGISTRY[type_name]
        params = json.loads(str(archive["params_json"]))
        if cls is SRDA:
            # Fold the flat solver knobs back into a SolverConfig (the
            # file format predates the grouping and stays flat).
            from repro.core.solver_config import SolverConfig

            # Older archives name a sketch family; CountSketch is now
            # the only one, and the fitted arrays never depended on it.
            params.pop("sketch", None)
            fields = {
                name: params.pop(name)
                for name in _SRDA_CONFIG_FIELDS
                if name in params
            }
            params["config"] = SolverConfig(**fields)
        model = cls(**params)
        for name in _ARRAYS:
            if name in archive:
                setattr(model, name, archive[name])
    return model
