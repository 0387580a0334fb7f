"""The unified estimator protocol: params, cloning, the registry.

Every public estimator in this package mixes in :class:`ReproEstimator`
and thereby speaks the sklearn parameter protocol:

- ``get_params()`` / ``set_params(**p)`` — introspected from the
  constructor signature, so an estimator's parameters are *exactly* its
  ``__init__`` keywords (sklearn's convention: constructors only store);
- ``clone(est)`` — a fresh unfitted instance with the same parameters;
- ``fit(X, y) -> self``, ``transform``, ``fit_transform`` and a uniform
  ``fit_report_`` attribute (``None`` where an estimator records no
  solver diagnostics).

Each parameter has exactly one spelling: a renamed or regrouped
argument is removed outright, so the old keyword is a ``TypeError`` in
the constructor and a ``ValueError`` from ``set_params``.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, ClassVar, Dict, List, Optional, Type, TypeVar

from repro.exceptions import InvariantViolationError

E = TypeVar("E", bound="ReproEstimator")


class ReproEstimator:
    """Mixin providing the shared parameter protocol.

    Requirements on subclasses (checked by the parametrized round-trip
    test in ``tests/core/test_estimator_api.py``):

    - ``__init__`` takes only explicit keyword-able parameters (no
      ``*args``/``**kwargs``) and stores each one verbatim on ``self``
      under the same name.
    """

    #: Uniform diagnostics surface: estimators whose fit records solver
    #: diagnostics overwrite this with a ``FitReport``; for the rest it
    #: stays ``None`` rather than raising ``AttributeError``.
    fit_report_: Optional[Any] = None

    #: Live runtime plumbing set during fit (tracer handles carry
    #: thread locks) that cannot cross a pickle or ``deepcopy``
    #: boundary.  ``__getstate__`` drops these names, and the copy gets
    #: them back as ``None`` — the serving layer relies on this to
    #: deep-copy a fitted model before ``partial_fit`` so the served
    #: original is never mutated.
    _runtime_attrs: ClassVar[tuple] = ("tracer_",)

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        for name in self._runtime_attrs:
            state.pop(name, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        for name in self._runtime_attrs:
            self.__dict__.setdefault(name, None)

    @classmethod
    def _param_names(cls) -> List[str]:
        """Constructor parameter names."""
        signature = inspect.signature(cls.__init__)
        names = []
        for name, parameter in signature.parameters.items():
            if name == "self":
                continue
            if parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                raise TypeError(
                    f"{cls.__name__}.__init__ must not use *args/**kwargs"
                )
            names.append(name)
        return names

    def get_params(self, deep: bool = True) -> Dict[str, Any]:
        """Current constructor parameters as a dict.

        ``deep`` is accepted for sklearn signature compatibility; no
        estimator here nests another, so it has no effect.
        """
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self: E, **params: Any) -> E:
        """Update parameters in place; returns ``self``.

        Unknown names raise ``ValueError`` (catching typos is the whole
        point of the sklearn contract).
        """
        if not params:
            return self
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for "
                    f"{type(self).__name__}; valid parameters: "
                    f"{sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def fitted_attributes(self) -> Dict[str, Any]:
        """Fitted-state markers currently set on this instance.

        The sklearn convention: fitted state lives in public attributes
        with a trailing underscore (``components_``, ``coef_``,
        ``fit_report_``, ...).  Only non-``None`` values count — every
        constructor initializes its markers to ``None``.
        """
        return {
            name: value
            for name, value in vars(self).items()
            if name.endswith("_")
            and not name.startswith("_")
            and value is not None
        }

    def is_fitted(self) -> bool:
        """True once ``fit`` has populated any fitted-state marker.

        The registry promotion path in :mod:`repro.serving` refuses
        unfitted models with this check, so it must stay accurate for
        every estimator — the shared API tests assert it flips on fit
        and resets on :func:`clone`.
        """
        return bool(self.fitted_attributes())

    def clone(self: E) -> E:
        """A new unfitted instance with this estimator's parameters."""
        return clone(self)


def clone(estimator: E) -> E:
    """Construct a fresh unfitted copy from ``get_params()``.

    Works on anything implementing the protocol (not just
    :class:`ReproEstimator` subclasses).  Fitted state (trailing
    underscore attributes) is *not* copied — same semantics as
    ``sklearn.base.clone`` — and the copy is verified to carry none,
    so a constructor that leaks fitted-looking state fails loudly here
    rather than corrupting a registry promotion.
    """
    params = estimator.get_params()
    new = type(estimator)(**params)
    reconstructed = new.get_params()
    for name, value in params.items():
        if reconstructed.get(name) is not value and reconstructed.get(
            name
        ) != value:
            raise InvariantViolationError(
                f"{type(estimator).__name__} does not store parameter "
                f"{name!r} verbatim (got {reconstructed.get(name)!r}, "
                f"expected {value!r}); constructors must only store"
            )
    if isinstance(new, ReproEstimator) and new.is_fitted():
        leaked = sorted(new.fitted_attributes())
        raise InvariantViolationError(
            f"{type(estimator).__name__}() initializes fitted-state "
            f"markers {leaked} to non-None values; constructors must "
            "leave all trailing-underscore attributes as None"
        )
    return new


def all_estimators() -> Dict[str, Callable[[], Type[ReproEstimator]]]:
    """Name → class loader for every public estimator.

    Values are zero-argument callables (lazy imports keep this module
    free of circular dependencies); ``all_estimators()["SRDA"]()``
    yields the class.  The shared API tests parametrize over this
    registry, so adding an estimator here opts it into the protocol
    contract.
    """

    def _core(name: str) -> Callable[[], Type[ReproEstimator]]:
        def load() -> Type[ReproEstimator]:
            import repro

            return getattr(repro, name)

        return load

    names = (
        "SRDA",
        "KernelSRDA",
        "SparseSRDA",
        "SemiSupervisedSRDA",
        "SpectralRegressionEmbedding",
        "LDA",
        "RLDA",
        "IDRQR",
        "PCA",
        "RidgeClassifier",
    )
    return {name: _core(name) for name in names}
