"""Scalar function registry for the in-memory engine.

The built-ins are the scalar functions :mod:`repro.declarative` emits --
``LENGTH``, ``ABS``, ``LOG`` (natural), ``EXP``, ``SQRT`` and ``POWER`` --
plus the user-defined functions the backends register (``JAROWINKLER``,
``EDITSIM``, the GES scorers).  The registry maps upper-case names to Python
callables; a ``NULL`` (Python ``None``) argument yields a ``NULL`` result for
every built-in, matching SQL semantics.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from repro.dbengine.errors import CatalogError

__all__ = ["FunctionRegistry", "default_functions"]

ScalarFunction = Callable[..., object]


def _null_safe(func: ScalarFunction) -> ScalarFunction:
    """Wrap ``func`` so that any ``None`` argument yields ``None``."""

    def wrapper(*args: object) -> object:
        if any(arg is None for arg in args):
            return None
        return func(*args)

    return wrapper


def _log(value: float) -> float:
    value = float(value)
    if value <= 0:
        raise ValueError("LOG argument must be positive")
    return math.log(value)


def default_functions() -> Dict[str, ScalarFunction]:
    """The built-in scalar functions (each wrapped NULL-safe)."""
    functions: Dict[str, ScalarFunction] = {
        "LENGTH": lambda text: len(str(text)),
        "ABS": lambda value: abs(value),
        "LOG": _log,
        "EXP": lambda value: math.exp(float(value)),
        "SQRT": lambda value: math.sqrt(float(value)),
        "POWER": lambda base, exponent: math.pow(float(base), float(exponent)),
    }
    return {name: _null_safe(func) for name, func in functions.items()}


class FunctionRegistry:
    """Case-insensitive registry of scalar functions (built-ins + UDFs)."""

    def __init__(self) -> None:
        self._functions: Dict[str, ScalarFunction] = default_functions()

    def register(self, name: str, func: ScalarFunction) -> None:
        """Register a NULL-safe user-defined function under ``name``."""
        self._functions[name.upper()] = _null_safe(func)

    def get(self, name: str) -> ScalarFunction:
        try:
            return self._functions[name.upper()]
        except KeyError as exc:
            raise CatalogError(f"unknown function: {name}") from exc
