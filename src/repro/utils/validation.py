"""Small argument-validation helpers used across the library.

Keeping validation in one place makes error messages uniform and keeps the
substantive modules focused on behaviour rather than defensive boilerplate.
"""

from __future__ import annotations

import os
from typing import Union

Number = Union[int, float]


def check_positive(name: str, value: Number) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: Number) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_probability(name: str, value: Number) -> None:
    """Raise ``ValueError`` unless ``value`` is in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


def check_in_range(name: str, value: Number, low: Number, high: Number) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be within [{low}, {high}], got {value!r}")


def check_index(name: str, value: int, size: int) -> None:
    """Raise ``IndexError`` unless ``0 <= value < size``."""
    if not 0 <= value < size:
        raise IndexError(f"{name} must be within [0, {size}), got {value!r}")


#: Engine tiers accepted everywhere an ``engine=`` selector appears.
ENGINES = ("vectorized", "reference", "compiled")


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` names a known flip-engine.

    The vectorized hot engines, their retained loop references and the
    optional compiled kernel tier share this selector across the attack,
    bank, profiler and sweep layers.  ``compiled`` runs the vectorized
    algorithms with registry kernels swapped in (bit-identical, faster)
    and degrades to plain vectorized when no backend is available.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {', '.join(repr(e) for e in ENGINES)}, got {engine!r}"
        )


#: Environment variable that overrides :func:`default_engine`.
DEFAULT_ENGINE_ENV = "REPRO_DEFAULT_ENGINE"


def default_engine() -> str:
    """The process-wide default engine tier.

    The built-in default is ``"compiled"``: the vectorized algorithms with
    the C kernels of :mod:`repro.nn.kernels`, which fall back silently to
    plain vectorized when no backend builds.  ``REPRO_DEFAULT_ENGINE``
    overrides it — ``REPRO_DEFAULT_ENGINE=vectorized`` pins the NumPy tier
    (the CI vectorized leg runs the golden suites that way).  Invalid
    values raise rather than silently running a different tier than
    requested.
    """
    engine = os.environ.get(DEFAULT_ENGINE_ENV, "").strip().lower()
    if not engine:
        return "compiled"
    check_engine(engine)
    return engine
