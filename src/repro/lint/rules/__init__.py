"""Shipped rule set; importing this package registers every rule."""

from __future__ import annotations

from repro.lint.rules import (
    arraycore,
    asynchazard,
    determinism,
    flow,
    interdet,
    mutation,
    parallel,
)

__all__ = [
    "arraycore",
    "asynchazard",
    "determinism",
    "flow",
    "interdet",
    "mutation",
    "parallel",
]
