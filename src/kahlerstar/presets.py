"""Built-in chart presets covering zero, positive and negative curvature."""

from __future__ import annotations

from .expressions import Expr, parse
from .geometry import require_dimension

__all__ = ["PRESET_NAMES", "preset_potential", "preset_dimension"]

PRESET_NAMES = ("flat", "fubini-study", "poincare-disk")


def preset_potential(name: str, n: int = 1) -> Expr:
    """Potential of a named preset.

    ``flat`` works in any dimension; the curved presets are
    one-dimensional.  The Poincare disk requires ``|z| < 1``, which is
    enforced naturally by the branch cut of the logarithm.
    """
    n = preset_dimension(name, n)
    if name == "flat":
        return parse("+".join(f"z{k}*zb{k}" for k in range(1, n + 1)), n)
    if name == "fubini-study":
        return parse("log(1+z1*zb1)", 1)
    return parse("-(log(1-z1*zb1))", 1)


def preset_dimension(name: str, n: int | None) -> int:
    """Resolve the chart dimension for a preset, validating curved ones."""
    if name == "flat":
        return 1 if n is None else require_dimension(n)
    if name in PRESET_NAMES:
        if n not in (None, 1):
            raise ValueError(f"preset {name!r} is one-dimensional")
        return 1
    raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")

