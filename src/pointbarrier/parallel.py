"""Ordered map over parameter grids.

The studies map their per-point work through ``pmap``, and the CLI its
scatter sweep, one ``scatter_sweep`` per alpha, so a parameter sweep has
one place to be timed or replaced from outside.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map ``fn`` over ``items`` in order."""
    return [fn(x) for x in items]
