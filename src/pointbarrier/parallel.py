"""Ordered map over parameter grids.

The studies and the CLI map their per-point work through ``pmap``, so a
parameter sweep has one place to be timed or replaced from outside.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map ``fn`` over ``items`` in order."""
    return [fn(x) for x in items]
