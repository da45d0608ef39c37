import math

import numpy as np
import pytest

from pointbarrier.errors import NumericsError
from pointbarrier.rootfind import illinois_vector, resolve_cells, sign_change


def test_sign_change_brackets():
    # the zero on the node 3 ends the cell to its left, and the cell that
    # starts on it brackets nothing
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    fs = np.array([1.0, -1.0, -2.0, 0.0, 3.0])
    cells = np.flatnonzero(sign_change(fs[:-1], fs[1:]))
    assert list(zip(xs[cells].tolist(), xs[cells + 1].tolist())) == [(0.0, 1.0), (2.0, 3.0)]


def test_resolve_cells_raises_when_brackets_fall_short_of_the_count():
    # the count rises at 0.5 and 2.5 but the value changes sign only at 0.5:
    # a root the sign cannot show is an error, not a silent omission
    def fvec(x, with_counts=False):
        x = np.asarray(x, dtype=float)
        vals = x - 0.5
        if not with_counts:
            return vals
        return vals, (x >= 0.5).astype(int) + (x >= 2.5)

    grid = np.linspace(0.0, 4.0, 9)
    with pytest.raises(NumericsError, match=r"counts 2 roots in \(0, 4\], but only 1"):
        resolve_cells(fvec, grid.take, grid.size)
    # the root on the node 0.5 ends the cell to its left
    assert resolve_cells(fvec, grid[:5].take, 5) == ([(0.0, 0.5)], 1)


def _cluster(roots):
    """f with a simple root at each of ``roots`` and the exact count of
    the roots at or below x; ``shots`` records the points of each call."""
    roots = np.asarray(roots)
    shots = []

    def fvec(x, with_counts=False):
        x = np.asarray(x, dtype=float)
        shots.append(x.tolist())
        return np.prod(x[:, None] - roots, axis=1), np.sum(x[:, None] >= roots, axis=1)

    return fvec, shots


def test_resolve_cells_halves_a_wanted_cell_holding_more_roots_than_it_needs():
    # the cell (2, 4] holds the second root and two more: a count clamped
    # at the two roots wanted would read a rise of one with a sign change
    # there and bracket the cluster whole
    fvec, shots = _cluster([0.5, 2.6, 2.7, 2.8])
    ends = np.array([0.0, 4.0])
    out, count = resolve_cells(fvec, ends.take, 2, need=2)
    assert len(out) == 2 and count == 4
    (a0, b0), (a1, b1) = out
    assert a0 < 0.5 < b0 <= 2.0 and 2.5 <= a1 < 2.6 < b1 <= 2.7
    # one root wanted: the cell above it is neither halved nor bracketed
    shots.clear()
    assert resolve_cells(fvec, ends.take, 2, need=1) == ([(0.0, 2.0)], 4)
    assert shots == [[0.0, 4.0], [2.0]]
    # five roots wanted where four are counted: the caller raises, nothing is halved
    shots.clear()
    assert resolve_cells(fvec, ends.take, 2, need=5) == ([], 4)
    assert shots == [[0.0, 4.0]]


def test_resolve_cells_shoots_only_the_ends_the_caller_lacks():
    fvec, shots = _cluster([0.5, 2.6])
    ends = np.array([0.0, 4.0])
    low = fvec(ends[:1], True)
    shots.clear()
    assert resolve_cells(fvec, ends.take, 2, ends=(low, None)) == ([(0.0, 2.0), (2.0, 4.0)], 2)
    assert shots == [[4.0], [2.0]]


def test_resolve_cells_bisects_grid_indices_before_halving_values():
    # 1025 grid points with roots in two cells: the index phase shoots the
    # ends, then one middle index per level of each range that holds a
    # root, never a point between grid nodes, until each range is one cell
    fvec, shots = _cluster([3.3, 700.1, 700.2])
    grid = np.arange(1025.0)
    brackets, count = resolve_cells(fvec, grid.take, grid.size)
    assert count == 3
    assert brackets[0] == (3.0, 4.0) and 700.0 <= brackets[1][0] < 700.1 < brackets[1][1] < 700.2
    assert brackets[2][0] < 700.2 < brackets[2][1] <= 701.0
    nodes = [shot for shot in shots if all(x == int(x) for x in shot)]
    assert shots[:len(nodes)] == nodes and nodes[0] == [0.0, 1024.0]
    assert len(nodes) == 11 and sum(map(len, nodes)) == 2 + 1 + 2 * 9


def test_illinois_vector_polynomials():
    f = lambda x: (x - 0.3) * (x - 2.7) * (x + 1.0)
    lo = np.array([0.0, 2.0])
    hi = np.array([1.0, 3.0])
    roots = illinois_vector(f, lo, hi)
    assert np.allclose(roots, [0.3, 2.7], atol=1e-11)
    # a bracket end where f is 0 is the root, at either end
    roots = illinois_vector(f, np.array([0.3, 2.0, -1.0]), np.array([1.0, 2.7, 0.3]))
    assert roots.tolist() == [0.3, 2.7, -1.0]
    with pytest.raises(ValueError):
        illinois_vector(f, np.array([0.4]), np.array([1.0]))


def test_illinois_vector_closes_a_converged_end_in_one_step():
    # regula falsi pins one end of this bracket near 1 and creeps from the
    # other; the tolerance step lands across the root instead (the margin-
    # to-midpoint rule took 25 calls here)
    calls = []

    def f(x):
        calls.append(np.array(x))
        return np.sin(np.pi * x * x)

    root = illinois_vector(f, np.array([0.5]), np.array([1.2]), xtol=1e-11)
    assert len(calls) <= 10
    assert abs(root[0] - 1.0) <= 1e-11
    # both ends in the first call
    assert calls[0].tolist() == [0.5, 1.2]


def _poly(x):
    return (x * x - 2.0) * (x * x - 3.0) * (x - 0.3) * (x + 1.7)


def test_illinois_vector_roots_do_not_depend_on_the_batch():
    lo = np.array([0.0, 1.3, 1.6, -1.72])
    hi = np.array([1.0, 1.5, 1.9, -1.6])
    together = illinois_vector(_poly, lo, hi)
    alone = [illinois_vector(_poly, lo[i:i + 1], hi[i:i + 1])[0] for i in range(lo.size)]
    assert together.tolist() == alone
    assert np.allclose(together, [0.3, math.sqrt(2.0), math.sqrt(3.0), -1.7], atol=1e-12)


def test_illinois_vector_shoots_only_open_brackets():
    # a linear piece converges at once, sin(pi x^2) takes longer: the
    # linear bracket drops out of the calls for good
    def f(x):
        calls.append(np.array(x))
        return np.where(x < 0.0, x + 0.37, np.sin(np.pi * x * x))

    calls = []
    lo, hi = np.array([-1.0, 0.5, 2.1]), np.array([-1e-3, 1.2, 2.3])
    roots = illinois_vector(f, lo, hi, xtol=1e-12)
    assert np.allclose(roots, [-0.37, 1.0, math.sqrt(5.0)], atol=1e-12)
    owners = [np.searchsorted(hi, shot) for shot in calls[1:]]
    for k in range(lo.size):
        present = [bool(np.any(o == k)) for o in owners]
        # once a bracket has left the calls it never comes back
        assert present == sorted(present, reverse=True)
    # no call carries a bracket twice
    assert all(np.unique(o).size == o.size for o in owners)
    assert sum(np.any(o == 0) for o in owners) < sum(np.any(o == 1) for o in owners)


def test_illinois_vector_hands_each_point_its_owner():
    # brackets of three problems (the owners) in one run: every call holds
    # the owner of each point it shoots, and each problem's roots are those
    # of a run of its own
    problems = [_poly, lambda x: np.sin(np.pi * x * x), lambda x: x - 0.25]
    lo = np.array([0.0, 0.5, 1.3, 2.1, 0.0, 1.6])
    hi = np.array([1.0, 1.2, 1.5, 2.3, 1.0, 1.9])
    owners = np.array([0, 1, 0, 1, 2, 0])
    calls = []

    def fvec(x, owners):
        calls.append((x, owners))
        return np.array([problems[o](np.array([xi]))[0] for xi, o in zip(x, owners)])

    roots = illinois_vector(fvec, lo, hi, xtol=1e-12, owners=owners)
    assert calls[0][1].tolist() == owners.tolist() * 2
    for x, o in calls:  # each point lies in a bracket of its owner
        inside = (lo <= x[:, None]) & (x[:, None] <= hi) & (owners == o[:, None])
        assert inside.any(axis=1).all()
    for i, f in enumerate(problems):
        own = owners == i
        assert roots[own].tolist() == illinois_vector(f, lo[own], hi[own], xtol=1e-12).tolist()
