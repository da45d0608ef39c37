import math

import numpy as np
import pytest

from pointbarrier.rootfind import bisect_vector, brent, illinois_vector, sign_change_brackets


def test_sign_change_brackets():
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    fs = [1.0, -1.0, -2.0, 0.0, 3.0]
    assert sign_change_brackets(xs, fs) == [(0.0, 1.0)]


def test_brent_cosine():
    root, froot = brent(math.cos, 1.0, 2.0)
    assert root == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(froot) < 1e-12


def test_brent_rejects_bad_bracket():
    with pytest.raises(ValueError):
        brent(math.cos, 0.1, 0.2)


def test_bisect_vector():
    f = lambda x: np.sin(x)
    lo = np.array([3.0, 6.0])
    hi = np.array([3.3, 6.5])
    roots = bisect_vector(f, lo, hi)
    assert np.allclose(roots, [math.pi, 2 * math.pi], atol=1e-11)


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
