"""Golden-section, bracket expansion (for a root, and for where a function
turns upward as a root of its difference), bisection and Brent's root
finder behave on known functions."""

import functools
import math

import pytest

from svrisk.scalar_opt import brent_root, expand_bracket_root, golden_section_min

from tests_support import bisect_root, golden_section_max


def test_golden_quadratic():
    # argmin localization saturates near sqrt(machine eps); the value is exact
    x, fx = golden_section_min(lambda t: (t - 1.3) ** 2 + 0.5, -4, 9, tol=1e-12)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(0.5, abs=1e-12)


def test_golden_max():
    x, fx = golden_section_max(lambda t: -(t - 2.0) ** 2 + 3.0, 0, 10, tol=1e-12)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(3.0, abs=1e-12)


def test_golden_degenerate_interval():
    x, fx = golden_section_min(lambda t: t * t, 2.0, 2.0)
    assert x == 2.0 and fx == 4.0


def test_expand_bracket():
    # where f turns upward: the first sign change of f(t) - f(t/2), each
    # point evaluated once
    f = _Counted(lambda t: (t - 37.0) ** 2)
    at = functools.lru_cache(maxsize=None)(f)
    lo, hi, _, f_hi = expand_bracket_root(lambda t: at(t) - at(t / 2.0), 0.5, 1.0,
                                          math.inf, f_lo=-1.0)
    assert (lo, hi, f_hi) == (32.0, 64.0, 27.0 ** 2 - 5.0 ** 2)
    assert sorted(f.points) == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


def test_expand_bracket_monotone_decreasing_hits_cap():
    # f still decreasing at the cap: the difference keeps the sign of f_lo
    lo, hi, _, f_hi = expand_bracket_root(lambda t: -t + t / 2.0, 0.5, 1.0, 1e6, f_lo=-1.0)
    assert hi >= 1e6 and lo == hi / 2.0 and f_hi < 0.0


def test_bisect_root():
    r = bisect_root(lambda t: t * t * t - 2.0, 0.0, 4.0)
    assert r == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)


def test_bisect_requires_sign_change():
    with pytest.raises(ValueError):
        bisect_root(lambda t: t * t + 1.0, -1.0, 1.0)


def test_golden_handles_infinite_plateau():
    # +inf outside a sub-interval still converges to the finite valley
    def f(t):
        return (t - 0.2) ** 2 if t < 0.5 else math.inf

    x, _ = golden_section_min(f, 0.0, 1.0, tol=1e-10)
    assert x == pytest.approx(0.2, abs=1e-6)


class _Counted:
    def __init__(self, f):
        self.f = f
        self.points = []

    def __call__(self, x):
        self.points.append(x)
        return self.f(x)


def test_brent_smooth_root_converges_superlinearly():
    f = _Counted(lambda t: t * t * t - 2.0)
    r = brent_root(f, 0.0, 4.0, f_lo=-2.0, f_hi=62.0, xtol=1e-14)
    assert r == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-13)
    # bisection would need ~48 halvings of [0, 4]; supplied ends are not re-evaluated
    assert len(f.points) <= 15
    assert 0.0 not in f.points and 4.0 not in f.points


@pytest.mark.parametrize("f, root", [
    # kink at the root: slopes 0.2 and 5
    (lambda t: 0.2 * (t - 0.3) if t < 0.3 else 5.0 * (t - 0.3), 0.3),
    # kink away from the root
    (lambda t: t - 0.7 if t < 0.2 else 3.0 * (t - 0.2) - 0.5, 0.2 + 0.5 / 3.0),
])
def test_brent_kinked_monotone(f, root):
    assert brent_root(f, -1.0, 2.0, xtol=1e-13) == pytest.approx(root, abs=1e-12)


def test_brent_step_returns_the_jump():
    jump = 0.3141592653589793
    r = brent_root(lambda t: -1.0 if t < jump else 2.0, 0.0, 1.0, xtol=1e-12)
    assert r == pytest.approx(jump, abs=1e-12)


def test_brent_requires_sign_change():
    with pytest.raises(ValueError):
        brent_root(lambda t: t * t + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        brent_root(lambda t: t, 1.0, 2.0, f_lo=1.0, f_hi=2.0)


def test_expand_bracket_root_stops_at_the_first_sign_change():
    f = _Counted(lambda t: t - 37.0)
    lo, hi, f_lo, f_hi = expand_bracket_root(f, 0.0, 1.0, math.inf, f_lo=-37.0)
    assert (lo, hi, f_lo, f_hi) == (32.0, 64.0, -5.0, 27.0)
    assert f.points == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]  # f(0) supplied


def test_expand_bracket_root_keeps_a_bracket_that_holds():
    lo, hi, f_lo, f_hi = expand_bracket_root(lambda t: 1.0 - t, 0.0, 3.0, math.inf)
    assert (lo, hi, f_lo, f_hi) == (0.0, 3.0, 1.0, -2.0)


def test_expand_bracket_root_hits_the_cap():
    # zero has no sign: the bracket grows past it to the cap
    lo, hi, f_lo, f_hi = expand_bracket_root(lambda t: min(t - 4.0, 0.0), 0.0, 1.0, 100.0)
    assert hi >= 100.0 and f_hi == 0.0 and lo == hi / 2.0
