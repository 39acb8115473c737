"""Auxiliary functions: flat exponential, psi, rho, bump."""

import math
from fractions import Fraction

import numpy as np
import pytest

from flatzeta.errors import DomainError
from flatzeta.funcs import (
    BumpSpec,
    E_flat,
    bump_eval,
    bump_y_increment,
    e_flat,
    psi,
    rho,
)
from flatzeta.model import FamilyParams


P21 = FamilyParams(0, 2, 2, Fraction(1))      # q=2, p=1
P22 = FamilyParams(0, 2, 2, Fraction(2))      # q=2, p=2


def test_e_flat_values():
    assert e_flat(P21, 0.0) == 0.0
    assert e_flat(P21, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    # below cutoff: 1/(2e-6) >> 690
    assert e_flat(P22, 1e-3) == 0.0
    with pytest.raises(DomainError):
        e_flat(P21, -0.1)


def test_e_flat_monotone():
    xs = np.linspace(1e-4, 0.9, 400)
    vals = e_flat(P22, xs)
    assert np.all(np.diff(vals) >= 0.0)


def test_E_flat_values_and_identity():
    assert E_flat(P21, 0.0) == 0.0
    p1 = FamilyParams(0, 2, 1, Fraction(1))
    assert E_flat(p1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    # E = e^q wherever both are nonzero
    xs = np.linspace(0.05, 0.9, 50)
    E = E_flat(P21, xs)
    eq = e_flat(P21, xs) ** P21.q
    assert np.max(np.abs(E - eq) / eq) < 1e-14


def test_psi_values():
    assert psi(1.0, 0.7) == 0.0
    assert psi(1.0, 123.0) == 0.0
    alpha = math.exp(-1.0)
    assert psi(alpha, 1e-12) == pytest.approx(1.0, rel=1e-10)
    assert psi(alpha, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
    for bad_alpha in (0.0, math.nan, math.inf):     # psi(inf, 1.0) would be -inf
        with pytest.raises(DomainError):
            psi(bad_alpha, 1.0)
    with pytest.raises(DomainError):
        psi(0.5, 0.0)


def test_psi_small_x_series_branch():
    alpha = 0.3
    la = math.log(alpha)
    x = 1e-9
    assert psi(alpha, x) == pytest.approx(-la - x * la * la / 2.0, rel=1e-14)


def test_psi_lemma_properties():
    rng = np.random.default_rng(3)
    for _ in range(300):
        alpha = rng.uniform(0.02, 0.98)
        la = math.log(alpha)
        xs = np.sort(rng.uniform(1e-8, 100.0, size=16))
        vals = psi(alpha, xs)
        # strictly decreasing, pinched between 0 and -log(alpha)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0)
        assert np.all(vals < -la)
        # linear pinch near 0 with witness C = log(alpha)^2 exp(|log alpha|)
        x = rng.uniform(1e-10, 1.0)
        C = la * la * math.exp(abs(la))
        assert abs(psi(alpha, x) + la) <= C * x * (1 + 1e-9) + 1e-15


def test_psi_vanishes_at_infinity():
    for alpha in (0.05, 0.3, 0.6, 0.9):
        assert psi(alpha, 1e6) < 1e-5 * (-math.log(alpha))


def test_rho_branches():
    p = FamilyParams(0, 2, 2, Fraction(1))   # q=2, p=1, r1 defaults to 1/2
    # inverse branch: y = exp(-2) -> (-1/(2 log y))^(1/1) = 1/4
    assert rho(p, math.exp(-2.0)) == pytest.approx(0.25, rel=1e-14)
    # saturation: 0.9 >= e(r1) = exp(-1)
    assert rho(p, 0.9) == 0.5
    # tie goes to saturation
    assert rho(p, e_flat(p, p.r1)) == 0.5
    assert rho(p, 0.0) == 0.0
    with pytest.raises(DomainError):
        rho(p, -1e-3)


@pytest.mark.parametrize("fn", [
    e_flat, E_flat, rho,
    pytest.param(lambda _, x: psi(0.5, x), id="psi"),
])
@pytest.mark.parametrize("x", [math.nan, np.array([0.25, math.nan])], ids=["scalar", "array"])
def test_nan_argument_raises_domain_error(fn, x):
    # NaN fails the nonnegativity (psi: positivity) test instead of
    # returning 0.0 or NaN
    with pytest.raises(DomainError):
        fn(P21, x)


def test_rho_monotone_and_inverse():
    p = FamilyParams(1, 2, 2, Fraction(1, 4))
    ys = np.linspace(0.0, 1.2, 200)
    vals = rho(p, ys)
    assert np.all(np.diff(vals) >= -1e-15)
    for x in np.linspace(0.03, p.r1, 40):
        y = e_flat(p, x)
        if 0.0 < y < e_flat(p, p.r1):
            assert rho(p, y) == pytest.approx(x, rel=1e-10)


def test_bump_values():
    spec = BumpSpec(0.5, 0.5)
    assert bump_eval(spec, 0.0, 0.0) == pytest.approx(1.0, abs=0)
    assert bump_eval(spec, 0.5, 0.0) == 0.0
    assert bump_eval(spec, 0.7, 0.1) == 0.0
    # (R1/2, 0): e^2 * e^{1/(1/4-1)} * e^{-1} = e^{-1/3}
    assert bump_eval(spec, 0.25, 0.0) == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-14)
    # nonnegative everywhere
    xs = np.linspace(-0.8, 0.8, 31)
    vals = bump_eval(spec, xs[:, None], xs[None, :])
    assert np.all(vals >= 0.0)


def test_bump_increment_matches_difference():
    spec = BumpSpec(0.5, 0.5)
    ys = np.array([1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.49, 0.6])
    inc = bump_y_increment(spec, ys)
    # stable form agrees with the naive difference where the latter is exact
    from flatzeta.funcs import bump_y_profile
    naive = bump_y_profile(spec, ys) - 1.0
    assert np.max(np.abs(inc - naive)) < 1e-12
    # and behaves like -(y/R2)^2 near zero, where the naive form loses digits
    small = 1e-7
    assert bump_y_increment(spec, small) == pytest.approx(-(small / 0.5) ** 2, rel=1e-6)
