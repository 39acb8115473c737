"""Zeta evaluators: integrand forms, closed-form reductions, region pieces,
auxiliary integrals, log-derivative moments.

Frozen reference values were produced by an adaptive tanh-sinh oracle run at
25-40 significant digits (mpmath) before the engine was tuned against them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from flatzeta.errors import (
    DegenerateLowerLimit,
    DomainError,
    OddQNotSupported,
    OutOfWindow,
    PoleHit,
)
from flatzeta.funcs import BumpSpec, E_flat
from flatzeta.model import FamilyParams, NumericConfig, PRESETS
from flatzeta.zeta import (
    g_pieces,
    h_pieces,
    integrand,
    j_pieces,
    log_derivative_integral,
    log_derivative_moments,
    monomial_closed_form,
    region_pieces,
    zeta_quadrant,
    zeta_weighted,
    ztilde1,
    ztilde1_2d,
    ztilde2,
    ztilde2_2d,
)

CFG = NumericConfig()
SUP = PRESETS["supercritical"]     # (0,2,2,2)
CRIT = PRESETS["critical"]         # (0,2,2,1)
GREEN = PRESETS["greenblatt"]      # (1,2,2,1/4)

# Adaptive tanh-sinh oracle values (25+ digits, independent integrator)
ORACLE_Z_SUP_04 = 1.6341153349931692
ORACLE_ZT1_SUP_045 = 2.6605384323041814
ORACLE_ZT2_CRIT_L4_049 = 0.11413806470507014
ORACLE_W_SUP_049 = 26.791796839804343
ORACLE_W_CRIT_X2M8 = 10.095046683202458
ORACLE_Z_GREEN_045 = 1.3496269881465771


def test_integrand_monomial_reduction():
    # x below the flat cutoff: reduces exactly to x^(a s) y^(b s)
    p = FamilyParams(0, 2, 2, Fraction(1))
    assert integrand(p, 1e-8, 0.25, -0.25) == pytest.approx(0.25 ** -0.5, rel=1e-15)


def test_integrand_crossover_point():
    # y^2 = E(x) at x=1/2, y=e^-1 for (0,2,2,1): value (2 e^-2)^(-1/2) = e/sqrt(2)
    p = FamilyParams(0, 2, 2, Fraction(1))
    v = integrand(p, 0.5, math.exp(-1.0), -0.5)
    assert v == pytest.approx(math.e / math.sqrt(2.0), rel=1e-14)


def test_integrand_matches_literal_form():
    v = integrand(GREEN, 0.3, 0.2, -0.45)
    literal = abs(0.3 * 0.2**2 + 0.3 * math.exp(-1.0 / 0.3**0.25)) ** -0.45
    assert v == pytest.approx(literal, rel=1e-12)


def test_integrand_matches_literal_randomized():
    # factored log-domain form vs the literal product, where the latter is
    # representable (moderate x, y)
    rng = np.random.default_rng(5)
    for _ in range(200):
        b = int(rng.integers(2, 6))
        a = int(rng.integers(0, b))
        q = int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        params = FamilyParams(a, b, q, p)
        x = float(rng.uniform(0.05, 0.5))
        y = float(rng.uniform(0.05, 0.5))
        sigma = float(rng.uniform(-1.0 / b + 0.01, -0.01))
        lit = (x**a * y**b + x**a * y ** (b - q) * math.exp(-1.0 / x**float(p))) ** sigma
        assert integrand(params, x, y, sigma) == pytest.approx(lit, rel=1e-12)


def test_integrand_rejects_boundary():
    with pytest.raises(Exception):
        integrand(SUP, 0.0, 0.5, -0.4)


def test_monomial_closed_form():
    # (1,2,1/2,1/2,-1/4) -> (8/3) (1/2)^(5/4)
    v = monomial_closed_form(1, 2, 0.5, 0.5, -0.25)
    assert v == pytest.approx(8.0 / 3.0 * 0.5**1.25, rel=1e-15)
    assert monomial_closed_form(0, 2, 1.0, 1.0, -0.25) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(PoleHit):
        monomial_closed_form(1, 2, 0.5, 0.5, -0.5)


def test_zeta_quadrant_flat_suppressed_matches_closed_form():
    # 1/(q x^p) = 1/(2 x^2) >= 5e7 on (0, 1e-4]: the flat term is cutoff-dead
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    for sigma in (-0.45, -0.25, -0.1):
        z = zeta_quadrant(p, sigma, CFG)
        cf = monomial_closed_form(1, 2, 1e-4, 0.5, sigma)
        assert z.value == pytest.approx(cf, rel=1e-8)


def test_zeta_quadrant_flat_off_switch():
    for params in (SUP, GREEN):
        for sigma in (-0.45, -0.2):
            z = zeta_quadrant(params, sigma, CFG, flat=False)
            cf = monomial_closed_form(params.a, params.b, params.r1, params.r2, sigma)
            assert z.value == pytest.approx(cf, rel=1e-10)


def test_zeta_quadrant_monomial_oracle_grid():
    # 20-sigma grid against the closed form, flat term suppressed
    p = FamilyParams(1, 3, 2, Fraction(3), r1=0.4, r2=0.7)
    sigmas = np.linspace(-0.32, -0.01, 20)
    for s in sigmas:
        z = zeta_quadrant(p, float(s), CFG, flat=False)
        cf = monomial_closed_form(3 * 0 + p.a, p.b, p.r1, p.r2, float(s))
        assert abs(z.value - cf) / cf < 1e-8


def test_zeta_quadrant_frozen_oracle():
    z = zeta_quadrant(SUP, -0.4, CFG)
    assert z.value == pytest.approx(ORACLE_Z_SUP_04, rel=1e-9)
    assert z.X == pytest.approx(0.2, abs=1e-15)


def test_zeta_quadrant_frozen_oracle_bounded_regime():
    z = zeta_quadrant(GREEN, -0.45, CFG)
    assert z.value == pytest.approx(ORACLE_Z_GREEN_045, rel=1e-10)
    assert abs(z.value - ORACLE_Z_GREEN_045) <= 10.0 * z.error


def test_zeta_quadrant_window():
    with pytest.raises(OutOfWindow):
        zeta_quadrant(SUP, -0.5, CFG)
    with pytest.raises(OutOfWindow):
        zeta_quadrant(SUP, 0.0, CFG)


def test_zeta_monotone_decreasing_in_sigma():
    sigmas = np.linspace(-0.49, -0.05, 12)
    for params in (SUP, CRIT, GREEN):
        vals = [zeta_quadrant(params, float(s), CFG).value for s in sigmas]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_zeta_weighted_below_quadrant_bound():
    bump = BumpSpec(0.5, 0.5)
    zw = zeta_weighted(CRIT, bump, -0.4, CFG)
    zq = zeta_quadrant(CRIT, -0.4, CFG)
    assert 0.0 < zw.value < 4.0 * zq.value


def test_zeta_weighted_frozen_oracle():
    zw = zeta_weighted(SUP, BumpSpec(0.5, 0.5), -0.49, CFG)
    assert zw.value == pytest.approx(ORACLE_W_SUP_049, rel=1e-8)


def test_zeta_weighted_frozen_oracle_deep_X():
    # X = 2^-8: most of the inner mass sits below double precision; the
    # analytic main-term assembly must still track the 20-digit oracle
    X = 2.0 ** -8
    zw = zeta_weighted(CRIT, BumpSpec(0.5, 0.5), (X - 1.0) / 2.0, CFG)
    assert zw.value == pytest.approx(ORACLE_W_CRIT_X2M8, rel=1e-9)


def test_zeta_weighted_odd_q_rejected():
    p = FamilyParams(0, 3, 1, Fraction(2))
    with pytest.raises(OddQNotSupported):
        zeta_weighted(p, BumpSpec(0.5, 0.5), -0.2, CFG)


def test_ztilde1_saturated_equals_2d():
    # lam r2 = 2 >= e(r1): saturation branch, upper limit rho = r1
    lam = 2.0 / CRIT.r2
    v1 = ztilde1(CRIT, lam, -0.4, CFG)
    v2 = ztilde1_2d(CRIT, lam, -0.4, CFG)
    assert v1 == pytest.approx(v2, rel=1e-6)


def test_ztilde1_frozen_oracle():
    assert ztilde1(SUP, 1.0, -0.45, CFG) == pytest.approx(ORACLE_ZT1_SUP_045, rel=1e-10)


def test_ztilde1_flat_suppressed_exact():
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    sigma = -0.3
    X = p.b * sigma + 1.0
    lam = 1.0
    # e == 0 on the domain: lam^-X X^-1 (lam r2)^X int_0^r1 x^(a s) dx exactly
    expect = lam**-X / X * (lam * p.r2) ** X * p.r1 ** (p.a * sigma + 1.0) / (p.a * sigma + 1.0)
    assert ztilde1(p, lam, sigma, CFG) == pytest.approx(expect, rel=1e-10)


def test_ztilde2_frozen_oracle():
    assert ztilde2(CRIT, 4.0, -0.49, CFG) == pytest.approx(ORACLE_ZT2_CRIT_L4_049, rel=1e-9)


def test_ztilde2_vanishes_when_flat_dead():
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    assert ztilde2(p, 1.0, -0.3, CFG) == pytest.approx(0.0, abs=1e-300)


def test_ztilde2_matches_2d():
    for params, lam, sigma in ((GREEN, 1.0, -0.45), (CRIT, 0.5, -0.3), (SUP, 2.0, -0.45)):
        v1 = ztilde2(params, lam, sigma, CFG)
        v2 = ztilde2_2d(params, lam, sigma, CFG)
        assert v1 == pytest.approx(v2, rel=1e-5)


def test_region_pieces_additivity_and_sandwich():
    rng = np.random.default_rng(11)
    for params in (SUP, CRIT, GREEN):
        for _ in range(3):
            lam = float(10.0 ** rng.uniform(-1.5, 1.5))
            sigma = float(rng.uniform(-0.47, -0.06))
            z = zeta_quadrant(params, sigma, CFG)
            tr = region_pieces(params, lam, sigma, CFG)
            assert z.value == pytest.approx(tr.z1 + tr.z2, rel=1e-6)
            lo1 = (1.0 + lam**params.q) ** sigma * tr.ztilde1
            lo2 = (1.0 + lam ** -params.q) ** sigma * tr.ztilde2
            eps = 1e-12 * z.value + 10.0 * (z.error + tr.error)
            assert lo1 - eps <= tr.z1 <= tr.ztilde1 + eps
            assert lo2 - eps <= tr.z2 <= tr.ztilde2 + eps
            assert lo1 + lo2 - eps <= z.value <= tr.ztilde1 + tr.ztilde2 + eps


def test_region_pieces_flat_dead():
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    tr = region_pieces(p, 1.0, -0.3, CFG)
    z = zeta_quadrant(p, -0.3, CFG)
    assert tr.z2 == pytest.approx(0.0, abs=1e-300)
    assert tr.z1 == pytest.approx(z.value, rel=1e-9)


def test_region_pieces_with_parts_matches_regime():
    tr = region_pieces(SUP, 1.0, -0.45, CFG, with_parts=True)
    assert tr.g1 is not None and tr.g2 is not None and tr.g3 is not None
    assert tr.j1 is None
    g1, g2, g3 = g_pieces(SUP, 1.0, -0.45, CFG)
    assert tr.g1 == pytest.approx(g1, rel=1e-12)
    tr = region_pieces(CRIT, 1.0, -0.45, CFG, with_parts=True)
    assert tr.h1 is not None and tr.h2 is not None and tr.g2 is not None
    tr = region_pieces(GREEN, 1.0, -0.45, CFG, with_parts=True)
    assert tr.j1 is not None and tr.j2 is not None and tr.g1 is None


def test_g_identity_supercritical():
    lam, sigma = 1.0, -0.49
    X = SUP.b * sigma + 1.0
    zt1 = ztilde1(SUP, lam, sigma, CFG)
    g1, g2, g3 = g_pieces(SUP, lam, sigma, CFG)
    pref = lam**-X * X ** (-1.0 + (1.0 + SUP.a * sigma) / SUP.p_float)
    assert zt1 == pytest.approx(pref * (g1 + g2 + g3), rel=1e-9)


def test_h_identity_critical():
    lam, sigma = 1.0, -0.49
    _, g2, _ = g_pieces(CRIT, lam, sigma, CFG)
    h1, h2 = h_pieces(CRIT, lam, sigma, CFG)
    assert g2 == pytest.approx(h1 - h2, rel=1e-9)


def test_j_identity_subcritical():
    lam, sigma = 1.0, -0.49
    zt1 = ztilde1(GREEN, lam, sigma, CFG)
    j1, j2 = j_pieces(GREEN, lam, sigma, CFG)
    assert zt1 == pytest.approx(j1 + j2, rel=1e-9)


def test_log_derivative_j0_is_weighted():
    bump = BumpSpec(0.5, 0.5)
    d0 = log_derivative_integral(GREEN, bump, -0.3, 0, CFG, flat=True)
    zw = zeta_weighted(GREEN, bump, -0.3, CFG)
    assert d0 == pytest.approx(zw.value, rel=1e-9)


def test_log_derivative_finite_differences():
    # monomial x y^2: D1 and D2 against central differences of D0
    bump = BumpSpec(0.5, 0.5)
    s0, h = 0.5, 1e-4

    def d0(s):
        return log_derivative_integral(GREEN, bump, s, 0, CFG, flat=False)

    d1 = log_derivative_integral(GREEN, bump, s0, 1, CFG, flat=False)
    d2 = log_derivative_integral(GREEN, bump, s0, 2, CFG, flat=False)
    up, mid, dn = d0(s0 + h), d0(s0), d0(s0 - h)
    assert d1 == pytest.approx((up - dn) / (2.0 * h), rel=1e-6)
    assert d2 == pytest.approx((up - 2.0 * mid + dn) / h**2, rel=1e-4)


def test_log_derivative_sign_alternation():
    bump = BumpSpec(0.5, 0.5)
    for j in range(11):
        d = log_derivative_integral(GREEN, bump, 0.5, j, CFG, flat=False)
        assert (-1.0) ** j * d > 0.0


def test_log_derivative_window():
    bump = BumpSpec(0.5, 0.5)
    with pytest.raises(OutOfWindow):
        log_derivative_integral(GREEN, bump, -0.5, 0, CFG, flat=False)


@pytest.mark.parametrize("flat", [True, False])
@pytest.mark.parametrize("s0", [0.5, -0.2])
def test_log_derivative_moments_match_per_j(s0, flat):
    # one vector quadrature for D_0..D_12 against the moment-by-moment calls
    # (D_0 on the weighted engine, D_j as element j of a J = j pass)
    bump = BumpSpec(0.5, 0.5)
    moments = log_derivative_moments(GREEN, bump, s0, 12, CFG, flat=flat)
    assert moments.shape == (13,)
    for j in range(13):
        d = log_derivative_integral(GREEN, bump, s0, j, CFG, flat=flat)
        assert moments[j] == pytest.approx(d, rel=1e-10)


def test_log_derivative_moments_rejections():
    bump = BumpSpec(0.5, 0.5)
    with pytest.raises(DomainError):
        log_derivative_moments(GREEN, bump, 0.5, -1, CFG)
    with pytest.raises(OutOfWindow):
        log_derivative_moments(GREEN, bump, -0.5, 4, CFG)
    with pytest.raises(OddQNotSupported):
        log_derivative_moments(FamilyParams(0, 2, 1, Fraction(2)), bump, 0.5, 4, CFG)


def test_degenerate_lower_limit():
    # lam r2 so tiny that rho underflows to exact zero: needs a very small p
    # so the inverse profile (1/(q |log y|))^(1/p) collapses below fp range
    p = FamilyParams(0, 2, 2, Fraction(1, 150), r1=0.5, r2=0.5)
    with pytest.raises(DegenerateLowerLimit):
        ztilde2(p, 1e-300, -0.3, CFG)
