"""The scaled upper incomplete Gamma of the slice reductions
(zeta._gamma_upper) and the closed forms built on it (zeta._slice_gamma:
region_samples' ztilde1 and ztilde2's left term, g_pieces' G1, j_pieces'
J1), against mpmath's gammainc at 40 digits."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from flatzeta.funcs import rho
from flatzeta.model import PRESETS, FamilyParams, NumericConfig
from flatzeta.zeta import (
    _GAMMA_CF_REL_ERR,
    _GAMMA_REL_ERR,
    _GAMMA_SERIES_REL_ERR,
    _Z_SERIES,
    _gamma_upper,
    g_pieces,
    j_pieces,
    region_samples,
)

CFG = NumericConfig()
LAMS = [0.25, 1.0, 4.0]
XS = [0.5, 0.02, 1e-4, 1e-8, 1e-12]

#: the presets, a/b >= 0.8 with p = 6, a critical family with a > 0
#: (alpha = -aX/(b-a) -> 0), p = 1/8 (alpha near -4.3 and -5.3), p = 8
#: (z up to 64), a box where e(r1) is flushed to 0 (z = 763 X), and a
#: kinked slice at r1 != r2
FAMILIES = {
    **PRESETS,
    "(5,6,4,6)": FamilyParams(5, 6, 4, Fraction(6)),
    "(1,4,2,3/4)": FamilyParams(1, 4, 2, Fraction(3, 4)),
    "(1,3,1,1/8)": FamilyParams(1, 3, 1, Fraction(1, 8)),
    "(0,2,2,8)": FamilyParams(0, 2, 2, Fraction(8)),
    "(0,2,2,8) flushed": FamilyParams(0, 2, 2, Fraction(8), r1=0.4),
    "(1,2,2,1/4) kinked": FamilyParams(1, 2, 2, Fraction(1, 4), r1=0.3, r2=0.45),
}


def scaled_gamma(alpha: float, z: float):
    """e^z z^-alpha Gamma(alpha, z) at 40 digits."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)
        return mpmath.gammainc(a, x) * mpmath.exp(x) * x ** (-a)


def engine_alphas():
    """1 - beta' and -beta', beta' = (a s + 1)/p, as the engine forms them
    on every family of FAMILIES and on (0,3,1,1/8) (beta' = 8) at every X of
    XS, and alpha = 0 exactly."""
    out = {0.0}
    for params in [*FAMILIES.values(), FamilyParams(0, 3, 1, Fraction(1, 8))]:
        for X in XS:
            bp = (params.a * ((X - 1.0) / params.b) + 1.0) / params.p_float
            out |= {1.0 - bp, -bp}
    return sorted(out)


def test_gamma_upper_matches_mpmath_over_the_engine_grid():
    # every alpha the engine forms on FAMILIES, with alpha = -aX/(b-a) down
    # to X = 1e-12 on (1,4,2,3/4), where the plain step from alpha + 1
    # loses every digit, alpha = 0 (E1) and alpha down to -8 (p = 1/8),
    # at z from 1e-13 across the branch switch z = 1 up to the flushed end
    alphas = engine_alphas()
    assert min(alphas) < -7.0 and 0.0 in alphas
    assert any(-1e-12 < a < 0.0 for a in alphas)
    zs = [1e-13, 1e-8, 1e-3, 0.3, 0.999, 1.0, 1.001, 1.7, 16.0, 690.0, 1e6]
    A, Z = (g.ravel() for g in np.meshgrid(alphas, zs, indexing="ij"))
    got = _gamma_upper(A, Z)
    for a, z, v in zip(A.tolist(), Z.tolist(), got.tolist()):
        ref = scaled_gamma(a, z)
        bound = _GAMMA_SERIES_REL_ERR if z <= _Z_SERIES else _GAMMA_CF_REL_ERR
        assert abs(v - ref) <= bound * ref, (a, z, v, float(ref))


def test_gamma_upper_elements_do_not_depend_on_each_other():
    # each (alpha, z) is formed on its own: a batch gives the one-element
    # calls bit for bit, across both branches, any number of recurrence
    # steps and continued fractions of different depths
    A = np.array([0.5, -1e-12, -4.3, 0.0, -7.9, 0.9, -0.5, 0.2])
    Z = np.array([1e-9, 0.7, 1.5, 1.0, 40.0, 1e-13, 1.05, 900.0])
    got = _gamma_upper(A, Z)
    for i in range(A.size):
        assert got[i] == _gamma_upper(A[i:i + 1], Z[i:i + 1])[0]


def closed_forms(params: FamilyParams, lam: float, X: float, x1: float):
    """40-digit (ztilde1, ztilde2's left term, its right term, J1-form) on
    (0, x1), with sigma = (X - 1)/b the double the engine forms:
    int_0^x1 x^(a s) e(x)^X dx = (1/p)(X/q)^beta' Gamma(-beta', X/(q x1^p))."""
    with mpmath.workdps(40):
        s, Xm, x1m = mpmath.mpf((X - 1.0) / params.b), mpmath.mpf(X), mpmath.mpf(x1)
        lm, r2 = mpmath.mpf(lam), mpmath.mpf(params.r2)
        p = mpmath.mpf(params.p.numerator) / params.p.denominator
        asp1 = params.a * s + 1
        bp = asp1 / p
        z = Xm / (params.q * x1m ** p)
        P = x1m ** asp1 / asp1
        I_e = (Xm / params.q) ** bp / p * mpmath.gammainc(-bp, z)
        zt1 = lm ** -Xm / Xm * ((lm * r2) ** Xm * P - I_e)
        d = Xm - params.q * s
        left = lm ** -d / d * I_e
        right = 0
        if x1 < params.r1:
            with mpmath.workdps(20):
                right = r2 ** d / d * mpmath.quad(
                    lambda x: x ** (params.a * s) * mpmath.exp(-s / x ** p), [x1m, params.r1])
        j1 = lm ** -Xm / Xm * (P - I_e)
        return zt1, left, right, j1


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_slice_reductions_match_mpmath_closed_forms(name):
    # region_samples' ztilde1 and ztilde2 and j_pieces' J1 within the
    # Gamma's bound of their 40-digit closed forms at lambda 0.25/1/4 and
    # X from 0.5 down to 1e-12; ztilde2's right term (kinked slices) is a
    # quadrature at tol_1d and is held to 1e-9 of itself
    params = FAMILIES[name]
    for tr in region_samples(params, LAMS, XS, CFG):
        x1 = min(rho(params, tr.lam * params.r2), params.r1)
        zt1, left, right, _ = closed_forms(params, tr.lam, tr.X, x1)
        assert abs(tr.ztilde1 - zt1) <= _GAMMA_REL_ERR * zt1, (tr.lam, tr.X)
        assert abs(tr.ztilde2 - left - right) <= _GAMMA_REL_ERR * left + 1e-9 * right, (
            tr.lam, tr.X)
        j1, _ = j_pieces(params, tr.lam, tr.X, CFG)
        *_, J1 = closed_forms(params, tr.lam, tr.X, rho(params, tr.lam * params.r2))
        assert abs(j1 - J1) <= _GAMMA_REL_ERR * J1, (tr.lam, tr.X)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_g1_matches_mpmath_closed_form(name):
    # G1 = rt2^X/(as+1) - int_0^1 u^(a s) e(u) du, the integral one
    # incomplete Gamma at z = 1/q; G1 is a difference, so the bound is taken
    # on its two terms
    params = FAMILIES[name]
    for lam in LAMS:
        for X in XS:
            g1, _, _ = g_pieces(params, lam, X, CFG)
            with mpmath.workdps(40):
                s = mpmath.mpf((X - 1.0) / params.b)
                p = mpmath.mpf(params.p.numerator) / params.p.denominator
                asp1, bp = params.a * s + 1, (params.a * s + 1) / p
                head = (mpmath.mpf(lam) * params.r2) ** mpmath.mpf(X) / asp1
                tail = (mpmath.mpf(1) / params.q) ** bp / p * mpmath.gammainc(
                    -bp, mpmath.mpf(1) / params.q)
            assert abs(g1 - (head - tail)) <= _GAMMA_REL_ERR * (abs(head) + tail), (lam, X)
