"""Zeta evaluators: integrand forms, closed-form reductions, region pieces,
auxiliary integrals, log-derivative moments.

Frozen reference values were produced by an adaptive tanh-sinh oracle run at
25-40 significant digits (mpmath) before the engine was tuned against them.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatzeta.asym import constant_L, constant_M
from flatzeta.errors import (
    DegenerateLowerLimit,
    DomainError,
    OddQNotSupported,
    OutOfWindow,
    PoleHit,
)
from flatzeta.funcs import (
    BumpSpec,
    E_flat,
    bump_x_profile,
    bump_y_increment,
    bump_y_profile,
    rho,
)
from flatzeta.model import FamilyParams, NumericConfig, PRESETS, make_schedule
from flatzeta.quad import EndpointSpec, _tanh_sinh, integrate_1d
import flatzeta.zeta as zeta_mod
from flatzeta.zeta import (
    _from_one,
    _inner_closed,
    _inner_far,
    _inner_rel_err,
    _k_closed,
    _v_integrals,
    _w_integrals,
    g_pieces,
    h_pieces,
    integrand,
    j_pieces,
    log_derivative_integral,
    log_derivative_moments,
    monomial_closed_form,
    region_pieces,
    region_samples,
    zeta_quadrant,
    zeta_samples,
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
# Z(-0.98/6) at (a,b,q,p) = (5,6,4,6): mpmath at 30 digits, the monomial
# integral minus int x^(a s) (lim - inner(x)) dx with the closed-form inner
ORACLE_Z_5646 = 230.899148425969296
# tests/oracle_gen4.py (mpmath, 30 and 40 digits agree to 7e-31): z1 and z2
# at lambda = 1, sigma = -0.98/b, r1 = r2 = 1/2
ORACLE_Z1_Z2 = {
    (5, 6, 4, 6): (230.71981734912613696, 0.17933107684338404357),
    (4, 5, 2, 5): (189.39281881502831239, 0.33786652067315064151),
}

# tests/oracle_inner.py (mpmath, 40 digits, cross-checked by quadrature):
# (b, q, X, log T, log E, int_0^T v^((b-q)s) (v^q + E)^s dv) with s = (X-1)/b
INNER_ORACLE = [
    (2, 2, 1e-05, -0.10536051565782628, -1.0, 1.1857673522716047025),
    (7, 6, 1e-05, -0.6931471805599453, -5.0, 1.280511871054687574),
    (7, 7, 1e-05, -0.0010005003335835344, -1.0, 1.1182697699494482809),
    (2, 2, 0.125, 0.0, 0.0, 0.89484623049904758944),
    (7, 6, 1e-05, 0.0, 0.0, 1.1502084460696192861),
    (3, 1, 0.5, 0.0, 0.0, 1.4244573963521167944),
    (2, 2, 0.00390625, -0.6931471805599453, -0.1, 0.50400552600766204325),
    (1, 1, 0.0001, -1.2039728043259361, -0.5, 0.40185755440342453892),
    (3, 2, 0.0001, -0.0010005003335835344, -20.0, 11.270073432027091044),
    (6, 4, 0.00390625, -0.7985076962177716, -200.0, 45.804108841679946438),
    (2, 2, 0.125, -0.6931471805599453, -690.0, 7.3360323456373698739),
    (7, 1, 0.001, -2.995732273553991, -690.0, 498.81590103450353092),
    (5, 4, 1e-05, -1.2039728043259361, -690.0, 172.32326201858244534),
    (3, 3, 1e-07, -0.6931471805599453, -5.0, 1.8310098592816018505),
    (2, 2, 0.125, -0.6931471805599453, -700.3862943611199, 7.3360323456373698745),
    (2, 2, 0.125, -0.6931471805599453, -702.3862943611199, 7.3360323456373698746),
    (2, 2, 1e-05, -0.6931471805599453, -700.3862943611199, 349.57826711740027381),
    (2, 2, 1e-05, -0.6931471805599453, -702.3862943611199, 350.57475942081151161),
    (7, 6, 0.00390625, -1.2039728043259361, -706.2238368259556, 93.868684608776192528),
    (7, 6, 0.00390625, -1.2039728043259361, -708.2238368259556, 94.078092737058432667),
]

# tests/oracle_inner.py (mpmath, 40 digits from the Gamma form, cross-checked
# by quadrature of C1 + C2(inf)): (b, q, X, K) with s = (X-1)/b
K_ORACLE = [
    (2, 1, 0.5, 0.80185976526440779256),
    (2, 1, 0.0101, 1.3684725454823863219),
    (2, 1, 0.0099, 1.3688217977950622191),
    (2, 1, 1e-05, 1.3862765275777489758),
    (2, 1, 1e-08, 1.3862943432861601051),
    (2, 1, 1e-12, 1.3862943611181072852),
    (2, 2, 0.5, 0.80185976526440779256),
    (2, 2, 0.0101, 0.69488162555441126289),
    (2, 2, 0.0099, 0.69484713826322059442),
    (2, 2, 1e-05, 0.69314889063714016245),
    (2, 2, 1e-08, 0.69314718227001542264),
    (2, 2, 1e-12, 0.69314718056011631264),
    (3, 2, 0.5, 1.0632425632231359849),
    (3, 2, 0.0101, 1.2713816226398690686),
    (3, 2, 0.0099, 1.2715001815148719598),
    (3, 2, 1e-05, 1.2774030490618964856),
    (3, 2, 1e-08, 1.2774090515510984586),
    (3, 2, 1e-12, 1.277409057559035924),
    (6, 4, 0.5, 1.1667440299536859616),
    (6, 4, 0.0101, 1.431720498934377581),
    (6, 4, 0.0099, 1.4318585131677753792),
    (6, 4, 1e-05, 1.4387209837689612045),
    (6, 4, 1e-08, 1.4387279531419579878),
    (6, 4, 1e-12, 1.4387279601176478984),
    (7, 1, 0.5, 1.5904091808649320052),
    (7, 1, 0.0101, 6.3884297629084663148),
    (7, 1, 0.0099, 6.3958738000288099322),
    (7, 1, 1e-05, 6.7863462288565926678),
    (7, 1, 1e-08, 6.7867641589491836718),
    (7, 1, 1e-12, 6.7867645772809704148),
    (7, 7, 0.5, 0.98385980980810337792),
    (7, 7, 0.0101, 0.96981145417433020676),
    (7, 7, 0.0099, 0.96980602935527804458),
    (7, 7, 1e-05, 0.96953806741007852966),
    (7, 7, 1e-08, 0.96953779703105086035),
    (7, 7, 1e-12, 0.96953779676042854344),
    (60, 60, 0.5, 0.99977288178558433391),
    (60, 60, 0.59, 0.99981355508021653592),
    (100, 1, 0.009, 52.865885543595015345),
    (100, 1, 0.00081, 92.559988782119520893),
    (100, 1, 0.00079, 92.72999345742848099),
    (50, 1, 0.0099, 33.635645904652978421),
    (50, 1, 1e-05, 49.943085956954017328),
]


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


@pytest.mark.parametrize("flat", [True, False])
def test_zeta_quadrant_next_to_sigma_zero_at_q1(flat):
    # X = b sigma + 1 rounds to 1 and X/q to 1 at q = 1: the far columns'
    # constant K must stay finite (the integrand is 1 to double precision)
    p = FamilyParams(0, 3, 1, Fraction(1))
    z = zeta_quadrant(p, -1e-17, CFG, flat=flat)
    assert z.value == pytest.approx(monomial_closed_form(0, 3, 0.5, 0.5, -1e-17), rel=1e-14)


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


def test_zeta_quadrant_matches_nested_1d_integrand():
    # |f|^sigma for (a,b,q,p)=(1,2,2,1/4) at sigma=-0.45 by nested integrate_1d
    # calls on the public pointwise integrand, the inner y-interval split at
    # the flat crossover y = e(x), against the rescaled-inner engine
    sigma = -0.45
    ep_y = EndpointSpec(exponent_lo=GREEN.b * sigma)

    def column(x):
        c = math.exp(-1.0 / (2.0 * x**0.25))
        cuts = [0.0] + ([c] if 0.0 < c < 0.5 else []) + [0.5]
        return sum(integrate_1d(lambda ys: integrand(GREEN, x, ys, sigma), lo, hi,
                                ep_y if lo == 0.0 else None, tol=1e-9).value
                   for lo, hi in zip(cuts, cuts[1:]))

    r = integrate_1d(lambda xs: np.array([column(x) for x in xs]), 0.0, 0.5,
                     EndpointSpec(exponent_lo=GREEN.a * sigma), tol=1e-8)
    assert r.value == pytest.approx(zeta_quadrant(GREEN, sigma, CFG).value, rel=1e-6)


@pytest.mark.parametrize("b, q, X, lnT, lnE, ref", INNER_ORACLE)
def test_inner_closed_form_matches_oracle(b, q, X, lnT, lnE, ref):
    sigma = (X - 1.0) / b
    bound = _inner_rel_err(X)
    assert abs(_inner_closed(b, q, sigma, lnT, lnE) - ref) <= bound * ref
    if q * lnT - lnE > 698.0:
        # either side of the switch, the engine's far branch (exact main
        # term plus e^X K) must agree within the same bound
        far = _inner_far(X, lnT, lnE / q, _k_closed(b, q, np.array([sigma]))[0])
        assert abs(far - ref) <= bound * ref


@pytest.mark.parametrize("b, q, X, ref", K_ORACLE)
def test_k_closed_matches_oracle(b, q, X, ref):
    # both sides of the series/gammaln switch at t = X/q = 1e-2 and, at large b,
    # at t = 0.08 (-s); X down to 1e-12
    K = _k_closed(b, q, np.array([(X - 1.0) / b]))[0]
    assert abs(K - ref) <= 5e-14 * ref


def test_k_closed_batched_equals_one_sigma():
    # a sigma's K does not depend on the other sigmas of its schedule
    Xs = np.geomspace(1e-9, 0.05, 500)
    for b in range(2, 8):
        for q in range(1, b + 1):
            sigmas = (Xs - 1.0) / b
            K = _k_closed(b, q, sigmas)
            one = [_k_closed(b, q, sigmas[i:i + 1])[0] for i in range(Xs.size)]
            assert np.array_equal(K, one), (b, q)


def test_k_closed_next_to_sigma_zero_is_quiet():
    # the Hurwitz zeta terms overflow at -s < 1e-22; the series must not see them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = _k_closed(2, 1, np.array([-1e-30, -1e-300]))
    assert K == pytest.approx([0.5, 0.5], rel=1e-14)


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
    with pytest.raises(OddQNotSupported):
        zeta_samples(p, BumpSpec(0.5, 0.5), [-0.2, -0.3], CFG, flat=True)


def _seeded_family(seed: int, even_q: bool) -> FamilyParams:
    """A random member with b <= 7, p = num/den <= 2 and a random box."""
    rng = np.random.default_rng(seed)
    while True:
        b = int(rng.integers(2, 8))
        a, q = int(rng.integers(0, b)), int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        if p <= 2 and not (even_q and q % 2):
            return FamilyParams(a, b, q, p, *map(float, rng.uniform(0.25, 0.5, 2)))


# (family, schedule start X0, flat): 14-point schedules with ratio 1/2; the
# pinned (0,7,1,5) schedule ends at X = 1e-4, where the far columns' flat
# crossover is hardest to resolve
BATCH_CASES = [
    (SUP, 0.125, True), (CRIT, 0.1, True), (GREEN, 0.0819, True),
    (_seeded_family(7, False), 0.07, True), (GREEN, 0.125, False),
    (FamilyParams(0, 7, 1, Fraction(5)), 0.8192, True),
]
WEIGHTED_CASES = [
    (SUP, 0.125, True), (CRIT, 0.1, True), (GREEN, 0.0819, True),
    (_seeded_family(7, True), 0.07, True), (GREEN, 0.125, False),
]


@pytest.mark.parametrize("b", [7, 50])
def test_zeta_quadrant_error_meets_tolerance_at_small_X(b):
    # (0,b,1,5) at X = 1e-4: the outer quadrature converges to tol_2d; a
    # step that no longer shrinks, accepted as converged, reports 0.83 on
    # Z ~ 1850
    z = zeta_quadrant(FamilyParams(0, b, 1, Fraction(5)), (1e-4 - 1.0) / b, CFG)
    assert z.error <= 100.0 * CFG.tol_2d * z.value


@pytest.mark.parametrize("bump", [None, BumpSpec(0.5, 0.5)], ids=["quadrant", "weighted"])
def test_zeta_samples_match_one_sigma_calls(bump):
    # each sigma of a batch is one component of the vector quadratures and
    # returns its one-sigma call's value and error
    eps = np.finfo(float).eps
    for params, x0, flat in (BATCH_CASES if bump is None else WEIGHTED_CASES):
        sched = make_schedule(x0, 0.5, 14, params.b)
        batch = zeta_samples(params, bump, sched.sigmas, CFG, flat=flat)
        assert len(batch) == 14
        for s, z in zip(sched.sigmas, batch):
            one = (zeta_quadrant(params, s, CFG, flat=flat) if bump is None
                   else zeta_weighted(params, bump, s, CFG, flat=flat))
            assert (z.sigma, z.X) == (one.sigma, one.X)
            assert abs(z.value - one.value) <= 4.0 * eps * one.value
            assert abs(z.error - one.error) <= 4.0 * eps * one.value


@pytest.mark.parametrize("flat", [True, False])
def test_zeta_samples_one_outer_call(monkeypatch, flat):
    # a whole schedule is one vector quadrature over x, flat term on or off:
    # the far columns' constant K is a closed form, not a quadrature
    calls = []
    real = zeta_mod._tanh_sinh

    def tanh_sinh(f, lo, hi, *args, **kwargs):
        calls.append((lo, hi, kwargs.get("k")))
        return real(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    sched = make_schedule(0.125, 0.5, 14, SUP.b)
    zeta_samples(SUP, None, sched.sigmas, CFG, flat=flat)
    assert calls == [(0.0, SUP.r1, 14)]


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


def test_ztilde_reductions_match_2d_over_families():
    # the 1D reductions against their direct iterated quadratures on seeded
    # families over the whole parameter space, kinked and saturated slices
    # alike (13 of the 60 draws kink; worst residuals 9e-12 for ztilde1 and
    # 2e-10 for ztilde2)
    rng = np.random.default_rng(7)
    n_kinked = 0
    for _ in range(60):
        b = int(rng.integers(2, 8))
        a, q = int(rng.integers(0, b)), int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 7)))
        params = FamilyParams(a, b, q, p, *map(float, rng.uniform(0.05, 0.95, 2)))
        lam = float(10.0 ** rng.uniform(-2.0, 2.0))
        sigma = (10.0 ** rng.uniform(-3.0, math.log10(0.5)) - 1.0) / b
        n_kinked += rho(params, lam * params.r2) < params.r1
        for one, two in ((ztilde1, ztilde1_2d), (ztilde2, ztilde2_2d)):
            v1, v2 = one(params, lam, sigma, CFG), two(params, lam, sigma, CFG)
            assert abs(v1 - v2) <= 1e-8 * abs(v1), (params, lam, sigma, one.__name__)
    assert 0 < n_kinked < 60


@pytest.mark.parametrize("fn", [ztilde1_2d, ztilde2_2d])
@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_ztilde_2d_rejects_nonpositive_lambda(fn, lam):
    with pytest.raises(DomainError, match="lambda must be positive"):
        fn(CRIT, lam, -0.4, CFG)


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


def test_region_pieces_strong_outer_singularity_against_oracle():
    # a s near -1 with the flat term alive only near the box edge: the z1
    # columns' log-variable integrals would reach down to log e(x) ~ -1e15
    # without the clip at log Y2 - 800/X, and lost 4.2e-4 of Z there
    p = FamilyParams(5, 6, 4, Fraction(6))
    for lam in (0.25, 1.0, 4.0):
        tr = region_pieces(p, lam, -0.98 / 6, CFG)
        assert abs(tr.z1 + tr.z2 - ORACLE_Z_5646) <= 1e-10 * ORACLE_Z_5646
    assert zeta_quadrant(p, -0.98 / 6, CFG).value == pytest.approx(ORACLE_Z_5646, rel=1e-10)


@pytest.mark.parametrize("fam", sorted(ORACLE_Z1_Z2))
def test_region_pieces_separately_against_oracle(fam):
    a, b, q, p = fam
    z1, z2 = ORACLE_Z1_Z2[fam]
    tr = region_pieces(FamilyParams(a, b, q, Fraction(p)), 1.0, -0.98 / b, CFG)
    assert tr.z1 == pytest.approx(z1, rel=1e-10)
    assert tr.z2 == pytest.approx(z2, rel=1e-10)


REGION_FAMILIES = [SUP, CRIT, GREEN, FamilyParams(5, 6, 4, Fraction(6)),
                   FamilyParams(0, 7, 1, Fraction(5))]


LAMS = [0.25, 1.0, 4.0]     # the CLI's sandwich lambdas


@pytest.mark.parametrize("params", REGION_FAMILIES,
                         ids=lambda p: f"{p.a}{p.b}{p.q}-{p.p}")
def test_region_samples_match_one_sigma_calls(params):
    # each (lambda, sigma) pair of a batch is a component of its own in every
    # vector quadrature, outer and inner, so its trace is the one-pair calls'
    # bit for bit; the batch is the CLI's sandwich lambdas and schedule
    sigmas = make_schedule(0.125, 0.25, 4, params.b).sigmas
    batch = region_samples(params, LAMS, sigmas, CFG)
    assert [(tr.lam, tr.sigma) for tr in batch] == [(lam, s) for lam in LAMS for s in sigmas]
    for tr in batch:
        assert tr == region_pieces(params, tr.lam, tr.sigma, CFG)
        assert tr.ztilde1 == ztilde1(params, tr.lam, tr.sigma, CFG)
        assert tr.ztilde2 == ztilde2(params, tr.lam, tr.sigma, CFG)


@pytest.mark.parametrize("lams", [[0.25, 4.0], [4.0]], ids=["kink", "saturated"])
def test_region_samples_one_outer_call_per_panel(monkeypatch, lams):
    # every pair's interval is mapped onto (0, 1): v_unclipped is one call;
    # z1 and z2 are one call apiece on the left piece of every pair (the
    # x^(a s) endpoint declared) and one on the right piece of the kinked
    # pairs (regular ends); ztilde1 is one call and ztilde2 one per piece.
    # ztilde1_2d and ztilde2_2d run on the same one-pair pieces, one outer
    # call apiece.  At SUP, lambda = 0.25 kinks inside (0, r1) and 4
    # saturates at r1.
    calls, depth = [], [0]
    real = zeta_mod._tanh_sinh

    def tanh_sinh(f, lo, hi, tol, ends=None, **kwargs):
        if not depth[0]:        # not an inner call made by an outer integrand
            calls.append((getattr(f, "func", f).__name__, lo, hi, kwargs["k"], ends is None))

        def nested(*args):
            depth[0] += 1
            try:
                return f(*args)
            finally:
                depth[0] -= 1

        return real(nested, lo, hi, tol, ends, **kwargs)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    sigmas = make_schedule(0.125, 0.25, 4, SUP.b).sigmas
    region_samples(SUP, lams, sigmas, CFG)
    n, n_kink = 4 * len(lams), 4 * sum(rho(SUP, lam * SUP.r2) < SUP.r1 for lam in lams)
    expect = [("f", n, False), ("z1_column", n, False), ("z1_column", n_kink, True),
              ("z2_column", n, False), ("z2_column", n_kink, True),
              ("zt1", n, False), ("zt2_left", n, False), ("zt2_right", n_kink, True)]
    expect = [c for c in expect if c[1]]
    assert [(name, k, regular) for name, lo, hi, k, regular in calls] == expect
    assert all((lo, hi) == (0.0, 1.0) for _, lo, hi, _, _ in calls)
    assert n_kink == (4 if lams == [0.25, 4.0] else 0)
    for lam in lams:
        kinked = rho(SUP, lam * SUP.r2) < SUP.r1
        for fn, name in ((ztilde1_2d, "zt1_2d"), (ztilde2_2d, "zt2_2d")):
            calls.clear()
            fn(SUP, lam, sigmas[0], CFG)
            assert calls == [(name, 0.0, 1.0, 1, False)] + kinked * [(name, 0.0, 1.0, 1, True)]


@st.composite
def _families(draw):
    """A valid family: 0 <= a < b <= 7, 1 <= q <= b, rational p."""
    b = draw(st.integers(2, 7))
    p = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    return FamilyParams(draw(st.integers(0, b - 1)), b, draw(st.integers(1, b)), p)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(params=_families(), log10_X=st.floats(-5.0, math.log10(0.5)),
       lam=st.floats(-2.0, 2.0).map(lambda t: 10.0**t))
@example(params=FamilyParams(2, 5, 4, Fraction(11, 2)), log10_X=math.log10(2.449e-4), lam=71.66)
@example(params=FamilyParams(2, 5, 3, Fraction(2)), log10_X=math.log10(5.1e-5), lam=31.8)
def test_region_pieces_add_up_to_z_over_families(params, log10_X, lam):
    # z1 + z2 = Z within the sandwich suite's slack, on seeded draws over
    # the whole parameter space rather than the presets; the examples sit
    # at small X and large lambda, where accepting a z1 step that no longer
    # shrinks as converged misses by 5.4x and 1.2x the slack
    sigma = (10.0**log10_X - 1.0) / params.b
    z = zeta_samples(params, None, [sigma], CFG, flat=True)[0]
    tr = region_samples(params, [lam], [sigma], CFG)[0]
    assert abs(tr.z1 + tr.z2 - z.value) <= 10.0 * (z.error + tr.error) + 1e-12 * z.value


def test_quadrant_invariants_over_families():
    # on seeded families over the whole parameter space, 4 values of X each:
    # 0 < Z <= the monomial closed form (the flat term only adds to f, which
    # enters at a negative power), Z grows as X falls toward the blow-up, and
    # flat=False meets the closed form within its reported error
    rng = np.random.default_rng(7)
    for _ in range(40):
        b = int(rng.integers(2, 8))
        a, q = int(rng.integers(0, b)), int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 7)))
        params = FamilyParams(a, b, q, p, *map(float, rng.uniform(0.05, 0.95, 2)))
        xs = np.sort(10.0 ** rng.uniform(-5.0, math.log10(0.5), 4))[::-1]
        sigmas = [(X - 1.0) / b for X in xs]
        closed = [monomial_closed_form(a, b, params.r1, params.r2, s) for s in sigmas]
        zs = [z.value for z in zeta_samples(params, None, sigmas, CFG, flat=True)]
        assert all(0.0 < z <= cf * (1.0 + 1e-12) for z, cf in zip(zs, closed)), params
        assert all(z2 > z1 for z1, z2 in zip(zs, zs[1:])), params
        for z, cf in zip(zeta_samples(params, None, sigmas, CFG, flat=False), closed):
            assert abs(z.value - cf) <= z.error, (params, z)


def test_region_samples_dead_z1_pairs_skip_the_quadrature(monkeypatch):
    # a (column, pair) of z1 clipped at _w_floor, where the flat factor is
    # within e^-40 of 1, is the monomial column r2^X/X and never reaches
    # _w_integrals; the batch is the CLI's sandwich lambdas and schedule
    sigmas = make_schedule(0.125, 0.25, 4, SUP.b).sigmas
    Xs = np.tile([SUP.b * s + 1.0 for s in sigmas], len(LAMS))
    ln_lam = np.log(np.repeat(LAMS, len(sigmas)))
    lnY2, q = math.log(SUP.r2), SUP.q
    real_w, real_ts = zeta_mod._w_integrals, zeta_mod._tanh_sinh
    sent, columns = [], []

    def w_integrals(q_, sigma, X, lnE, w_lo, *args, **kwargs):
        sent.append((np.broadcast_to(X, w_lo.shape).copy(), lnE.copy(), w_lo.copy()))
        return real_w(q_, sigma, X, lnE, w_lo, *args, **kwargs)

    def tanh_sinh(f, *args, **kwargs):
        if getattr(f, "func", None) is not None and f.func.__name__ == "z1_column":
            pairs, lo, width = f.args[0]        # the piece x = lo + width u

            def recorded(us, cols):
                out = f(us, cols)
                xs = lo[cols] + width[cols] * us
                columns.append((xs, pairs[cols], width[cols], out.copy()))
                return out
            return real_ts(recorded, *args, **kwargs)
        return real_ts(f, *args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_w_integrals", w_integrals)
    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    region_samples(SUP, LAMS, sigmas, CFG)

    def is_dead(X, lnE, w_lo):
        return (w_lo == zeta_mod._w_floor(X, lnY2)) & (lnE - q * w_lo < -40.0)

    assert sent and not any(is_dead(*pair).any() for pair in sent)
    n_dead = 0
    for xs, p, width, out in columns:   # a = 0: the z1 column is width times its inner integral
        ln_es = zeta_mod.log_e_flat(SUP, xs)
        with np.errstate(over="ignore"):
            lnE = q * ln_es
        ln_m = np.minimum(ln_es - ln_lam[p], lnY2)
        w_lo = np.maximum(ln_m, zeta_mod._w_floor(Xs[p], lnY2))
        dead = (ln_m < lnY2) & is_dead(Xs[p], lnE, w_lo)
        expect = np.broadcast_to(width * (np.exp(Xs[p] * lnY2) / Xs[p]), out.shape)
        assert np.array_equal(out[dead], expect[dead])
        n_dead += np.count_nonzero(dead)
    assert n_dead > 0


def test_v_integrals_match_scalar_calls_on_own_intervals():
    # each interval (0, s_hi[i]) is mapped onto (0, 1) inside the integrand;
    # every component still returns the one-component call on its own interval
    sigma = (2.0 ** -8 - 1.0) / 2.0
    bq = (GREEN.b - GREEN.q) * sigma
    s_hi = np.array([1.0, 0.37, 2.5, 1e-3, 40.0])

    def weight(vs, cols):      # differs per component, and vanishes like v^2
        return vs**2 * (1.0 + np.cos(3.0 * vs) / (1.0 + cols))

    for w in (None, weight):
        values, errors, _ = _v_integrals(GREEN, sigma, s_hi, w, tol=1e-12)
        ends = EndpointSpec(exponent_lo=bq) if w is None else None
        for i, h in enumerate(s_hi):
            def f(vs, cols):
                out = np.exp(bq * np.log(vs) + sigma * np.log1p(vs**GREEN.q))
                return out if w is None else out * w(vs, np.array([i]))

            (v,), (e,), _ = _tanh_sinh(f, 0.0, h, 1e-12, ends, k=1)
            assert abs(values[i] - v) <= 4.0 * np.finfo(float).eps * abs(v)
            assert abs(errors[i] - e) <= 4.0 * np.finfo(float).eps * abs(v)


def test_flat_dead_bump_columns_equal_the_e0_column():
    # on (y_dead, Y2) with log E - q log y_dead < -40 the flat factor is 1
    # to within 4e-18, so the weighted engine shares one E = 0 column per
    # sigma among all such columns: each equals it to rounding
    bump, q, lnY2 = BumpSpec(0.5, 0.5), 2, math.log(0.5)
    ln_dead = lnY2 + math.log(1e-9)
    lnE = np.array([-np.inf, q * ln_dead - 40.0, q * ln_dead - 300.0])
    for X in (0.125, 2.0 ** -8, 1e-5):
        vals, _, _ = _w_integrals(q, (X - 1.0) / 2.0, X, lnE, np.full(3, ln_dead), lnY2, 1e-10,
                                  weight=lambda ws: bump_y_increment(bump, np.exp(ws)))
        assert np.all(np.abs(vals[1:] - vals[0]) <= 4.0 * np.finfo(float).eps * abs(vals[0]))


def test_zeta_weighted_batches_inner_columns(monkeypatch):
    # the inner integrals of one outer level are a few vector calls (the
    # bump's scaled and log-variable pieces), not one call per abscissa
    count = {"levels": 0, "inner": 0}
    real_tanh_sinh, real_ln_e = zeta_mod._tanh_sinh, zeta_mod.log_e_flat

    def tanh_sinh(*args, **kwargs):
        count["inner"] += count["levels"] > 0     # calls from inside a level
        return real_tanh_sinh(*args, **kwargs)

    def ln_e(*args):
        count["levels"] += 1                      # once per outer level
        return real_ln_e(*args)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    monkeypatch.setattr(zeta_mod, "log_e_flat", ln_e)
    X = 2.0 ** -8
    zw = zeta_weighted(CRIT, BumpSpec(0.5, 0.5), (X - 1.0) / 2.0, CFG)
    assert zw.value == pytest.approx(ORACLE_W_CRIT_X2M8, rel=1e-9)
    assert count["levels"] >= 3
    assert count["inner"] <= 3 * count["levels"]


def test_region_pieces_flat_dead():
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    tr = region_pieces(p, 1.0, -0.3, CFG)
    z = zeta_quadrant(p, -0.3, CFG)
    assert tr.z2 == pytest.approx(0.0, abs=1e-300)
    assert tr.z1 == pytest.approx(z.value, rel=1e-9)


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


def test_g2_h2_integral_from_one():
    # int_1^U for U on either side of 1; U = 1 leaves the G2/H2 interval
    # empty, and the piece is 0 rather than a DomainError
    assert _from_one(lambda us: 1.0 / us, 1.0, CFG) == 0.0
    for U in (2.0, 0.5):
        assert _from_one(lambda us: 1.0 / us, U, CFG) == pytest.approx(math.log(U), rel=1e-12)


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
    # (D_0 at s < 0 on the weighted engine, D_j as element j of a J = j pass)
    bump = BumpSpec(0.5, 0.5)
    moments = log_derivative_moments(GREEN, bump, s0, 12, CFG, flat=flat)
    assert moments.shape == (13,)
    for j in range(13):
        d = log_derivative_integral(GREEN, bump, s0, j, CFG, flat=flat)
        assert moments[j] == pytest.approx(d, rel=1e-10)


def test_log_derivative_moments_one_inner_call_per_outer_level(monkeypatch):
    # the inner integrals of all abscissae of one outer level are one vector
    # quadrature over (0, R2), with a group of J + 1 moments per abscissa
    bump, J = BumpSpec(0.5, 0.25), 6
    outer_levels, inner = [], []
    real = zeta_mod._tanh_sinh

    def tanh_sinh(f, lo, hi, *args, **kwargs):
        if (lo, hi) == (0.0, bump.R1):
            def counted(xs, cols):
                outer_levels.append(xs.shape[0])
                return f(xs, cols)
            return real(counted, lo, hi, *args, **kwargs)
        inner.append((lo, hi, kwargs["k"], kwargs["group"]))
        return real(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    log_derivative_moments(GREEN, bump, 0.5, J, CFG, flat=True)
    assert 3 <= len(outer_levels) <= 13
    assert inner == [(0.0, bump.R2, n * (J + 1), J + 1) for n in outer_levels]


@pytest.mark.parametrize("params", [GREEN, FamilyParams(1, 3, 2, Fraction(1, 4))],
                         ids=["greenblatt", "1,3,2,1/4"])
@pytest.mark.parametrize("s", [0.0, 0.05, 0.5])
def test_log_derivative_d0_nonnegative_s_is_a_product_of_1d_integrals(params, s):
    # with the flat term off |f| = x^a y^b, so D_0(s) = 4 I_x(s) I_y(s):
    # two 1D quadratures of x^(a s) and y^(b s) against the bump profiles
    bump = BumpSpec(0.5, 0.5)
    i_x = integrate_1d(lambda x: x ** (params.a * s) * bump_x_profile(bump, x), 0.0, 0.5,
                       tol=1e-13).value
    i_y = integrate_1d(lambda y: y ** (params.b * s) * bump_y_profile(bump, y), 0.0, 0.5,
                       tol=1e-13).value
    d0 = log_derivative_integral(params, bump, s, 0, CFG, flat=False)
    assert d0 == pytest.approx(4.0 * i_x * i_y, rel=1e-12)


def test_log_derivative_moments_flat_on_deep_negative_s():
    # q = b: the inner y-integrand goes as y^(b s) (log|f|)^j where E(x) is
    # far below y^q, and its powers overflow at the deepest nodes
    bump = BumpSpec(0.5, 0.5)
    moments = log_derivative_moments(GREEN, bump, -0.3, 40, CFG, flat=True)
    assert np.all(np.isfinite(moments))
    assert np.all(np.sign(moments) == (-1.0) ** np.arange(41))
    d0 = log_derivative_integral(GREEN, bump, -0.3, 0, CFG, flat=True)
    assert moments[0] == pytest.approx(d0, rel=1e-12)


def test_log_derivative_moments_rejections():
    bump = BumpSpec(0.5, 0.5)
    with pytest.raises(DomainError):
        log_derivative_moments(GREEN, bump, 0.5, -1, CFG)
    with pytest.raises(OutOfWindow):
        log_derivative_moments(GREEN, bump, -0.5, 4, CFG)
    with pytest.raises(OddQNotSupported):
        log_derivative_moments(FamilyParams(0, 2, 1, Fraction(2)), bump, 0.5, 4, CFG)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: region_pieces(GREEN, NAN, -0.4, CFG), id="region_pieces-nan"),
    pytest.param(lambda: ztilde1(GREEN, NAN, -0.4, CFG), id="ztilde1-nan"),
    pytest.param(lambda: ztilde2(GREEN, NAN, -0.4, CFG), id="ztilde2-nan"),
    pytest.param(lambda: region_pieces(GREEN, math.inf, -0.4, CFG), id="region_pieces-inf"),
    pytest.param(lambda: region_samples(GREEN, [math.inf], [-0.4, -0.45], CFG),
                 id="region_samples-inf"),
    pytest.param(lambda: region_samples(GREEN, [NAN], [-0.4, -0.45], CFG),
                 id="region_samples-nan"),
    pytest.param(lambda: ztilde1(GREEN, math.inf, -0.4, CFG), id="ztilde1-inf"),
    pytest.param(lambda: ztilde2(GREEN, math.inf, -0.4, CFG), id="ztilde2-inf"),
    pytest.param(lambda: ztilde1_2d(GREEN, NAN, -0.4, CFG), id="ztilde1_2d-nan"),
    pytest.param(lambda: ztilde2_2d(GREEN, NAN, -0.4, CFG), id="ztilde2_2d-nan"),
    pytest.param(lambda: g_pieces(SUP, NAN, -0.4, CFG), id="g_pieces-nan"),
    pytest.param(lambda: g_pieces(SUP, 0.0, -0.4, CFG), id="g_pieces-zero"),
    pytest.param(lambda: g_pieces(SUP, math.inf, -0.4, CFG), id="g_pieces-inf"),
    pytest.param(lambda: h_pieces(CRIT, NAN, -0.4, CFG), id="h_pieces-nan"),
    pytest.param(lambda: h_pieces(CRIT, -1.0, -0.4, CFG), id="h_pieces-negative"),
    pytest.param(lambda: j_pieces(GREEN, NAN, -0.4, CFG), id="j_pieces-nan"),
    pytest.param(lambda: j_pieces(GREEN, 0.0, -0.4, CFG), id="j_pieces-zero"),
    pytest.param(lambda: constant_L(GREEN, NAN), id="constant_L-nan"),
    pytest.param(lambda: constant_M(GREEN, NAN, CFG), id="constant_M-nan"),
    pytest.param(lambda: constant_L(GREEN, math.inf), id="constant_L-inf"),
    pytest.param(lambda: constant_M(GREEN, math.inf, CFG), id="constant_M-inf"),
    pytest.param(lambda: BumpSpec(NAN, 0.5), id="bump-R1-nan"),
    pytest.param(lambda: BumpSpec(0.5, NAN), id="bump-R2-nan"),
    pytest.param(lambda: BumpSpec(math.inf, 0.5), id="bump-R1-inf"),
    pytest.param(lambda: BumpSpec(0.5, math.inf), id="bump-R2-inf"),
    pytest.param(lambda: log_derivative_moments(SUP, BumpSpec(math.inf, 0.5), 0.2, 0, CFG,
                                                flat=False), id="log_derivative_moments-R1-inf"),
    pytest.param(lambda: log_derivative_integral(SUP, BumpSpec(math.inf, 0.5), -0.2, 0, CFG,
                                                 flat=False), id="log_derivative-R1-inf"),
    pytest.param(lambda: log_derivative_integral(GREEN, BumpSpec(0.5, 0.5), 0.5, math.inf, CFG),
                 id="log_derivative-j-inf"),
    pytest.param(lambda: log_derivative_integral(GREEN, BumpSpec(0.5, 0.5), 0.5, NAN, CFG),
                 id="log_derivative-j-nan"),
    pytest.param(lambda: log_derivative_moments(GREEN, BumpSpec(0.5, 0.5), 0.5, 1.5, CFG),
                 id="log_derivative-j-fraction"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, 0.5, NAN), id="monomial-sigma-nan"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, 0.5, -math.inf),
                 id="monomial-sigma-inf"),
    pytest.param(lambda: monomial_closed_form(0, 2, -0.5, 0.5, 0.5), id="monomial-r1-negative"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, 0.0, -0.25), id="monomial-r2-zero"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, math.inf, -0.25), id="monomial-r2-inf"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, NAN, -0.25), id="monomial-r2-nan"),
])
def test_invalid_input_raises_domain_error(call):
    # a lambda that is not positive and finite, a bump half-width that is
    # NaN or infinite, a j that is no nonnegative integer, and a monomial
    # sigma that is not finite or box side outside (0, inf) fail up front,
    # before any quadrature runs
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("lams", [[], [1.0, 0.0], [-1.0, 1.0], [1.0, math.inf], [NAN, 1.0]],
                         ids=["empty", "zero", "negative", "inf", "nan"])
def test_region_samples_rejects_bad_lambdas_before_quadrature(monkeypatch, lams):
    # one bad lambda among valid ones fails the whole batch up front
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", no_quadrature)
    with pytest.raises(DomainError):
        region_samples(GREEN, lams, [-0.4, -0.45], CFG)


@pytest.mark.parametrize("j", [0, 1, 4])
def test_nan_exponent_out_of_window(j):
    # a NaN s fails the window test s > -c0 instead of reaching a quadrature
    with pytest.raises(OutOfWindow):
        log_derivative_integral(GREEN, BumpSpec(0.5, 0.5), NAN, j, CFG)
    with pytest.raises(OutOfWindow):
        log_derivative_moments(GREEN, BumpSpec(0.5, 0.5), NAN, j, CFG)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    pytest.param(lambda p, lam, s: region_samples(p, [1.0, lam], [s], CFG), id="region_samples"),
    pytest.param(lambda p, lam, s: ztilde1(p, lam, s, CFG), id="ztilde1"),
    pytest.param(lambda p, lam, s: ztilde2(p, lam, s, CFG), id="ztilde2"),
    pytest.param(lambda p, lam, s: ztilde1_2d(p, lam, s, CFG), id="ztilde1_2d"),
    pytest.param(lambda p, lam, s: ztilde2_2d(p, lam, s, CFG), id="ztilde2_2d"),
])
def test_degenerate_lower_limit(monkeypatch, call):
    # lam r2 so tiny that rho underflows to exact zero: needs a very small p
    # so the inverse profile (1/(q |log y|))^(1/p) collapses below fp range.
    # The slice pieces reject it once for every slice integral, before any
    # quadrature and without a warning
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", no_quadrature)
    monkeypatch.setattr(zeta_mod, "integrate_1d", no_quadrature)
    p = FamilyParams(0, 2, 2, Fraction(1, 150), r1=0.5, r2=0.5)
    with pytest.raises(DegenerateLowerLimit):
        call(p, 1e-300, -0.3)
