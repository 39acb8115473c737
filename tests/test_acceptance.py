"""Acceptance suite: the ten exit criteria, each printed as one PASS/FAIL line.

Targets and tolerances are pinned here, not configurable.  The blow-up laws
are checked at the canonical parameter sets

    supercritical (0,2,2,2), critical (0,2,2,1), greenblatt (1,2,2,1/4)

with the schedule X_k = 2^(-3-k), k = 0..11, on the box r = (1/2, 1/2).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from flatzeta.errors import WrongRegime
from flatzeta.funcs import BumpSpec
from flatzeta.model import (
    FamilyParams,
    NumericConfig,
    PRESETS,
    classify_regime,
    make_schedule,
)
from flatzeta.zeta import (
    ZetaSample,
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
    g_pieces,
    j_pieces,
)
from flatzeta.asym import (
    case3_bounds,
    constant_A,
    constant_L,
    constant_M,
    extract_limit,
    scale_sequence,
)
from flatzeta.verify import verify_psi_and_flat

CFG = NumericConfig()
BUMP = BumpSpec(0.5, 0.5)
SCHEDULE = make_schedule(0.125, 0.5, 12, b=2)
SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

_dj_cache: dict = {}


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE criterion-{num:02d} {name}: {status} ({detail})")


def _samples(params, weighted=False):
    if weighted:
        return [zeta_weighted(params, BUMP, s, CFG) for s in SCHEDULE.sigmas]
    return [zeta_quadrant(params, s, CFG) for s in SCHEDULE.sigmas]


def test_criterion_01_supercritical_power_law():
    """Power-scaled limit of Z at (0,2,2,2) within 2% of A = sqrt(pi/2).

    The scaling exponent is 1 - (1-a/b)/p = 1/2 for these parameters."""
    t0 = time.perf_counter()
    params = PRESETS["supercritical"]
    seq = scale_sequence(params, _samples(params))
    limit, unc = extract_limit(seq)
    target = SQRT_PI_OVER_2
    rel = abs(limit - target) / target
    ok = rel <= 0.02
    _report(1, "supercritical-power-law", ok,
            f"limit={limit:.6f} target={target:.6f} rel={rel:.2e} "
            f"t={time.perf_counter() - t0:.1f}s")
    assert constant_A(params, CFG) == pytest.approx(target, rel=1e-9)
    assert time.perf_counter() - t0 < 60.0
    assert ok


def test_criterion_02_critical_log_law():
    """Log-scaled limit of Z at (0,2,2,1) within 5% of 1/(pq) = 0.5."""
    t0 = time.perf_counter()
    params = PRESETS["critical"]
    seq = scale_sequence(params, _samples(params))
    limit, unc = extract_limit(seq)
    rel = abs(limit - 0.5) / 0.5
    ok = rel <= 0.05
    _report(2, "critical-log-law", ok,
            f"limit={limit:.6f} target=0.5 rel={rel:.2e} "
            f"t={time.perf_counter() - t0:.1f}s")
    assert time.perf_counter() - t0 < 60.0
    assert ok


def test_criterion_03_subcritical_bracket():
    """Z at (1,2,2,1/4) increases monotonically with shrinking steps into the
    optimized [lower, upper] bracket (epsilon = 1e-4 * upper)."""
    t0 = time.perf_counter()
    params = PRESETS["greenblatt"]
    zs = [s.value for s in _samples(params)]
    diffs = [b - a for a, b in zip(zs, zs[1:])]
    increasing = all(d > 0.0 for d in diffs)
    shrinking = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    bounds = case3_bounds(params, CFG)
    eps = 1e-4 * bounds.upper
    inside = bounds.lower - eps <= zs[-1] <= bounds.upper + eps
    ok = increasing and shrinking and inside
    _report(3, "subcritical-bracket", ok,
            f"final={zs[-1]:.6f} bracket=[{bounds.lower:.6f},{bounds.upper:.6f}] "
            f"mono={increasing} shrink={shrinking} t={time.perf_counter() - t0:.1f}s")
    assert time.perf_counter() - t0 < 120.0
    assert ok


def test_criterion_04_weighted_limits():
    """Bump-weighted limits: 4A within 5% (power), 4/(pq) = 2 within 7% (log),
    positive Cauchy limit (bounded)."""
    t0 = time.perf_counter()
    params = PRESETS["supercritical"]
    lim_s, _ = extract_limit(scale_sequence(params, _samples(params, weighted=True)))
    target_s = 4.0 * constant_A(params, CFG)
    rel_s = abs(lim_s - target_s) / target_s

    params = PRESETS["critical"]
    lim_c, _ = extract_limit(scale_sequence(params, _samples(params, weighted=True)))
    rel_c = abs(lim_c - 2.0) / 2.0

    zs = [s.value for s in _samples(PRESETS["greenblatt"], weighted=True)]
    diffs = [b - a for a, b in zip(zs, zs[1:])]
    cauchy = (all(d > 0.0 for d in diffs)
              and all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
              and diffs[-1] < 1e-2 * zs[-1] and zs[-1] > 0.0)
    elapsed = time.perf_counter() - t0
    ok = rel_s <= 0.05 and rel_c <= 0.07 and cauchy
    _report(4, "weighted-limits", ok,
            f"4A rel={rel_s:.2e}, 4/pq rel={rel_c:.2e}, bounded-cauchy={cauchy}, "
            f"t={elapsed:.1f}s")
    assert elapsed < 300.0
    assert rel_s <= 0.05
    assert rel_c <= 0.07
    assert cauchy


def test_criterion_05_sandwich_randomized():
    """100 randomized (params, lambda, sigma) cases: no envelope inequality
    violated beyond combined quadrature error."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    p_pool = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
              Fraction(2), Fraction(3), Fraction(1, 3)]
    violations = 0
    worst = math.inf
    for _ in range(100):
        b = int(rng.integers(2, 6))
        a = int(rng.integers(0, b))
        q = int(rng.integers(1, b + 1))
        p = p_pool[int(rng.integers(0, len(p_pool)))]
        r1 = float(rng.uniform(0.25, 0.7))
        r2 = float(rng.uniform(0.25, 0.7))
        params = FamilyParams(a, b, q, p, r1=r1, r2=r2)
        lam = float(10.0 ** rng.uniform(-2.0, 2.0))
        X = float(rng.uniform(0.05, 0.95))
        sigma = (X - 1.0) / b
        z = zeta_quadrant(params, sigma, CFG)
        tr = region_pieces(params, lam, sigma, CFG)
        slack = 10.0 * (z.error + tr.error) + 1e-12 * z.value
        lo1 = (1.0 + lam**q) ** sigma * tr.ztilde1
        lo2 = (1.0 + lam**-q) ** sigma * tr.ztilde2
        margins = [tr.z1 - lo1, tr.ztilde1 - tr.z1,
                   tr.z2 - lo2, tr.ztilde2 - tr.z2,
                   z.value - (lo1 + lo2), (tr.ztilde1 + tr.ztilde2) - z.value]
        worst = min(worst, min(margins))
        if min(margins) < -slack:
            violations += 1
    ok = violations == 0
    _report(5, "sandwich-inequalities", ok,
            f"violations={violations}/100 worst-margin={worst:.2e} "
            f"t={time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_06_decomposition_identities():
    """Proof-level identities at regime-matched presets, residuals < 1e-5:
    additivity, both 1D reductions vs direct 2D, the rescaled G-sum, and the
    J-split."""
    t0 = time.perf_counter()
    tol = 1e-5
    resids = {}
    for name, lam, sigma in (("supercritical", 1.0, -0.49),
                             ("critical", 1.0, -0.49),
                             ("greenblatt", 1.0, -0.49)):
        params = PRESETS[name]
        X = params.b * sigma + 1.0
        z = zeta_quadrant(params, sigma, CFG)
        tr = region_pieces(params, lam, sigma, CFG)
        resids[f"{name}/additivity"] = abs(z.value - (tr.z1 + tr.z2)) / z.value
        zt1_2d = ztilde1_2d(params, lam, sigma, CFG)
        resids[f"{name}/zt1-reduction"] = abs(tr.ztilde1 - zt1_2d) / tr.ztilde1
        zt2_2d = ztilde2_2d(params, lam, sigma, CFG)
        resids[f"{name}/zt2-two-piece"] = (abs(tr.ztilde2 - zt2_2d)
                                           / max(abs(tr.ztilde2), 1e-300))
    params = PRESETS["supercritical"]
    sigma = -0.49
    X = params.b * sigma + 1.0
    g1, g2, g3 = g_pieces(params, 1.0, sigma, CFG)
    pref = X ** (-1.0 + (1.0 + params.a * sigma) / params.p_float)
    zt1 = ztilde1(params, 1.0, sigma, CFG)
    resids["supercritical/g-sum"] = abs(zt1 - pref * (g1 + g2 + g3)) / zt1
    params = PRESETS["greenblatt"]
    j1, j2 = j_pieces(params, 1.0, sigma, CFG)
    zt1 = ztilde1(params, 1.0, sigma, CFG)
    resids["greenblatt/j-sum"] = abs(zt1 - (j1 + j2)) / zt1
    worst = max(resids.values())
    ok = worst < tol
    _report(6, "decomposition-identities", ok,
            f"worst-residual={worst:.2e} over {len(resids)} identities "
            f"t={time.perf_counter() - t0:.1f}s")
    assert ok, resids


def test_criterion_07_monomial_oracle_grid():
    """Flat-suppressed quadrant integral vs the closed form
    r1^(as+1) r2^(bs+1) / ((as+1)(bs+1)) to 1e-8 over a 20-point grid."""
    t0 = time.perf_counter()
    params = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    worst = 0.0
    for sigma in np.linspace(-0.495, -0.01, 20):
        z = zeta_quadrant(params, float(sigma), CFG)
        cf = monomial_closed_form(1, 2, 1e-4, 0.5, float(sigma))
        worst = max(worst, abs(z.value - cf) / cf)
    ok = worst < 1e-8
    _report(7, "monomial-oracle", ok,
            f"worst-rel={worst:.2e} t={time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_08_property_suites():
    """Auxiliary-function and constants property suites over 200 randomized
    samples."""
    t0 = time.perf_counter()
    rep = verify_psi_and_flat(200, seed=1)
    funcs_ok = rep.passed

    # constants invariants: regime gates fire, L+M is continuous with its
    # minimum below the bracket endpoints, A never reads the box
    gates = 0
    for params, fn in ((PRESETS["critical"], constant_A),
                       (PRESETS["greenblatt"], constant_A),
                       (PRESETS["supercritical"], lambda p, c: constant_L(p, 1.0, c)),
                       (PRESETS["supercritical"], lambda p, c: case3_bounds(p, c))):
        try:
            fn(params, CFG)
        except WrongRegime:
            gates += 1
    gates_ok = gates == 4

    green = PRESETS["greenblatt"]
    b3 = case3_bounds(green, CFG)
    lams = np.logspace(-2, 2, 41)
    lm = [constant_L(green, float(l), CFG) + constant_M(green, float(l), CFG)
          for l in lams]
    cont_ok = max(abs(v2 - v1) for v1, v2 in zip(lm, lm[1:])) < 1.0
    # golden-section localizes lambda to ~1e-5, so the curve may dip below the
    # reported minimum by O(curvature * 1e-10); allow that much slack
    min_ok = all(v >= b3.upper * (1.0 - 1e-6) for v in lm)
    a_box = (constant_A(FamilyParams(0, 2, 2, Fraction(2), r1=0.3, r2=0.9), CFG)
             == constant_A(FamilyParams(0, 2, 2, Fraction(2), r1=0.6, r2=0.2), CFG))

    # fit model reproduces synthetic data of its own form
    from flatzeta.asym import BlowupSequence, ScalingKind
    xs = [2.0 ** (-4 - k) for k in range(10)]
    samples = [ZetaSample(sigma=(x - 1.0) / 2.0, X=x,
                          value=3.0 + 0.1 * x * math.log(x) + 0.2 * x, error=0.0)
               for x in xs]
    seq = scale_sequence(green, samples)
    limit, _ = extract_limit(seq)
    fit_ok = abs(limit - 3.0) < 1e-8

    ok = funcs_ok and gates_ok and cont_ok and min_ok and a_box and fit_ok
    _report(8, "property-suites", ok,
            f"funcs={funcs_ok} gates={gates_ok} L+M-cont={cont_ok} "
            f"bracket-min={min_ok} A-box-free={a_box} fit={fit_ok} "
            f"t={time.perf_counter() - t0:.1f}s")
    assert ok


def _derivative_moments(J):
    """D_j(1/2), j = 0..J, for the monomial x y^2 under the standard bump,
    from one call of the fused moments engine the Landau rebuild uses."""
    if "dj" not in _dj_cache or len(_dj_cache["dj"]) < J + 1:
        params = PRESETS["greenblatt"]
        _dj_cache["dj"] = log_derivative_moments(params, BUMP, 0.5, J, CFG,
                                                 flat=False).tolist()
    return _dj_cache["dj"][: J + 1]


def _rebuild_error(J, s0=0.5, s_target=-0.3):
    djs = _derivative_moments(J)
    h = s_target - s0
    terms = [d * h**j / math.factorial(j) for j, d in enumerate(djs[: J + 1])]
    partial = math.fsum(terms)
    direct = log_derivative_integral(PRESETS["greenblatt"], BUMP, s_target, 0,
                                     CFG, flat=False)
    return abs(partial - direct) / abs(direct), terms


# Exact Taylor data of D_0(s) = 4 I_x(s) I_y(s) around s0 = 0.5, from the
# factorized 1D integrals in tests/oracle_gen3.py (mpmath at 30 and 40 digits;
# the two runs agree to 7e-19 relative).
ORACLE_P40 = 3.7037875734442889411   # sum_{j<=40} D_j(0.5) (-0.8)^j / j!
ORACLE_D0_TARGET = 3.7049353334449061267   # D_0(-0.3)
ORACLE_R40 = 3.09792181865e-4   # (D_0(-0.3) - P40) / D_0(-0.3)


def test_criterion_09a_landau_rebuild_J40():
    """Taylor rebuild at J = 40 against the exact degree-40 Taylor polynomial,
    asserted at 1e-6 relative.

    The rebuild cannot match D_0(-0.3) itself to 1e-6 at J = 40: the terms
    are all positive and decay geometrically with ratio |s_target - s0| /
    radius = 0.8/1.0, and the exact degree-40 partial sum falls short of
    D_0(-0.3) by r40 = 3.098e-4 relative (tests/oracle_gen3.py), whatever
    program computes it; 1e-6 is reached only around J = 67 (criterion 09c).
    So the check is against the independent oracle instead: the engine's
    partial sum must equal the exact polynomial P40, and its distance from
    its own direct D_0(-0.3) must equal the exact remainder r40, each to 1e-6.
    A fault common to the moments and the direct integral (bump amplitude,
    the factor 4, an exponent) cancels in 09b and 09c but not here."""
    t0 = time.perf_counter()
    err, terms = _rebuild_error(40)
    poly_err = abs(math.fsum(terms) - ORACLE_P40) / ORACLE_D0_TARGET
    remainder_gap = abs(err - ORACLE_R40)
    ok = poly_err <= 1e-6 and remainder_gap <= 1e-6
    _report(9, "landau-rebuild-J40-vs-taylor-oracle", ok,
            f"poly-err={poly_err:.2e} err={err:.9e} r40={ORACLE_R40:.9e} "
            f"t={time.perf_counter() - t0:.1f}s")
    assert all(t > 0.0 for t in terms)   # one-signed terms licence the rebuild
    assert poly_err <= 1e-6
    assert remainder_gap <= 1e-6


def test_criterion_09b_derivative_moments_vs_finite_differences():
    """D1 and D2 against central finite differences, 1e-6 / 1e-4 relative."""
    t0 = time.perf_counter()
    params = PRESETS["greenblatt"]
    s0, h = 0.5, 1e-4

    def d0(s):
        return log_derivative_integral(params, BUMP, s, 0, CFG, flat=False)

    d1 = log_derivative_integral(params, BUMP, s0, 1, CFG, flat=False)
    d2 = log_derivative_integral(params, BUMP, s0, 2, CFG, flat=False)
    up, mid, dn = d0(s0 + h), d0(s0), d0(s0 - h)
    fd1 = (up - dn) / (2.0 * h)
    fd2 = (up - 2.0 * mid + dn) / h**2
    rel1 = abs(d1 - fd1) / abs(fd1)
    rel2 = abs(d2 - fd2) / abs(fd2)
    ok = rel1 <= 1e-6 and rel2 <= 1e-4
    _report(9, "landau-derivative-moments", ok,
            f"D1 rel={rel1:.2e} D2 rel={rel2:.2e} t={time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_09c_landau_rebuild_converges_to_1e6():
    """The same rebuild reaches 1e-6 once J covers the geometric tail (J=70),
    and the error decreases monotonically along the way."""
    t0 = time.perf_counter()
    errs = [_rebuild_error(J)[0] for J in (10, 25, 40, 70)]
    ok = errs[0] > errs[1] > errs[2] > errs[3] and errs[3] <= 1e-6
    _report(9, "landau-rebuild-J70", ok,
            f"errors@J=10,25,40,70: {', '.join(f'{e:.2e}' for e in errs)} "
            f"t={time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_10_nonpolar_signature():
    """The fitted local exponent of Z near sigma = -1/b (log Z vs log X over
    the last 4 schedule points) sits within 0.05 of the fractional value
    -(1 - (1-a/b)/p) = -1/2 and is more than 3 fit-sigmas away from every
    integer order, ruling out a pole."""
    t0 = time.perf_counter()
    params = PRESETS["supercritical"]
    kappa = classify_regime(params).blowup_exponent
    samples = [zeta_quadrant(params, s, CFG) for s in SCHEDULE.sigmas[-4:]]
    lx = np.array([math.log(s.X) for s in samples])
    ly = np.array([math.log(s.value) for s in samples])
    A = np.column_stack([np.ones_like(lx), lx])
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = coef[1]
    resid = ly - A @ coef
    s2 = float(np.sum(resid**2)) / (len(lx) - 2)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    sigma_slope = math.sqrt(max(s2, 1e-32) / sxx)
    near = abs(slope - (-kappa)) <= 0.05
    int_dist = min(abs(slope - round(slope)), abs(slope - round(slope + 0.5) + 0.5))
    nonpolar = abs(slope - round(slope)) > 3.0 * sigma_slope
    ok = near and nonpolar
    _report(10, "nonpolar-signature", ok,
            f"slope={slope:.4f} target={-kappa:.4f} sigma={sigma_slope:.2e} "
            f"t={time.perf_counter() - t0:.1f}s")
    assert ok
