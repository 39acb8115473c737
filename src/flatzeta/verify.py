"""Executable verification suites for the blow-up laws, the proof-level
decomposition identities, the auxiliary-function lemmas, and the Landau-type
rebuild of the weighted integral from its derivative moments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, OutsideDisc
from .funcs import BumpSpec, e_flat, psi, rho
from .model import (
    DEFAULT_CONFIG,
    FamilyParams,
    NumericConfig,
    RegimeKind,
    SigmaSchedule,
    classify_regime,
)
from .asym import (
    case3_bounds,
    constant_A,
    constant_L,
    constant_M,
    extract_limit,
    scale_sequence,
)
from .zeta import (
    ZetaSample,
    g_pieces,
    h_pieces,
    j_pieces,
    log_derivative_integral,
    log_derivative_moments,
    region_samples,
    zeta_samples,
    ztilde1_2d,
    ztilde2_2d,
)

Target = Union[float, tuple[float, float]]


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail record for one check.

    For scalar targets, passed == (|observed - target| <= tolerance); for
    interval targets, passed == (observed inside the interval), possibly
    conjoined with monotonicity diagnostics recorded in residual_log.
    """

    check_id: str
    target: Target
    observed: float
    tolerance: float
    passed: bool
    residual_log: tuple = ()


def _scalar_report(check_id, target, observed, rel_tol, residuals):
    tol = rel_tol * abs(target)
    return VerificationReport(
        check_id=check_id, target=target, observed=observed, tolerance=tol,
        passed=abs(observed - target) <= tol, residual_log=tuple(residuals))


# ---------------------------------------------------------------------------
# blow-up laws
# ---------------------------------------------------------------------------

def verify_blowup_law(params: FamilyParams, bump: Optional[BumpSpec],
                      schedule: SigmaSchedule, cfg: NumericConfig = DEFAULT_CONFIG,
                      samples: Optional[Sequence[ZetaSample]] = None) -> VerificationReport:
    """Check the regime-appropriate blow-up law of Z along the schedule:
    power scaling to A, log scaling to 1/(pq), or monotone growth with
    shrinking steps in the bounded regime.

    bump None checks the quadrant integral (thm31): tolerances 2% and 5%,
    and in the bounded regime the last sample must lie in the optimized
    [lower, upper] bracket.  A bump checks the weighted full-plane integral
    (thm21): the targets pick up the quadrant-symmetry factor 4 and the bump
    normalization phi(0,0) = 1, the tolerances are 5% and 7%, and in the
    bounded regime the last step must be below 1% of the last sample.

    samples, when given, are the zeta_samples values along the schedule,
    computed once by a caller that also needs them."""
    name, factor, (tol_power, tol_log) = (
        ("thm31", 1.0, (0.02, 0.05)) if bump is None else ("thm21", 4.0, (0.05, 0.07)))
    kind = classify_regime(params).kind
    if samples is None:
        samples = zeta_samples(params, bump, schedule.xs, cfg, flat=True)
    seq = scale_sequence(params, samples)
    if kind is RegimeKind.SUPERCRITICAL_FLAT:
        limit, unc = extract_limit(seq)
        return _scalar_report(f"{name}_power_law", factor * constant_A(params), limit,
                              tol_power, residuals=(unc,))
    if kind is RegimeKind.CRITICAL_FLAT:
        limit, unc = extract_limit(seq)
        return _scalar_report(f"{name}_log_law", factor / (params.p_float * params.q), limit,
                              tol_log, residuals=(unc,))
    zs = [s.value for s in samples]
    diffs = [zs[i + 1] - zs[i] for i in range(len(zs) - 1)]
    monotone = (all(d > 0.0 for d in diffs)
                and all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1)))
    if bump is None:
        bounds = case3_bounds(params, cfg)
        eps = 1e-4 * bounds.upper
        target, tol = (bounds.lower - eps, bounds.upper + eps), eps
        passed = target[0] <= zs[-1] <= target[1] and monotone
        check_id = "thm31_bounded_bracket"
    else:
        target, tol = (0.0, math.inf), 0.0
        passed = zs[-1] > 0.0 and monotone and diffs[-1] < 1e-2 * abs(zs[-1])
        check_id = "thm21_bounded_limit"
    return VerificationReport(
        check_id=check_id, target=target, observed=zs[-1], tolerance=tol, passed=passed,
        residual_log=tuple(diffs))


# ---------------------------------------------------------------------------
# sandwich inequalities and decomposition identities
# ---------------------------------------------------------------------------

def verify_sandwich(params: FamilyParams, lambdas: Sequence[float],
                    schedule: SigmaSchedule,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> VerificationReport:
    """At every (lambda, X) pair of lambdas x schedule, check the strict
    two-sided envelopes

        (1+lam^q)^s zt1 < Z1 < zt1,   (1+lam^-q)^s zt2 < Z2 < zt2,

    and the assembled bracket for Z itself.  A violation counts only when an
    inequality fails by more than the combined quadrature error.  Z is one
    batched call over the Xs (zeta_samples) and the region pieces one
    over every (lambda, X) pair (region_samples), which rejects an empty
    lambdas before any quadrature; the margins are lambda-major."""
    traces = region_samples(params, lambdas, schedule.xs, cfg)
    zs = zeta_samples(params, None, schedule.xs, cfg, flat=True)
    violations = 0
    margins = []
    q = params.q
    for z, tr in zip(zs * len(lambdas), traces):
        lam = tr.lam
        slack = 10.0 * (z.error + tr.error) + 1e-12 * z.value
        lo1 = (1.0 + lam**q) ** tr.sigma * tr.ztilde1
        lo2 = (1.0 + lam**(-q)) ** tr.sigma * tr.ztilde2
        checks = [
            tr.z1 - lo1, tr.ztilde1 - tr.z1,
            tr.z2 - lo2, tr.ztilde2 - tr.z2,
            z.value - (lo1 + lo2), (tr.ztilde1 + tr.ztilde2) - z.value,
        ]
        worst = min(checks)
        margins.append(worst)
        if worst < -slack:
            violations += 1
    return VerificationReport(
        check_id="sandwich_envelopes", target=0.0, observed=float(violations),
        tolerance=0.0, passed=violations == 0,
        residual_log=tuple(margins))


def verify_decompositions(params: FamilyParams, lam: float, X: float,
                          cfg: NumericConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Relative residuals at (lam, X) of the additivity Z = Z1 + Z2, the 1D
    reductions against direct iterated quadrature, and the regime-matched
    proof splits (G-sum, H-difference, J-sum); all must fall below 1e-5."""
    (z,) = zeta_samples(params, None, [X], cfg, flat=True)
    (tr,) = region_samples(params, [lam], [X], cfg)
    resid = {}
    resid["additivity"] = abs(z.value - (tr.z1 + tr.z2)) / z.value
    zt1_2d = ztilde1_2d(params, lam, X, cfg)
    resid["ztilde1_reduction"] = abs(tr.ztilde1 - zt1_2d) / tr.ztilde1
    zt2_2d = ztilde2_2d(params, lam, X, cfg)
    scale2 = max(abs(tr.ztilde2), 1e-300)
    resid["ztilde2_reduction"] = abs(tr.ztilde2 - zt2_2d) / scale2
    kind = classify_regime(params).kind
    if kind is RegimeKind.SUPERCRITICAL_FLAT:
        g1, g2, g3 = g_pieces(params, lam, X, cfg)
        pref = lam**(-X) * X**(-1.0 + (1.0 + params.a * z.sigma) / params.p_float)
        resid["g_sum"] = abs(tr.ztilde1 - pref * (g1 + g2 + g3)) / tr.ztilde1
    elif kind is RegimeKind.CRITICAL_FLAT:
        _, g2, _ = g_pieces(params, lam, X, cfg)
        h1, h2 = h_pieces(params, lam, X, cfg)
        resid["h_split"] = abs(g2 - (h1 - h2)) / max(abs(g2), 1e-300)
    else:
        j1, j2 = j_pieces(params, lam, X, cfg)
        resid["j_sum"] = abs(tr.ztilde1 - (j1 + j2)) / tr.ztilde1
    worst = max(resid.values())
    return VerificationReport(
        check_id="decomposition_identities", target=0.0, observed=worst,
        tolerance=1e-5, passed=worst <= 1e-5,
        residual_log=tuple(sorted(resid.items())))


# ---------------------------------------------------------------------------
# auxiliary-function property suites
# ---------------------------------------------------------------------------

def verify_psi_and_flat(samples: int, seed: int) -> VerificationReport:
    """Randomized property suite for psi_alpha and the flat exponential:
    the two-sided linear pinch of psi at 0+, decay at infinity, strict
    monotonicity, the second-order envelope of 1 - e(x) for x >= 1, and the
    inverse-profile roundtrip rho(e(x)) = x, over samples >= 1 draws."""
    if not samples >= 1:
        raise DomainError(f"the property suite needs at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    failures = []
    from fractions import Fraction

    for i in range(samples):
        # psi near 0: |psi + log(alpha)| <= C x with C = log(alpha)^2 e^{|log alpha|}
        alpha = math.exp(rng.uniform(-3.0, 3.0))
        x = rng.uniform(1e-12, 1.0)
        la = math.log(alpha)
        if la != 0.0:
            C = la * la * math.exp(abs(la))
            if abs(psi(alpha, x) + la) > C * x * (1.0 + 1e-9) + 1e-15:
                failures.append(("psi_pinch", alpha, x))
        # decay at infinity, away from alpha = 1 where -log(alpha) degenerates
        alpha2 = rng.uniform(0.02, 0.9)
        if not psi(alpha2, 1e6) < 1e-5 * (-math.log(alpha2)):
            failures.append(("psi_decay", alpha2))
        # strict decrease and 0 < psi < -log(alpha) for alpha in (0,1)
        alpha3 = rng.uniform(0.02, 0.98)
        grid = np.sort(rng.uniform(1e-6, 50.0, size=8))
        vals = psi(alpha3, grid)
        if not (np.all(np.diff(vals) < 0.0)
                and np.all(vals > 0.0) and np.all(vals < -math.log(alpha3))):
            failures.append(("psi_monotone", alpha3))
        # flat second-order envelope for x >= 1
        b = int(rng.integers(2, 6))
        a = int(rng.integers(0, b))
        q = int(rng.integers(1, b + 1))
        num = int(rng.integers(1, 9))
        den = int(rng.integers(1, 9))
        params = FamilyParams(a=a, b=b, q=q, p=Fraction(num, den))
        x1 = rng.uniform(1.0, 50.0)
        t = x1 ** (-params.p_float) / q
        lhs = abs(-math.expm1(-t) - t)
        # 4 eps t covers the rounding of the subtraction when t^2/2 ~ ulp(t)
        if lhs > t * t / 2.0 * (1.0 + 1e-12) + 4e-16 * t:
            failures.append(("flat_envelope", (a, b, q, num, den), x1))
        # rho is the inverse of e on the live branch
        xr = rng.uniform(0.05, params.r1)
        ev = e_flat(params, xr)
        if ev > 0.0:
            back = rho(params, ev)
            if ev < e_flat(params, params.r1) and abs(back - xr) > 1e-10 * xr:
                failures.append(("rho_roundtrip", (a, b, q, num, den), xr, back))
    return VerificationReport(
        check_id="psi_and_flat_properties", target=0.0,
        observed=float(len(failures)), tolerance=0.0, passed=not failures,
        residual_log=tuple(failures[:10]))


def verify_LM_limits(params: FamilyParams,
                     cfg: NumericConfig = DEFAULT_CONFIG) -> VerificationReport:
    """L and M on both sides of the saturation point lam_sat = e(r1)/r2, at
    lam = lo 1e-6, lo 1e-3, 1, hi 1e3 and hi 1e6 (lo = min(lam_sat, 1),
    hi = max(lam_sat, 1)), checked against the family's exact laws in lam.

    Above lam_sat rho(lam r2) = r1, so M lam^(q/b) and
    L - r1^(1-a/b)/(1-a/b) log lam are constant.  Below it
    log(lam r2) = -1/(q rho^p) makes L proportional to rho^(1-a/b-p), so
    L (q log(1/(lam r2)))^g is constant, g = (1-a/b)/p - 1.  Each constant
    must hold to 1e-12 relative over its points.  L rises and M falls with
    lam, both stay positive, and the weighted forms L (1+lam^q)^(-1/b) and
    M (1+lam^-q)^(-1/b), which vanish at both ends, rise then fall."""
    a, b, q = params.a, params.b, params.q
    e_r1 = e_flat(params, params.r1)
    lo, hi = min(e_r1 / params.r2, 1.0), max(e_r1 / params.r2, 1.0)
    lams = (lo * 1e-6, lo * 1e-3, 1.0, hi * 1e3, hi * 1e6)
    L = [constant_L(params, lam) for lam in lams]
    M = [constant_M(params, lam, cfg) for lam in lams]
    up = [i for i, lam in enumerate(lams) if lam * params.r2 >= e_r1]     # rho's test
    down = [i for i in range(len(lams)) if i not in up]
    c, g = params.r1**(1.0 - a / b) / (1.0 - a / b), (1.0 - a / b) / params.p_float - 1.0
    m_up = [M[i] * lams[i]**(q / b) for i in up]
    l_up = [L[i] - c * math.log(lams[i]) for i in up]
    l_down = [L[i] * (q * math.log(1.0 / (lams[i] * params.r2)))**g for i in down]

    def constant(values, scale):
        return max(values) - min(values) <= 1e-12 * scale

    def rise_fall(w):
        k = w.index(max(w))
        return (0 < k < len(w) - 1 and all(u < v for u, v in zip(w[:k], w[1:k + 1]))
                and all(u > v for u, v in zip(w[k:], w[k + 1:])))

    checks = {
        "M_power_above_saturation": constant(m_up, max(m_up)),
        # L - c log lambda may sit near 0: its rounding scales with L
        "L_log_above_saturation": constant(l_up, max(L[i] for i in up)),
        "L_power_of_log_below_saturation": constant(l_down, max(l_down)),
        "L_rises": all(u < v for u, v in zip(L, L[1:])),
        "M_falls": all(u > v for u, v in zip(M, M[1:])),
        "wL_rise_fall": rise_fall([v / (1.0 + lam**q)**(1.0 / b) for v, lam in zip(L, lams)]),
        "wM_rise_fall": rise_fall([v / (1.0 + lam**-q)**(1.0 / b) for v, lam in zip(M, lams)]),
        "all_positive": all(v > 0.0 for v in L + M),
    }
    failed = [k for k, ok in checks.items() if not ok]
    return VerificationReport(
        check_id="LM_lambda_limits", target=0.0, observed=float(len(failed)),
        tolerance=0.0, passed=not failed, residual_log=tuple(failed))


# ---------------------------------------------------------------------------
# Landau-type rebuild
# ---------------------------------------------------------------------------

def landau_taylor_rebuild(params: FamilyParams, bump: BumpSpec, s0: float,
                          s_target: float, J: int,
                          cfg: NumericConfig = DEFAULT_CONFIG, *,
                          flat: bool) -> VerificationReport:
    """Rebuild the weighted integral at s_target from its derivative moments
    at s0, all computed in one log_derivative_moments pass, and compare with
    a direct D_0(s_target) (log_derivative_integral):

        sum_{j<=J} D_j(s0) (s_target - s0)^j / j!  vs  D_0(s_target).

    Requires |s_target - s0| < s0 + c0 (inside the convergence disc around
    s0, whose radius is the distance to the divergence abscissa -c0).  As
    D_j has sign (-1)^j, term j has sign sign(s0 - s_target)^j: the terms
    share one sign below s0 and alternate above it, which is also asserted
    for every nonzero term.  The tolerance is the certified geometric tail
    bound on the term magnitudes, computed from the last observed term
    ratio, so a rebuild away from s0 needs J >= 1; at s_target = s0 every
    term past D_0 vanishes and so does the tail."""
    c0 = 1.0 / params.b
    if not (s0 > -c0 and s_target > -c0):      # NaN fails
        raise OutsideDisc(f"expansion needs both points above -c0 = {-c0}")
    radius = s0 + c0
    if abs(s_target - s0) >= radius:
        raise OutsideDisc(
            f"|s_target - s0| = {abs(s_target - s0):g} >= disc radius {radius:g}")
    h = s_target - s0
    if J == 0 and h != 0.0:
        raise DomainError("a rebuild away from s0 needs J >= 1 for an observed term ratio")
    terms = []
    fact = 1.0
    for j, d_j in enumerate(log_derivative_moments(params, bump, s0, J, cfg, flat=flat)):
        if j > 0:
            fact *= j
        terms.append(float(d_j) * h**j / fact)
    partial = math.fsum(terms)
    direct = log_derivative_integral(params, bump, s_target, 0, cfg, flat=flat)
    # zero terms (past D_0 at h = 0, or where h^j underflowed) carry no sign
    signed = all(t == 0.0 or (t > 0.0) == (h < 0.0 or j % 2 == 0)
                 for j, t in enumerate(terms))
    err = abs(partial - direct) / abs(direct)
    if h != 0.0 and terms[-2] != 0.0:
        ratio = min(abs(terms[-1] / terms[-2]), 0.999)
        tail = abs(terms[-1]) * ratio / (1.0 - ratio)
    else:       # every term past D_0 vanishes, or h^j underflowed
        tail = 0.0
    rel_tol = max(2.0 * tail / abs(direct), 10.0 * cfg.tol_2d)
    return VerificationReport(
        check_id="landau_taylor_rebuild", target=0.0, observed=err,
        tolerance=rel_tol, passed=err <= rel_tol and signed,
        residual_log=tuple(abs(t) for t in terms[-4:]))
