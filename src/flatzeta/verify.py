"""Executable verification suites for the blow-up laws, the proof-level
decomposition identities, the auxiliary-function lemmas, and the Landau-type
rebuild of the weighted integral from its derivative moments."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import OutsideDisc
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
    g_pieces,
    h_pieces,
    j_pieces,
    log_derivative_integral,
    log_derivative_moments,
    region_pieces,
    zeta_quadrant,
    zeta_weighted,
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
    runtime_seconds: float = 0.0

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.check_id}: observed={self.observed:.8g} "
                f"target={self.target} tol={self.tolerance:.3g} "
                f"({self.runtime_seconds:.1f}s)")


def _scalar_report(check_id, target, observed, rel_tol, residuals=(), t0=0.0):
    tol = rel_tol * abs(target)
    return VerificationReport(
        check_id=check_id, target=target, observed=observed, tolerance=tol,
        passed=abs(observed - target) <= tol, residual_log=tuple(residuals),
        runtime_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# blow-up laws
# ---------------------------------------------------------------------------

def _quadrant_samples(params, schedule, cfg, weighted_bump=None):
    if weighted_bump is None:
        return [zeta_quadrant(params, s, cfg) for s in schedule.sigmas]
    return [zeta_weighted(params, weighted_bump, s, cfg) for s in schedule.sigmas]


def verify_theorem31(params: FamilyParams, schedule: SigmaSchedule,
                     cfg: NumericConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Check the regime-appropriate blow-up law of the quadrant integral:
    power scaling to A (2%), log scaling to 1/(pq) (5%), or in the bounded
    regime monotone growth into the optimized [lower, upper] bracket."""
    t0 = time.perf_counter()
    regime = classify_regime(params)
    samples = _quadrant_samples(params, schedule, cfg)
    seq = scale_sequence(params, samples)
    if regime.kind is RegimeKind.SUPERCRITICAL_FLAT:
        limit, unc = extract_limit(seq)
        return _scalar_report("thm31_power_law", constant_A(params, cfg), limit,
                              0.02, residuals=(unc,), t0=t0)
    if regime.kind is RegimeKind.CRITICAL_FLAT:
        limit, unc = extract_limit(seq)
        target = 1.0 / (params.p_float * params.q)
        return _scalar_report("thm31_log_law", target, limit, 0.05,
                              residuals=(unc,), t0=t0)
    bounds = case3_bounds(params, cfg)
    zs = [s.value for s in samples]
    diffs = [zs[i + 1] - zs[i] for i in range(len(zs) - 1)]
    increasing = all(d > 0.0 for d in diffs)
    shrinking = all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
    eps = 1e-4 * bounds.upper
    lo, hi = bounds.lower - eps, bounds.upper + eps
    inside = lo <= zs[-1] <= hi
    return VerificationReport(
        check_id="thm31_bounded_bracket", target=(lo, hi), observed=zs[-1],
        tolerance=eps, passed=inside and increasing and shrinking,
        residual_log=tuple(diffs), runtime_seconds=time.perf_counter() - t0)


def verify_theorem21(params: FamilyParams, bump: BumpSpec, schedule: SigmaSchedule,
                     cfg: NumericConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Same pipeline on the bump-weighted full-plane integral; the targets pick
    up the quadrant-symmetry factor 4 and the bump normalization phi(0,0)=1."""
    t0 = time.perf_counter()
    regime = classify_regime(params)
    samples = _quadrant_samples(params, schedule, cfg, weighted_bump=bump)
    seq = scale_sequence(params, samples)
    if regime.kind is RegimeKind.SUPERCRITICAL_FLAT:
        limit, unc = extract_limit(seq)
        return _scalar_report("thm21_power_law", 4.0 * constant_A(params, cfg),
                              limit, 0.05, residuals=(unc,), t0=t0)
    if regime.kind is RegimeKind.CRITICAL_FLAT:
        limit, unc = extract_limit(seq)
        target = 4.0 / (params.p_float * params.q)
        return _scalar_report("thm21_log_law", target, limit, 0.07,
                              residuals=(unc,), t0=t0)
    zs = [s.value for s in samples]
    diffs = [zs[i + 1] - zs[i] for i in range(len(zs) - 1)]
    increasing = all(d > 0.0 for d in diffs)
    shrinking = all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
    cauchy = diffs[-1] < 1e-2 * abs(zs[-1])
    return VerificationReport(
        check_id="thm21_bounded_limit", target=(0.0, math.inf), observed=zs[-1],
        tolerance=0.0, passed=zs[-1] > 0.0 and increasing and shrinking and cauchy,
        residual_log=tuple(diffs), runtime_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# sandwich inequalities and decomposition identities
# ---------------------------------------------------------------------------

def verify_sandwich(params: FamilyParams, lambdas: Sequence[float],
                    schedule: SigmaSchedule,
                    cfg: NumericConfig = DEFAULT_CONFIG) -> VerificationReport:
    """At every (lambda, sigma) sample, check the strict two-sided envelopes

        (1+lam^q)^s zt1 < Z1 < zt1,   (1+lam^-q)^s zt2 < Z2 < zt2,

    and the assembled bracket for Z itself.  A violation counts only when an
    inequality fails by more than the combined quadrature error."""
    t0 = time.perf_counter()
    violations = 0
    margins = []
    q = params.q
    for lam in lambdas:
        for sigma in schedule.sigmas:
            z = zeta_quadrant(params, sigma, cfg)
            tr = region_pieces(params, lam, sigma, cfg)
            slack = 10.0 * (z.error + tr.error) + 1e-12 * z.value
            lo1 = (1.0 + lam**q) ** sigma * tr.ztilde1
            lo2 = (1.0 + lam**(-q)) ** sigma * tr.ztilde2
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
        residual_log=tuple(margins), runtime_seconds=time.perf_counter() - t0)


def verify_decompositions(params: FamilyParams, lam: float, sigma: float,
                          cfg: NumericConfig = DEFAULT_CONFIG,
                          rel_tol: float = 1e-5) -> VerificationReport:
    """Relative residuals of the additivity Z = Z1 + Z2, the 1D reductions
    against direct iterated quadrature, and the regime-matched proof splits
    (G-sum, H-difference, J-sum); all must fall below rel_tol."""
    t0 = time.perf_counter()
    X = params.b * sigma + 1.0
    z = zeta_quadrant(params, sigma, cfg)
    tr = region_pieces(params, lam, sigma, cfg)
    resid = {}
    resid["additivity"] = abs(z.value - (tr.z1 + tr.z2)) / z.value
    zt1_2d = ztilde1_2d(params, lam, sigma, cfg)
    resid["ztilde1_reduction"] = abs(tr.ztilde1 - zt1_2d) / tr.ztilde1
    zt2_2d = ztilde2_2d(params, lam, sigma, cfg)
    scale2 = max(abs(tr.ztilde2), 1e-300)
    resid["ztilde2_reduction"] = abs(tr.ztilde2 - zt2_2d) / scale2
    kind = classify_regime(params).kind
    if kind is RegimeKind.SUPERCRITICAL_FLAT:
        g1, g2, g3 = g_pieces(params, lam, sigma, cfg)
        pref = lam**(-X) * X**(-1.0 + (1.0 + params.a * sigma) / params.p_float)
        resid["g_sum"] = abs(tr.ztilde1 - pref * (g1 + g2 + g3)) / tr.ztilde1
    elif kind is RegimeKind.CRITICAL_FLAT:
        _, g2, _ = g_pieces(params, lam, sigma, cfg)
        h1, h2 = h_pieces(params, lam, sigma, cfg)
        resid["h_split"] = abs(g2 - (h1 - h2)) / max(abs(g2), 1e-300)
    else:
        j1, j2 = j_pieces(params, lam, sigma, cfg)
        resid["j_sum"] = abs(tr.ztilde1 - (j1 + j2)) / tr.ztilde1
    worst = max(resid.values())
    return VerificationReport(
        check_id="decomposition_identities", target=0.0, observed=worst,
        tolerance=rel_tol, passed=worst <= rel_tol,
        residual_log=tuple(sorted(resid.items())),
        runtime_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# auxiliary-function property suites
# ---------------------------------------------------------------------------

def verify_psi_and_flat(samples: int = 200, seed: int = 0) -> VerificationReport:
    """Randomized property suite for psi_alpha and the flat exponential:
    the two-sided linear pinch of psi at 0+, decay at infinity, strict
    monotonicity, the second-order envelope of 1 - e(x) for x >= 1, and the
    inverse-profile roundtrip rho(e(x)) = x."""
    t0 = time.perf_counter()
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
        residual_log=tuple(failures[:10]), runtime_seconds=time.perf_counter() - t0)


def verify_LM_limits(params: FamilyParams,
                     cfg: NumericConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Trend checks for L and M at extreme lambda.

    M decays like a power of lambda at infinity and diverges like a power at
    zero, so factor-100 checks apply; L only decays/grows logarithmically
    (like 1/|log lambda| and log lambda), so it gets monotone-trend checks
    with factor-2 decay and factor-10 growth.  The four weighted forms all
    vanish at their respective ends."""
    t0 = time.perf_counter()
    q, b = params.q, params.b
    lam_lo, lam_mid_lo, lam_mid_hi, lam_hi = 1e-6, 1e-3, 1e3, 1e6
    L = {lam: constant_L(params, lam, cfg) for lam in (lam_lo, lam_mid_lo, 1.0, lam_mid_hi, lam_hi)}
    M = {lam: constant_M(params, lam, cfg) for lam in (lam_lo, lam_mid_lo, 1.0, lam_mid_hi, lam_hi)}

    def wL(lam):
        return L[lam] / (1.0 + lam**q) ** (1.0 / b)

    def wM(lam):
        return M[lam] / (1.0 + lam**(-q)) ** (1.0 / b)

    checks = {
        "L_to_zero_trend": L[lam_lo] < L[lam_mid_lo] < L[1.0],
        "L_to_zero_factor": L[lam_lo] <= 0.5 * L[1.0],
        "L_to_inf_trend": L[lam_hi] > L[lam_mid_hi] > L[1.0],
        "L_to_inf_factor": L[lam_hi] >= 10.0 * L[1.0],
        "M_to_inf_zero": M[lam_hi] <= 1e-2 * M[1.0],
        "M_to_zero_inf": M[lam_lo] >= 1e2 * M[1.0],
        "wL_zero_at_inf": wL(lam_hi) <= 1e-2 * wL(1.0),
        "wL_zero_at_zero": wL(lam_lo) <= 0.5 * wL(1.0),
        "wM_zero_at_inf": wM(lam_hi) <= 1e-2 * wM(1.0),
        "wM_zero_at_zero": wM(lam_lo) <= 1e-2 * wM(1.0),
        "all_positive": all(v > 0.0 for v in list(L.values()) + list(M.values())),
    }
    failed = [k for k, ok in checks.items() if not ok]
    return VerificationReport(
        check_id="LM_lambda_limits", target=0.0, observed=float(len(failed)),
        tolerance=0.0, passed=not failed, residual_log=tuple(failed),
        runtime_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Landau-type rebuild
# ---------------------------------------------------------------------------

def landau_taylor_rebuild(params: FamilyParams, bump: BumpSpec, s0: float,
                          s_target: float, J: int,
                          cfg: NumericConfig = DEFAULT_CONFIG, *,
                          rel_tol: Optional[float] = None,
                          flat: bool = False) -> VerificationReport:
    """Rebuild the weighted integral at s_target from its derivative moments
    at s0, all computed in one log_derivative_moments pass, and compare with
    direct quadrature on the weighted engine:

        sum_{j<=J} D_j(s0) (s_target - s0)^j / j!  vs  D_0(s_target).

    Requires |s_target - s0| < s0 + c0 (inside the convergence disc around
    s0, whose radius is the distance to the divergence abscissa -c0).  All
    Taylor terms share one sign, which is also asserted.  When rel_tol is
    None the tolerance is the certified geometric tail bound computed from
    the last observed term ratio."""
    t0 = time.perf_counter()
    c0 = 1.0 / params.b
    if s0 <= -c0 or s_target <= -c0:
        raise OutsideDisc(f"expansion needs both points above -c0 = {-c0}")
    radius = s0 + c0
    if abs(s_target - s0) >= radius:
        raise OutsideDisc(
            f"|s_target - s0| = {abs(s_target - s0):g} >= disc radius {radius:g}")
    h = s_target - s0
    terms = []
    fact = 1.0
    for j, d_j in enumerate(log_derivative_moments(params, bump, s0, J, cfg, flat=flat)):
        if j > 0:
            fact *= j
        terms.append(float(d_j) * h**j / fact)
    partial = math.fsum(terms)
    direct = log_derivative_integral(params, bump, s_target, 0, cfg, flat=flat)
    one_signed = all(t > 0.0 for t in terms) or all(t < 0.0 for t in terms)
    err = abs(partial - direct) / abs(direct)
    if rel_tol is None:
        ratio = abs(terms[-1] / terms[-2]) if len(terms) > 1 and terms[-2] != 0.0 else 0.5
        ratio = min(ratio, 0.999)
        tail = abs(terms[-1]) * ratio / (1.0 - ratio)
        rel_tol = max(2.0 * tail / abs(direct), 10.0 * cfg.tol_2d)
    return VerificationReport(
        check_id="landau_taylor_rebuild", target=0.0, observed=err,
        tolerance=rel_tol, passed=err <= rel_tol and one_signed,
        residual_log=tuple(abs(t) for t in terms[-4:]),
        runtime_seconds=time.perf_counter() - t0)
