"""Asymptotic constants and blow-up limit extraction.

The three laws of Z(sigma) as sigma -> -1/b are calibrated by:

    A        = int_0^inf x^(-a/b) (1 - e^(-1/(q x^p))) dx    (power regime)
    1/(p q)                                                   (log regime)
    L(lambda), M(lambda) and their optimized combinations     (bounded regime)

A is evaluated from its Gamma-function closed form and L in closed form;
M adds one 1D quadrature on (rho(lambda r2), r1). The bounded bracket needs
no search: it is L(1) + M(1) above and, below, sits at the root of its
stationarity condition M = lambda^(q(b-1)/b) L.

Limits are pulled out of a sigma-schedule by a least-squares fit whose basis
follows the proof-level corrections: lambda^-X and X^(c X) factors expand to
1 + O(X log X), the rescaled remainder carries an X^kappa term in the power
regime, and the log regime picks up a 1/|log X| correction from the constant
term riding on the (p q)^-1 log X growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateLowerLimit,
    DomainError,
    IllConditionedFit,
    NonConvergence,
    WrongRegime,
)
from .funcs import log_e_flat, rho
from .model import (
    DEFAULT_CONFIG,
    FamilyParams,
    NumericConfig,
    Regime,
    RegimeKind,
    SigmaSchedule,
    classify_regime,
)
from .quad import integrate_1d
from .zeta import ZetaSample


@dataclass(frozen=True)
class BlowupSequence:
    """Samples S_k along a schedule, scaled by the law of their regime and
    ready for extrapolation."""

    schedule: SigmaSchedule
    scaled_values: tuple[float, ...]
    regime: Regime

    def __post_init__(self):
        if len(self.scaled_values) != len(self.schedule):
            raise DomainError("scaled values and schedule lengths differ")
        if any(s <= 0.0 for s in self.scaled_values):
            raise DomainError("scaled values must be positive")


@dataclass(frozen=True)
class Case3Bounds:
    """Optimized two-sided bracket for the bounded-regime limit of Z."""

    lower: float
    upper: float
    lambda_lower: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise DomainError(f"bracket out of order: {self.lower} > {self.upper}")
        if self.lower <= 0.0:
            raise DomainError("bracket must be positive")


def constant_A(params: FamilyParams) -> float:
    """A = int_0^inf x^(-a/b) (1 - e(x)) dx, finite exactly when p > 1 - a/b.

    The substitution t = 1/(q x^p) gives the closed form
    A = c^beta Gamma(1 - beta) / (p beta), c = 1/q, beta = (1 - a/b)/p.
    """
    regime = classify_regime(params)
    if regime.kind is not RegimeKind.SUPERCRITICAL_FLAT:
        raise WrongRegime(f"A diverges in regime {regime.kind.value}")
    beta = (1.0 - params.a / params.b) / params.p_float
    c = 1.0 / params.q
    return c**beta * math.gamma(1.0 - beta) / (params.p_float * beta)


def constant_L(params: FamilyParams, lam: float) -> float:
    """Limit of the monomial-side auxiliary integral in the bounded regime:

        L = rho(lam r2)^(1-a/b)/(1-a/b) * log(lam r2)
            + rho(lam r2)^(1-a/b-p) / (q (1-a/b-p))
    """
    if classify_regime(params).kind is not RegimeKind.SUBCRITICAL_FLAT:
        raise WrongRegime("L(lambda) exists only in the bounded regime")
    if not 0.0 < lam < math.inf:
        raise DomainError("lambda must be positive and finite")
    ab = params.a / params.b
    pf = params.p_float
    rt2 = lam * params.r2
    rho_v = rho(params, rt2)
    return (rho_v**(1.0 - ab) / (1.0 - ab) * math.log(rt2)
            + rho_v**(1.0 - ab - pf) / (params.q * (1.0 - ab - pf)))


def constant_M(params: FamilyParams, lam: float,
               cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Limit of the flat-side auxiliary integral:

        M = b^2/(q(b-a)) lam^(-q/b) rho(lam r2)^(1-a/b)
            + (b/q) r2^(q/b) int_rho^r1 x^(-a/b) exp(1/(b x^p)) dx

    The integrand grows toward the lower limit but rho(lam r2) > 0 keeps it
    finite; DegenerateLowerLimit is raised if rho underflows to 0.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError("lambda must be positive and finite")
    a, b, q = params.a, params.b, params.q
    ab = a / b
    rt2 = lam * params.r2
    rho_v = rho(params, rt2)
    if rho_v == 0.0:
        raise DegenerateLowerLimit(f"rho({rt2:g}) underflowed to 0")
    first = b * b / (q * (b - a)) * lam**(-q / b) * rho_v**(1.0 - ab)
    second = 0.0
    if rho_v < params.r1:
        def f(xs):
            ln_es = log_e_flat(params, xs)
            with np.errstate(divide="ignore"):
                return np.exp(-ab * np.log(xs) - (q / b) * ln_es)

        r = integrate_1d(f, rho_v, params.r1, tol=cfg.tol_1d)
        second = b / q * params.r2**(q / b) * r.value
    return first + second


def case3_bounds(params: FamilyParams, cfg: NumericConfig = DEFAULT_CONFIG) -> Case3Bounds:
    """Bounded-regime bracket:

        lower = max_lambda  F = L w1 + M w2
        upper = min_lambda  L + M  =  L(1) + M(1)

    with w1 = (1+lam^q)^(-1/b) = lam^(-q/b) w2. With u = rho(lam r2),
    log(lam r2) = -1/(q u^p) cancels every rho' term, so
    lam dL/dlam = D = b u^(1-a/b)/(b-a) = -lam^(q/b) lam dM/dlam (also where
    rho saturates at r1, as rho' = 0 there): L + M is least at lam = 1, and
    the L' and M' terms of F' cancel, leaving
    F' = q w2 (M - lam^c L) / (b lam (1+lam^q)), c = q(b-1)/b. With
    t = log lam, g(t) = log M - log L - c t strictly decreases (L > 0,
    L' > 0, M' < 0), so its one root is the global maximizer, where
    F = L (1+lam^q)^((b-1)/b). Newton's method on g from t = 0 finds it,
    one M per step, bisecting the bracket of its iterates where it stalls.
    """
    if classify_regime(params).kind is not RegimeKind.SUBCRITICAL_FLAT:
        raise WrongRegime("case-3 bounds exist only in the bounded regime")
    a, b, q = params.a, params.b, params.q
    c = q * (b - 1) / b
    L, M = constant_L(params, 1.0), constant_M(params, 1.0, cfg)
    upper = L + M

    t, lo, hi, last = 0.0, -math.inf, math.inf, math.inf
    for _ in range(50):
        lam = math.exp(t)
        if not (0.0 < L < math.inf and 0.0 < M < math.inf):     # NaN fails
            raise NonConvergence(f"case-3 lower end: L = {L}, M = {M} at lambda = {lam:g}")
        g = math.log(M) - math.log(L) - c * t
        lo, hi = (t, hi) if g > 0.0 else (lo, t)
        d = b * rho(params, lam * params.r2)**(1.0 - a / b) / (b - a)
        step = g / (d * (lam**(-q / b) / M + 1.0 / L) + c)
        # [lo, hi] brackets the root; bisect where Newton leaves it or does not
        # halve its step, as it can cycle across the kink where rho saturates
        if hi - lo < math.inf and not (lo <= t + step <= hi and abs(step) <= 0.5 * abs(last)):
            step = 0.5 * (lo + hi) - t
        t += step
        last = step
        if abs(step) <= 1e-10:
            break
        L, M = constant_L(params, math.exp(t)), constant_M(params, math.exp(t), cfg)
    else:
        raise NonConvergence("case-3 lower end: Newton did not settle in 50 steps")
    lam = math.exp(t)
    lower = constant_L(params, lam) * (1.0 + lam**q)**((b - 1) / b)
    return Case3Bounds(lower=lower, upper=upper, lambda_lower=lam)


def scale_sequence(params: FamilyParams, samples: Sequence[ZetaSample]) -> BlowupSequence:
    """Apply the regime scaling to Z samples:

        power regime:  S_k = X_k^kappa Z_k,  kappa = 1 - (1-a/b)/p
        log regime:    S_k = Z_k / |log X_k|
        bounded:       S_k = Z_k
    """
    regime = classify_regime(params)
    schedule = SigmaSchedule(tuple(s.X for s in samples), params.b)
    if regime.kind is RegimeKind.SUPERCRITICAL_FLAT:
        kappa = regime.blowup_exponent
        scaled = tuple(s.X**kappa * s.value for s in samples)
    elif regime.kind is RegimeKind.CRITICAL_FLAT:
        scaled = tuple(s.value / abs(math.log(s.X)) for s in samples)
    else:
        scaled = tuple(s.value for s in samples)
    return BlowupSequence(schedule, scaled, regime)


def _fit_basis(seq: BlowupSequence, xs: np.ndarray) -> np.ndarray:
    cols = [np.ones_like(xs)]
    if seq.regime.kind is RegimeKind.SUPERCRITICAL_FLAT:
        cols.append(xs**seq.regime.blowup_exponent)
    if seq.regime.kind is RegimeKind.CRITICAL_FLAT:
        cols.append(1.0 / np.abs(np.log(xs)))
    cols.append(xs * np.log(xs))
    cols.append(xs)
    return np.column_stack(cols)


def extract_limit(seq: BlowupSequence) -> tuple[float, float]:
    """Least-squares limit of S(X) as X -> 0, with an uncertainty estimate.

    Model: S = S_inf + c1 X log X + c2 X, plus X^kappa (power regime) or
    1/|log X| (log regime) correction columns.  Fits the smallest-X points,
    all but the 4 largest and at least 6; the reported uncertainty combines
    the rms residual with the shift under dropping the largest fitted X.  A
    fit with no more points than basis columns interpolates, its residual
    says nothing, and its uncertainty is inf.
    """
    xs_all = np.asarray(seq.schedule.xs, dtype=float)
    ss_all = np.asarray(seq.scaled_values, dtype=float)
    n = len(xs_all)
    n_fit = max(6, n - 4) if n > 6 else n
    order = np.argsort(xs_all)          # ascending: smallest X first
    xs = xs_all[order][:n_fit]
    ss = ss_all[order][:n_fit]

    def solve(x, s):
        A = _fit_basis(seq, x)
        if np.linalg.cond(A) > 1e12:
            raise IllConditionedFit(f"design matrix condition {np.linalg.cond(A):.2e}")
        coef, *_ = np.linalg.lstsq(A, s, rcond=None)
        resid = s - A @ coef
        return coef[0], float(np.sqrt(np.mean(resid**2)))

    limit, rms = solve(xs, ss)
    if n_fit <= _fit_basis(seq, xs).shape[1]:
        return float(limit), math.inf
    limit_drop, _ = solve(xs[:-1], ss[:-1])
    return float(limit), float(rms + abs(limit - limit_drop))
