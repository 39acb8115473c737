"""Stable evaluation of the auxiliary functions: the flat exponential e(x),
its q-th power E(x), the difference quotient psi_alpha, the inverse-profile
rho, and a smooth compactly supported bump weight."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import FamilyParams

#: Flat cutoff: e(x) = exp(-t), t = 1/(q x^p), is flushed to exact 0 once
#: t > 690, where e(x) < 1e-299.  A few steps further e(x) would leave the
#: normal double range, and a subnormal e carries too few bits for rho's
#: round trip rho(e(x)) = x to stay precise.
_FLAT_CUTOFF = 690.0


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def log_e_flat(params: FamilyParams, x):
    """log e(x) = -1/(q x^p); -inf at x = 0 and where x^p underflows.  No
    cutoff is applied here."""
    arr, scalar = _as_array(x)
    if not np.all(arr >= 0.0):      # NaN fails
        raise DomainError("x must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(arr > 0.0, -1.0 / (params.q * np.power(arr, params.p_float)), -np.inf)
    return float(out) if scalar else out


def e_flat(params: FamilyParams, x):
    """e(x) = exp(-1/(q x^p)) for x > 0, with e(0) = 0.

    Values with 1/(q x^p) > _FLAT_CUTOFF are flushed to exact zero; they
    would be below 1e-299 and only contribute subnormal noise.
    """
    arr, scalar = _as_array(x)
    ln = log_e_flat(params, arr)
    ln = np.asarray(ln, dtype=float)
    out = np.where(ln < -_FLAT_CUTOFF, 0.0, np.exp(np.maximum(ln, -745.0)))
    out = np.where(np.asarray(arr) > 0.0, out, 0.0)
    return float(out) if scalar else out


def E_flat(params: FamilyParams, x):
    """E(x) = exp(-1/x^p) = e(x)^q, with the same cutoff convention."""
    arr, scalar = _as_array(x)
    if not np.all(arr >= 0.0):      # NaN fails
        raise DomainError("x must be nonnegative")
    with np.errstate(divide="ignore"):
        lnE = np.where(arr > 0.0, -1.0 / np.power(arr, params.p_float), -np.inf)
    # same cutoff rule as e_flat, expressed on ln e = lnE / q
    out = np.where(lnE / params.q < -_FLAT_CUTOFF, 0.0, np.exp(np.maximum(lnE, -745.0)))
    out = np.where(arr > 0.0, out, 0.0)
    return float(out) if scalar else out


def psi(alpha: float, x):
    """psi_alpha(x) = (1 - alpha^x)/x, evaluated cancellation-free.

    Uses -expm1(x log alpha)/x; for x below 1e-8 the two-term series
    -log(alpha) - x log(alpha)^2 / 2 is returned directly.
    """
    if not 0.0 < alpha < math.inf:      # NaN fails
        raise DomainError("alpha must be positive and finite")
    arr, scalar = _as_array(x)
    if not np.all(arr > 0.0):           # NaN fails
        raise DomainError("x must be positive")
    la = math.log(alpha)
    small = arr < 1e-8
    out = np.where(small, -la - arr * la * la / 2.0, -np.expm1(arr * la) / arr)
    return float(out) if scalar else out


def rho(params: FamilyParams, y):
    """Inverse profile of e: rho(y) = (-1/(q log y))^(1/p) on [0, e(r1)),
    saturating at r1 for y >= e(r1), with rho(0) = 0.

    Ties y == e(r1) take the saturation branch.
    """
    arr, scalar = _as_array(y)
    if not np.all(arr >= 0.0):      # NaN fails
        raise DomainError("y must be nonnegative")
    e_r1 = e_flat(params, params.r1)
    inv_p = params.p.denominator / params.p.numerator
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.where(arr > 0.0, arr, 1.0))
        inner = np.where(logs < 0.0, -1.0 / (params.q * logs), np.inf)
        branch = np.power(inner, inv_p)
    out = np.where(arr >= e_r1, params.r1, np.where(arr > 0.0, branch, 0.0))
    # e_r1 == 0 (flat term dead on the whole box) saturates everything but y=0
    if e_r1 == 0.0:
        out = np.where(arr > 0.0, params.r1, 0.0)
    return float(out) if scalar else out


@dataclass(frozen=True)
class BumpSpec:
    """Smooth bump supported on (-R1, R1) x (-R2, R2), normalized to 1 at the origin.

    Shape: amplitude * exp(1/((x/R1)^2 - 1)) * exp(1/((y/R2)^2 - 1)) inside the
    support and 0 outside; amplitude = e^2 makes bump(0, 0) = 1.
    """

    R1: float = 0.5
    R2: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.R1 < math.inf and 0.0 < self.R2 < math.inf):   # NaN fails
            raise DomainError("bump half-widths must be positive and finite")

    @property
    def amplitude(self) -> float:
        return math.e**2


def _bump_1d(u):
    """exp(1/(u^2 - 1)) on |u| < 1, 0 outside (one factor of the product bump)."""
    arr = np.asarray(u, dtype=float)
    if np.isnan(arr).any():      # NaN would read as outside the support
        raise DomainError("the bump's argument must not be NaN")
    inside = np.abs(arr) < 1.0
    t = np.where(inside, arr, 0.0)
    with np.errstate(divide="ignore"):
        vals = np.exp(1.0 / (t * t - 1.0))
    return np.where(inside, vals, 0.0)


def bump_eval(spec: BumpSpec, x, y):
    """Evaluate the bump at (x, y); infinitely smooth, 0 outside the support."""
    xa, xs = _as_array(x)
    ya, ys = _as_array(y)
    out = spec.amplitude * _bump_1d(xa / spec.R1) * _bump_1d(ya / spec.R2)
    return float(out) if (xs and ys) else out


def bump_x_profile(spec: BumpSpec, x):
    """The x-factor of the bump with the origin normalization folded in:
    bump_eval(spec, x, 0) == bump_x_profile(x) and the y-factor at 0 is 1."""
    xa, xs = _as_array(x)
    out = spec.amplitude * _bump_1d(xa / spec.R1) * math.exp(-1.0)
    return float(out) if xs else out


def bump_y_profile(spec: BumpSpec, y):
    """The y-factor of the bump, normalized so bump_y_profile(0) == 1."""
    ya, ys = _as_array(y)
    out = _bump_1d(ya / spec.R2) * math.e
    return float(out) if ys else out


def bump_y_increment(spec: BumpSpec, y):
    """bump_y_profile(y) - 1 without cancellation: the normalized profile is
    exp(1 + 1/(u^2 - 1)) = exp(u^2/(u^2 - 1)), u = y/R2, so the increment is
    expm1(u^2/(u^2 - 1)); it behaves like -u^2 near 0 and reaches -1 at |u| = 1."""
    ya, ys = _as_array(y)
    if np.isnan(ya).any():       # NaN would read as outside the support
        raise DomainError("y must not be NaN")
    u2 = (ya / spec.R2) ** 2
    inside = u2 < 1.0
    u2s = np.where(inside, u2, 0.0)
    out = np.where(inside, np.expm1(u2s / (u2s - 1.0)), -1.0)
    return float(out) if ys else out
