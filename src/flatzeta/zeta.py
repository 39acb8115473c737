"""Evaluators for every integral object of the family.

The quadrant integral

    Z(sigma) = int_0^r1 int_0^r2  x^(a s) y^((b-q) s) (y^q + E(x))^s  dy dx,
    E(x) = exp(-1/x^p),   s = sigma in (-1/b, 0),

is dominated near sigma = -1/b by y-mass that sits far below double
precision, so the inner integral is never attacked head on.  Substituting
y = e(x) v against the crossover scale e(x) = E(x)^(1/q) gives

    inner(x) = Y^X (1 - (e(x)/Y)^X) / X  +  e(x)^X (C1 + C2(S)),
    X = b sigma + 1,   S = Y / e(x),

with C1 = int_0^1 v^((b-q)s) (1+v^q)^s dv and C2 the convergent tail
correction int_1^S v^(X-1) [(1+v^-q)^s - 1] dv; everything is assembled from
logs and expm1 so the evaluation stays exact down to X ~ 1e-5 and across
e(x) values far below the underflow threshold.

Region pieces, the auxiliary reductions ztilde1/ztilde2 and the proof-level
G/H/J parts are computed by independent quadratures in scaled variables so
that the identity checks compare genuinely distinct computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateLowerLimit,
    DomainError,
    OddQNotSupported,
    OutOfWindow,
    PoleHit,
)
from .funcs import BumpSpec, E_flat, bump_x_profile, bump_y_increment, bump_y_profile, rho
from .model import DEFAULT_CONFIG, FamilyParams, NumericConfig, RegimeKind, classify_regime
from .quad import EndpointSpec, _tanh_sinh


@dataclass(frozen=True)
class ZetaSample:
    """One evaluation of Z at a sigma in the convergence window."""

    sigma: float
    X: float
    value: float
    error: float


@dataclass(frozen=True)
class DecompositionTrace:
    """Region pieces and auxiliary integrals at one (lambda, sigma)."""

    lam: float
    sigma: float
    z1: float
    z2: float
    ztilde1: float
    ztilde2: float
    error: float
    g1: Optional[float] = None
    g2: Optional[float] = None
    g3: Optional[float] = None
    h1: Optional[float] = None
    h2: Optional[float] = None
    j1: Optional[float] = None
    j2: Optional[float] = None


# ---------------------------------------------------------------------------
# window / shared scalars
# ---------------------------------------------------------------------------

def _check_window(params: FamilyParams, sigma: float) -> float:
    lo, hi = params.sigma_window()
    if not lo < sigma < hi:
        raise OutOfWindow(f"sigma={sigma} outside ({lo}, {hi})")
    return params.b * sigma + 1.0


def _ln_e_arr(params: FamilyParams, xs: np.ndarray) -> np.ndarray:
    """log e(x) = -1/(q x^p) elementwise, -inf where x^p underflows."""
    with np.errstate(divide="ignore", over="ignore"):
        xp = np.power(xs, params.p_float)
        return np.where(xp > 0.0, -1.0 / (params.q * xp), -np.inf)


def _quad(f, lo, hi, tol, ep=None, cfg=DEFAULT_CONFIG):
    value, err, ev = _tanh_sinh(f, lo, hi, tol, cfg.max_subdivisions, ep or EndpointSpec())
    return value, err, ev


_GAUSS2 = 0.5 / math.sqrt(3.0)


def _quad_narrow(f, lo, hi):
    """Two-point Gauss rule for smooth integrands on intervals so narrow that
    abscissa quantization would stall the refinement loop; error O(width^5)."""
    width = hi - lo
    mid = 0.5 * (lo + hi)
    xs = np.asarray([mid - width * _GAUSS2, mid + width * _GAUSS2])
    vals = f(xs)
    value = width * 0.5 * float(vals[0] + vals[1])
    return value, width**3 * abs(value), 2


# ---------------------------------------------------------------------------
# cached scaled v- and z-integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _c1_cached(b: int, q: int, sigma: float, max_levels: int):
    """C1 = int_0^1 v^((b-q)s) (1 + v^q)^s dv."""
    bq = (b - q) * sigma

    def f(vs):
        with np.errstate(divide="ignore"):
            return np.exp(bq * np.log(vs) + sigma * np.log1p(vs**q))

    value, err, _ = _tanh_sinh(f, 0.0, 1.0, 1e-12, max_levels, EndpointSpec(exponent_lo=bq))
    return value, err


def _v_integral(params: FamilyParams, sigma: float, s_hi: float,
                weight: Optional[Callable] = None, tol: float = 1e-12,
                cfg: NumericConfig = DEFAULT_CONFIG):
    """int_0^{s_hi} v^((b-q)s) (1+v^q)^s [weight(v)] dv with s_hi <= 1 allowed >1 too."""
    bq = (params.b - params.q) * sigma
    q = params.q

    def f(vs):
        with np.errstate(divide="ignore"):
            out = np.exp(bq * np.log(vs) + sigma * np.log1p(vs**q))
        return out * weight(vs) if weight is not None else out

    return _quad(f, 0.0, s_hi, tol, EndpointSpec(exponent_lo=bq), cfg)


def _c2_integrand(sigma: float, X: float, q: int):
    """Integrand of C2 in the z = v^-q variable: z^(-X/q-1) expm1(s log1p(z)) / q."""
    a = -X / q - 1.0

    def f(zs):
        small = zs < 1e-8
        zsafe = np.where(small, 1.0, zs)
        full = np.power(zsafe, a) * np.expm1(sigma * np.log1p(zsafe))
        lead = sigma * np.power(zs, a + 1.0)
        return np.where(small, lead, full) / q

    return f


@lru_cache(maxsize=512)
def _c2_full_cached(b: int, q: int, sigma: float, max_levels: int):
    """C2(S=inf) = int_1^inf v^(X-1) [(1+v^-q)^s - 1] dv via z = v^-q on (0, 1]."""
    X = b * sigma + 1.0
    f = _c2_integrand(sigma, X, q)
    value, err, _ = _tanh_sinh(f, 0.0, 1.0, 1e-12, max_levels,
                               EndpointSpec(exponent_lo=-X / q))
    return value, err


def _c2_partial(params: FamilyParams, sigma: float, z_lo: float,
                cfg: NumericConfig):
    """C2(S) with finite S, lower z-limit z_lo = S^-q in (0, 1).

    Returns (value, error, evaluations)."""
    X = params.b * sigma + 1.0
    if z_lo >= 1.0:
        return 0.0, 0.0, 0
    f = _c2_integrand(sigma, X, params.q)
    return _tanh_sinh(f, z_lo, 1.0, 1e-12, cfg.max_subdivisions,
                      EndpointSpec(exponent_lo=-X / params.q))


# ---------------------------------------------------------------------------
# pointwise integrand (public, factored log-domain form)
# ---------------------------------------------------------------------------

def integrand(params: FamilyParams, x, y, sigma: float, *, flat: bool = True):
    """|f(x,y)|^sigma on the open quadrant, in the factored form
    x^(a s) y^((b-q) s) (y^q + E(x))^s.

    All powers go through logarithms and one exponential, so the value stays
    well scaled even where E underflows; with E cut off to zero this reduces
    exactly to the monomial x^(a s) y^(b s).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    xa, ya = np.atleast_1d(xa), np.atleast_1d(ya)
    if np.any(xa <= 0.0) or np.any(ya <= 0.0):
        raise DomainError("integrand requires the open quadrant x, y > 0")
    lnx, lny = np.log(xa), np.log(ya)
    if flat:
        E = np.asarray(E_flat(params, xa), dtype=float)
        with np.errstate(divide="ignore"):
            lnE = np.where(E > 0.0, np.log(E), -np.inf)
        ln_core = np.logaddexp(params.q * lny, lnE)
    else:
        ln_core = params.q * lny
    with np.errstate(over="ignore"):
        out = np.exp(sigma * (params.a * lnx + (params.b - params.q) * lny + ln_core))
    return float(out[0]) if scalar else out


def monomial_closed_form(a: int, b: int, r1: float, r2: float, sigma: float) -> float:
    """Exact quadrant integral of x^(a s) y^(b s):
    r1^(a s + 1) r2^(b s + 1) / ((a s + 1)(b s + 1))."""
    ax = a * sigma + 1.0
    bx = b * sigma + 1.0
    if ax == 0.0 or bx == 0.0 or abs(ax) < 1e-300 or abs(bx) < 1e-300:
        raise PoleHit(f"monomial integral has a pole at sigma={sigma}")
    if ax < 0.0 or bx < 0.0:
        raise OutOfWindow("monomial integral diverges (exponent <= -1)")
    return r1**ax * r2**bx / (ax * bx)


# ---------------------------------------------------------------------------
# the fast quadrant engine
# ---------------------------------------------------------------------------

def _box_integral(params: FamilyParams, sigma: float, cfg: NumericConfig,
                  Y1: float, Y2: float, bump: Optional[BumpSpec], flat: bool):
    """Integral over (0,Y1)x(0,Y2) of the integrand, optionally bump-weighted.

    Returns (value, error, evaluations).
    """
    X = params.b * sigma + 1.0
    a, b, q = params.a, params.b, params.q
    lnY2 = math.log(Y2)
    mini_tol = min(1e-11, cfg.tol_2d * 1e-3)
    state = {"ev": 0, "rel": 0.0, "n": 0}

    if sigma >= 0.0:
        return _box_direct(params, sigma, cfg, Y1, Y2, bump, flat)

    c1, c1_err = _c1_cached(b, q, sigma, cfg.max_subdivisions) if flat else (0.0, 0.0)
    c2f, c2_err = _c2_full_cached(b, q, sigma, cfg.max_subdivisions) if flat else (0.0, 0.0)
    # z_lo below this leaves C2 indistinguishable from its full value
    z_cut = (1e-14) ** (q / max(q - X, 1e-12))

    def inner_plain(x: float, ln_e: float) -> float:
        """int_0^Y2 y^((b-q)s)(y^q+E)^s dy for one x, weight-free."""
        if not flat or ln_e == -math.inf:
            return math.exp(X * lnY2) / X
        eX = math.exp(max(X * ln_e, -745.0))
        main = math.exp(X * lnY2) * (-math.expm1(min(X * (ln_e - lnY2), 0.0))) / X
        if eX == 0.0:
            return main
        if ln_e > lnY2:        # e(x) exceeds the box height: single scaled piece
            s_hi = math.exp(lnY2 - ln_e)
            val, err, ev = _v_integral(params, sigma, s_hi, tol=mini_tol, cfg=cfg)
            state["ev"] += ev
            state["rel"] += err / max(abs(val), 1e-300)
            state["n"] += 1
            return eX * val
        z_lo = math.exp(max(-q * (lnY2 - ln_e), -745.0))
        if z_lo < z_cut:
            return main + eX * (c1 + c2f)
        c2, err, ev = _c2_partial(params, sigma, z_lo, cfg)
        val = main + eX * (c1 + c2)
        state["ev"] += ev
        state["rel"] += eX * err / max(abs(val), 1e-300)
        state["n"] += 1
        return val

    if bump is not None:
        y_dead = Y2 * 1e-9     # below this the bump y-increment is negligible

        def delta_w(ys):
            return bump_y_increment(bump, ys)

        def inner_delta(x: float, ln_e: float) -> float:
            """int_0^Y2 y^((b-q)s)(y^q+E)^s [phi_y(y) - phi_y(0)] dy."""
            total = 0.0
            if flat and ln_e > -math.inf:
                e_x = math.exp(max(ln_e, -745.0))
            else:
                e_x = 0.0
            m = min(e_x, Y2)
            if m > y_dead:     # scaled piece over (0, m)
                s_hi = min(1.0, math.exp(lnY2 - ln_e))
                val, err, ev = _v_integral(params, sigma, s_hi,
                                           weight=lambda vs: delta_w(e_x * vs),
                                           tol=mini_tol, cfg=cfg)
                eX = math.exp(max(X * ln_e, -745.0))
                total += eX * val
                state["ev"] += ev
            if m < Y2:         # log-variable piece over (m, Y2)
                w_lo = max(math.log(m) if m > 0.0 else -math.inf, math.log(y_dead))
                lnE = q * ln_e

                def fw(ws):
                    with np.errstate(over="ignore"):
                        t = np.exp(np.minimum(lnE - q * ws, 700.0)) if flat and lnE > -math.inf else 0.0
                    return np.exp(X * ws + sigma * np.log1p(t)) * delta_w(np.exp(ws))

                if lnY2 - w_lo < 1e-4:
                    val, _, ev = _quad_narrow(fw, w_lo, lnY2)
                else:
                    val, _, ev = _quad(fw, w_lo, lnY2, mini_tol, cfg=cfg)
                total += val
                state["ev"] += ev
            return total

    def outer(xs):
        ln_es = _ln_e_arr(params, xs) if flat else np.full_like(xs, -np.inf)
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            v = inner_plain(float(x), float(ln_es[i]))
            if bump is not None:
                v += inner_delta(float(x), float(ln_es[i]))
            out[i] = v
        with np.errstate(divide="ignore"):
            out *= np.exp(a * sigma * np.log(xs))
        if bump is not None:
            out *= bump_x_profile(bump, xs)
        return out

    value, err, ev = _tanh_sinh(outer, 0.0, Y1, cfg.tol_2d, cfg.max_subdivisions,
                                EndpointSpec(exponent_lo=a * sigma))
    err += (c1_err + c2_err + state["rel"] / max(state["n"], 1)) * abs(value)
    return value, err, ev + state["ev"]


def _box_direct(params, sigma, cfg, Y1, Y2, bump, flat):
    """Plain iterated quadrature, used for sigma >= 0 where nothing is singular."""
    a, b, q = params.a, params.b, params.q
    state = {"ev": 0}

    def outer(xs):
        ln_es = _ln_e_arr(params, xs) if flat else np.full_like(xs, -np.inf)
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            lnE = q * ln_es[i]

            def fy(ys):
                lny = np.log(ys)
                core = np.logaddexp(q * lny, lnE) if flat and lnE > -math.inf else q * lny
                vals = np.exp(sigma * ((b - q) * lny + core))
                if bump is not None:
                    vals = vals * bump_y_profile(bump, ys)
                return vals

            val, _, ev = _quad(fy, 0.0, Y2, cfg.tol_2d / 5.0,
                               EndpointSpec(exponent_lo=(b - q) * sigma), cfg)
            state["ev"] += ev
            out[i] = val
        with np.errstate(divide="ignore"):
            out *= np.exp(a * sigma * np.log(xs))
        if bump is not None:
            out *= bump_x_profile(bump, xs)
        return out

    value, err, ev = _tanh_sinh(outer, 0.0, Y1, cfg.tol_2d, cfg.max_subdivisions,
                                EndpointSpec(exponent_lo=a * sigma))
    return value, err, ev + state["ev"]


def zeta_quadrant(params: FamilyParams, sigma: float,
                  cfg: NumericConfig = DEFAULT_CONFIG, *, flat: bool = True) -> ZetaSample:
    """Z(sigma) over the quadrant box [0, r1] x [0, r2].

    Raises OutOfWindow unless -1/b < sigma < 0; strictly positive on success.
    With flat=False the perturbation is suppressed and the integral reduces to
    the pure monomial.
    """
    X = _check_window(params, sigma)
    value, err, _ = _box_integral(params, sigma, cfg, params.r1, params.r2, None, flat)
    return ZetaSample(sigma=sigma, X=X, value=value, error=err)


def zeta_weighted(params: FamilyParams, bump: BumpSpec, sigma: float,
                  cfg: NumericConfig = DEFAULT_CONFIG, *, flat: bool = True) -> ZetaSample:
    """Full-plane integral of |f|^sigma against the bump, as 4x the quadrant.

    Needs q even so that |f(x, y)| = |f(|x|, |y|)| and the quadrant symmetry
    holds; the bump support must sit inside (-1, 1)^2.
    """
    if params.q % 2 != 0:
        raise OddQNotSupported(f"q={params.q} is odd; quadrant symmetry fails")
    if bump.R1 >= 1.0 or bump.R2 >= 1.0:
        raise DomainError("bump support must lie inside (-1,1)^2")
    X = _check_window(params, sigma)
    value, err, _ = _box_integral(params, sigma, cfg, bump.R1, bump.R2, bump, flat)
    return ZetaSample(sigma=sigma, X=X, value=4.0 * value, error=4.0 * err)


# ---------------------------------------------------------------------------
# region pieces along lambda*y = e(x)
# ---------------------------------------------------------------------------

def _w_piece(params, sigma, X, ln_e, w_lo, w_hi, tol, cfg):
    """int_{w_lo}^{w_hi} e^(X w) (1 + E e^(-q w))^sigma dw  (w = log y)."""
    q = params.q
    lnE = q * ln_e

    def f(ws):
        if lnE == -math.inf:
            return np.exp(X * ws)
        with np.errstate(over="ignore"):
            t = np.exp(np.minimum(lnE - q * ws, 700.0))
        return np.exp(X * ws + sigma * np.log1p(t))

    if w_hi - w_lo < 1e-4:
        return _quad_narrow(f, w_lo, w_hi)
    return _quad(f, w_lo, w_hi, tol, cfg=cfg)


def region_pieces(params: FamilyParams, lam: float, sigma: float,
                  cfg: NumericConfig = DEFAULT_CONFIG, *,
                  with_parts: bool = False) -> DecompositionTrace:
    """Z1, Z2 over the split regions {lambda y >= e(x)} / {lambda y < e(x)},
    plus the auxiliary integrals ztilde1/ztilde2; optionally the proof-level
    G/H/J parts matching the current regime."""
    X = _check_window(params, sigma)
    if lam <= 0.0:
        raise DomainError("lambda must be positive")
    a, b, q = params.a, params.b, params.q
    r1, Y2 = params.r1, params.r2
    lnY2, ln_lam = math.log(Y2), math.log(lam)
    mini_tol = min(1e-11, cfg.tol_2d * 1e-3)
    state = {"ev": 0}

    # inner scaled integral over the full unclipped slice, shared by all columns
    v_unclipped, _, _ = _v_integral(params, sigma, 1.0 / lam, tol=mini_tol, cfg=cfg)

    def z2_inner(x: float, ln_e: float) -> float:
        if ln_e == -math.inf:
            return 0.0
        eX = math.exp(max(X * ln_e, -745.0))
        if eX == 0.0:
            return 0.0
        ln_c = ln_e - ln_lam
        if ln_c <= lnY2:
            return eX * v_unclipped
        val, _, ev = _v_integral(params, sigma, math.exp(lnY2 - ln_e), tol=mini_tol, cfg=cfg)
        state["ev"] += ev
        return eX * val

    def z1_inner(x: float, ln_e: float) -> float:
        if ln_e == -math.inf:
            return math.exp(X * lnY2) / X
        ln_m = min(ln_e - ln_lam, lnY2)
        if ln_m >= lnY2:
            return 0.0
        val, _, ev = _w_piece(params, sigma, X, ln_e, ln_m, lnY2, mini_tol, cfg)
        state["ev"] += ev
        return val

    def make_outer(inner):
        def outer(xs):
            ln_es = _ln_e_arr(params, xs)
            out = np.empty_like(xs)
            for i, x in enumerate(xs):
                out[i] = inner(float(x), float(ln_es[i]))
            with np.errstate(divide="ignore"):
                out *= np.exp(a * sigma * np.log(xs))
            return out
        return outer

    # The slice geometry kinks where e(x)/lambda crosses the box top; keep the
    # kink on a panel boundary by splitting the outer integral at rho(lam r2).
    x_kink = rho(params, lam * Y2, cfg.flat_cutoff_exponent)
    cuts = [0.0] + ([x_kink] if 0.0 < x_kink < r1 else []) + [r1]

    def outer_integral(inner):
        total, err, evs = 0.0, 0.0, 0
        for lo, hi in zip(cuts, cuts[1:]):
            ep = EndpointSpec(exponent_lo=a * sigma if lo == 0.0 else 0.0)
            v, e, ev = _tanh_sinh(make_outer(inner), lo, hi, cfg.tol_2d,
                                  cfg.max_subdivisions, ep)
            total, err, evs = total + v, err + e, evs + ev
        return total, err, evs

    z1, e1, ev1 = outer_integral(z1_inner)
    z2, e2, ev2 = outer_integral(z2_inner)
    zt1 = ztilde1(params, lam, sigma, cfg)
    zt2 = ztilde2(params, lam, sigma, cfg)
    trace = dict(lam=lam, sigma=sigma, z1=z1, z2=z2, ztilde1=zt1, ztilde2=zt2,
                 error=e1 + e2)
    if with_parts:
        kind = classify_regime(params).kind
        if kind is RegimeKind.SUPERCRITICAL_FLAT:
            g1, g2, g3 = g_pieces(params, lam, sigma, cfg)
            trace.update(g1=g1, g2=g2, g3=g3)
        elif kind is RegimeKind.CRITICAL_FLAT:
            _, g2, _ = g_pieces(params, lam, sigma, cfg)
            h1, h2 = h_pieces(params, lam, sigma, cfg)
            trace.update(g2=g2, h1=h1, h2=h2)
        else:
            j1, j2 = j_pieces(params, lam, sigma, cfg)
            trace.update(j1=j1, j2=j2)
    return DecompositionTrace(**trace)


# ---------------------------------------------------------------------------
# auxiliary 1D reductions
# ---------------------------------------------------------------------------

def ztilde1(params: FamilyParams, lam: float, sigma: float,
            cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """1D form of the monomial integral over the region {lambda y >= e(x)}:

        lam^-X X^-1 int_0^rho(lam r2) x^(a s) ((lam r2)^X - e(x)^X) dx
    """
    X = _check_window(params, sigma)
    if lam <= 0.0:
        raise DomainError("lambda must be positive")
    a = params.a
    rt2 = lam * params.r2
    ln_rt2 = math.log(rt2)
    upper = rho(params, rt2, cfg.flat_cutoff_exponent)

    def f(xs):
        ln_es = _ln_e_arr(params, xs)
        diff = math.exp(X * ln_rt2) * (-np.expm1(np.minimum(X * (ln_es - ln_rt2), 0.0)))
        with np.errstate(divide="ignore"):
            return np.exp(a * sigma * np.log(xs)) * diff

    val, _, _ = _quad(f, 0.0, upper, cfg.tol_1d, EndpointSpec(exponent_lo=a * sigma), cfg)
    return math.exp(-X * math.log(lam)) / X * val


def ztilde2(params: FamilyParams, lam: float, sigma: float,
            cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Two-piece 1D reduction of the flat-side auxiliary integral:

        (X - q s)^-1 [ lam^-(X-qs) int_0^rho x^(a s) e(x)^X dx
                       + r2^(X-qs) int_rho^r1 x^(a s) e^(-s/x^p) dx ],
    with rho = rho(lam r2).  The lower limit rho > 0 keeps the growing factor
    e^(-s/x^p) finite on the second piece.
    """
    X = _check_window(params, sigma)
    if lam <= 0.0:
        raise DomainError("lambda must be positive")
    a, q = params.a, params.q
    rt2 = lam * params.r2
    rho_v = rho(params, rt2, cfg.flat_cutoff_exponent)
    if rho_v == 0.0:
        raise DegenerateLowerLimit(f"rho({rt2}) underflowed to 0")
    denom = X - q * sigma
    ep = EndpointSpec(exponent_lo=a * sigma)

    def f1(xs):
        ln_es = _ln_e_arr(params, xs)
        with np.errstate(divide="ignore"):
            return np.exp(a * sigma * np.log(xs) + np.maximum(X * ln_es, -745.0))

    p1, _, _ = _quad(f1, 0.0, rho_v, cfg.tol_1d, ep, cfg)
    p1 *= math.exp(-denom * math.log(lam)) / denom

    p2 = 0.0
    if rho_v < params.r1:
        def f2(xs):
            ln_es = _ln_e_arr(params, xs)
            return np.exp(a * sigma * np.log(xs) + q * sigma * ln_es)

        val, _, _ = _quad(f2, rho_v, params.r1, cfg.tol_1d, cfg=cfg)
        p2 = math.exp(denom * math.log(params.r2)) / denom * val
    return p1 + p2


def ztilde1_2d(params: FamilyParams, lam: float, sigma: float,
               cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Direct iterated quadrature of x^(a s) y^(b s) over {lambda y >= e(x)},
    for cross-checking the 1D reduction."""
    X = _check_window(params, sigma)
    a = params.a
    lnY2, ln_lam = math.log(params.r2), math.log(lam)
    state = {"ev": 0}

    def outer(xs):
        ln_es = _ln_e_arr(params, xs)
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            ln_e = float(ln_es[i])
            if ln_e == -math.inf:
                def fy(ys):
                    return np.exp((X - 1.0) * np.log(ys))
                val, _, ev = _quad(fy, 0.0, params.r2, cfg.tol_2d / 5.0,
                                   EndpointSpec(exponent_lo=X - 1.0), cfg)
            else:
                ln_c = ln_e - ln_lam
                if ln_c >= lnY2:
                    out[i] = 0.0
                    continue
                val, _, ev = _w_piece(params, sigma, X, -math.inf, ln_c, lnY2,
                                      cfg.tol_2d / 5.0, cfg)
            state["ev"] += ev
            out[i] = val
        with np.errstate(divide="ignore"):
            return out * np.exp(a * sigma * np.log(xs))

    return _split_outer(params, lam, cfg, outer, a * sigma)


def _split_outer(params, lam, cfg, outer, exp_lo):
    """Outer x-integral over (0, r1) split at the clip point rho(lam r2)."""
    x_kink = rho(params, lam * params.r2, cfg.flat_cutoff_exponent)
    cuts = [0.0] + ([x_kink] if 0.0 < x_kink < params.r1 else []) + [params.r1]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        ep = EndpointSpec(exponent_lo=exp_lo if lo == 0.0 else 0.0)
        v, _, _ = _tanh_sinh(outer, lo, hi, cfg.tol_2d, cfg.max_subdivisions, ep)
        total += v
    return total


def ztilde2_2d(params: FamilyParams, lam: float, sigma: float,
               cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Direct iterated quadrature of x^(a s) y^((b-q)s) e^(-s/x^p) over
    {lambda y < e(x)}, for cross-checking the two-piece reduction."""
    X = _check_window(params, sigma)
    a, q = params.a, params.q
    bq = (params.b - params.q) * sigma
    lnY2, ln_lam = math.log(params.r2), math.log(lam)

    def v_quad():
        def f(vs):
            with np.errstate(divide="ignore"):
                return np.exp(bq * np.log(vs))
        val, _, _ = _quad(f, 0.0, 1.0, cfg.tol_2d / 5.0,
                          EndpointSpec(exponent_lo=bq), cfg)
        return val

    v0 = v_quad()

    def outer(xs):
        ln_es = _ln_e_arr(params, xs)
        out = np.zeros_like(xs)
        with np.errstate(divide="ignore"):
            lnxs = np.log(xs)
        for i, x in enumerate(xs):
            ln_e = float(ln_es[i])
            if ln_e == -math.inf:
                continue
            ln_m = min(ln_e - ln_lam, lnY2)
            ln_col = a * sigma * lnxs[i] + q * sigma * ln_e + (bq + 1.0) * ln_m
            if ln_col < -740.0:
                continue
            out[i] = math.exp(ln_col) * v0
        return out

    return _split_outer(params, lam, cfg, outer, a * sigma)


# ---------------------------------------------------------------------------
# proof-level parts: G (supercritical rescaling), H (critical), J (subcritical)
# ---------------------------------------------------------------------------

def g_pieces(params: FamilyParams, lam: float, sigma: float,
             cfg: NumericConfig = DEFAULT_CONFIG):
    """G1, G2, G3 after the rescaling u = X^(-1/p) x:

        G1 = int_0^1 u^(a s)(rt2^X - e(u)) du
        G2 = int_1^U u^(a s)(1 - e(u)) du,      U = rho(rt2) / X^(1/p)
        G3 = (rt2^X - 1) int_1^U u^(a s) du
    """
    X = _check_window(params, sigma)
    a = params.a
    rt2 = lam * params.r2
    ln_rt2 = math.log(rt2)
    rt2X = math.exp(X * ln_rt2)
    U = rho(params, rt2, cfg.flat_cutoff_exponent) * math.exp(-math.log(X) * float(1 / params.p))

    def e_of(us):
        ln_es = _ln_e_arr(params, us)
        return np.exp(np.maximum(ln_es, -745.0)) * (ln_es > -math.inf)

    def f1(us):
        with np.errstate(divide="ignore"):
            return np.exp(a * sigma * np.log(us)) * (rt2X - e_of(us))

    g1, _, _ = _quad(f1, 0.0, 1.0, cfg.tol_1d, EndpointSpec(exponent_lo=a * sigma), cfg)

    def f2(us):
        ln_es = _ln_e_arr(params, us)
        return np.exp(a * sigma * np.log(us)) * (-np.expm1(ln_es))

    sign = 1.0
    lo_u, hi_u = 1.0, U
    if U < 1.0:
        sign, lo_u, hi_u = -1.0, U, 1.0
    g2v, _, _ = _quad(f2, lo_u, hi_u, cfg.tol_1d, cfg=cfg)
    g2 = sign * g2v

    asp1 = a * sigma + 1.0
    g3 = math.expm1(X * ln_rt2) * (U**asp1 - 1.0) / asp1
    return g1, g2, g3


def h_pieces(params: FamilyParams, lam: float, sigma: float,
             cfg: NumericConfig = DEFAULT_CONFIG):
    """Critical-regime split of G2: H1 = q^-1 (log rho(rt2) - p^-1 log X) and
    H2 = int_1^U (q^-1 / u - u^(a s)(1 - e(u))) du, so G2 = H1 - H2."""
    X = _check_window(params, sigma)
    a, q = params.a, params.q
    rt2 = lam * params.r2
    rho_v = rho(params, rt2, cfg.flat_cutoff_exponent)
    p = params.p_float
    U = rho_v * math.exp(-math.log(X) / p)
    h1 = (math.log(rho_v) - math.log(X) / p) / q

    def f(us):
        ln_es = _ln_e_arr(params, us)
        return 1.0 / (q * us) - np.exp(a * sigma * np.log(us)) * (-np.expm1(ln_es))

    sign = 1.0
    lo_u, hi_u = 1.0, U
    if U < 1.0:
        sign, lo_u, hi_u = -1.0, U, 1.0
    h2v, _, _ = _quad(f, lo_u, hi_u, cfg.tol_1d, cfg=cfg)
    return h1, sign * h2v


def j_pieces(params: FamilyParams, lam: float, sigma: float,
             cfg: NumericConfig = DEFAULT_CONFIG):
    """Subcritical split of the 1D reduction:

        J1 = lam^-X int_0^rho x^(a s) (1 - e(x)^X)/X dx
        J2 = lam^-X (rt2^X - 1)/X int_0^rho x^(a s) dx
    """
    X = _check_window(params, sigma)
    a = params.a
    rt2 = lam * params.r2
    rho_v = rho(params, rt2, cfg.flat_cutoff_exponent)
    lamX = math.exp(-X * math.log(lam))

    def f(xs):
        ln_es = _ln_e_arr(params, xs)
        return np.exp(a * sigma * np.log(xs)) * (-np.expm1(np.maximum(X * ln_es, -745.0))) / X

    j1, _, _ = _quad(f, 0.0, rho_v, cfg.tol_1d, EndpointSpec(exponent_lo=a * sigma), cfg)
    asp1 = a * sigma + 1.0
    j2 = math.expm1(X * math.log(rt2)) / X * rho_v**asp1 / asp1
    return lamX * j1, lamX * j2


# ---------------------------------------------------------------------------
# log-derivative integrals D_j(s) = int |f|^s (log|f|)^j phi
# ---------------------------------------------------------------------------

def _check_log_moments(params: FamilyParams, bump: BumpSpec, s: float, j,
                       flat: bool) -> int:
    """Validate the arguments of D_j(s), returning j as an int."""
    if j < 0 or int(j) != j:
        raise DomainError("j must be a nonnegative integer")
    if params.q % 2 != 0:
        raise OddQNotSupported(f"q={params.q} is odd")
    c0 = 1.0 / params.b
    if s <= -c0:
        raise OutOfWindow(f"s={s} is <= -c0 = {-c0}")
    a, b, q = params.a, params.b, params.q
    R1, R2 = bump.R1, bump.R2
    fmax = R1**a * R2**(b - q) * (R2**q + (E_flat(params, R1) if flat else 0.0))
    if fmax >= 1.0:
        raise DomainError(f"|f| reaches {fmax:.3g} >= 1 on the bump support")
    return int(j)


def log_derivative_moments(params: FamilyParams, bump: BumpSpec, s: float, J: int,
                           cfg: NumericConfig = DEFAULT_CONFIG, *,
                           flat: bool = True) -> np.ndarray:
    """D_0(s), ..., D_J(s) over the plane (4x quadrant) as one array, from a
    single iterated quadrature whose integrands are the J + 1 columns
    |f|^s (log|f|)^j phi on shared nodes; refinement stops once every
    moment has converged.  Requires |f| < 1 on the support, so that
    sign(D_j) = (-1)^j."""
    J = _check_log_moments(params, bump, s, J, flat)
    a, b, q = params.a, params.b, params.q
    ep_y = EndpointSpec(exponent_lo=(b - q) * s if s < 0 else 0.0)

    def outer(xs):
        ln_es = _ln_e_arr(params, xs) if flat else np.full_like(xs, -np.inf)
        out = np.empty((xs.size, J + 1))
        with np.errstate(divide="ignore"):
            lnxs = np.log(xs)
        for i, x in enumerate(xs):
            lnE = q * float(ln_es[i])
            lnx = float(lnxs[i])

            def fy(ys):
                lny = np.log(ys)
                core = np.logaddexp(q * lny, lnE) if lnE > -math.inf else q * lny
                ln_fy = (b - q) * lny + core          # log|f| - a log x
                cols = np.vander(a * lnx + ln_fy, J + 1, increasing=True)   # (log|f|)^j
                cols *= (np.exp(s * ln_fy) * bump_y_profile(bump, ys))[:, None]
                return cols

            out[i], _, _ = _quad(fy, 0.0, bump.R2, cfg.tol_2d / 5.0, ep_y, cfg)
        # x^(a s) is kept out of fy: where it falls below the normal range the
        # inner values would carry its rounding noise, and refinement would
        # chase that noise to the level cap
        with np.errstate(over="ignore"):
            return out * (np.exp(a * s * lnxs) * bump_x_profile(bump, xs))[:, None]

    vals, _, _ = _tanh_sinh(outer, 0.0, bump.R1, cfg.tol_2d, cfg.max_subdivisions,
                            EndpointSpec(exponent_lo=a * s if s < 0 else 0.0))
    return 4.0 * vals


def log_derivative_integral(params: FamilyParams, bump: BumpSpec, s: float, j: int,
                            cfg: NumericConfig = DEFAULT_CONFIG, *,
                            flat: bool = True) -> float:
    """D_j(s) over the plane (4x quadrant), requiring |f| < 1 on the support
    so that sign(D_j) = (-1)^j.  j = 0 delegates to the weighted engine,
    j >= 1 to log_derivative_moments."""
    j = _check_log_moments(params, bump, s, j, flat)
    if j == 0:
        val, _, _ = _box_integral(params, s, cfg, bump.R1, bump.R2, bump, flat)
        return 4.0 * val
    return float(log_derivative_moments(params, bump, s, j, cfg, flat=flat)[j])
