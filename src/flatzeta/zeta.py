"""Evaluators for every integral object of the family.

The quadrant integral

    Z(sigma) = int_0^r1 int_0^r2  x^(a s) y^((b-q) s) (y^q + E(x))^s  dy dx,
    E(x) = exp(-1/x^p),   s = sigma in (-1/b, 0),

is dominated near sigma = -1/b by y-mass that sits far below double
precision, so the inner integral is never attacked by quadrature.  It has
the closed form (DLMF 15.6.1)

    inner(x) = Y^al / al  E^s  2F1(-s, al/q; 1 + al/q; -Y^q / E),
    al = (b-q) s + 1,

evaluated from logs with scipy's hyp2f1 wherever Y^q/E fits in a double.
Further out, substituting y = e(x) v against the crossover scale
e(x) = E(x)^(1/q) gives the exact

    inner(x) = Y^X (1 - (e(x)/Y)^X) / X  +  e(x)^X K,   X = b sigma + 1,

with K = int_0^1 v^((b-q)s) (1+v^q)^s dv + int_1^inf v^(X-1) [(1+v^-q)^s - 1] dv
in Gamma functions (_k_closed).  A whole sigma schedule is one vector
quadrature over x, a component per sigma.

Region pieces, the auxiliary reductions ztilde1/ztilde2 and the proof-level
G/H/J parts are computed by independent quadratures in scaled variables, so
the identity checks compare the closed-form Z with quadratures.  In every
iterated integral the inner integrals of one outer level (the bump-weighted
correction of zeta_weighted, the region columns, the 2D reductions, the
log-derivative moments) are batched into one vector _tanh_sinh call per
piece, each column retiring at its own level.  Log-variable inner integrals
of the region columns are clipped at log r2 - 800/X (_w_floor); below it
the neglected mass is under e^-800 of the column.  A z1 (column, sigma) pair
clipped there whose flat factor is within e^-40 of 1 on its interval is the
monomial column r2^X/X, with no quadrature, as the bump-weighted columns
with a dead flat factor share one E = 0 column.  The inner integrands that
are smooth up to both ends (_w_integrals, the bump-weighted _v_integrals)
declare no endpoint, so their lower end is sampled no deeper than the upper.

The region pieces of every (lambda, sigma) pair of a sandwich are batched
as Z is (region_samples): each pair is one component of every vector
quadrature, its x-interval mapped onto u in (0, 1) inside the integrand.
One helper decides where the slice lambda y = e(x) kinks (_slice_pieces):
the left piece up to rho(lam r2) (or r1) of every pair and the right piece
of the kinked pairs.  z1 and z2 are one outer call apiece on each piece,
their inner integrals one vector call per outer level over the (node, pair)
columns, and v_unclipped, ztilde1 and each ztilde2 piece one vector call
apiece.  region_pieces, ztilde1 and ztilde2 are the one-pair calls of the
batch, and every batched component equals its one-pair call bit for bit.
ztilde1_2d and ztilde2_2d, the cross-checks of the 1D reductions, keep
their own integrands and inner quadratures and share only the one-pair
slice pieces, one outer call apiece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln, hyp2f1, psi, zeta as hurwitz_zeta

from .errors import (
    DegenerateLowerLimit,
    DomainError,
    OddQNotSupported,
    OutOfWindow,
    PoleHit,
)
from .funcs import (
    BumpSpec,
    E_flat,
    bump_x_profile,
    bump_y_increment,
    bump_y_profile,
    log_e_flat,
    rho,
)
from .model import DEFAULT_CONFIG, FamilyParams, NumericConfig
from .quad import EndpointSpec, _tanh_sinh, integrate_1d


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


# ---------------------------------------------------------------------------
# window / shared scalars
# ---------------------------------------------------------------------------

def _check_window(params: FamilyParams, sigma: float) -> float:
    lo, hi = params.sigma_window()
    if not lo < sigma < hi:
        raise OutOfWindow(f"sigma={sigma} outside ({lo}, {hi})")
    return params.b * sigma + 1.0


def _check_slice(params: FamilyParams, lam: float, sigma: float) -> float:
    """X = b sigma + 1 for the slice lambda y = e(x), after checking sigma
    against the window and 0 < lambda < inf (NaN fails)."""
    X = _check_window(params, sigma)
    if not 0.0 < lam < math.inf:
        raise DomainError("lambda must be positive and finite")
    return X


# ---------------------------------------------------------------------------
# the unweighted inner column in closed form; batched v- and w-integrals
# ---------------------------------------------------------------------------

#: Relative error bound of one closed-form inner column (_inner_closed) for
#: X >= 1e-5, from the 40-digit mpmath values frozen in tests/test_zeta.py
#: (worst measured 8.8e-11).  scipy's hyp2f1 loses digits as 1/X when
#: X -> 0, so below X = 1e-5 the bound grows as 1e-5 / X (_inner_rel_err).
INNER_REL_ERR = 2e-10

#: Largest q log(T/e) = log(T^q/E) for which _inner_closed is used; beyond it
#: T^q/E nears the double range and _inner_far is exact to double precision.
_FAR = 700.0


def _inner_rel_err(X):
    return INNER_REL_ERR * np.maximum(1.0, 1e-5 / X)


def _inner_closed(b: int, q: int, sigma: float, lnT, lnE):
    """int_0^T v^((b-q)s) (v^q + E)^s dv
        = T^al / al  E^s  2F1(-s, al/q; 1 + al/q; -T^q/E),   al = (b-q)s + 1,
    (DLMF 15.6.1) from log T and log E, elementwise over arrays; needs
    q log T - log E <= _FAR."""
    al = (b - q) * sigma + 1.0
    F = hyp2f1(-sigma, al / q, 1.0 + al / q, -np.exp(q * lnT - lnE))
    return np.exp(al * lnT + sigma * lnE) / al * F


def _k_closed(b: int, q: int, sigmas: np.ndarray) -> np.ndarray:
    """K of the far inner column for every sigma of sigmas: the Mellin integral
    of (1+v^q)^s continued past its pole (DLMF 5.12.3), K = -expm1(L)/X with
    L = log(Gamma(1-t) Gamma(t-s) / Gamma(-s)), t = X/q.  gammaln loses digits
    of L as 1/t, so where t < 1e-2 and t < 0.08 (-s) (else |L| >= log 1.08) L is
    its Taylor series in t: convergent for t < -s, its tail past k = 14 < 1e-16 L."""
    Xs = b * sigmas + 1.0
    ts, ms = Xs / q, -sigmas
    # 1 - t from sigma: at q = 1, 1 - X/q is 0 where X rounds to 1 next to sigma = 0
    L = gammaln((q - 1.0 - b * sigmas) / q) + gammaln(ms + ts) - gammaln(ms)
    sm = (ts < 1e-2) & (ts < 0.08 * ms)
    if sm.any():
        t, m, k, series = ts[sm], ms[sm], np.arange(14, 1, -1)[:, None], 0.0
        for c in (hurwitz_zeta(k, 1.0) + (-1.0)**k * hurwitz_zeta(k, m)) / k:
            series = (series + c) * t     # Horner: K is its one-sigma value bit for bit
        L[sm] = (np.euler_gamma + psi(m) + series) * t
    return -np.expm1(L) / Xs


def _inner_far(X, lnT, ln_e, K):
    """_inner_closed where q log(T/e) > _FAR, e = exp(ln_e): in v = y/e the exact
    main term plus e^X K, as the tail of K past T/e is below double precision."""
    return np.exp(X * lnT) * -np.expm1(X * (ln_e - lnT)) / X + np.exp(X * ln_e) * K


def _v_integrals(params: FamilyParams, sigma, s_hi: np.ndarray,
                 weight: Optional[Callable], tol: float):
    """int_0^{s_hi[i]} v^((b-q)s) (1+v^q)^s [weight(v, cols)] dv for every
    entry of s_hi (s = sigma, or sigma[i]), as one vector quadrature
    (components as in _tanh_sinh).  Each interval is mapped onto u in (0, 1)
    by v = s_hi u inside the integrand, so all components share the nodes.

    Without weight, v = 0 is the declared endpoint v^((b-q)s).  A weight
    must vanish like v^2 at 0 (the bump y-increment does), so that the
    integrand is O(v^((b-q)s + 2)) and both ends are regular.

    Returns (values, errors, evaluations)."""
    sig = np.broadcast_to(sigma, s_hi.shape)
    bq = (params.b - params.q) * sig
    q = params.q

    def f(us, cols):
        h = s_hi[cols]
        vs = h * us
        with np.errstate(divide="ignore"):
            out = h * np.exp(bq[cols] * np.log(vs) + sig[cols] * np.log1p(vs**q))
        return out * weight(vs, cols) if weight is not None else out

    ends = EndpointSpec(exponent_lo=bq) if weight is None else None
    return _tanh_sinh(f, 0.0, 1.0, tol, ends, k=s_hi.size)


def _w_integrals(q: int, sigma, X, lnE: np.ndarray, w_lo: np.ndarray,
                 w_hi: float, tol: float, weight=None):
    """int_{w_lo[i]}^{w_hi} e^(X w) (1 + E_i e^(-q w))^s [weight(w)] dw for
    every entry of w_lo (w = log y, log E_i = lnE[i], -inf for no flat term;
    s and X floats or per entry), as one vector quadrature.  Each interval is
    mapped onto u in (0, 1) by w = w_lo + (w_hi - w_lo) u inside the
    integrand, so an interval narrow against |w| samples distinct abscissae.
    The integrand is smooth up to both ends, so u is sampled no closer to 0
    than to 1 (endpoints None): deeper nodes would round onto w_lo.

    Returns (values, errors, evaluations)."""
    width = w_hi - w_lo
    sig, Xw = np.broadcast_to(sigma, w_lo.shape), np.broadcast_to(X, w_lo.shape)

    def f(us, cols):
        ws = w_lo[cols] + width[cols] * us
        t = np.exp(np.minimum(lnE[cols] - q * ws, 700.0))
        out = width[cols] * np.exp(Xw[cols] * ws + sig[cols] * np.log1p(t))
        return out * weight(ws) if weight is not None else out

    return _tanh_sinh(f, 0.0, 1.0, tol, None, k=w_lo.size)


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
    r1^(a s + 1) r2^(b s + 1) / ((a s + 1)(b s + 1)), for finite sigma and
    0 < r1, r2 < inf (NaN fails)."""
    if not (math.isfinite(sigma) and 0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise DomainError("monomial integral needs a finite sigma and 0 < r1, r2 < inf")
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

def _box_integral(params: FamilyParams, sigmas: np.ndarray, cfg: NumericConfig,
                  Y1: float, Y2: float, bump: Optional[BumpSpec], flat: bool):
    """Integral over (0,Y1)x(0,Y2) of the integrand, optionally bump-weighted,
    for every sigma < 0 of the array sigmas, as one vector quadrature over x
    with one component per sigma.  Returns (values, errors, evaluations)."""
    b, q, k = params.b, params.q, sigmas.size
    Xs = b * sigmas + 1.0
    lnY2 = math.log(Y2)
    mini_tol = min(1e-11, cfg.tol_2d * 1e-3)
    K = _k_closed(b, q, sigmas)
    state = {"ev": 0}
    y_dead = Y2 * 1e-9     # below this the bump y-increment is negligible
    ln_dead = math.log(y_dead)

    def increment(ws):
        return bump_y_increment(bump, np.exp(ws))

    if bump is not None:
        # log-variable piece of the columns with m <= y_dead and (1 + E e^(-q w))^s
        # within 4e-18 of 1 on (y_dead, Y2): one E = 0 column per sigma
        dead_col, _, ev = _w_integrals(q, sigmas, Xs, np.full(k, -np.inf), np.full(k, ln_dead),
                                       lnY2, mini_tol, weight=increment)
        state["ev"] += ev

    def inner_plain(ln_es, lnE, cols):
        """int_0^Y2 y^((b-q)s)(y^q+E)^s dy per (column, sigma), weight-free."""
        with np.errstate(over="ignore"):
            near = q * (lnY2 - ln_es) <= _FAR
        out = np.empty((ln_es.size, cols.size))
        out[near] = _inner_closed(b, q, sigmas[cols], lnY2, lnE[near, None])
        out[~near] = _inner_far(Xs[cols], lnY2, ln_es[~near, None], K[cols])
        return out

    def inner_delta(ln_es, lnE, cols):
        """int_0^Y2 y^((b-q)s)(y^q+E)^s [phi_y(y) - phi_y(0)] dy per (column,
        sigma): a scaled piece over (0, m) and a log-variable piece over
        (m, Y2), m = min(e(x), Y2), each one vector quadrature over the pairs."""
        total = np.zeros((ln_es.size, cols.size))
        e_x = np.where(ln_es > -np.inf, np.exp(np.maximum(ln_es, -745.0)), 0.0)
        m = np.minimum(e_x, Y2)
        rows = np.flatnonzero(m > y_dead)
        if rows.size:      # scaled piece over (0, m), y = e(x) v
            r, c = np.repeat(rows, cols.size), np.tile(cols, rows.size)
            e_v = e_x[r]
            val, _, ev = _v_integrals(params, sigmas[c], np.minimum(1.0, np.exp(lnY2 - ln_es[r])),
                                      lambda vs, cc: bump_y_increment(bump, e_v[cc] * vs),
                                      mini_tol)
            total[rows] += (np.exp(np.maximum(Xs[c] * ln_es[r], -745.0)) * val).reshape(
                rows.size, cols.size)
            state["ev"] += ev
        with np.errstate(divide="ignore"):
            w_lo = np.maximum(np.log(m), ln_dead)
        dead = (w_lo == ln_dead) & (lnE - q * ln_dead < -40.0)
        total[dead] += dead_col[cols]
        rows = np.flatnonzero((m < Y2) & ~dead)
        if rows.size:      # log-variable piece over (m, Y2)
            r, c = np.repeat(rows, cols.size), np.tile(cols, rows.size)
            val, _, ev = _w_integrals(q, sigmas[c], Xs[c], lnE[r], w_lo[r], lnY2, mini_tol,
                                      weight=increment)
            total[rows] += val.reshape(rows.size, cols.size)
            state["ev"] += ev
        return total

    def column(xs, cols):
        x = xs[:, 0]
        ln_es = log_e_flat(params, x) if flat else np.full_like(x, -np.inf)
        with np.errstate(over="ignore"):   # q log e overflows to -inf: E = 0
            lnE = q * ln_es
        out = inner_plain(ln_es, lnE, cols)
        if bump is not None:
            out += inner_delta(ln_es, lnE, cols)
        with np.errstate(divide="ignore", over="ignore"):
            out *= np.exp(params.a * sigmas[cols] * np.log(xs))
        if bump is not None:
            out *= bump_x_profile(bump, xs)
        return out

    values, errors, ev = _tanh_sinh(column, 0.0, Y1, cfg.tol_2d,
                                    EndpointSpec(exponent_lo=params.a * sigmas), k=k)
    errors += _inner_rel_err(Xs) * np.abs(values)
    return values, errors, ev + state["ev"]


def zeta_samples(params: FamilyParams, bump: Optional[BumpSpec], sigmas,
                 cfg: NumericConfig, *, flat: bool) -> list[ZetaSample]:
    """zeta_quadrant (bump None) or zeta_weighted at every sigma of sigmas,
    as one batched quadrature: each sigma is one component of the vector
    quadratures, so its sample is the one-sigma call's value and error."""
    if bump is not None:
        if params.q % 2 != 0:
            raise OddQNotSupported(f"q={params.q} is odd; quadrant symmetry fails")
        if bump.R1 >= 1.0 or bump.R2 >= 1.0:
            raise DomainError("bump support must lie inside (-1,1)^2")
    Xs = [_check_window(params, s) for s in sigmas]
    Y1, Y2, scale = (params.r1, params.r2, 1.0) if bump is None else (bump.R1, bump.R2, 4.0)
    values, errors, _ = _box_integral(params, np.array(sigmas, dtype=float), cfg, Y1, Y2,
                                      bump, flat)
    return [ZetaSample(sigma=s, X=X, value=scale * float(v), error=scale * float(e))
            for s, X, v, e in zip(sigmas, Xs, values, errors)]


def zeta_quadrant(params: FamilyParams, sigma: float,
                  cfg: NumericConfig = DEFAULT_CONFIG, *, flat: bool = True) -> ZetaSample:
    """Z(sigma) over the quadrant box [0, r1] x [0, r2].

    Raises OutOfWindow unless -1/b < sigma < 0; strictly positive on success.
    With flat=False the perturbation is suppressed and the integral reduces to
    the pure monomial.
    """
    return zeta_samples(params, None, [sigma], cfg, flat=flat)[0]


def zeta_weighted(params: FamilyParams, bump: BumpSpec, sigma: float,
                  cfg: NumericConfig = DEFAULT_CONFIG, *, flat: bool = True) -> ZetaSample:
    """Full-plane integral of |f|^sigma against the bump, as 4x the quadrant.

    Needs q even so that |f(x, y)| = |f(|x|, |y|)| and the quadrant symmetry
    holds; the bump support must sit inside (-1, 1)^2.
    """
    return zeta_samples(params, bump, [sigma], cfg, flat=flat)[0]


# ---------------------------------------------------------------------------
# region pieces along lambda*y = e(x)
# ---------------------------------------------------------------------------

def _w_floor(X, lnY2: float):
    """Lower clip of the log-variable integrals int^lnY2 e^(X w)(1 + ...)^s dw
    of the region columns (X a float or an array).  For s < 0 the factor
    (1 + ...)^s is at most 1, so the mass dropped below the clip is at most
    Y2^X e^-800 / X, under the double range relative to the column.  Without
    it the interval reaches down to log e(x) ~ -1/(q x^p) (about -1e15 at
    p = 6), where tanh-sinh does not resolve the mass next to lnY2 within
    its level cap."""
    return lnY2 - 800.0 / X


def _slice_pieces(params: FamilyParams, lam: np.ndarray, sig: np.ndarray):
    """The x-pieces of the slice lambda y = e(x) for every pair (lam[i],
    sig[i]), each ((pairs, lo, width), endpoints) with x = lo + width u on
    u in (0, 1).  The slice kinks at x1 = rho(lam r2), where e(x)/lambda
    crosses the box top, or saturates at x1 = r1.  The left piece x = x1 u
    of every pair declares x^(a s) at u = 0; the right piece
    x = x1 + (r1 - x1) u of the kinked pairs is declared regular, so its
    lower end is sampled no deeper than its upper one, not at the offsets
    far below eps that round onto the kink.  A rho that underflows to 0
    raises DegenerateLowerLimit, before any quadrature."""
    x1 = np.minimum(rho(params, lam * params.r2), params.r1)
    if not np.all(x1 > 0.0):
        raise DegenerateLowerLimit(f"rho({lam[np.argmin(x1 > 0.0)] * params.r2}) underflowed to 0")
    kinked, k = np.flatnonzero(x1 < params.r1), sig.size
    return [((np.arange(k), np.zeros(k), x1), EndpointSpec(exponent_lo=params.a * sig)),
            ((kinked, x1[kinked], params.r1 - x1[kinked]), None)]


def _one_pair(params: FamilyParams, lam: float, sigma: float):
    """The checked arrays (lam, sig, Xs) of the one pair (lam, sigma) and
    its slice pieces."""
    X = _check_slice(params, lam, sigma)
    lams, sigs = np.array([lam]), np.array([sigma])
    return lams, sigs, np.array([X]), _slice_pieces(params, lams, sigs)


def _mapped(piece, us, cols):
    """Pairs, abscissae x = lo + width u and widths of the components cols
    of a piece (pairs, lo, width)."""
    pairs, lo, width = piece
    return pairs[cols], lo[cols] + width[cols] * us, width[cols]


def _on_pieces(column, pieces, tol: float, k: int):
    """Sum over pieces of the integrals on u in (0, 1) of column(piece, us,
    cols), one vector _tanh_sinh call per nonempty piece with a component
    per pair of it.  Returns (values, errors), (k,) arrays over all pairs."""
    total, err = np.zeros(k), np.zeros(k)
    for piece, ends in pieces:
        pairs = piece[0]
        if pairs.size:
            v, e, _ = _tanh_sinh(partial(column, piece), 0.0, 1.0, tol, ends, k=pairs.size)
            total[pairs] += v
            err[pairs] += e
    return total, err


def region_samples(params: FamilyParams, lams, sigmas,
                   cfg: NumericConfig = DEFAULT_CONFIG) -> list[DecompositionTrace]:
    """region_pieces at every (lambda, sigma) pair of lams x sigmas,
    lambda-major, each pair one component of every vector call on the slice
    pieces (_slice_pieces; see the module docstring).  An empty lams, or a
    lambda outside (0, inf), raises DomainError before any quadrature."""
    X_sig = [_check_window(params, s) for s in sigmas]
    if len(lams) == 0 or not all(0.0 < v < math.inf for v in lams):     # NaN fails
        raise DomainError("the region pieces need lambdas, each positive and finite")
    n_sig, q = len(X_sig), params.q
    lam = np.repeat(np.array(lams, dtype=float), n_sig)     # per pair, lambda-major
    sig = np.tile(np.array(sigmas, dtype=float), len(lams))
    Xs = np.tile(np.array(X_sig), len(lams))
    k = sig.size
    lnY2, ln_lam = math.log(params.r2), np.log(lam)
    w_floor = _w_floor(Xs, lnY2)
    dead = np.exp(Xs * lnY2) / Xs       # the z1 column where the flat term is dead
    mini_tol = min(1e-11, cfg.tol_2d * 1e-3)
    pieces = _slice_pieces(params, lam, sig)

    # inner scaled integral over the full unclipped slice, shared by all columns
    v_unclipped = _v_integrals(params, sig, 1.0 / lam, None, mini_tol)[0]

    def x_power(xs, p):
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(params.a * sig[p] * np.log(xs))

    def z2_column(piece, us, cols):
        p, xs, width = _mapped(piece, us, cols)
        ln_es = log_e_flat(params, xs)
        eX = np.where(ln_es > -np.inf, np.exp(np.maximum(Xs[p] * ln_es, -745.0)), 0.0)
        v = np.tile(v_unclipped[p], (ln_es.shape[0], 1))
        r, c = np.nonzero(ln_es - ln_lam[p] > lnY2)    # the slice e(x)/lambda leaves the box
        if r.size:
            v[r, c] = _v_integrals(params, sig[p[c]], np.exp(lnY2 - ln_es[r, c]), None,
                                   mini_tol)[0]
        return width * eX * v * x_power(xs, p)

    def z1_column(piece, us, cols):
        p, xs, width = _mapped(piece, us, cols)
        ln_es = log_e_flat(params, xs)
        out = np.tile(dead[p], (ln_es.shape[0], 1))
        live = ln_es > -np.inf
        ln_m = np.minimum(ln_es - ln_lam[p], lnY2)
        out[live & (ln_m >= lnY2)] = 0.0
        with np.errstate(over="ignore"):   # q log e overflows to -inf: E = 0
            lnE = q * ln_es
        w_lo = np.maximum(ln_m, w_floor[p])
        # a clipped pair whose flat factor is within e^-40 of 1 keeps dead[p]
        flat_dead = (w_lo == w_floor[p]) & (lnE - q * w_lo < -40.0)
        r, c = np.nonzero(live & (ln_m < lnY2) & ~flat_dead)
        if r.size:
            pc = p[c]
            out[r, c] = _w_integrals(q, sig[pc], Xs[pc], lnE[r, c], w_lo[r, c], lnY2,
                                     mini_tol)[0]
        return width * out * x_power(xs, p)

    z1, e1 = _on_pieces(z1_column, pieces, cfg.tol_2d, k)
    z2, e2 = _on_pieces(z2_column, pieces, cfg.tol_2d, k)
    zt1 = _ztilde1_values(params, lam, sig, Xs, pieces, cfg)
    zt2 = _ztilde2_values(params, lam, sig, Xs, pieces, cfg)
    return [DecompositionTrace(lam=lams[i // n_sig], sigma=sigmas[i % n_sig], z1=float(z1[i]),
                               z2=float(z2[i]), ztilde1=float(zt1[i]),
                               ztilde2=float(zt2[i]), error=float(e1[i] + e2[i]))
            for i in range(k)]


def region_pieces(params: FamilyParams, lam: float, sigma: float,
                  cfg: NumericConfig = DEFAULT_CONFIG) -> DecompositionTrace:
    """Z1, Z2 over the split regions {lambda y >= e(x)} / {lambda y < e(x)},
    plus the auxiliary integrals ztilde1/ztilde2, at one (lambda, sigma)
    (the one-pair call of region_samples)."""
    return region_samples(params, [lam], [sigma], cfg)[0]


# ---------------------------------------------------------------------------
# auxiliary 1D reductions
# ---------------------------------------------------------------------------

def _ztilde1_values(params: FamilyParams, lam: np.ndarray, sig: np.ndarray, Xs: np.ndarray,
                    pieces, cfg: NumericConfig) -> np.ndarray:
    """ztilde1 at every pair (lam, sigma, X) of the checked arrays lam, sig,
    Xs, as one vector quadrature over the left slice pieces (_slice_pieces),
    x from 0 to rho(lam r2), with a component and an endpoint exponent per
    pair."""
    a = params.a
    ln_rt2 = np.log(lam * params.r2)
    scale = np.exp(Xs * ln_rt2)

    def zt1(piece, us, cols):
        p, xs, width = _mapped(piece, us, cols)
        ln_es = log_e_flat(params, xs)
        diff = scale[p] * (-np.expm1(np.minimum(Xs[p] * (ln_es - ln_rt2[p]), 0.0)))
        with np.errstate(divide="ignore"):
            return width * np.exp(a * sig[p] * np.log(xs)) * diff

    vals = _on_pieces(zt1, pieces[:1], cfg.tol_1d, sig.size)[0]
    return np.exp(-Xs * np.log(lam)) / Xs * vals


def ztilde1(params: FamilyParams, lam: float, sigma: float,
            cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """1D form of the monomial integral over the region {lambda y >= e(x)}:

        lam^-X X^-1 int_0^rho(lam r2) x^(a s) ((lam r2)^X - e(x)^X) dx
    """
    return float(_ztilde1_values(params, *_one_pair(params, lam, sigma), cfg)[0])


def _ztilde2_values(params: FamilyParams, lam: np.ndarray, sig: np.ndarray, Xs: np.ndarray,
                    pieces, cfg: NumericConfig) -> np.ndarray:
    """ztilde2 at every pair (lam, sigma, X) of the checked arrays lam, sig,
    Xs: each of its two terms is one vector quadrature over one slice piece
    (_slice_pieces) with a component per pair, (0, rho) for every pair and
    (rho, r1) for the pairs with rho < r1."""
    a, q = params.a, params.q
    denom = Xs - q * sig

    def zt2_left(piece, us, cols):
        p, xs, width = _mapped(piece, us, cols)
        ln_es = log_e_flat(params, xs)
        with np.errstate(divide="ignore"):
            return width * np.exp(a * sig[p] * np.log(xs) + np.maximum(Xs[p] * ln_es, -745.0))

    def zt2_right(piece, us, cols):
        p, xs, width = _mapped(piece, us, cols)
        ln_es = log_e_flat(params, xs)
        return width * np.exp(a * sig[p] * np.log(xs) + q * sig[p] * ln_es)

    left = _on_pieces(zt2_left, pieces[:1], cfg.tol_1d, sig.size)[0]
    right = _on_pieces(zt2_right, pieces[1:], cfg.tol_1d, sig.size)[0]
    return (left * (np.exp(-denom * np.log(lam)) / denom)
            + np.exp(denom * math.log(params.r2)) / denom * right)


def ztilde2(params: FamilyParams, lam: float, sigma: float,
            cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Two-piece 1D reduction of the flat-side auxiliary integral:

        (X - q s)^-1 [ lam^-(X-qs) int_0^rho x^(a s) e(x)^X dx
                       + r2^(X-qs) int_rho^r1 x^(a s) e^(-s/x^p) dx ],
    with rho = rho(lam r2).  The lower limit rho > 0 keeps the growing factor
    e^(-s/x^p) finite on the second piece.
    """
    return float(_ztilde2_values(params, *_one_pair(params, lam, sigma), cfg)[0])


def ztilde1_2d(params: FamilyParams, lam: float, sigma: float,
               cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Direct iterated quadrature of x^(a s) y^(b s) over {lambda y >= e(x)},
    for cross-checking the 1D reduction: its own inner quadrature on each
    column, on the slice pieces of ztilde1."""
    _, _, (X,), pieces = _one_pair(params, lam, sigma)
    lnY2, ln_lam = math.log(params.r2), math.log(lam)
    w_floor = _w_floor(X, lnY2)

    def zt1_2d(piece, us, cols):
        _, xs, width = _mapped(piece, us, cols)
        x = xs[:, 0]
        ln_c = log_e_flat(params, x) - ln_lam
        out = np.zeros_like(x)
        sel = ln_c < lnY2
        if sel.any():     # int_c^r2 y^(X-1) dy in w = log y, c = e(x)/lambda
            out[sel] = _w_integrals(params.q, sigma, X, np.full(np.count_nonzero(sel), -np.inf),
                                    np.maximum(ln_c[sel], w_floor), lnY2, cfg.tol_2d / 5.0)[0]
        with np.errstate(divide="ignore", over="ignore"):
            out *= np.exp(params.a * sigma * np.log(x))
        return width * out[:, None]

    return float(_on_pieces(zt1_2d, pieces, cfg.tol_2d, 1)[0][0])


def ztilde2_2d(params: FamilyParams, lam: float, sigma: float,
               cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Direct iterated quadrature of x^(a s) y^((b-q)s) e^(-s/x^p) over
    {lambda y < e(x)}, for cross-checking the two-piece reduction, on the
    slice pieces of ztilde2.  The inner integral is v0 m^((b-q)s+1),
    m = min(e(x)/lambda, r2), with v0 the quadrature of v^((b-q)s) over
    (0, 1)."""
    *_, pieces = _one_pair(params, lam, sigma)
    a, q = params.a, params.q
    bq = (params.b - params.q) * sigma
    lnY2, ln_lam = math.log(params.r2), math.log(lam)

    def fv(vs):
        with np.errstate(divide="ignore"):
            return np.exp(bq * np.log(vs))

    v0 = integrate_1d(fv, 0.0, 1.0, EndpointSpec(exponent_lo=bq), cfg.tol_2d / 5.0).value

    def zt2_2d(piece, us, cols):
        _, xs, width = _mapped(piece, us, cols)
        ln_es = log_e_flat(params, xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_col = (a * sigma * np.log(xs) + q * sigma * ln_es
                      + (bq + 1.0) * np.minimum(ln_es - ln_lam, lnY2))
            # where ln e = -inf, ln_col is inf - inf; the column vanishes there
            col = np.where((ln_es > -np.inf) & (ln_col >= -740.0), np.exp(ln_col) * v0, 0.0)
        return width * col

    return float(_on_pieces(zt2_2d, pieces, cfg.tol_2d, 1)[0][0])


# ---------------------------------------------------------------------------
# proof-level parts: G (supercritical rescaling), H (critical), J (subcritical)
# ---------------------------------------------------------------------------

def _from_one(f, U: float, cfg: NumericConfig) -> float:
    """int_1^U f(u) du for U on either side of 1; 0 for U = 1, where the
    G2 and H2 intervals are empty."""
    if U == 1.0:
        return 0.0
    val = integrate_1d(f, min(1.0, U), max(1.0, U), tol=cfg.tol_1d).value
    return val if U > 1.0 else -val


def g_pieces(params: FamilyParams, lam: float, sigma: float,
             cfg: NumericConfig = DEFAULT_CONFIG):
    """G1, G2, G3 after the rescaling u = X^(-1/p) x:

        G1 = int_0^1 u^(a s)(rt2^X - e(u)) du
        G2 = int_1^U u^(a s)(1 - e(u)) du,      U = rho(rt2) / X^(1/p)
        G3 = (rt2^X - 1) int_1^U u^(a s) du
    """
    X = _check_slice(params, lam, sigma)
    a = params.a
    rt2 = lam * params.r2
    ln_rt2 = math.log(rt2)
    rt2X = math.exp(X * ln_rt2)
    U = rho(params, rt2) * math.exp(-math.log(X) * float(1 / params.p))

    def e_of(us):
        ln_es = log_e_flat(params, us)
        return np.exp(np.maximum(ln_es, -745.0)) * (ln_es > -math.inf)

    def f1(us):
        with np.errstate(divide="ignore"):
            return np.exp(a * sigma * np.log(us)) * (rt2X - e_of(us))

    g1 = integrate_1d(f1, 0.0, 1.0, EndpointSpec(exponent_lo=a * sigma), cfg.tol_1d).value

    def f2(us):
        ln_es = log_e_flat(params, us)
        return np.exp(a * sigma * np.log(us)) * (-np.expm1(ln_es))

    g2 = _from_one(f2, U, cfg)

    asp1 = a * sigma + 1.0
    g3 = math.expm1(X * ln_rt2) * (U**asp1 - 1.0) / asp1
    return g1, g2, g3


def h_pieces(params: FamilyParams, lam: float, sigma: float,
             cfg: NumericConfig = DEFAULT_CONFIG):
    """Critical-regime split of G2: H1 = q^-1 (log rho(rt2) - p^-1 log X) and
    H2 = int_1^U (q^-1 / u - u^(a s)(1 - e(u))) du, so G2 = H1 - H2."""
    X = _check_slice(params, lam, sigma)
    a, q = params.a, params.q
    rt2 = lam * params.r2
    rho_v = rho(params, rt2)
    p = params.p_float
    U = rho_v * math.exp(-math.log(X) / p)
    h1 = (math.log(rho_v) - math.log(X) / p) / q

    def f(us):
        ln_es = log_e_flat(params, us)
        return 1.0 / (q * us) - np.exp(a * sigma * np.log(us)) * (-np.expm1(ln_es))

    return h1, _from_one(f, U, cfg)


def j_pieces(params: FamilyParams, lam: float, sigma: float,
             cfg: NumericConfig = DEFAULT_CONFIG):
    """Subcritical split of the 1D reduction:

        J1 = lam^-X int_0^rho x^(a s) (1 - e(x)^X)/X dx
        J2 = lam^-X (rt2^X - 1)/X int_0^rho x^(a s) dx
    """
    X = _check_slice(params, lam, sigma)
    a = params.a
    rt2 = lam * params.r2
    rho_v = rho(params, rt2)
    lamX = math.exp(-X * math.log(lam))

    def f(xs):
        ln_es = log_e_flat(params, xs)
        return np.exp(a * sigma * np.log(xs)) * (-np.expm1(np.maximum(X * ln_es, -745.0))) / X

    j1 = integrate_1d(f, 0.0, rho_v, EndpointSpec(exponent_lo=a * sigma), cfg.tol_1d).value
    asp1 = a * sigma + 1.0
    j2 = math.expm1(X * math.log(rt2)) / X * rho_v**asp1 / asp1
    return lamX * j1, lamX * j2


# ---------------------------------------------------------------------------
# log-derivative integrals D_j(s) = int |f|^s (log|f|)^j phi
# ---------------------------------------------------------------------------

def _check_log_moments(params: FamilyParams, bump: BumpSpec, s: float, j,
                       flat: bool) -> int:
    """Validate the arguments of D_j(s), returning j as an int."""
    if j < 0 or not float(j).is_integer():
        raise DomainError("j must be a nonnegative integer")
    if params.q % 2 != 0:
        raise OddQNotSupported(f"q={params.q} is odd")
    c0 = 1.0 / params.b
    if not s > -c0:      # NaN fails
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
    |f|^s (log|f|)^j phi on shared nodes.  The J + 1 moments of one abscissa
    are one group of the vector calls (see _tanh_sinh), so they stop
    refining together, once every moment has converged; the inner integrals
    of all abscissae of an outer level are one call with a group each.
    Requires |f| < 1 on the support, so that sign(D_j) = (-1)^j."""
    J = _check_log_moments(params, bump, s, J, flat)
    a, b, q, G = params.a, params.b, params.q, J + 1
    # where E(x) is far below y^q the integrand goes as y^(b s) (log|f|)^j
    ep_y = EndpointSpec(exponent_lo=b * s if s < 0 else 0.0)

    def column(xs, cols):      # cols is every moment: the one group
        x = xs[:, 0]
        ln_es = log_e_flat(params, x) if flat else np.full_like(x, -np.inf)
        with np.errstate(over="ignore"):   # q log e overflows to -inf: E = 0
            lnE = q * ln_es
        lnx = np.log(x)

        def fy(ys, cols):      # whole groups: the moments of the abscissae i
            i = cols[::G] // G
            lny = np.log(ys[:, 0])[:, None]
            ln_fy = (b - q) * lny + np.logaddexp(q * lny, lnE[i])    # log|f| - a log x
            pows = np.empty(ln_fy.shape + (G,))
            pows[..., 0] = 1.0
            pows[..., 1:] = (a * lnx[i] + ln_fy)[..., None]
            # (log|f|)^j, the products np.vander takes; they may overflow at the
            # deepest nodes next to a singular endpoint, which _tanh_sinh drops
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply.accumulate(pows[..., 1:], axis=-1, out=pows[..., 1:])
                pows *= (np.exp(s * ln_fy) * bump_y_profile(bump, ys[:, 0])[:, None])[..., None]
            return pows.reshape(ys.shape[0], -1)

        vals = _tanh_sinh(fy, 0.0, bump.R2, cfg.tol_2d / 5.0, ep_y, k=x.size * G,
                          group=G)[0].reshape(x.size, G)
        # x^(a s) is kept out of fy: where it falls below the normal range the
        # inner values would carry its rounding noise, and refinement would
        # chase that noise to the level cap
        with np.errstate(over="ignore"):
            vals *= np.exp(a * s * lnx)[:, None]
        vals *= bump_x_profile(bump, x)[:, None]
        return vals

    vals, _, _ = _tanh_sinh(column, 0.0, bump.R1, cfg.tol_2d, EndpointSpec(exponent_lo=a * s),
                            k=G, group=G)
    return 4.0 * vals


def log_derivative_integral(params: FamilyParams, bump: BumpSpec, s: float, j: int,
                            cfg: NumericConfig = DEFAULT_CONFIG, *,
                            flat: bool = True) -> float:
    """D_j(s) over the plane (4x quadrant), requiring |f| < 1 on the support
    so that sign(D_j) = (-1)^j.  D_0 at s < 0, where the y-mass sits next
    to the singular endpoint, runs on the weighted engine (_box_integral,
    closed-form inner columns); every other D_j is entry j of
    log_derivative_moments."""
    j = _check_log_moments(params, bump, s, j, flat)
    if j > 0 or s >= 0.0:
        return float(log_derivative_moments(params, bump, s, j, cfg, flat=flat)[j])
    (value,), _, _ = _box_integral(params, np.array([s]), cfg, bump.R1, bump.R2, bump, flat)
    return 4.0 * float(value)
