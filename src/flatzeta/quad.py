"""Quadrature engines built on the tanh-sinh (double exponential) transform.

A single variable change absorbs every algebraic endpoint singularity
x^beta with beta > -1, with uniform behavior as beta -> -1, so no
exponent-dependent substitutions are needed.  Three entry points:

    integrate_1d       finite interval, integrable endpoint singularities
    integrate_tail     semi-infinite tail with a caller-certified envelope
    integrate_2d_split iterated 2D integral, inner interval split on a curve

Integrands are called with numpy arrays of abscissae; scalar-only callables
are adapted automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EnvelopeViolation, NonConvergence

_PI_2 = math.pi / 2.0
#: Largest |t| kept in the trapezoidal sum; beyond this the distance of the
#: mapped node from the endpoint underflows double precision.
_T_MAX = 6.1
#: Nodes whose endpoint offset falls below this are dropped (the mapped
#: abscissa would round onto the singular endpoint itself).
_OFF_MIN = 1e-305

_LEVEL_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _level_nodes(level: int):
    """New trapezoid nodes introduced at refinement level `level`.

    Returns (t, off, w) with off the distance of the mapped abscissa from the
    nearer endpoint of the unit interval and w the map derivative dg/dt, both
    evaluated in underflow-safe form.  Level 0 holds t = 0, 1, 2, ...; level
    L >= 1 holds the odd multiples of 2^-L.
    """
    cached = _LEVEL_CACHE.get(level)
    if cached is not None:
        return cached
    h = 1.0 / (1 << level)
    if level == 0:
        ts = np.arange(0.0, _T_MAX, 1.0)
    else:
        ts = np.arange(h, _T_MAX, 2.0 * h)
    u = _PI_2 * np.sinh(ts)
    em = np.exp(-2.0 * u)
    off = em / (1.0 + em)                      # (1 - tanh u)/2, no cancellation
    w = _PI_2 * np.cosh(ts) * 2.0 * em / (1.0 + em) ** 2   # dg/dt = (pi/4) cosh t sech^2 u
    keep = (off > _OFF_MIN) & (w > 0.0) & np.isfinite(w)
    entry = (ts[keep], off[keep], w[keep])
    _LEVEL_CACHE[level] = entry
    return entry


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0.0:
            raise DomainError("error estimate must be nonnegative")


@dataclass(frozen=True)
class EndpointSpec:
    """Declared endpoint behavior: integrand ~ (x - lo)^exponent_lo near lo
    and ~ (hi - x)^exponent_hi near hi.  Both must exceed -1 (integrability)."""

    exponent_lo: float = 0.0
    exponent_hi: float = 0.0

    def __post_init__(self):
        if self.exponent_lo <= -1.0 or self.exponent_hi <= -1.0:
            raise DomainError("endpoint exponents must be > -1 for integrability")


def _as_vectorized(f, p1: float, p2: float):
    """Accept scalar-only integrands by probing with a small in-domain array."""
    try:
        probe = f(np.asarray([p1, p2]))
        arr = np.asarray(probe, dtype=float)
        if arr.shape == (2,):
            return f
    except Exception:
        pass
    return lambda xs: np.asarray([float(f(float(x))) for x in xs], dtype=float)


def _endpoint_remainder(deep_f, deep_d, endpoints: Optional[EndpointSpec]):
    """Unresolved endpoint mass below the deepest representable node: for an
    integrable power (x-lo)^beta the remainder is f(d)*d/(1+beta).  Vector
    form of the bound at the end of `_tanh_sinh`; d = inf means no node."""
    if endpoints is None:
        return 0.0
    beta = min(endpoints.exponent_lo, endpoints.exponent_hi)
    return deep_f * np.where(np.isfinite(deep_d), deep_d, 0.0) / (1.0 + beta)


def _tanh_sinh(f, lo: float, hi: float, tol: float, max_levels: int,
               endpoints: Optional[EndpointSpec] = None, abs_tol: float = 0.0):
    """Core refinement loop on a finite interval.  f must accept arrays.

    f returns either (n,) values, giving a float value and error, or an (n, k)
    matrix of k integrands on the same nodes, giving (k,) values and errors.
    In the vector case each stopping rule below is applied per component, and
    refinement stops at the first level where every component meets one.  A
    component's error is the larger of the estimate at the level where it
    first met a rule, which a scalar call would have returned, and the
    estimate at the final level.
    """
    span = hi - lo
    running = 0.0            # sum of w * f over all retained nodes so far
    evals = 0
    prev = None
    err = math.inf
    prev_err = math.inf
    value = 0.0
    deep_d = math.inf        # distance and |f| of the deepest sampled node,
    deep_f = 0.0             # used below for the endpoint remainder bound
    vec = None               # set from the first evaluation: (n, k) integrand
    for level in range(max_levels + 1):
        ts, off, w = _level_nodes(level)
        if ts.size == 0:
            continue
        left_first = 1 if (level == 0) else 0   # t = 0 maps to the midpoint, once
        x_left = lo + span * off
        x_right = hi - span * off
        ok_l = x_left > lo
        ok_r = x_right < hi
        xs = np.concatenate([x_left[ok_l], x_right[left_first:][ok_r[left_first:]]])
        ws = np.concatenate([w[ok_l], w[left_first:][ok_r[left_first:]]])
        fs = f(xs)
        fs = np.asarray(fs, dtype=float)
        if vec is None:
            vec = fs.ndim == 2
            if vec:
                cols = np.arange(fs.shape[1])
                deep_d = np.full(cols.size, math.inf)
                deep_f = np.zeros(cols.size)
                met = np.zeros(cols.size, dtype=bool)    # stopping rule met now
                seen = np.zeros(cols.size, dtype=bool)   # ... at some level
                floor = np.zeros(cols.size)   # error estimate when first met
        finite = np.isfinite(fs)
        all_finite = np.all(finite)
        if not all_finite:
            # A declared integrable endpoint singularity may overflow pointwise
            # at the deepest nodes even though its weighted contribution is
            # negligible; drop those nodes (the unresolved-mass bound below
            # accounts for them).  Anything non-finite away from a declared
            # singular endpoint is a real failure.
            droppable = np.zeros(xs.shape, dtype=bool)
            if endpoints is not None:
                if endpoints.exponent_lo < 0.0:
                    droppable |= (xs - lo) < 1e-100 * span
                if endpoints.exponent_hi < 0.0:
                    droppable |= (hi - xs) < 1e-100 * span
            bad = ~finite & (~droppable[:, None] if vec else ~droppable)
            if np.any(bad):
                bad_x = xs[bad.any(axis=1) if vec else bad][:3]
                raise NonConvergence(f"integrand non-finite near x={bad_x.tolist()}")
            fs = np.where(finite, fs, 0.0)
        evals += xs.size
        h = 1.0 / (1 << level)
        if vec:
            running = running + ws @ fs
            value = span * h * running
            dist = np.minimum(xs - lo, hi - xs)
            if all_finite:    # one deepest node for all components
                i = int(np.argmin(dist))
                node_d, node_f = dist[i], np.abs(fs[i])
            else:
                dist = np.where(finite, dist[:, None], np.inf)
                i = np.argmin(dist, axis=0)
                node_d, node_f = dist[i, cols], np.abs(fs[i, cols])
            deeper = node_d < deep_d
            deep_d = np.where(deeper, node_d, deep_d)
            deep_f = np.where(deeper, node_f, deep_f)
            if prev is not None:
                prev_err, err = err, np.abs(value - prev)
                scale = np.maximum(np.abs(value), 1e-300)
                met = np.zeros(cols.size, dtype=bool)
                if level >= 2:
                    met |= (err <= tol * scale) | (err <= abs_tol)
                if level >= 4:   # stagnation, as in the scalar branch below
                    met |= (err >= 0.25 * prev_err) & (err <= 1e-3 * scale)
                first = met & ~seen
                if np.any(first):
                    floor = np.where(first, err + _endpoint_remainder(deep_f, deep_d, endpoints),
                                     floor)
                    seen |= met
                if met.all():
                    break
            prev = value
            fs = finite = None   # free the (n, k) matrix before the next level's
            continue
        running += float(np.dot(ws, fs))
        value = span * h * running
        if np.any(finite):
            dist = np.where(finite, np.minimum(xs - lo, hi - xs), np.inf)
            i = int(np.argmin(dist))
            if dist[i] < deep_d:
                deep_d, deep_f = float(dist[i]), abs(float(fs[i]))
        if prev is not None:
            prev_err, err = err, abs(value - prev)
            if level >= 2 and (err <= tol * max(abs(value), 1e-300) or err <= abs_tol):
                break
            # Stagnation: refinement stopped helping while the step sits at a
            # small relative floor.  This happens when part of the mass lies
            # below the double-precision representability limit; accept and
            # report the floor as the error estimate rather than iterating.
            if (level >= 4 and err >= 0.25 * prev_err
                    and err <= 1e-3 * max(abs(value), 1e-300)):
                break
        prev = value
    else:
        # Refinement cap reached.  A last step below 1% of the value means the
        # result is usable with an honest (inflated) error bar; this happens
        # for pieces whose mass sits at the representability floor.  Anything
        # worse is a genuine failure.
        if vec:
            loose = ~met & ~(err <= 1e-2 * np.maximum(np.abs(value), 1e-300))
            if np.any(loose):
                c = int(np.argmax(loose))
                raise NonConvergence(
                    f"tanh-sinh did not reach tol={tol:g} within {max_levels} levels "
                    f"(component {c}: last value {value[c]:.6g}, last step {err[c]:.3g})")
            err = np.where(met, err, 3.0 * err)
        else:
            if not err <= 1e-2 * max(abs(value), 1e-300):
                raise NonConvergence(
                    f"tanh-sinh did not reach tol={tol:g} within {max_levels} levels "
                    f"(last value {value:.6g}, last step {err:.3g})")
            err *= 3.0
    if vec:
        err = np.where(np.isinf(err), np.abs(value), err)
        err = np.maximum(err + _endpoint_remainder(deep_f, deep_d, endpoints), floor)
        return value, err, evals
    if err == math.inf:
        err = abs(value)
    # Unresolved endpoint mass below the deepest representable node: for an
    # integrable power (x-lo)^beta the remainder is f(d)*d/(1+beta).
    if endpoints is not None and math.isfinite(deep_d):
        beta = min(endpoints.exponent_lo, endpoints.exponent_hi)
        err += deep_f * deep_d / (1.0 + beta)
    return value, err, evals


def integrate_1d(f, lo: float, hi: float, endpoints: Optional[EndpointSpec] = None,
                 tol: float = 1e-10, max_levels: int = 12) -> QuadResult:
    """Integrate f over (lo, hi) with integrable endpoint singularities.

    Parameters
    ----------
    f : callable
        Integrand; called with numpy arrays of interior points (never the
        endpoints themselves).
    lo, hi : float
        Finite interval, lo < hi.
    endpoints : EndpointSpec, optional
        Declared endpoint exponents; validated > -1 and used to bound the
        unresolvable mass next to the endpoints.
    tol : float
        Relative tolerance target.

    Raises
    ------
    DomainError      on a bad interval or non-integrable declared exponent.
    NonConvergence   when the refinement cap is hit with the error above tol.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"need finite lo < hi, got ({lo}, {hi})")
    if endpoints is None:
        endpoints = EndpointSpec()
    fv = _as_vectorized(f, lo + 0.37 * (hi - lo), lo + 0.71 * (hi - lo))
    value, err, evals = _tanh_sinh(fv, lo, hi, tol, max_levels, endpoints)
    return QuadResult(value, err, evals)


def integrate_tail(f, lo: float, tail_exponent: float, envelope_k: float,
                   tol: float = 1e-10, max_levels: int = 12) -> QuadResult:
    """Integrate f over (lo, infinity) given |f(x)| <= envelope_k * x^tail_exponent.

    The integral is truncated at an x_max chosen so the certified analytic
    remainder envelope_k * x_max^(gamma+1)/|gamma+1| is far below tol, then
    mapped through u = 1/x onto a finite interval.  The remainder is added to
    the error estimate, so the result covers the full infinite tail.

    Raises EnvelopeViolation if a sampled |f| exceeds the envelope.
    """
    gamma = tail_exponent
    if gamma >= -1.0:
        raise DomainError(f"tail exponent must be < -1, got {gamma}")
    if lo <= 0.0:
        raise DomainError(f"need lo > 0, got {lo}")
    if envelope_k <= 0.0:
        raise DomainError("envelope constant must be positive")
    # remainder(x)/remainder(lo) = (x/lo)^(gamma+1); push it below 0.005*tol
    x_max = lo * (0.005 * tol) ** (1.0 / (gamma + 1.0))
    x_max = max(x_max, 4.0 * lo)
    remainder = envelope_k * x_max ** (gamma + 1.0) / abs(gamma + 1.0)
    fv = _as_vectorized(f, 1.5 * lo, 2.5 * lo)

    def g(us):
        with np.errstate(over="ignore", divide="ignore"):
            xs = 1.0 / us
            vals = np.asarray(fv(xs), dtype=float)
            bound = envelope_k * np.power(xs, gamma) * (1.0 + 1e-9) + 1e-300
            if np.any(np.abs(vals) > bound):
                i = int(np.argmax(np.abs(vals) - bound))
                raise EnvelopeViolation(
                    f"|f({xs[i]:.6g})| = {abs(vals[i]):.6g} exceeds envelope {bound[i]:.6g}")
            return vals / (us * us)

    value, err, evals = _tanh_sinh(g, 1.0 / x_max, 1.0 / lo, tol, max_levels,
                                   EndpointSpec(exponent_lo=-gamma - 2.0))
    return QuadResult(value, err + remainder, evals)


def integrate_2d_split(g, x_range: tuple[float, float], y_range: tuple[float, float],
                       split_curve: Callable[[float], float],
                       endpoints_x: Optional[EndpointSpec] = None,
                       endpoints_y: Optional[EndpointSpec] = None,
                       tol: float = 1e-7, max_levels: int = 12) -> QuadResult:
    """Iterated integral of g over x_range x y_range, outer in x, inner in y.

    The inner interval is subdivided exactly at split_curve(x) (clipped to the
    box), so no quadrature panel straddles the curve.
    """
    below, above = integrate_2d_pieces(g, x_range, y_range, split_curve,
                                       endpoints_x, endpoints_y, tol, max_levels)
    return QuadResult(below.value + above.value,
                      below.abs_error_estimate + above.abs_error_estimate,
                      below.evaluations + above.evaluations)


def integrate_2d_pieces(g, x_range, y_range, split_curve,
                        endpoints_x=None, endpoints_y=None,
                        tol: float = 1e-7, max_levels: int = 12):
    """Like integrate_2d_split but returning (below-curve, above-curve) parts."""
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    if x_lo >= x_hi or y_lo >= y_hi:
        raise DomainError("degenerate integration box")
    if endpoints_x is None:
        endpoints_x = EndpointSpec()
    if endpoints_y is None:
        endpoints_y = EndpointSpec()
    inner_tol = tol / 5.0
    # Inner errors are tracked relative to the inner values: the outer weights
    # then scale them the same way they scale the values themselves.
    state = {"evals": 0, "inner_rel_below": 0.0, "inner_rel_above": 0.0, "n": 0}

    def g_vec(x: float, ys):
        try:
            vals = np.asarray(g(x, ys), dtype=float)
            if vals.shape == ys.shape:
                return vals
        except Exception:
            pass
        return np.asarray([float(g(x, float(y))) for y in ys], dtype=float)

    def make_outer(which: str):
        def outer(xs):
            out = np.empty(xs.shape, dtype=float)
            for i, x in enumerate(xs):
                c = min(max(split_curve(float(x)), y_lo), y_hi)
                lo_i, hi_i = (y_lo, c) if which == "below" else (c, y_hi)
                if hi_i - lo_i <= 0.0:
                    out[i] = 0.0
                    continue
                ep = EndpointSpec(
                    exponent_lo=endpoints_y.exponent_lo if lo_i == y_lo else 0.0,
                    exponent_hi=endpoints_y.exponent_hi if hi_i == y_hi else 0.0)
                val, err, ev = _tanh_sinh(lambda ys, xv=float(x): g_vec(xv, ys),
                                          lo_i, hi_i, inner_tol, max_levels, ep)
                state["evals"] += ev
                state["inner_rel_" + which] += err / max(abs(val), 1e-300)
                state["n"] += 1
                out[i] = val
            return out
        return outer

    results = []
    for which in ("below", "above"):
        state["n"] = 0
        val, err, ev = _tanh_sinh(make_outer(which), x_lo, x_hi, tol, max_levels, endpoints_x)
        mean_rel = state["inner_rel_" + which] / max(state["n"], 1)
        results.append(QuadResult(val, err + mean_rel * abs(val), state["evals"] + ev))
        state["evals"] = 0
    return results[0], results[1]
