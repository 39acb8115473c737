"""Quadrature engine built on the tanh-sinh (double exponential) transform.

A single variable change absorbs every algebraic endpoint singularity
x^beta with beta > -1, with uniform behavior as beta -> -1, so no
exponent-dependent substitutions are needed.  The entry point is
integrate_1d: a finite interval with integrable endpoint singularities.

integrate_1d's integrand is called with numpy arrays of abscissae and must
return arrays of the same length; it runs on the one refinement loop
`_tanh_sinh` as a call with a single component.  Iterated 2D integrals are
built on the loop in flatzeta.zeta: one call integrates all inner columns of
one outer level at once on a shared interval, each column, or each group of
moment columns of one inner row, retiring at its own level.  A component
stops on one rule, its step between levels within tol of its value (tol
one for all components or one per component), and every call refines at
most MAX_LEVELS times.  That rule retires nothing before level 2, and as
the error roughly squares at each level, at the tols in use (1e-7 to
1e-11) few components retire before level 4.  So the first integrand call
(per block of components) takes the nodes of levels 0 to 4 together and
each later call one level.  One rule holds for every level of every call:
its sums, failures and deepest nodes are held by component until the loop
reaches the level, and apply to the components still refining only.  So
components retire level by level, with the values and errors of one call
per level, in fewer and larger calls; a component that retires at level 2
or 3 is evaluated up to level 4 anyway.  In an iterated integral outer
levels 0-4 then make one inner call instead of five.

A `_tanh_sinh` call that declares an EndpointSpec (integrate_1d always
does) samples lo as deep as doubles allow, for mass that hides next to lo.
A call with endpoints None declares both ends regular and samples lo no
deeper than hi, whose nodes round onto hi below an offset of about eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, NonConvergence

_PI_2 = math.pi / 2.0
#: Largest |t| kept in the trapezoidal sum; beyond this the distance of the
#: mapped node from the endpoint underflows double precision.
_T_MAX = 6.1
#: Nodes whose endpoint offset falls below this are dropped (the mapped
#: abscissa would round onto the singular endpoint itself).
_OFF_MIN = 1e-305

#: Most mesh-halving refinement levels of one _tanh_sinh call (each level
#: roughly doubles the node count).
MAX_LEVELS = 12

#: Most (node, component) values one integrand call of _tanh_sinh
#: computes; wider levels are evaluated in blocks of components.
_BLOCK_CELLS = 1 << 14

#: Last refinement level of the first integrand call per block of
#: components: levels 0 to _FIRST_SPAN go in one call, each later level in
#: a call of its own, and the loop reads every level when it reaches it,
#: whichever call evaluated it.  At the tols in use (1e-7 to 1e-11) few
#: components retire before level 4 (under one in ten in the schedule and
#: verify bench workloads, none in landau), and those that do are evaluated
#: up to level 4 anyway; a span of 5 would waste level 5 on the Landau
#: moments, which all retire at level 4.
_FIRST_SPAN = 4


@lru_cache
def _level_nodes(level: int):
    """New trapezoid nodes introduced at refinement level `level`.

    Returns (off, w), read-only, with off the distance of the mapped abscissa
    from the nearer endpoint of the unit interval and w the map derivative
    dg/dt, both evaluated in underflow-safe form.  Level 0 holds t = 0, 1,
    2, ...; level L >= 1 holds the odd multiples of 2^-L.
    """
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
    off, w = off[keep], w[keep]
    off.flags.writeable = w.flags.writeable = False
    return off, w


@lru_cache(maxsize=64)
def _nodes(level: int, lo: float, hi: float, regular: bool):
    """The nodes refinement level `level` adds on (lo, hi), without those
    that round onto an endpoint: abscissae, weights, distances from the
    nearer endpoint, and the index and distance of the deepest node (inf
    on an empty level).  With regular (both ends regular) the lo side keeps
    only the offsets that the hi side keeps, so it is sampled no deeper
    than rounding lets the hi end be.  Read-only, as calls on the same
    interval share them."""
    off, w = _level_nodes(level)
    span = hi - lo
    x_left = lo + span * off
    x_right = hi - span * off
    ok_l = x_left > lo
    ok_r = x_right < hi
    if regular:
        ok_l &= ok_r
    if level == 0:
        ok_r[0] = False     # t = 0 maps to the midpoint, taken once on the left
    xs = np.concatenate([x_left[ok_l], x_right[ok_r]])
    ws = np.concatenate([w[ok_l], w[ok_r]])
    dist = np.minimum(xs - lo, hi - xs)
    xs.flags.writeable = ws.flags.writeable = dist.flags.writeable = False
    if not dist.size:
        return xs, ws, dist, 0, math.inf
    i = int(np.argmin(dist))
    return xs, ws, dist, i, float(dist[i])


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
    """Declared endpoint behavior: integrand ~ (x - lo)^exponent_lo near lo.
    The exponent, one for all components or a (k,) array of one each, must
    exceed -1 (integrability) and may not be NaN."""

    exponent_lo: float | np.ndarray = 0.0

    def __post_init__(self):
        if not np.all(np.asarray(self.exponent_lo) > -1.0):     # NaN fails
            raise DomainError("the endpoint exponent must be > -1 for integrability")


def _endpoint_remainder(deep_f, deep_d, beta, comps):
    """Unresolved endpoint mass below the deepest sampled node: for an
    integrable power (x-lo)^beta the remainder is f(d)*d/(1+beta), with the
    declared beta[c] of each component c of comps; d = inf: no node sampled."""
    if beta is None:
        return 0.0
    d = np.where(np.isfinite(deep_d), deep_d, 0.0)
    return deep_f * d / (1.0 + np.minimum(beta[comps], 0.0))


def _droppable(xs, lo, hi, beta, comps):
    """(n, m) mask of the nodes xs next to lo where the components comps
    declare beta[c] < 0: a non-finite value there overflows an integrable
    singularity rather than a failure."""
    if beta is None:
        return np.zeros((xs.size, 1), dtype=bool)
    return ((xs - lo) < 1e-100 * (hi - lo))[:, None] & (beta[comps] < 0.0)


def _level_sums(fs, nodes, lo, hi, beta, comps, sums, failed, deep):
    """Sum of w * f per component over the nodes of one level (_nodes), fs
    their (n, m) values for the components comps, into sums (m,); the row
    of each component's first failed value into failed (m,), left as it
    is where none; unless deep is None, the distance and |f| of each
    component's deepest finite node into deep (2, m), left at inf where
    none.  The three are the block's slices of the call's arrays.

    Every weight is > 0, so the values are scanned only where a sum is not
    finite.  A declared integrable endpoint singularity may overflow
    pointwise at the deepest nodes even though its weighted contribution is
    negligible; those nodes are dropped (the endpoint remainder accounts for
    them).  Anything non-finite away from a declared singular endpoint is a
    real failure, left to the caller to raise (_raise_failed) once its
    component reaches the level."""
    xs, ws, dist, i, d = nodes
    # one dot product per component on its own contiguous row, so its sum
    # does not depend on the components beside it
    sums[:] = np.vecdot(np.ascontiguousarray(fs.T), ws)
    if np.isfinite(sums).all():
        if deep is not None and d < math.inf:      # the level has nodes
            deep[0] = d
            deep[1] = np.abs(fs[i])
        return
    good = np.isfinite(fs)
    bad = ~good & ~_droppable(xs, lo, hi, beta, comps)
    np.copyto(failed, bad.argmax(axis=0), where=bad.any(axis=0))
    fs = np.where(good, fs, 0.0)
    if deep is not None:
        dist_c = np.where(good, dist[:, None], np.inf)
        near = dist_c.argmin(axis=0)
        cols = np.arange(fs.shape[1])
        deep[0] = dist_c[near, cols]
        deep[1] = np.abs(fs[near, cols])
    sums[:] = np.vecdot(np.ascontiguousarray(fs.T), ws)


def _raise_failed(failed, xs, comps):
    """Raise NonConvergence naming the first failed value (_level_sums) of
    the components comps on the nodes xs, by row and then by component, if
    there is one (a row of xs.size or more is none)."""
    c = failed.argmin()
    if failed[c] < xs.size:
        raise NonConvergence(f"integrand non-finite near x={float(xs[failed[c]])!r} "
                             f"(component {comps[c]})")


def _capped(err, value):
    """At the refinement cap a last step below 1% of the value still gives a
    usable result with an inflated (3x) error bar; this happens for pieces
    whose mass sits at the representability floor.  Anything worse is a
    genuine failure: returns the mask of those components."""
    return ~(err <= 1e-2 * np.maximum(abs(value), 1e-300))


def _tanh_sinh(f, lo: float, hi: float, tol: float | np.ndarray,
               endpoints: Optional[EndpointSpec] = None, *, k: int, group: int = 1):
    """Core refinement loop on the finite interval (lo, hi): integrates k
    components on shared nodes.  Returns (value, error, evaluations), value
    and error (k,) arrays.

    f(xs, cols) receives one (n, 1) column of abscissae and the indices cols
    of the m components still refining, and returns (n, m) values, in blocks
    of at most _BLOCK_CELLS values.  The first call per block gets the nodes
    of levels 0 to _FIRST_SPAN in level order, each later call those of one
    level.  Each level is summed on its own rows of the result, in level
    order, and its values are scanned for non-finite ones only where a sum
    is not finite; with an EndpointSpec each level is also tracked for each
    component's deepest finite node (_level_sums).  Every level keeps its
    sums, failures and deepest nodes by component, one row per level of
    the call, until the loop reaches it, and then applies them to the
    components still refining only: a non-finite value at a level a
    component never reaches does not raise, and the first failure raised
    is the first by level, then by node row, then by component, however
    the level was split into blocks.  Each component's
    sums run apart from the others', and it retires at the first level >= 2
    where its step |value - previous value| is at most its tol times
    |value|, with the step plus its endpoint remainder as its error, so it
    returns the same value and error as a call on it alone, and as a call
    whose first integrand call spans levels 0-2.  Only the components still
    refining are evaluated, and the evaluations count every value computed:
    a component that retires at level 2 or 3 counts the nodes of levels 0
    to _FIRST_SPAN.  After MAX_LEVELS levels a
    last step below 1% of the value is accepted with a 3x error bar
    (_capped); a component that fails that raises NonConvergence naming it.
    Components with intervals of their own are mapped by the caller onto
    the shared one inside f.  tol, one for all components or a (k,) array
    of one each, must be finite and > 0 (DomainError before f is called).
    With k = 0 f is not called: the values and errors are empty and the
    evaluations 0.

    An EndpointSpec declares each component's exponent at lo (0 included):
    lo is then sampled down to offsets of _OFF_MIN, and the endpoint
    remainder bounds the mass below the deepest node.  endpoints None
    declares both ends regular (every component bounded and smooth up to
    lo and hi): lo is sampled at the offsets that hi keeps, no deeper than
    rounding lets hi be (about eps (hi - lo) from it), and the remainder
    is 0.

    With group > 1 (k a multiple of it) the components retire in whole
    groups of group consecutive ones, each group at the first level where
    all of its members meet their tol, and f sees whole groups only.  It suits
    components that are moments of one integrand (log_derivative_moments):
    they share every node and nearly all of the cost, so an early
    retirement saves little, while the extra levels make the fast
    components more accurate.  A group returns what a call on it alone
    returns.
    """
    tols = np.full(k, tol, dtype=float)
    if not np.all(np.isfinite(tols) & (tols > 0.0)):      # NaN fails
        raise DomainError(f"need a finite tol > 0 for every component, got {tol}")
    if not k:
        return np.zeros(0), np.zeros(0), 0
    span = hi - lo
    value = np.zeros(k)    # results, filled in as components retire
    error = np.zeros(k)
    evals = 0
    regular = endpoints is None
    beta = None if regular else np.full(k, endpoints.exponent_lo, dtype=float)
    # the components still refining and their state, one row each (sum of
    # w * f over all retained nodes so far, last step, distance and |f| of
    # the deepest finite node), compacted with one index as they retire
    act = np.arange(k)
    state = np.zeros((4, k))
    state[1:3] = np.inf
    running, err, deep_d, deep_f = state
    for level in range(MAX_LEVELS + 1):
        if level == 0 or level > _FIRST_SPAN:
            # one call per block for levels 0 to _FIRST_SPAN, then one per
            # level; one row per level of its sums, failures and deepest nodes
            first = level
            parts = [_nodes(lv, lo, hi, regular)
                     for lv in range(level, (level or _FIRST_SPAN) + 1)]
            xs = parts[0][0] if len(parts) == 1 else np.concatenate([p[0] for p in parts])
            sums = np.empty((len(parts), act.size))
            failed = np.full((len(parts), act.size), xs.size)   # none yet
            cand = None if beta is None else np.full((len(parts), 2, act.size), np.inf)
            # f sees blocks of whole groups, and each block is summed before
            # the next is evaluated, so that values and temporaries stay small
            step = max(1, _BLOCK_CELLS // max(xs.size, 1) // group) * group
            for j in range(0, act.size, step):
                blk = slice(j, j + step)
                fs = np.asarray(f(xs[:, None], act[blk]), dtype=float)
                start = 0
                for r, part in enumerate(parts):     # each level on its own rows
                    n = part[0].size
                    _level_sums(fs[start:start + n], part, lo, hi, beta, act[blk],
                                sums[r, blk], failed[r, blk],
                                None if cand is None else cand[r, :, blk])
                    start += n
            evals += xs.size * act.size
        # reached: only the components still refining see the level
        r = level - first
        _raise_failed(failed[r], parts[r][0], act)
        if cand is not None:
            deeper = cand[r, 0] < deep_d
            np.copyto(deep_d, cand[r, 0], where=deeper)
            np.copyto(deep_f, cand[r, 1], where=deeper)
        running += sums[r]
        if not level:
            continue        # the first step is taken at level 2, from level 1
        val = span / (1 << level) * running
        if level >= 2:
            np.abs(val - prev, out=err)
            stop = err <= tols * np.maximum(abs(val), 1e-300)
            if group > 1:
                stop = np.repeat(stop.reshape(-1, group).all(axis=1), group)
            n_stop = np.count_nonzero(stop)
            if n_stop == stop.size:
                break
            if n_stop:
                done = act[stop]
                _, e, d, fd = state[:, stop]
                value[done] = val[stop]
                error[done] = e + _endpoint_remainder(fd, d, beta, done)
                live = ~stop
                act, val, state, tols = act[live], val[live], state[:, live], tols[live]
                sums, failed = sums[:, live], failed[:, live]
                if cand is not None:
                    cand = cand[:, :, live]
                running, err, deep_d, deep_f = state
        prev = val
    else:
        loose = _capped(err, val)
        if loose.any():
            c = int(np.argmax(loose))
            raise NonConvergence(
                f"tanh-sinh did not reach tol={tols[c]:g} within {MAX_LEVELS} levels "
                f"(component {act[c]}: last value {val[c]:.6g}, last step {err[c]:.3g})")
        err = 3.0 * err
    value[act] = val
    error[act] = err + _endpoint_remainder(deep_f, deep_d, beta, act)
    return value, error, evals


def integrate_1d(f, lo: float, hi: float, endpoints: Optional[EndpointSpec] = None,
                 tol: float = 1e-10) -> QuadResult:
    """Integrate f over (lo, hi) with integrable endpoint singularities.

    Parameters
    ----------
    f : callable
        Integrand; called with numpy arrays of interior points (never the
        endpoints themselves), returning an array of the same length.
    lo, hi : float
        Finite interval, lo < hi.
    endpoints : EndpointSpec, optional
        Declared exponent at lo; validated > -1 and used to bound the
        unresolvable mass next to lo.
    tol : float
        Relative tolerance target.

    Raises
    ------
    DomainError      on a bad interval, a tolerance that is not finite and
                     > 0 (NaN included) or a non-integrable declared exponent.
    NonConvergence   when MAX_LEVELS levels leave the last step above 1% of
                     the value.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DomainError(f"need finite lo < hi, got ({lo}, {hi})")
    if endpoints is None:
        endpoints = EndpointSpec()
    (value,), (err,), evals = _tanh_sinh(lambda xs, cols: np.asarray(f(xs[:, 0]))[:, None],
                                         lo, hi, tol, endpoints, k=1)
    return QuadResult(float(value), float(err), evals)
