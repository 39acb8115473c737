"""Evaluators for every integral object of the family.

The quadrant integral

    Z(sigma) = int_0^r1 int_0^r2  x^(a s) y^((b-q) s) (y^q + E(x))^s  dy dx,
    E(x) = exp(-1/x^p),   s = sigma in (-1/b, 0),

is dominated near sigma = -1/b by y-mass that sits far below double
precision, so the inner integral is never attacked by quadrature.  It is
Y^al / al  E^s  2F1(-s, al/q; 1 + al/q; -z), al = (b-q) s + 1, z = Y^q / E
(DLMF 15.6.1), summed as one of two series (_inner_columns): where z <= 2
the Pfaff form (DLMF 15.8.1) in powers of w = z/(1+z), every term positive;
further out, in y = e(x) v against the crossover scale e(x) = E(x)^(1/q),
the binomial series of (1 + v^-q)^s past Y/e in powers of 1/z, dropped
where log z >= 40, plus e(x)^X K, X = b sigma + 1, with
K = int_0^1 v^((b-q)s) (1+v^q)^s dv + int_1^inf v^(X-1) [(1+v^-q)^s - 1] dv
from two log-Gamma differences in numpy alone (_k_closed).  The
coefficients depend on sigma alone and the powers on x alone: one
coefficient table per schedule (_inner_tables), one power row per outer
node and one dot product per (node, sigma), with no special function
evaluated per cell.  Neither series loses digits as X -> 0, so one
constant, INNER_REL_ERR, bounds the column's relative error at every X.
A whole schedule is one vector quadrature over x, a component per X.

X = b sigma + 1 in (0, 1) is the input of every evaluator of Z, of the
region pieces and of the proof-level parts: the caller's X is used as given
and sigma = (X - 1)/b is derived from it once (_check_window), exact to
rounding as sigma is O(1/b).  Rebuilding X from sigma would lose eps/X of
it, 1e-4 relative at X = 1e-12.  Only the log-derivative integrals, whose
variable s runs past 0, take s.

The flat term E(x) = e(x)^q is taken in log form alone, log e(x) =
-1/(q x^p) (log_e_flat) and log E = q log e: near x = 0 its values lie far
below double precision.  A factor e(x)^c of a slice integrand or column is
one exp of its log through the one underflow rule, _flushed, which makes
it an exact 0 where exp would underflow; no other clamp is applied.

The region pieces z1 and z2 take their columns from the same series as Z.
The 1D reductions ztilde1 and ztilde2's left term, and the proof-level
parts G1 and J1, are each one upper incomplete Gamma plus elementary terms
(_slice_gamma, _gamma_upper), with no quadrature; ztilde2's right term and
G2/H2 are quadratures.  ztilde_2d integrates the same regions by
x-quadratures of exact inner integrals, so the reduction checks compare
closed forms with an independent quadrature.  In the one iterated integral
that keeps an inner quadrature, the bump-weighted correction of the
bump-weighted Z, the inner integrals of one outer level are batched into
one vector _tanh_sinh call, each column retiring at its own level.  The bump-weighted correction of a
(column, sigma), Delta = int_0^R2 y^((b-q)s) (y^q+E)^s (phi_y(y) - 1) dy, is
one scaled piece in y = e(x) v over v in (0, R2/e) (_increment_columns), so
an outer level makes one inner call.  Delta is added to the closed-form
column C and |Delta| <= |D|, D its E = 0 value, so it stops at tol
max(mini_tol, tau C/|D|), tau = tol_2d/100, and the error of Z carries the
share (tau/Phi)|Z|, Phi the bump's mass (_box_integral).  The columns with
log E below q log y_dead - 40, y_dead = 1e-9 R2 (_ln_E_dead), are the one
E = 0 column, whose correction int_0^R2 y^(b s) (phi_y - 1) dy is
R2^X F(b s) (_dead_column), with F(c) = int_0^1 u^c (phi(u) - 1) du of the
normalized 1D bump phi(u) = exp(u^2/(u^2 - 1)), a Taylor series around
c = -1/4 with coefficients frozen from mpmath, within 2e-14 relative on
[-1, 1/2] (_bump_moments): no quadrature.  Without the flat term every
column is that E = 0 column, C = Y2^X (1/X [+ F(b s)]), and the x-integral
of x^(a s) [phi_x] is Y1^(a s + 1) (1/(a s + 1) [+ F(a s)]), the F terms
with a bump alone, so the box integral is their product: no quadrature.
The log-derivative moments share more: their inner y-moments of log f_y
see x only through log E(x), and every row with a flat term lost in
rounding is the one E = 0 row.  That row and the x-moments (a log x)^d / d!
are one call on u in (0, 1), two groups at y = R2 u and x = R1 u, each with its own tol,
convolved binomially after the quadrature (log_derivative_moments); at
a = 0 the x-moments are R1 (Phi, 0, ..., 0) and the call is the row's group
alone.  Without the flat term a direct D_0 at b s <= 1/2 is two values of
F, so a flat-off Landau rebuild to such a target is that one vector call.
With the flat term on one more outer call integrates
the excess of each live row over the E = 0 row, the rows of one outer level
one inner call on the same y = R2 u map, recombined binomially in a log x at
the live nodes alone.
The sigmas of one bump-weighted column share its row of the inner call:
the exponent G = (b-q) log v + log1p(v^q) and the scaled increment
h (phi_y - 1) are formed once per (node, row), the increment at y = R2 u
once per node, and each (node, sigma) cell is one product, one exp and one
product (_runs), in the same operations, so every component keeps its
bits.  Their inner integrand is smooth up to both ends, so it declares
no endpoint and its lower end is sampled no deeper than the upper.  The
x-bump
underflows to exactly 0 past 1 - x/R1 ~ 6.7e-4, where the outer rule puts
many nodes: the bump-weighted columns and the moment columns are 0 there,
and build no inner column or row.

The region pieces of every (lambda, X) pair of a sandwich are batched as Z
is (region_samples): each pair is one component of every vector
quadrature, its x-interval mapped onto u in (0, 1) inside the integrand.
One helper decides where the slice lambda y = e(x) kinks (_slice_pieces):
the left piece up to rho(lam r2) (or r1) of every pair and the right piece
of the kinked pairs.  Their columns need no inner quadrature: in y = e v,
with V(T) = int_0^T v^((b-q)s) (1+v^q)^s dv, the part of the quadrant
column C below the slice is e^X V(1/lambda), so where e(x)/lambda < r2
z2's column is e^X V(1/lambda) and z1's C - e^X V(1/lambda), and elsewhere
z2's is C and z1's 0.  V(1/lambda) is _inner_columns at E = 1 from a table
at Y = 1/lambda, one per distinct lambda and X, all from one
_inner_tables call with the quadrant table (K and the coefficient products
made once), and C the quadrant column,
one _inner_columns call per distinct lambda of an outer level, as the pairs
of one lambda share their x-nodes.  z1 and z2 are one outer call with two
components per pair on the left piece, and z2 and ztilde2's right term one
more on the right piece, as right of the kink {lambda y >= e(x)} has no
part inside the box.  On the left piece, t = X/(q x^p) turns
int_0^x1 x^(a s) e(x)^X dx into (1/p)(X/q)^beta' Gamma(-beta', z),
beta' = (a s + 1)/p, z = X/(q x1^p) (DLMF 8.2.2), and ztilde1 follows from
it and the elementary int_0^x1 x^(a s) dx: one _gamma_upper call per
batch gives both.  A pair's trace does not depend on the other pairs of
its batch: the one-pair batch gives it bit for bit.  ztilde_2d, the 2D
cross-checks (zt1, zt2) of the 1D reductions, is one pass over the
one-pair slice pieces: one outer call with both components on the left
piece and one with zt2's alone on the right piece of a kinked slice.  Each
keeps its own integrand, formed on its own component alone, so each value
is a lone call's bit for bit, and both take their exact inner integrals:
zt1's r2^X (-expm1(X (log(e/lambda) - log r2)))/X, zt2's one exp of one
log per column.  So ztilde_2d makes no nested call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateLowerLimit,
    DomainError,
    OddQNotSupported,
    OutOfWindow,
    PoleHit,
)
from .funcs import (
    BumpSpec,
    bump_x_profile,
    bump_y_increment,
    bump_y_profile,
    log_e_flat,
    rho,
)
from .model import FamilyParams, NumericConfig
from .quad import _OFF_MIN, EndpointSpec, _tanh_sinh


@dataclass(frozen=True)
class ZetaSample:
    """One evaluation of Z at an X = b sigma + 1 in (0, 1): X is the caller's,
    sigma = (X - 1)/b is derived from it."""

    sigma: float
    X: float
    value: float
    error: float


@dataclass(frozen=True)
class DecompositionTrace:
    """Region pieces and auxiliary integrals at one (lambda, X), X the
    caller's and sigma = (X - 1)/b derived from it; error bounds z1 and z2
    together (region_samples)."""

    lam: float
    sigma: float
    X: float
    z1: float
    z2: float
    ztilde1: float
    ztilde2: float
    error: float


# ---------------------------------------------------------------------------
# window / shared scalars
# ---------------------------------------------------------------------------

def _check_window(params: FamilyParams, X: float) -> float:
    """sigma = (X - 1)/b after checking 0 < X < 1 (NaN fails), the window
    -1/b < sigma < 0.  sigma is O(1/b), so it is exact to rounding; X is
    never rebuilt from it."""
    if not 0.0 < X < 1.0:
        raise OutOfWindow(f"X={X} outside (0, 1)")
    return (X - 1.0) / params.b


def _check_slice(params: FamilyParams, lam: float, X: float) -> float:
    """sigma for the slice lambda y = e(x), after checking X against the
    window and 0 < lambda < inf (NaN fails)."""
    sigma = _check_window(params, X)
    if not 0.0 < lam < math.inf:
        raise DomainError("lambda must be positive and finite")
    return sigma


# ---------------------------------------------------------------------------
# the unweighted inner column in closed form; batched w- and increment integrals
# ---------------------------------------------------------------------------

#: Relative error bound of one closed-form inner column (_inner_columns),
#: uniform in X: 5.8x the worst error, 3.5e-14, of a 1200-cell sweep against
#: 40-digit mpmath over X in [1e-12, 0.99] (python tests/oracle_inner.py
#: sweep).  The worst cells have log z > 400, where the column moves by
#: about eps log z / q with the rounding of sigma = (X - 1)/b.
INNER_REL_ERR = 2e-13

#: The near series of _inner_columns runs where log z <= log 2, so that
#: w = z/(1+z) <= 2/3.  Its terms are positive with c_n <= 1 = c_0, so the
#: terms past _NEAR_TERMS sum to under 3 (2/3)^100 < 1e-17 of it.
_LN_Z_NEAR = math.log(2.0)
_NEAR_TERMS = 100

#: The far tail sum_(n >= 1) C(s, n) z^-n / (q n - X) of _inner_columns, with
#: |C(s, n)| <= 1 and z > 2, is cut after _TAIL_TERMS terms (the rest is
#: under 2^-56 / 56, 2.5e-19, of the main term) and dropped where
#: log z >= _LN_Z_TAIL (its first term is under e^-40 / b there).
_TAIL_TERMS = 56
_LN_Z_TAIL = 40.0


#: Stirling's series of log Gamma (DLMF 5.11.1): c_k = B_2k / (2k (2k-1)),
#: k = 1..8, taken at m + _SHIFT >= 8, where the first omitted term is < 1e-16.
_STIRLING = np.array([1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                      -691 / 360360, 1 / 156, -3617 / 122400])
_SHIFT = 8


def _k_closed(q: int, sigmas: np.ndarray, Xs: np.ndarray) -> np.ndarray:
    """K of the far inner column for every (sigma, X) of sigmas, Xs: the
    Mellin integral of (1+v^q)^s continued past its pole (DLMF 5.12.3),
    K = -expm1(L)/X, L = log(Gamma(1-t) Gamma(t-s) / Gamma(-s)), t = X/q.
    L = D(1, -t) + D(-s, t) with D(m, t) = log Gamma(m+t) - log Gamma(m),
    shifted to M = m + _SHIFT (DLMF 5.5.1), where Stirling's series gives

        D = (M - 1/2) log1p(t/M) + t log(M+t) - t
            + sum_k c_k M^(1-2k) expm1((1-2k) log1p(t/M)) - sum_(j < 8) log1p(t/(m+j)):

    every term a log1p or expm1 of t, so nothing cancels as t -> 0.  1 - t
    is taken from X in log1p(-t) (at q = 1 and X = 1 - 2^-k it is 2^-k
    exactly).  Each reduction is along a row: K is its one-sigma value."""
    ts, n = Xs / q, Xs.size
    D = _log_gamma_ratio(np.concatenate([np.ones(n), -sigmas]), np.concatenate([-ts, ts]))
    return -np.expm1(D[:n] + D[n:]) / Xs


def _log_gamma_ratio(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """D(m, t) = log Gamma(m+t) - log Gamma(m) for every (m, t) of the 1D
    arrays m, t (m > 0, m + t > 0, |t| < 1), by Stirling's series at
    M = m + _SHIFT (_k_closed)."""
    M, k = m + _SHIFT, -1.0 - 2.0 * np.arange(_STIRLING.size)
    u = np.log1p(t / M)
    return ((M - 0.5) * u + t * np.log(M + t) - t
            + np.vecdot(np.expm1(np.multiply.outer(u, k)) * np.power.outer(M, k), _STIRLING)
            - np.log1p(t[:, None] / np.add.outer(m, np.arange(_SHIFT))).sum(axis=1))


# ---------------------------------------------------------------------------
# the upper incomplete Gamma of the slice reductions
# ---------------------------------------------------------------------------

#: _gamma_upper sums its series where z <= _Z_SERIES and takes its continued
#: fraction beyond.  The series stops after _SERIES_TERMS terms: with z <= 1
#: and a0 + k >= k - 1/2 the rest is under 1/(27! 26.5) < 4e-30, against
#: e^z z^-a0 Gamma(a0, z) > 0.4.
_Z_SERIES = 1.0
_SERIES_TERMS = 26
#: Euler's constant, -Gamma'(1): the a0 -> 0 limit of (Gamma(1 + a0) - 1)/a0.
_EULER = 0.5772156649015329

#: Relative error bounds of _gamma_upper, per branch.  The truncation of
#: each branch is proved under 2e-17 (above, and in _gamma_upper); what
#: remains is rounding, which a 4000-cell sweep against 40-digit mpmath
#: over alpha in [-8, 1) and z in [1e-13, 1e6] measures (python
#: tests/oracle_gamma.py sweep): at most 4.0e-15 for the series with its
#: recurrence (5.2e-15 on the grid of tests/test_gamma.py) and 3.5e-16 for
#: the continued fraction.  Each bound is 19x or more its branch's worst.
_GAMMA_SERIES_REL_ERR = 1e-13
_GAMMA_CF_REL_ERR = 1e-14
_GAMMA_REL_ERR = max(_GAMMA_SERIES_REL_ERR, _GAMMA_CF_REL_ERR)


def _gamma_upper(alpha: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The scaled upper incomplete Gamma S(alpha, z) = e^z z^-alpha
    Gamma(alpha, z) for every (alpha, z) of the 1D arrays alpha < 1 and
    z > 0, within _GAMMA_REL_ERR (_GAMMA_SERIES_REL_ERR where z <= 1,
    _GAMMA_CF_REL_ERR beyond).  The scaling keeps it O(1) where Gamma
    under- or overflows; every element is formed on its own.

    z <= _Z_SERIES: with n = max(0, ceil(-alpha - 1/2)) and a0 = alpha + n
    in [-1/2, 1) (exact, by Sterbenz's lemma), the series of DLMF 8.7.3
    with Gamma(a0)'s pole and the k = 0 term taken together,

        Gamma(a0, z) = (Gamma(1 + a0) - 1)/a0 - expm1(a0 log z)/a0
                       - z^a0 sum_(k >= 1) (-z)^k / (k! (a0 + k)),

    (Gamma(1 + a0) - 1)/a0 = expm1(D)/a0, D = log Gamma(1 + a0) from
    Stirling's series (_log_gamma_ratio), and the limits -gamma and log z
    at a0 = 0, so nothing cancels as a0 -> 0, where the plain step from
    a0 + 1 loses every digit (critical families with a > 0 have
    alpha = -aX/(b-a)).  Then n steps of DLMF 8.8.2, scaled:
    S(a) = (z S(a+1) - 1)/a.  For a < 0 and z <= 1, z S(a+1) < 1 stays away
    from 1, so the steps do not amplify the error much.

    z > _Z_SERIES: the continued fraction of DLMF 8.9.2,

        S = 1/(z + (1-a)/(1 + 1/(z + (2-a)/(1 + 2/(z + ...))))),

    evaluated from the tail up.  With a < 1 every partial numerator and
    denominator is positive, so consecutive approximants enclose S: the
    depths 2K+1 and 2K+2 run side by side, and their difference, held under
    2^-56 of S (K grown by half until it is), bounds the truncation."""
    alpha, z = np.asarray(alpha, dtype=float), np.asarray(z, dtype=float)
    out = np.empty(alpha.shape)
    far = z > _Z_SERIES
    if far.any():
        out[far] = _gamma_cf(alpha[far], z[far])
    near = ~far
    if near.any():
        al, zn = alpha[near], z[near]
        n = np.maximum(np.ceil(-al - 0.5), 0.0)
        a0 = al + n
        lz = np.log(zn)
        with np.errstate(divide="ignore", invalid="ignore"):     # a0 = 0: the limits
            gm1 = np.where(a0 == 0.0, -_EULER,
                           np.expm1(_log_gamma_ratio(np.ones_like(a0), a0)) / a0)
            zm1 = np.where(a0 == 0.0, lz, np.expm1(a0 * lz) / a0)
        k = np.arange(1.0, _SERIES_TERMS + 1.0)
        terms = np.multiply.accumulate(np.divide.outer(-zn, k), axis=1) / np.add.outer(a0, k)
        S = (gm1 - zm1) * np.exp(zn - a0 * lz) - np.exp(zn) * terms[:, ::-1].sum(axis=1)
        for j in range(1, int(n.max()) + 1):
            S = np.where(n >= j, (zn * S - 1.0) / (a0 - j), S)
        out[near] = S
    return out


def _gamma_cf(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The continued fraction branch of _gamma_upper (z > 1): K two-level
    steps per element from the tails at depth 2K+2 (t = z) and 2K+1
    (t = inf), K = 8 + 100/sqrt(z) to start (about 107 steps at z = 1, 33
    at z = 16), grown by half for the elements whose two depths differ by
    more than 2^-56.  Each element's K depends on its own (a, z) alone."""
    out = np.empty(a.size)
    K = (8.0 + 100.0 / np.sqrt(z)).astype(int)
    todo = np.arange(a.size)
    while todo.size:
        n, Kt = todo.size, np.tile(K[todo], 2)
        zz, ca = np.tile(z[todo], 2), np.tile(1.0 - a[todo], 2)
        t = np.concatenate([z[todo], np.full(n, np.inf)])
        for k in range(int(Kt.max()), -1, -1):
            t = np.where(k <= Kt, zz + (k + ca) / (1.0 + (k + 1.0) / t), t)
        f = 1.0 / t
        done = np.abs(f[:n] - f[n:]) <= 2.0**-56 * f[:n]
        out[todo[done]] = f[:n][done]
        todo = todo[~done]
        K[todo] += K[todo] // 2
    return out


#: Layout of a row of _inner_tables: s, X, A, B, then the near and the tail
#: coefficients.
_NEAR = slice(4, 4 + _NEAR_TERMS)
_TAIL = slice(4 + _NEAR_TERMS, 4 + _NEAR_TERMS + _TAIL_TERMS)


def _inner_tables(b: int, q: int, lnY, sigmas: np.ndarray, Xs: np.ndarray) -> np.ndarray:
    """One row per (sigma, X) of sigmas, Xs of everything _inner_columns
    needs that does not depend on the node: s, X, A = Y^X K and
    B = Y^X (K - 1/X) (K from _k_closed), and the coefficients

        near (_NEAR):  Y^al / al  c_n,   c_0 = 1,  c_(n+1) = c_n (n - s) / (n + 1 + al/q),
        tail (_TAIL):  Y^X C(s, n) / (q n - X),   n = 1.._TAIL_TERMS,

    al = (b-q)s + 1, each series a cumulative product along its row; a row
    depends on its own (sigma, X) alone.  For an array of lnY, one table per
    lnY along a leading axis, from one K and one pair of products."""
    lnY = np.asarray(lnY, dtype=float)[..., None]
    K = _k_closed(q, sigmas, Xs)
    YX, al = np.exp(Xs * lnY), (b - q) * sigmas + 1.0
    s = sigmas[:, None]
    tab = np.empty(YX.shape + (_TAIL.stop,))
    tab[..., 0], tab[..., 1], tab[..., 2], tab[..., 3] = sigmas, Xs, YX * K, YX * (K - 1.0 / Xs)
    c = np.empty((sigmas.size, _NEAR_TERMS))
    c[:, 0] = 1.0
    n = np.arange(_NEAR_TERMS - 1.0)
    c[:, 1:] = (n - s) / (n + 1.0 + (al / q)[:, None])
    np.multiply.accumulate(c, axis=1, out=c)
    tab[..., _NEAR] = c * (np.exp(al * lnY) / al)[..., None]
    m = np.arange(_TAIL_TERMS)      # C(s, n) = prod_(m < n) (s - m) / (m + 1)
    tab[..., _TAIL] = (np.multiply.accumulate((s - m) / (m + 1.0), axis=1)
                       * (YX[..., None] / (q * (m + 1.0) - Xs[:, None])))
    return tab


def _inner_columns(q: int, lnY: float, ln_es: np.ndarray, lnE: np.ndarray,
                   tab: np.ndarray) -> np.ndarray:
    """int_0^Y v^((b-q)s) (v^q + E)^s dv for every node (log e = ln_es,
    log E = lnE = q ln_es, -inf for E = 0) and every component (a row of
    _inner_tables), as an (nodes, components) array.  With z = Y^q/E and
    al = (b-q)s + 1:

        z <= 2:  Y^al (Y^q + E)^s / al  sum_n c_n w^n,   w = z/(1+z) <= 2/3,

    the Pfaff form (DLMF 15.8.1) of 2F1(-s, al/q; 1 + al/q; -z) (DLMF
    15.6.1), every term positive; and, in v = y/e against the crossover
    e = E^(1/q), with K the integral to infinity continued past its pole,

        z > 2:   Y^X [(1 - (e/Y)^X)/X - sum_n C(s, n) z^-n / (q n - X)] + e^X K
               = A + expm1(X log(e/Y)) B - sum_n (tail)_n z^-n,

    the binomial series of (1 + v^-q)^s past Y/e (the 1/z expansion behind
    DLMF 15.8.2), its tail dropped where log z >= 40.  Neither form
    subtracts nearly equal terms as X -> 0 (at q = 1, C(s, 1)/(1 - X) is
    -1/b to rounding), so the error does not grow as X -> 0.
    The powers w^n and z^-n are one row per node and the coefficients one
    row per component; each cell is one np.vecdot of two contiguous rows,
    so its value does not depend on the other nodes or components."""
    s, X, A, B = tab[:, 0], tab[:, 1], tab[:, 2], tab[:, 3]
    lz = q * lnY - lnE          # log z per node, inf where E = 0
    out = np.multiply.outer(ln_es - lnY, X)
    np.expm1(out, out=out)
    out *= B
    out += A
    near = lz <= _LN_Z_NEAR
    tail = np.flatnonzero(~near & (lz < _LN_Z_TAIL))
    near = np.flatnonzero(near)
    if tail.size:
        zn = np.exp(np.multiply.outer(lz[tail], -np.arange(1.0, _TAIL_TERMS + 1.0)))
        out[tail] -= np.vecdot(zn[:, None, :], tab[:, _TAIL])
    if near.size:      # log w = -log(1 + 1/z), finite however small z is
        wn = np.exp(np.multiply.outer(np.logaddexp(0.0, -lz[near]), -np.arange(_NEAR_TERMS)))
        pw = np.exp(np.multiply.outer(np.logaddexp(q * lnY, lnE[near]), s))
        out[near] = pw * np.vecdot(wn[:, None, :], tab[:, _NEAR])
    return out


def _runs(row: np.ndarray, cols: np.ndarray):
    """The rows R of the components cols, one per run of equal rows (a
    caller's rows come sorted, so a run is every live component of a row),
    and each component's index into R; None where every run is one
    component long."""
    rc = row[cols]
    new = np.empty(rc.size, dtype=bool)
    new[:1] = True
    np.not_equal(rc[1:], rc[:-1], out=new[1:])
    R = rc[new]
    return R, (None if R.size == rc.size else np.cumsum(new) - 1)


def _ln_E_dead(q: int, R2: float) -> float:
    """log E0 = q log y_dead - 40, y_dead = 1e-9 R2: the bump-weighted columns
    with log E < log E0 are the one E = 0 column (_dead_column).  Above
    y_dead such a flat term moves (y^q + E)^s by under 4e-18, and below it
    the bump increment, about -(y/R2)^2, is under 1e-18."""
    return q * math.log(R2 * 1e-9) - 40.0


#: The bump of half-widths 1: its y-increment at u is phi(u) - 1, with
#: phi(u) = exp(u^2/(u^2 - 1)) both bump_x_profile(R1 u) and
#: bump_y_profile(R2 u) of every bump.
_UNIT_BUMP = BumpSpec(1.0, 1.0)

#: Phi = int_0^1 phi(u) du = 1 + F(0), the mass of the normalized 1D bump
#: (30-digit mpmath).
_BUMP_MASS = 0.6034501612189381


#: F(c) = int_0^1 u^c [phi(u) - 1] du as its Taylor series around c0 =
#: _F_C0, f_k = (1/k!) int_0^1 u^c0 (log u)^k [phi(u) - 1] du for k < 32
#: (40-digit mpmath, checked against 50: tests/oracle_gen3.py F).  As
#: |phi - 1| <= min(1, u^2/(1 - u^2)) <= 2 u^2, |f_k| <= 2/(c0 + 3)^(k+1), so
#: for c in [-1, 1/2], rho = |c - c0|/(c0 + 3) <= 3/11, the terms past the
#: 32nd sum to under 2 rho^32 / ((c0 + 3)(1 - rho)) < 9e-19, under 3e-18 of
#: |F(c)| >= |F(1/2)| > 0.34.
_F_C0 = -0.25
#: The upper end of [-1, _F_C_HI], where the series is certified: a
#: flat-off D_0 at b s <= _F_C_HI is two values of F (log_derivative_integral).
_F_C_HI = 0.5
_F_TAYLOR = (
    -0.43173021808155543, 0.15287556086186121, -0.05286711766880698, 0.018512089807059182,
    -0.00657381909326501, 0.0023571002366731984, -0.0008501577387275913, 0.0003076958030116633,
    -0.00011158631007696442, 4.051348022282982e-05, -1.4718905497151058e-05, 5.349546460597509e-06,
    -1.9447053840723466e-06, 7.070428395409895e-07, -2.570806803116889e-07, 9.347845615024255e-08,
    -3.39910240251794e-08, 1.2360132103420025e-08, -4.494542926884695e-09, 1.6343686034552676e-09,
    -5.943136156275551e-10, 2.16113570488679e-10, -7.858665363825874e-11, 2.8576944062384262e-11,
    -1.039161162350915e-11, 3.778766936979879e-12, -1.3740968730253831e-12, 4.996715491459151e-13,
    -1.816987365029794e-13, 6.607226600012299e-14, -2.402627816252395e-14, 8.736828342109894e-15,
)

#: Relative error bound of _bump_moments on [-1, 1/2].  f_k has the sign
#: -(-1)^k, so sum_k |f_k| |h|^k = |F(c0 - |h|)| <= |F(-1)| < 1.73 |F(c)|,
#: h = c - c0; Horner's rule with the rounded f_k is within gamma_63 < 7e-15
#: of that sum, the rounding of h moves F by under |F'| |h| eps/2 <= 0.4
#: eps/2, and the truncation adds 3e-18 |F|: under 1.3e-14 |F| in all.
_F_REL_ERR = 2e-14


def _bump_moments(cs: np.ndarray) -> np.ndarray:
    """F(c) = int_0^1 u^c [phi(u) - 1] du, phi(u) = exp(u^2/(u^2 - 1)) the
    normalized 1D bump factor, for every c of the 1D array cs, from its
    Taylor series _F_TAYLOR within _F_REL_ERR |F(c)|.  The series is
    certified on [-1, 1/2] alone: any other c (NaN too) raises DomainError.
    Each c is summed by Horner's rule on its own, in double, so its value
    does not depend on the other cs.  On a half-width R the bump correction
    of a power is int_0^R t^c [phi(t/R) - 1] dt = R^(c+1) F(c)."""
    out = np.empty(cs.size)
    for i, c in enumerate(cs.tolist()):
        if not -1.0 <= c <= _F_C_HI:      # NaN fails
            raise DomainError(f"F(c) is certified for c in [-1, 1/2] only, got c={c}")
        h, acc = c - _F_C0, 0.0
        for f in reversed(_F_TAYLOR):
            acc = acc * h + f
        out[i] = acc
    return out


def _dead_column(bump: BumpSpec, bs: np.ndarray) -> np.ndarray:
    """int_0^R2 y^(b s) [phi_y(y) - 1] dy = R2^(b s + 1) F(b s), R2 =
    bump.R2, for every b s of bs: the bump correction of the E = 0 column,
    with F of _bump_moments."""
    return np.exp((bs + 1.0) * math.log(bump.R2)) * _bump_moments(bs)


def _increment_columns(params: FamilyParams, bump: BumpSpec, sigma, X, row: np.ndarray,
                       ln_e: np.ndarray, tol: float | np.ndarray):
    """int_0^R2 y^((b-q)s) (y^q + E)^s [phi_y(y) - 1] dy, R2 = bump.R2, for
    every component i of row, E = e^q with log e = ln_e[row[i]] and (s, X)
    = (sigma, X), or (sigma[i], X[i]): in y = e v the column
    e^X int_0^(R2/e) v^((b-q)s) (1+v^q)^s [phi_y(e v) - 1] dv, as one vector
    quadrature on u in (0, 1), v = (R2/e) u, so that y = R2 u and every
    component shares the nodes.  tol is one for all components or one each
    (_box_integral gives each the tol of its column).  The bump increment
    phi_y(R2 u) - 1 is one value per node; the components of a row share
    G = (b-q) log v + log1p(v^q) and h (phi_y - 1), h = R2/e, formed once
    per live row (_runs), and each component's cell is exp(s G) h (phi_y - 1),
    one product, one exp and one product, in the same operations whatever
    the row's sharing, so every component keeps its bits.  Where
    q log v > 700, as R2/e reaches 1e9 or more, v^q leaves the double range
    and log1p(v^q) is q log v, exact in double there.  The increment
    vanishes like y^2 at 0 and the integrand is bounded at R2/e, so both
    ends are regular; the flat factor's bend at v ~ 1 sits next to the lower
    end, where tanh-sinh clusters its nodes.  Returns the values."""
    sig = np.broadcast_to(sigma, row.shape)
    bq, q = params.b - params.q, params.q
    s_hi = np.exp(math.log(bump.R2) - ln_e)

    def f(us, cols):
        R, at = _runs(row, cols)
        h = s_hi[R]
        vs = h * us
        with np.errstate(divide="ignore", over="ignore"):
            lv, G = np.log(vs), np.log1p(vs**q)
        big = lv > 700.0 / q      # v^q past e^700: log1p(v^q) is q log v in double
        G[big] = q * lv[big]
        G += bq * lv              # G = (b-q) log v + log1p(v^q) per (node, row)
        hd = h * bump_y_increment(_UNIT_BUMP, us)
        if at is not None:
            G, hd = G[:, at], hd[:, at]
        out = np.multiply(G, sig[cols], out=G)
        np.exp(out, out=out)
        out *= hd
        return out

    val, _, _ = _tanh_sinh(f, 0.0, 1.0, tol, None, k=row.size)
    return np.exp(X * ln_e[row]) * val


# ---------------------------------------------------------------------------
# pointwise integrand (public, factored log-domain form)
# ---------------------------------------------------------------------------

def integrand(params: FamilyParams, x, y, sigma: float, *, flat: bool):
    """|f(x,y)|^sigma on the open quadrant, in the factored form
    x^(a s) y^((b-q) s) (y^q + E(x))^s, for finite x, y > 0 and a finite
    sigma (DomainError otherwise).

    All powers go through logarithms and one exponential, with log E =
    q log e(x) (log_e_flat), so the value stays well scaled even where E
    underflows; without the flat term log E = -inf and this reduces exactly
    to the monomial x^(a s) y^(b s).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    xa, ya = np.atleast_1d(xa), np.atleast_1d(ya)
    if not (np.all((0.0 < xa) & (xa < math.inf)) and np.all((0.0 < ya) & (ya < math.inf))
            and np.all(np.isfinite(sigma))):      # NaN fails
        raise DomainError("integrand requires finite x, y > 0 and a finite sigma")
    lnx, lny = np.log(xa), np.log(ya)
    with np.errstate(over="ignore"):    # q log e overflows to -inf: E = 0
        lnE = params.q * log_e_flat(params, xa) if flat else -np.inf
        ln_core = np.logaddexp(params.q * lny, lnE)
        out = np.exp(sigma * (params.a * lnx + (params.b - params.q) * lny + ln_core))
    return float(out[0]) if scalar else out


def monomial_closed_form(a: int, b: int, r1: float, r2: float, X: float) -> float:
    """Exact quadrant integral of x^(a s) y^(b s) at X = b s + 1:
    r1^(a s + 1) r2^X / ((a s + 1) X), s = (X - 1)/b, for finite X and
    0 < r1, r2 < inf (NaN fails).  X is used as given, as the engine uses
    it, so the two agree to rounding at every X."""
    if not (math.isfinite(X) and 0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise DomainError("monomial integral needs a finite X and 0 < r1, r2 < inf")
    ax = a * ((X - 1.0) / b) + 1.0
    if ax == 0.0 or X == 0.0 or abs(ax) < 1e-300 or abs(X) < 1e-300:
        raise PoleHit(f"monomial integral has a pole at X={X}")
    if ax < 0.0 or X < 0.0:
        raise OutOfWindow("monomial integral diverges (exponent <= -1)")
    return r1**ax * r2**X / (ax * X)


# ---------------------------------------------------------------------------
# the fast quadrant engine
# ---------------------------------------------------------------------------

def _box_integral(params: FamilyParams, sigmas: np.ndarray, Xs: np.ndarray,
                  cfg: NumericConfig, Y1: float, Y2: float, bump: Optional[BumpSpec],
                  flat: bool):
    """Integral over (0,Y1)x(0,Y2) of the integrand, optionally bump-weighted,
    for every (sigma, X = b sigma + 1) of the arrays sigmas, Xs, as one
    vector quadrature over x with one component per sigma: sigma < 0, or,
    bump-weighted without the flat term, any sigma in (-1/b, _F_C_HI/b],
    where both F below are certified (log_derivative_integral's D_0 at
    s >= 0).  Bump-weighted,
    (Y1, Y2) is the bump's (R1, R2), and the bump correction of the E = 0
    column int_0^Y2 y^(b s) [phi_y(y) - 1] dy is Y2^X F(b s) (_bump_moments).
    Without the flat term every column is the E = 0 column
    C = Y2^X (1/X [+ F(b s)]) and the x-integral of x^(a s) [phi_x] is
    I_x = Y1^(a s + 1) (1/(a s + 1) [+ F(a s)]), the F terms with a bump
    alone, so the integral is C I_x: no quadrature runs, no error term of
    _inner_columns enters, and the error is that of both F, _F_REL_ERR |F|
    each, carried through C I_x, plus the rounding of the product.
    With the flat term, bump-weighted, an outer node where the x-bump is
    exactly 0 has the column 0 and builds no inner column, and each other
    (node, sigma) adds to its closed-form column C the correction Delta of
    _increment_columns at tol max(mini_tol, tau C/|D|), tau = tol_2d/100,
    D = Y2^X F(b s) the E = 0 correction.  As (y^q+E)^s <= y^(q s) and
    phi_y - 1 <= 0, |Delta| <= |D|, so Delta's step is at most tau C (and
    mini_tol |Delta| <= tau C/10 where mini_tol is the larger, |Delta| <= C
    as W = C + Delta >= 0).  Both y^((b-q)s) (y^q+E)^s and phi_y fall on
    (0, Y2), so by Chebyshev's integral inequality W >= Phi C, Phi =
    _BUMP_MASS, and the steps add at most (tau/Phi) W per column: the error
    carries (tau/Phi)|Z| besides INNER_REL_ERR |Z| and the x-quadrature's
    step.  Returns (values, errors)."""
    b, q, k = params.b, params.q, sigmas.size
    ax = params.a * sigmas
    lnY2 = math.log(Y2)
    mini_tol, tau = min(1e-11, cfg.tol_2d * 1e-3), cfg.tol_2d * 1e-2

    if not flat:       # the F terms enter only with a bump
        F = np.zeros(2 * k) if bump is None else _bump_moments(np.concatenate([b * sigmas, ax]))
        dF = _F_REL_ERR * np.abs(F)
        Y2X, Y1ax = np.exp(Xs * lnY2), np.exp((ax + 1.0) * math.log(Y1))
        C = Y2X * (1.0 / Xs + F[:k])
        I_x = Y1ax * (1.0 / (ax + 1.0) + F[k:])
        values = I_x * C
        errors = np.abs(C) * Y1ax * dF[k:] + np.abs(I_x) * Y2X * dF[:k]
        # the rounding of C, I_x and their product, a few eps (at most 2.3
        # eps against the closed form on 2400 random flat-off samples, X
        # down to 1e-12)
        errors += 16.0 * np.finfo(float).eps * np.abs(values)
        return values, errors

    if bump is not None:
        dead_col = _dead_column(bump, b * sigmas)

    tab = _inner_tables(b, q, lnY2, sigmas, Xs)

    def inner_delta(ln_es, lnE, cols, C):
        """int_0^Y2 y^((b-q)s)(y^q+E)^s [phi_y(y) - phi_y(0)] dy per (column,
        sigma), C the closed-form columns: the E = 0 column where log E <
        log E0, and one scaled vector quadrature over the other pairs
        (_increment_columns), each at tol max(mini_tol, tau C/|D|), D the
        sigma's E = 0 correction."""
        total = np.empty((ln_es.size, cols.size))
        dead = lnE < _ln_E_dead(q, Y2)
        total[dead] = dead_col[cols]
        rows = np.flatnonzero(~dead)
        if rows.size:      # rows x cols row-major: each pair's index into rows, its sigma
            row, c = np.repeat(np.arange(rows.size), cols.size), np.tile(cols, rows.size)
            tol = np.maximum(mini_tol, tau * C[rows].ravel() / np.abs(dead_col[c]))
            total[rows] = _increment_columns(params, bump, sigmas[c], Xs[c], row, ln_es[rows],
                                             tol).reshape(rows.size, cols.size)
        return total

    def column(xs, cols):
        ln_es = log_e_flat(params, xs[:, 0])
        with np.errstate(over="ignore"):   # q log e overflows to -inf: E = 0
            lnE = q * ln_es
        out = _inner_columns(q, lnY2, ln_es, lnE, tab[cols])
        if bump is not None:
            out += inner_delta(ln_es, lnE, cols, out)
        with np.errstate(over="ignore"):
            out *= np.exp(ax[cols] * np.log(xs))
        return out

    def weighted(xs, cols):
        """column times the x-bump, 0 with no inner columns where the bump
        is exactly 0: it underflows past 1 - x/R1 ~ 6.7e-4, where the outer
        rule puts many of its nodes."""
        phi = bump_x_profile(bump, xs[:, 0])
        live = phi > 0.0
        out = np.zeros((xs.shape[0], cols.size))
        out[live] = column(xs[live], cols) * phi[live, None]
        return out

    values, errors, _ = _tanh_sinh(column if bump is None else weighted, 0.0, Y1, cfg.tol_2d,
                                   EndpointSpec(exponent_lo=ax), k=k)
    share = INNER_REL_ERR if bump is None else INNER_REL_ERR + tau / _BUMP_MASS
    errors += share * np.abs(values)
    return values, errors


def zeta_samples(params: FamilyParams, bump: Optional[BumpSpec], Xs,
                 cfg: NumericConfig, *, flat: bool) -> list[ZetaSample]:
    """Z at every X = b sigma + 1 of Xs, as one batched quadrature: each X is
    one component of the vector quadratures, so its sample does not depend
    on the other Xs.  Raises OutOfWindow unless 0 < X < 1 for every X.

    bump None gives Z(sigma) over the quadrant box [0, r1] x [0, r2],
    strictly positive.  A bump gives the full-plane integral of |f|^sigma
    against it, as 4x the quadrant over [0, R1] x [0, R2]: it needs q even,
    so that |f(x, y)| = |f(|x|, |y|)|, and its support inside (-1, 1)^2.
    With flat=False the perturbation is suppressed and the integral reduces
    to the pure monomial."""
    if bump is not None:
        if params.q % 2 != 0:
            raise OddQNotSupported(f"q={params.q} is odd; quadrant symmetry fails")
        if bump.R1 >= 1.0 or bump.R2 >= 1.0:
            raise DomainError("bump support must lie inside (-1,1)^2")
    sigmas = [_check_window(params, X) for X in Xs]
    Y1, Y2, scale = (params.r1, params.r2, 1.0) if bump is None else (bump.R1, bump.R2, 4.0)
    values, errors = _box_integral(params, np.array(sigmas), np.array(Xs, dtype=float),
                                   cfg, Y1, Y2, bump, flat)
    return [ZetaSample(sigma=float(s), X=float(X), value=scale * float(v), error=scale * float(e))
            for s, X, v, e in zip(sigmas, Xs, values, errors)]


# ---------------------------------------------------------------------------
# region pieces along lambda*y = e(x)
# ---------------------------------------------------------------------------

def _flushed(ln_f):
    """ln_f with -inf where ln_f < -745, where exp(ln_f) is at most the
    least subnormal, 5e-324: such a factor is an exact 0, and exp takes no
    slow subnormal path, over 100x the time of a normal value."""
    return np.where(ln_f < -745.0, -np.inf, ln_f)


def _slice_rho(params: FamilyParams, lam):
    """rho(lam r2), where the slice lambda y = e(x) meets the box top, for
    lam a float or an array: the one check, shared by every slice integral
    and the G/H/J parts, that raises DegenerateLowerLimit where it underflows
    to 0 (lam r2 so small that the slice has no x-extent in doubles)."""
    x1 = rho(params, lam * params.r2)
    if not np.all(x1 > 0.0):
        at = np.argmin(np.atleast_1d(x1) > 0.0)
        raise DegenerateLowerLimit(f"rho({np.atleast_1d(lam)[at] * params.r2}) underflowed to 0")
    return x1


def _slice_pieces(params: FamilyParams, lam: np.ndarray, sig: np.ndarray):
    """The x-pieces of the slice lambda y = e(x) for every pair (lam[i],
    sig[i]), each ((pairs, lo, width), endpoints) with x = lo + width u on
    u in (0, 1).  The slice kinks at x1 = rho(lam r2), where e(x)/lambda
    crosses the box top, or saturates at x1 = r1.  The left piece x = x1 u
    of every pair declares x^(a s) at u = 0; the right piece
    x = x1 + (r1 - x1) u of the kinked pairs is declared regular, so its
    lower end is sampled no deeper than its upper one, not at the offsets
    far below eps that round onto the kink.  A rho that underflows to 0
    raises DegenerateLowerLimit (_slice_rho), before any quadrature."""
    x1 = np.minimum(_slice_rho(params, lam), params.r1)
    kinked, k = np.flatnonzero(x1 < params.r1), sig.size
    return [((np.arange(k), np.zeros(k), x1), EndpointSpec(exponent_lo=params.a * sig)),
            ((kinked, x1[kinked], params.r1 - x1[kinked]), None)]


def _slice_gamma(params: FamilyParams, x1, sig, X):
    """The closed forms of the slice reductions on (0, x1), for every (x1,
    sigma, X) of the 1D arrays (or scalars) x1, sig, X: with as + 1 =
    a sigma + 1, beta' = (as + 1)/p and z = X/(q x1^p) = -X log e(x1),
    (P, z, g, h) with P = x1^(as+1)/(as+1),

        g = z^beta' Gamma(1 - beta', z),   h = beta' z^beta' Gamma(-beta', z) = e^-z - g,

    so that int_0^x1 x^(as) e(x)^X dx = P h (t = X/(q x^p), DLMF 8.2.2 and
    8.8.2).  g and h are each one component of one _gamma_upper call, so
    neither is the difference e^-z - (the other), which cancels where z is
    large for h and where z is small and beta' < 1 for g; each is within
    _GAMMA_REL_ERR of its value, up to a few roundings."""
    x1, sig, X = np.atleast_1d(x1), np.atleast_1d(sig), np.atleast_1d(X)
    asp1 = params.a * sig + 1.0
    bp = asp1 / params.p_float
    z = -X * log_e_flat(params, x1)
    S1, S0 = _gamma_upper(np.concatenate([1.0 - bp, -bp]), np.tile(z, 2)).reshape(2, -1)
    ez = np.exp(-z)
    return np.exp(asp1 * np.log(x1)) / asp1, z, z * ez * S1, bp * ez * S0


def _mapped(piece, us, cols):
    """Pairs, abscissae x = lo + width u and widths of the components cols
    of a piece (pairs, lo, width)."""
    pairs, lo, width = piece
    return pairs[cols], lo[cols] + width[cols] * us, width[cols]


def _on_pieces(column, pieces, tol, k: int):
    """Sum over pieces of the integrals on u in (0, 1) of column(piece, us,
    cols), one vector _tanh_sinh call per nonempty piece with a component
    per index of its first array (the pairs, or other indices into the k
    results), at tol, one value or a (k,) array of one per index.  Returns
    (values, errors), (k,) arrays over all indices."""
    total, err = np.zeros(k), np.zeros(k)
    tols = np.broadcast_to(tol, (k,))
    for piece, ends in pieces:
        pairs = piece[0]
        if pairs.size:
            v, e, _ = _tanh_sinh(partial(column, piece), 0.0, 1.0, tols[pairs], ends,
                                 k=pairs.size)
            total[pairs] += v
            err[pairs] += e
    return total, err


def region_samples(params: FamilyParams, lams, Xs,
                   cfg: NumericConfig) -> list[DecompositionTrace]:
    """Z1, Z2 over the split regions {lambda y >= e(x)} / {lambda y < e(x)}
    and their 1D reductions

        ztilde1 = lam^-X X^-1 int_0^rho x^(a s) ((lam r2)^X - e(x)^X) dx,
        ztilde2 = (X - q s)^-1 [ lam^-(X-qs) int_0^rho x^(a s) e(x)^X dx
                                 + r2^(X-qs) int_rho^r1 x^(a s) e^(-s/x^p) dx ],

    rho = rho(lam r2) or r1, at every (lambda, X) pair of lams x Xs,
    lambda-major, in one pass over the slice pieces (_slice_pieces; see the
    module docstring): z1 and z2 at tol_2d and ztilde2's right integral at
    tol_1d, each a component of its own, so a pair's trace does not depend
    on the other pairs.  The lower limit rho > 0 keeps the growing factor
    e^(-s/x^p) finite on the right piece.  The left integrals are closed
    forms (_slice_gamma): int_0^rho x^(a s) e(x)^X dx = P h, so ztilde1 =
    lam^-X P (g + (lam r2)^X - e^-z)/X, the last two terms cancelling
    exactly where the slice kinks (e(rho)^X = (lam r2)^X), and each is
    within _GAMMA_REL_ERR of its value up to a few roundings.  The columns of z1
    and z2 are closed forms: with V(T) = int_0^T v^((b-q)s) (1+v^q)^s dv
    and C(x) the quadrant column on (0, r2) (_inner_columns), z2's column
    is e^X V(1/lambda) and z1's C - e^X V(1/lambda) where the slice
    e(x)/lambda is below r2, and C and 0 where it is not, decided per node.
    The error bounds z1 and z2: the x-quadratures' plus the columns' share
    INNER_REL_ERR (z1 + 3 z2), as C and e^X V each carry INNER_REL_ERR and
    z1 is their difference.  An X outside (0, 1) raises OutOfWindow, and
    an empty lams, or a lambda outside (0, inf), DomainError, before any
    quadrature."""
    sigmas = [_check_window(params, X) for X in Xs]
    if len(lams) == 0 or not all(0.0 < v < math.inf for v in lams):     # NaN fails
        raise DomainError("the region pieces need lambdas, each positive and finite")
    n_sig, a, b, q = len(sigmas), params.a, params.b, params.q
    sig1, X1 = np.array(sigmas), np.array(Xs, dtype=float)
    lam_set, grp = np.unique(np.array(lams, dtype=float), return_inverse=True)
    grp = np.repeat(grp, n_sig)     # per pair, lambda-major: its lambda in lam_set
    lam = lam_set[grp]
    sig, Xs = np.tile(sig1, len(lams)), np.tile(X1, len(lams))
    k, row = sig.size, np.arange(sig.size) % n_sig      # row: the pair's sigma
    lnY2, ln_lam = math.log(params.r2), np.log(lam_set)
    tab, *tabs = _inner_tables(b, q, np.concatenate([[lnY2], -ln_lam]), sig1, X1)
    # V(1/lambda) per (lambda, sigma): _inner_columns at E = 1 on (0, 1/lambda)
    zero = np.zeros(1)
    V = np.array([_inner_columns(q, -t, zero, zero, tab_t)[0]
                  for t, tab_t in zip(ln_lam, tabs)])[grp, row]

    def z_columns(c, xs, width):
        """c < k is z1 of pair c, c >= k z2 of pair c - k."""
        p = c % k
        out = np.empty(xs.shape)
        gp = grp[p]
        # the pairs of one lambda share their nodes; bincount, as a plain
        # np.unique imports numpy.ma on its first call
        for g in np.flatnonzero(np.bincount(gp)):
            j = np.flatnonzero(gp == g)
            pj, at = np.unique(p[j], return_inverse=True)   # z1 and z2 share C
            ln_es = log_e_flat(params, xs[:, j[0]])
            with np.errstate(over="ignore"):   # q log e overflows to -inf: E = 0
                lnE = q * ln_es
            C = _inner_columns(q, lnY2, ln_es, lnE, tab[row[pj]])
            eV = np.exp(_flushed(np.multiply.outer(ln_es, Xs[pj]))) * V[pj]
            inside = (ln_es - ln_lam[g] < lnY2)[:, None]
            out[:, j] = np.where(c[j] < k, np.where(inside, C - eV, 0.0)[:, at],
                                 np.where(inside, eV, C)[:, at])
        with np.errstate(divide="ignore", over="ignore"):
            out *= np.exp(a * sig[p] * np.log(xs))
        return width * out

    def zt2_right(p, xs, width):
        ln_es = log_e_flat(params, xs)
        return width * np.exp(a * sig[p] * np.log(xs) + q * sig[p] * ln_es)

    def columns(piece, us, cols):
        """Component c is, of pair c % k, z1 or z2 for c < 2k and ztilde2's
        right integrand for c >= 2k, each kind formed on its own components
        alone."""
        c, xs, width = _mapped(piece, us, cols)
        out = np.empty(xs.shape)
        for lo, hi, f in ((0, 2, z_columns), (2, 3, zt2_right)):
            at = np.flatnonzero((lo * k <= c) & (c < hi * k))
            if at.size:
                out[:, at] = f(c[at] - lo * k, xs[:, at], width[at])
        return out

    # z1 and z2 on the left piece; z2 and ztilde2's right term on the right
    # one, where e(x)/lambda > r2 and {lambda y >= e(x)} misses the box
    (left, ends), (right, _) = _slice_pieces(params, lam, sig)
    kinked = right[0]
    z, err = _on_pieces(columns, [
        ((np.arange(2 * k), np.tile(left[1], 2), np.tile(left[2], 2)),
         EndpointSpec(exponent_lo=np.tile(ends.exponent_lo, 2))),
        ((np.concatenate([kinked + k, kinked + 2 * k]), np.tile(right[1], 2),
          np.tile(right[2], 2)), None)], np.repeat([cfg.tol_2d, cfg.tol_1d], [2 * k, k]), 3 * k)
    z1, z2, i2_right = z.reshape(3, k)
    err = err[:k] + err[k:2 * k] + INNER_REL_ERR * (np.abs(z1) + 3.0 * np.abs(z2))
    # the left-piece reductions in closed form: ztilde1 = lam^-X P (g + rim)/X,
    # rim = (lam r2)^X - e^-z, e^-z = e(x1)^X, which is 0 where the slice kinks
    # at x1 = rho(lam r2) and is the band above e(r1)^X where it saturates
    x1 = left[2]
    P, zg, g, h = _slice_gamma(params, x1, sig, Xs)
    rim = np.where(x1 >= params.r1, np.expm1(Xs * np.log(lam * params.r2)) - np.expm1(-zg), 0.0)
    zt1 = np.exp(-Xs * np.log(lam)) * P * (g + rim) / Xs
    denom = Xs - q * sig
    zt2 = (P * h * (np.exp(-denom * np.log(lam)) / denom)
           + np.exp(denom * math.log(params.r2)) / denom * i2_right)
    return [DecompositionTrace(lam=lams[i // n_sig], sigma=float(sig[i]), X=float(Xs[i]),
                               z1=float(z1[i]), z2=float(z2[i]), ztilde1=float(zt1[i]),
                               ztilde2=float(zt2[i]), error=float(err[i]))
            for i in range(k)]


# ---------------------------------------------------------------------------
# auxiliary 1D reductions
# ---------------------------------------------------------------------------

def ztilde_2d(params: FamilyParams, lam: float, X: float,
              cfg: NumericConfig) -> tuple[float, float]:
    """Direct iterated integrals (zt1, zt2) for cross-checking the 1D
    reductions, whose left-piece integrals are closed forms
    (region_samples): an x-quadrature of exact inner integrals, so an
    independent check of those closed forms.  zt1 is x^(a s) y^(b s) over
    {lambda y >= e(x)}, its inner integral int_c^r2 y^(X-1) dy =
    r2^X (-expm1(X (log c - log r2)))/X with c = min(e(x)/lambda, r2), and
    zt2 is x^(a s) y^((b-q)s) e^(-s/x^p) over {lambda y < e(x)}, its inner
    integral m^al / al with al = (b-q)s + 1 and m = min(e(x)/lambda, r2).  zt2's
    column is one exp of one log: inside the slice (m = e/lambda)
    e^(q s) m^al = e^X lambda^-al, X = q s + al, so its log is
    X log e - al log lambda, not two terms of size |log e| that cancel;
    outside it is q s log e + al log r2; an underflowing column is an
    exact 0 (_flushed).  Component 0 is zt1 and 1 zt2, each kind of column
    formed on its own component alone: one outer call on the left slice
    piece with both, and one on the right piece of a kinked slice with zt2
    alone, as {lambda y >= e(x)} misses the box there; no call is nested."""
    sigma = _check_slice(params, lam, X)
    (left, ends), (right, _) = _slice_pieces(params, np.array([lam]), np.array([sigma]))
    a, q = params.a, params.q
    al = (params.b - params.q) * sigma + 1.0
    lnY2, ln_lam = math.log(params.r2), math.log(lam)
    Y2X = math.exp(X * lnY2) / X

    def zt1(xs, width):      # int_c^r2 y^(X-1) dy, c = min(e(x)/lambda, r2)
        ln_c = log_e_flat(params, xs) - ln_lam
        with np.errstate(divide="ignore"):
            return width * np.exp(a * sigma * np.log(xs)) * (
                -np.expm1(X * np.minimum(ln_c - lnY2, 0.0))) * Y2X

    def zt2(xs, width):
        ln_es = log_e_flat(params, xs)
        inside = ln_es - ln_lam < lnY2      # m = e/lambda: e^(q s) m^al = e^X lambda^-al
        ln_col = np.where(inside, X * ln_es - al * ln_lam, q * sigma * ln_es + al * lnY2)
        return width * np.exp(_flushed(a * sigma * np.log(xs) + ln_col)) / al

    def columns_2d(piece, us, cols):
        c, xs, width = _mapped(piece, us, cols)     # c: 0 for zt1, 1 for zt2
        return np.hstack([(zt1, zt2)[i](xs[:, [j]], width[[j]]) for j, i in enumerate(c)])

    (zt1_v, zt2_v), _ = _on_pieces(columns_2d, [
        ((np.arange(2), np.tile(left[1], 2), np.tile(left[2], 2)),
         EndpointSpec(exponent_lo=np.tile(ends.exponent_lo, 2))),
        ((right[0] + 1, right[1], right[2]), None)], cfg.tol_2d, 2)
    return float(zt1_v), float(zt2_v)


# ---------------------------------------------------------------------------
# proof-level parts: G (supercritical rescaling), H (critical), J (subcritical)
# ---------------------------------------------------------------------------

def _from_one(f, U: float, cfg: NumericConfig):
    """int_1^U f(u) du for U on either side of 1; 0 for U = 1, where the
    G2 and H2 intervals are empty.  f is one integrand, or a tuple of them,
    each a component of one call on shared nodes that returns what a call
    of its own returns; the integrals are then a tuple."""
    fs = f if isinstance(f, tuple) else (f,)
    vals = np.zeros(len(fs))
    if U != 1.0:
        vals, _, _ = _tanh_sinh(lambda xs, cols: np.stack([fs[c](xs[:, 0]) for c in cols], 1),
                                min(1.0, U), max(1.0, U), cfg.tol_1d, EndpointSpec(),
                                k=len(fs))
    out = tuple(float(v) if U > 1.0 else -float(v) for v in vals)
    return out if isinstance(f, tuple) else out[0]


def _g_upper(params: FamilyParams, rho_v: float, X: float) -> float:
    """U = rho_v / X^(1/p), rho_v = rho(lam r2): the upper end of G2 and H2."""
    return rho_v * math.exp(-math.log(X) * float(1 / params.p))


def _g2_integrand(params: FamilyParams, sigma: float):
    """u^(a s)(1 - e(u)), the integrand of G2."""
    def f(us):
        return np.exp(params.a * sigma * np.log(us)) * (-np.expm1(log_e_flat(params, us)))
    return f


def g_pieces(params: FamilyParams, lam: float, X: float,
             cfg: NumericConfig):
    """G1, G2, G3 after the rescaling u = X^(-1/p) x:

        G1 = int_0^1 u^(a s)(rt2^X - e(u)) du
        G2 = int_1^U u^(a s)(1 - e(u)) du,      U = rho(rt2) / X^(1/p)
        G3 = (rt2^X - 1) int_1^U u^(a s) du

    G1 in closed form: int_0^1 u^(a s) e(u) du is the slice integral of
    _slice_gamma at x1 = 1 and X = 1, P h with P = 1/(as+1) and z = 1/q,
    so G1 = (rt2^X - h)/(as+1), h = e^(-1/q) - q^-beta' Gamma(1 - beta', 1/q).
    G2 is a quadrature (_from_one) and G3 elementary."""
    sigma = _check_slice(params, lam, X)
    a = params.a
    rt2 = lam * params.r2
    ln_rt2 = math.log(rt2)
    U = _g_upper(params, _slice_rho(params, lam), X)
    asp1 = a * sigma + 1.0
    _, _, _, (h,) = _slice_gamma(params, 1.0, sigma, 1.0)
    g1 = (math.exp(X * ln_rt2) - float(h)) / asp1
    g2 = _from_one(_g2_integrand(params, sigma), U, cfg)
    g3 = math.expm1(X * ln_rt2) * (U**asp1 - 1.0) / asp1
    return g1, g2, g3


def h_pieces(params: FamilyParams, lam: float, X: float,
             cfg: NumericConfig):
    """G2 of g_pieces and its critical-regime split (G2, H1, H2):
    H1 = q^-1 (log rho(rt2) - p^-1 log X) and
    H2 = int_1^U (q^-1 / u - u^(a s)(1 - e(u))) du, so G2 = H1 - H2.  G2 and
    H2 are the two components of one call on (1, U), each what a call of
    its own returns."""
    sigma = _check_slice(params, lam, X)
    q = params.q
    rho_v = _slice_rho(params, lam)
    h1 = (math.log(rho_v) - math.log(X) / params.p_float) / q
    f2 = _g2_integrand(params, sigma)

    def fh(us):
        return 1.0 / (q * us) - f2(us)

    g2, h2 = _from_one((f2, fh), _g_upper(params, rho_v, X), cfg)
    return g2, h1, h2


def j_pieces(params: FamilyParams, lam: float, X: float,
             cfg: NumericConfig):
    """Subcritical split of the 1D reduction:

        J1 = lam^-X int_0^rho x^(a s) (1 - e(x)^X)/X dx
        J2 = lam^-X (rt2^X - 1)/X int_0^rho x^(a s) dx

    both in closed form: with P = int_0^rho x^(a s) dx, z and g of
    _slice_gamma at x1 = rho, J1 = lam^-X P (-expm1(-z) + g)/X, as
    int_0^rho x^(a s) e(x)^X dx = P (e^-z - g); its two terms are positive.
    """
    sigma = _check_slice(params, lam, X)
    lamX = math.exp(-X * math.log(lam))
    (P,), (z,), (g,), _ = _slice_gamma(params, _slice_rho(params, lam), sigma, X)
    j1 = float(P) * (-math.expm1(-z) + float(g)) / X
    j2 = math.expm1(X * math.log(lam * params.r2)) / X * float(P)
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
    fmax = R1**a * R2**(b - q) * (R2**q + (math.exp(q * log_e_flat(params, R1)) if flat else 0.0))
    if fmax >= 1.0:
        raise DomainError(f"|f| reaches {fmax:.3g} >= 1 on the bump support")
    return int(j)


def log_derivative_moments(params: FamilyParams, bump: BumpSpec, s: float, J: int,
                           cfg: NumericConfig, *,
                           flat: bool) -> np.ndarray:
    """D_0(s), ..., D_J(s) over the plane (4x quadrant) as one array.  As
    |f| = x^a f_y with f_y = y^(b-q) (y^q + E(x)), the binomial theorem gives

        D_j = int x^(a s) phi_x sum_k C(j, k) (a log x)^(j-k) N_k(E(x)) dx,
        N_k(E) = int_0^R2 f_y^s (log f_y)^k phi_y dy,

    so the inner integrals see x only through log E(x).  A flat term below
    e^-40 of y^q at every inner node is lost in rounding, so such a row is
    the E = 0 row N0, as is every row without the flat term.  Split each
    row as N0 + (N - N0):

        D_j = j! sum_d M_d N0_(j-d) / (j-d)!  +  L_j,
        M_d = int x^(a s) phi_x (a log x)^d / d! dx,
        L_j = int x^(a s) phi_x sum_k C(j, k) (a log x)^(j-k) (N_k(E(x)) - N0_k) dx.

    N0 and M_d are one _tanh_sinh call on u in (0, 1) with k = 2(J + 1) in
    two groups of J + 1 moments: N0 at y = R2 u at tol_2d/5 with the
    endpoint exponent of y^(b s), M_d at x = R1 u at tol_2d with that of
    x^(a s), each group retiring as a call on its own interval would; R2
    and R1 multiply the sums after the quadrature, so every node's values
    are those of y and x themselves.  M_d is one cumulative product per
    node, and the binomial convolution with N0 follows the quadrature.  At
    a = 0 the x-moments need no quadrature: (a log x)^d = 0 for d >= 1 and
    M_0 = R1 Phi, Phi = _BUMP_MASS, so the call is the N0 group alone, k =
    J + 1, and N0 keeps its bits (a group returns what a call on it alone
    returns).
    Without the flat term L_j = 0.  With it L_j is one more call on
    (0, R1), a group of J + 1 components, 0 at every dead node and
    continuous across the dead/live boundary.  Each call of its integrand
    makes one inner call for the rows N_0..N_J of its live nodes, a group
    of J + 1 moments per node on the same y = R2 u map as N0, so N - N0
    compares values taken on one node set; only at live nodes does the
    column recombine N - N0 binomially in a log x.  Where the x-bump is
    exactly 0 both x integrands are 0 and no row is built.  With no live
    node L_j is exactly 0, and the moments are those without the flat term
    bit for bit; as E rises with x, a box whose E(R1) is dead makes no L_j
    call.

    Requires |f| < 1 on the support, so that sign(D_j) = (-1)^j.  Where
    also x <= 1 and f_y <= 1 (R1 <= 1 and R2^(b-q) (R2^q + E(R1)) <= 1),
    a log x <= 0 and log f_y <= 0, so M_d has the sign (-1)^d, N0_k the
    sign (-1)^k and every term of the convolution the sign (-1)^j: it
    cancels nothing.  L_j is a correction from the live band, where the
    flat term lifts f_y above y^b."""
    J = _check_log_moments(params, bump, s, J, flat)
    a, b, q, G = params.a, params.b, params.q, J + 1
    # where E(x) is far below y^q the integrand goes as y^(b s) (log f_y)^k
    ep_y = EndpointSpec(exponent_lo=b * s if s < 0 else 0.0)
    # log E below this keeps E under e^-40 y^q down to the deepest inner node
    # (offset _OFF_MIN), where it moves log f_y by under 5e-18: the E = 0 row
    ln_dead = q * math.log(bump.R2 * _OFF_MIN) - 40.0
    fact = np.cumprod(np.maximum(np.arange(G), 1.0))      # j!

    def fy(lnE, us, cols):      # whole groups: the rows cols[::G] // G at y = R2 u
        ys = bump.R2 * us[:, 0]
        lny = np.log(ys)
        ln_fy = (b - q) * lny + np.logaddexp(q * lny, lnE[cols[::G] // G, None])
        # (log f_y)^k f_y^s phi_y per (row, k, node), the powers one product
        # accumulated over k; the (node, component) values _tanh_sinh sums are
        # a transposed view.  The products may overflow at the deepest nodes
        # next to a singular endpoint, which _tanh_sinh drops
        pows = np.empty((ln_fy.shape[0], G, lny.size))
        pows[:, 0] = 1.0
        pows[:, 1:] = ln_fy[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(pows, axis=1, out=pows)
            pows *= (np.exp(s * ln_fy) * bump_y_profile(bump, ys))[:, None]
        return pows.reshape(-1, lny.size).T

    def x_powers(x):
        """Where the x-bump is not exactly 0 (not past 1 - x/R1 ~ 6.7e-4):
        that mask, t_d = (a log x)^d / d!, d = 0..J, as one cumulative
        product, and w = x^(a s) phi_x."""
        phi = bump_x_profile(bump, x)
        on = phi > 0.0
        lnx = np.log(x[on])
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.empty((lnx.size, G))
            t[:, 0] = 1.0
            t[:, 1:] = (a * lnx)[:, None] / np.arange(1.0, G)
            np.multiply.accumulate(t, axis=1, out=t)
            w = np.exp(a * s * lnx) * phi[on]
        return on, t, w

    dead = np.array([-np.inf])

    def both(us, cols):      # whole groups: N0 (cols < G) and/or the x-moments
        parts = [fy(dead, us, cols[:G])] if cols[0] < G else []
        if cols[-1] >= G:
            on, t, w = x_powers(bump.R1 * us[:, 0])
            m = np.zeros((us.shape[0], G))
            with np.errstate(over="ignore", invalid="ignore"):
                m[on] = t * w[:, None]
            parts.append(m)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    # at a = 0, (a log x)^d = 0 for d >= 1 and M_0 = R1 Phi: N0's group alone
    k = 2 * G if a else G
    vals, _, _ = _tanh_sinh(both, 0.0, 1.0, np.repeat([cfg.tol_2d / 5.0, cfg.tol_2d], G)[:k],
                            EndpointSpec(exponent_lo=np.repeat([ep_y.exponent_lo, a * s], G)[:k]),
                            k=k, group=G)
    n0, m = bump.R2 * vals[:G], bump.R1 * (vals[G:] if a else np.r_[_BUMP_MASS, np.zeros(J)])

    def excess(xs, cols):      # the L_j integrand
        x = xs[:, 0]
        on, t, w = x_powers(x)
        out = np.zeros((x.size, G))
        with np.errstate(over="ignore"):
            lnE = q * log_e_flat(params, x[on])
        live = lnE >= ln_dead
        if not live.any():
            return out
        lnE = lnE[live]
        dn = bump.R2 * _tanh_sinh(partial(fy, lnE), 0.0, 1.0, cfg.tol_2d / 5.0, ep_y,
                                  k=lnE.size * G, group=G)[0].reshape(-1, G) - n0
        with np.errstate(over="ignore", invalid="ignore"):
            if a:
                # L_j = dN_j + j! sum_{d>=1} t_d dN_(j-d) / (j-d)!: a Cauchy
                # product, summed by einsum over a sliding window of the
                # zero-padded dN_k / k!, a strided view, so no (n, G, G) copy is made
                m_k = np.zeros((dn.shape[0], 2 * J))
                m_k[:, J:] = dn[:, :J] / fact[:J]
                dn += np.einsum("xji,xi->xj", sliding_window_view(m_k, J, axis=1),
                                t[live, :0:-1]) * fact
            out[np.flatnonzero(on)[live]] = dn * w[live, None]
        return out

    L = 0.0
    # E rises with x: with E(R1) dead no node is live, and L_j is 0 with no call
    if flat and q * log_e_flat(params, bump.R1) >= ln_dead:
        L = _tanh_sinh(excess, 0.0, bump.R1, cfg.tol_2d, EndpointSpec(exponent_lo=a * s),
                       k=G, group=G)[0]
    return 4.0 * (fact * np.convolve(m, n0 / fact)[:G] + L)


def log_derivative_integral(params: FamilyParams, bump: BumpSpec, s: float, j: int,
                            cfg: NumericConfig, *,
                            flat: bool) -> float:
    """D_j(s) over the plane (4x quadrant), requiring |f| < 1 on the support
    so that sign(D_j) = (-1)^j.  D_0 runs on the weighted engine
    (_box_integral) with the flat term at s < 0, where the y-mass sits next
    to the singular endpoint, on closed-form inner columns; without it
    wherever F is certified, b s <= _F_C_HI = 1/2 with s >= 0 included, as
    the E = 0 column R2^X (1/X + F(b s)) times R1^(a s + 1) (1/(a s + 1) +
    F(a s)), both powers taken analytically and both F from their Taylor
    series (_bump_moments), with no quadrature.  Every other D_j (j > 0,
    and D_0 with the flat term at s >= 0 or without it past b s = 1/2) is
    entry j of log_derivative_moments."""
    j = _check_log_moments(params, bump, s, j, flat)
    if j > 0 or (s >= 0.0 if flat else params.b * s > _F_C_HI):
        return float(log_derivative_moments(params, bump, s, j, cfg, flat=flat)[j])
    (value,), _ = _box_integral(params, np.array([s]), np.array([params.b * s + 1.0]), cfg,
                                bump.R1, bump.R2, bump, flat)
    return 4.0 * float(value)
