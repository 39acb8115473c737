"""Fourth oracle batch: the unweighted inner column of the quadrant engine,

    I(T, E) = int_0^T v^((b-q)s) (v^q + E)^s dv,   s = (X - 1) / b,

for the closed form of flatzeta.zeta._inner_closed.  Not collected by pytest;
run directly to regenerate the INNER_ORACLE rows of tests/test_zeta.py.

Each row is computed twice: at 40 digits from the same Gauss hypergeometric
form the engine uses,

    I = T^al / al  E^s  2F1(-s, al/q; 1 + al/q; -T^q/E),   al = (b-q)s + 1,

with mpmath's own 2F1, and at 30 digits by quadrature of the integral itself
in w = log v, split at the crossover w = log(E)/q and every 5 units above it.
The two must agree far below the engine's bound.  The inputs are the double
values b, q, X, log T and log E; s is formed in double as the engine forms it.

The rows cover the worst points of a dense scipy-against-mpmath grid
((2,2) and (7,6) at X = 1e-5), log E down to -690, C1 (T = E = 1), the range
e(x) > T where 2F1's argument is inside the unit disc, one X below 1e-5, and
both sides of the engine's far-branch switch q log T - log E = 700.
"""
import math
from mpmath import mp, mpf

LN_HALF = math.log(0.5)
POINTS = [
    # (b, q, X, log T, log E)
    (2, 2, 1e-5, math.log(0.9), -1.0),
    (7, 6, 1e-5, LN_HALF, -5.0),
    (7, 7, 1e-5, math.log(0.999), -1.0),
    (2, 2, 2.0**-3, 0.0, 0.0),
    (7, 6, 1e-5, 0.0, 0.0),
    (3, 1, 0.5, 0.0, 0.0),
    (2, 2, 2.0**-8, LN_HALF, -0.1),
    (1, 1, 1e-4, math.log(0.3), -0.5),
    (3, 2, 1e-4, math.log(0.999), -20.0),
    (6, 4, 2.0**-8, math.log(0.45), -200.0),
    (2, 2, 2.0**-3, LN_HALF, -690.0),
    (7, 1, 1e-3, math.log(0.05), -690.0),
    (5, 4, 1e-5, math.log(0.3), -690.0),
    (3, 3, 1e-7, LN_HALF, -5.0),
    (2, 2, 2.0**-3, LN_HALF, 2 * LN_HALF - 699.0),
    (2, 2, 2.0**-3, LN_HALF, 2 * LN_HALF - 701.0),
    (2, 2, 1e-5, LN_HALF, 2 * LN_HALF - 699.0),
    (2, 2, 1e-5, LN_HALF, 2 * LN_HALF - 701.0),
    (7, 6, 2.0**-8, math.log(0.3), 6 * math.log(0.3) - 699.0),
    (7, 6, 2.0**-8, math.log(0.3), 6 * math.log(0.3) - 701.0),
]


def by_2f1(b, q, sigma, ln_t, ln_E):
    s = mpf(sigma)
    al = (b - q) * s + 1
    z = -mp.exp(q * mpf(ln_t) - mpf(ln_E))
    return mp.exp(al * mpf(ln_t) + s * mpf(ln_E)) / al * mp.hyp2f1(-s, al / q, 1 + al / q, z)


def by_quad(b, q, sigma, ln_t, ln_E):
    s, ln_t, ln_E = mpf(sigma), mpf(ln_t), mpf(ln_E)
    al = (b - q) * s + 1

    def f(w):
        return mp.exp(al * w + s * mp.log(mp.exp(q * w) + mp.exp(ln_E)))

    w0 = min(ln_E / q, ln_t)
    pts = [-mp.inf, w0]
    while pts[-1] + 5 < ln_t:
        pts.append(pts[-1] + 5)
    if pts[-1] < ln_t:
        pts.append(ln_t)
    return mp.quad(f, pts)


worst = 0
for b, q, X, ln_t, ln_E in POINTS:
    sigma = (X - 1.0) / b
    mp.dps = 30
    ref_q = by_quad(b, q, sigma, ln_t, ln_E)
    mp.dps = 40
    ref = by_2f1(b, q, sigma, ln_t, ln_E)
    worst = max(worst, abs(ref_q - ref) / ref)
    print(f"    ({b}, {q}, {X!r}, {ln_t!r}, {ln_E!r}, {mp.nstr(ref, 20)}),")
print("2F1 at 40 digits vs quadrature at 30 digits, max relative difference:",
      mp.nstr(worst, 3))
