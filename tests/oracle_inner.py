"""Fourth oracle batch: the unweighted inner column of the quadrant engine,

    I(T, E) = int_0^T v^((b-q)s) (v^q + E)^s dv,   s = (X - 1) / b,

for the two series of flatzeta.zeta._inner_columns, and the constant K of
their far form (flatzeta.zeta._k_closed).  Not collected by pytest; run
directly to regenerate the INNER_ORACLE, K_ORACLE, DELTA_ORACLE and
E0_ORACLE rows of tests/test_zeta.py, or as

    python tests/oracle_inner.py sweep [cells] [seed]

to measure the engine's inner column against mpmath on random cells (below).

Each row is computed twice: at 40 digits from the Gauss hypergeometric form

    I = T^al / al  E^s  2F1(-s, al/q; 1 + al/q; -T^q/E),   al = (b-q)s + 1,

with mpmath's own 2F1, and at 30 digits by quadrature of the integral itself
in w = log v, split at the crossover w = log(E)/q and every 5 units above it.
The two must agree far below the engine's bound.  The inputs are the double
values b, q, X, log T and log E; s is formed in double as the engine forms it.

The rows cover the worst points of a dense scipy-against-mpmath grid
((2,2) and (7,6) at X = 1e-5), log E down to -690, C1 (T = E = 1), the range
e(x) > T where 2F1's argument is inside the unit disc, X below 1e-5 down to
1e-12, log z = q log T - log E on both sides of 700, where T^q/E nears the
double range, z below 1e-308, and both sides of the engine's two switches:
z = 2 (near series against far form) and log z = 40 (far tail kept against
dropped), at q < b and at q = b = 40.

The sweep draws cells (b, q, X, log T, log z) from a seeded generator: X
log-uniform in [1e-12, 0.99], T in [0.05, 1], and a third each with
z <= 2, 2 < z < e^40 and e^40 <= z < e^745.  It compares the engine's
column with the 2F1 form at 40 digits twice, with s the double the engine
forms and with s = (X - 1)/b exact from the double X (the two references
differ by up to about eps log z / q), checks the 40-digit values against 50
digits, and prints the worst relative error of each branch.
zeta.INNER_REL_ERR is set at 5x or more the worst of a 1200-cell sweep.

K = C1 + C2(inf), with C1 = int_0^1 v^((b-q)s) (1+v^q)^s dv and
C2(inf) = int_1^inf v^(X-1) [(1+v^-q)^s - 1] dv, is printed at 40 digits
from its Gamma form (DLMF 5.12.3, continued past the pole at X = 0)

    K = (1 - Gamma(1-t) Gamma(t-s) / Gamma(-s)) / X,   t = X/q,

and checked against 30-digit quadrature of C1 + C2(inf) itself, so that
the identity is tested, not assumed.  Its rows cover X down to 1e-12,
where L = log(Gamma(1-t) Gamma(t-s) / Gamma(-s)) is O(t), X = 0.0099 and
0.0101 at q = 1, large b, where t/(-s) is not small, and t -> 1 at q = 1
(X up to 1 - 2^-20), next to the pole of Gamma(1-t).

The bump-weighted correction column of flatzeta.zeta._increment_columns,

    D(E, s) = int_0^R2 y^((b-q)s) (y^q + E)^s (phi_y(y) - 1) dy,
    phi_y(y) - 1 = expm1(u^2/(u^2 - 1)),   u = y/R2,   R2 = 1/2,

is printed for the DELTA_ORACLE rows at 40 digits, by quadrature in y on
(0, m), m = min(e, R2), e = E^(1/q), and in w = log y on (log m, log R2)
split every 5 units, and checked against 30 digits in the other order of
variables: in w down to log m - 60 (the mass below it is under e^-120 of
the column, as the increment goes like y^2) split every 2 units.  The
inputs are the double values b, q, X and log e; s is formed in double as
the engine forms it.  The rows cover e/R2 in {2, 0.5, 1e-3, 1e-8} and e
just above the engine's dead threshold log E0 = q log(1e-9 R2) - 40, X
in {1/8, 2^-8, 1e-5, 1e-10}, b > q and q = b, and q = 40, where v^q of the
scaled column leaves the double range.

The E = 0 column of the flat-off (and flat-dead) bump-weighted engine,

    C(s) = R2^X / X + D0(s),   D0(s) = int_0^R2 y^(b s) (phi_y(y) - 1) dy,

takes y^(b s) analytically in R2^X / X; D0, computed by
flatzeta.zeta._dead_column, is printed for the E0_ORACLE rows at 30 digits
by quadrature in y on (0, R2), and checked against 30 digits in w = log y
down to log R2 - 60 (the mass below it is under e^-120 of D0) split every
2 units.  The rows cover b in {2, 3, 7} and s in {-1/b + 1e-4, -0.6/b,
-0.01}, s the double value.
"""
import math
import sys
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
    # either side of z = 2 and of log z = 40
    (3, 2, 2.0**-8, LN_HALF, 2 * LN_HALF - math.log(2.0) + 0.01),
    (3, 2, 2.0**-8, LN_HALF, 2 * LN_HALF - math.log(2.0) - 0.01),
    (7, 6, 1e-10, math.log(0.3), 6 * math.log(0.3) - math.log(2.0) + 0.01),
    (7, 6, 1e-10, math.log(0.3), 6 * math.log(0.3) - math.log(2.0) - 0.01),
    (2, 2, 1e-5, LN_HALF, 2 * LN_HALF - 39.99),
    (2, 2, 1e-5, LN_HALF, 2 * LN_HALF - 40.01),
    (7, 1, 0.5, math.log(0.45), math.log(0.45) - 39.99),
    (7, 1, 0.5, math.log(0.45), math.log(0.45) - 40.01),
    # X = 1e-12 on each branch
    (2, 2, 1e-12, LN_HALF, 2 * LN_HALF - 0.5),
    (2, 2, 1e-12, LN_HALF, 2 * LN_HALF - 20.0),
    (2, 2, 1e-12, LN_HALF, 2 * LN_HALF - 400.0),
    (7, 1, 1e-12, math.log(0.3), math.log(0.3) - 600.0),
    # q = b = 40, al = 1, on each branch and next to each switch
    (40, 40, 1e-5, LN_HALF, 40 * LN_HALF - 0.5),
    (40, 40, 1e-5, LN_HALF, 40 * LN_HALF - math.log(2.0) - 0.01),
    (40, 40, 1e-5, LN_HALF, 40 * LN_HALF - 20.0),
    (40, 40, 1e-5, LN_HALF, 40 * LN_HALF - 40.01),
    (40, 40, 0.5, LN_HALF, 40 * LN_HALF - 300.0),
    # X next to q = 1, where the first tail coefficient C(s, 1)/(q - X) = -1/b
    # takes s and q - X from X itself
    (3, 1, 1.0 - 2.0**-30, LN_HALF, LN_HALF - 1.0),
    # z = T^q/E below 1e-308, where 1/z overflows
    (40, 40, 1e-5, math.log(1e-8), -1.0),
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


SWEEP_FAMILIES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (5, 4), (6, 4),
                  (7, 1), (7, 2), (7, 6), (7, 7), (40, 2), (40, 40)]


def sweep(cells=1200, seed=28):
    """The engine's inner column against 40-digit mpmath on random cells."""
    import os
    import numpy as np
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from flatzeta.zeta import _inner_columns, _inner_tables

    rng = np.random.default_rng(seed)
    worst = {"near": [0.0] * 3, "tail": [0.0] * 3, "far": [0.0] * 3}
    for i in range(cells):
        b, q = SWEEP_FAMILIES[rng.integers(len(SWEEP_FAMILIES))]
        X = 10.0 ** rng.uniform(-12.0, math.log10(0.99))
        ln_t = math.log(rng.uniform(0.05, 1.0))
        branch = ("near", "tail", "far")[i % 3]
        if branch == "near":
            ln_z = rng.uniform(max(q * ln_t, -10.0), math.log(2.0))
        elif branch == "tail":
            ln_z = rng.uniform(math.log(2.0), 40.0)
        else:
            ln_z = rng.uniform(40.0, 745.0)
        ln_E = min(q * ln_t - ln_z, 0.0)
        sigma = (X - 1.0) / b
        tab = _inner_tables(b, q, ln_t, np.array([sigma]), np.array([X]))
        got = _inner_columns(q, ln_t, np.array([ln_E / q]), np.array([ln_E]), tab)[0, 0]
        mp.dps = 40
        ref_s = by_2f1(b, q, sigma, ln_t, ln_E)
        ref_x = by_2f1(b, q, (mpf(X) - 1) / b, ln_t, ln_E)
        mp.dps = 50
        ref_50 = by_2f1(b, q, (mpf(X) - 1) / b, ln_t, ln_E)
        w = worst[branch]
        w[0] = max(w[0], float(abs(got - ref_s) / ref_s))
        w[1] = max(w[1], float(abs(got - ref_x) / ref_x))
        w[2] = max(w[2], float(abs(ref_50 - ref_x) / ref_x))
    print(f"{cells} cells, seed {seed}; worst relative error of the engine against 40 digits"
          " (s in double, s exact from X), and of 40 against 50 digits:")
    for branch, (e_s, e_x, e_mp) in worst.items():
        print(f"  {branch}: {e_s:.3g}  {e_x:.3g}  {e_mp:.3g}")
    print("  all:", f"{max(max(w[:2]) for w in worst.values()):.3g}")


if sys.argv[1:2] == ["sweep"]:
    sweep(*(int(v) for v in sys.argv[2:]))
    sys.exit()


K_FAMILIES = [(2, 1), (2, 2), (3, 2), (6, 4), (7, 1), (7, 7)]
K_XS = [0.5, 0.0101, 0.0099, 1e-5, 1e-8, 1e-12]
# large b, where t/(-s) = X b / (q (1-X)) is not small at t < 1e-2, and
# t = X/q -> 1 at q = 1, next to the pole of Gamma(1-t)
K_WIDE = [(60, 60, 0.5), (60, 60, 0.59), (100, 1, 0.009), (100, 1, 0.00081),
          (100, 1, 0.00079), (50, 1, 0.0099), (50, 1, 1e-5)]
K_NEAR_ONE = [(b, 1, X) for b in (2, 7) for X in (0.9, 0.999, 1.0 - 2.0**-20)]


def k_by_gamma(b, q, sigma):
    s = mpf(sigma)
    X = b * s + 1
    t = X / q
    return (1 - mp.gamma(1 - t) * mp.gamma(t - s) / mp.gamma(-s)) / X


def k_by_quad(b, q, sigma):
    s = mpf(sigma)
    X = b * s + 1
    al = (b - q) * s + 1
    # C1 in u = v^al, which takes the endpoint singularity v^(al-1) away
    c1 = mp.quad(lambda u: (1 + u**(q / al))**s, [0, 1]) / al
    # C2(inf) in z = v^-q, q^-1 int_0^1 z^(-t-1) [(1+z)^s - 1] dz with t = X/q,
    # then in u = z^(1-t), where the integrand [(1+z)^s - 1] / z is smooth
    t = X / q

    def c2_integrand(u):
        z = u**(1 / (1 - t))
        return mp.expm1(s * mp.log1p(z)) / z

    c2 = mp.quad(c2_integrand, [0, 1]) / ((1 - t) * q)
    return c1 + c2


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

worst = 0
for b, q, X in [(b, q, X) for b, q in K_FAMILIES for X in K_XS] + K_WIDE + K_NEAR_ONE:
    sigma = (X - 1.0) / b
    mp.dps = 30
    ref_q = k_by_quad(b, q, sigma)
    mp.dps = 40
    ref = k_by_gamma(b, q, sigma)
    worst = max(worst, abs(ref_q - ref) / abs(ref))
    print(f"    ({b}, {q}, {X!r}, {mp.nstr(ref, 20)}),")
print("K: Gamma form at 40 digits vs quadrature of C1 + C2(inf) at 30 digits,"
      " max relative difference:", mp.nstr(worst, 3))


R2 = 0.5
D_FAMILIES = [(3, 2), (6, 4), (2, 2), (40, 40)]
D_XS = [0.125, 2.0**-8, 1e-5, 1e-10]


def d_ln_es(q):
    """log e of the rows: e/R2 in {2, 0.5, 1e-3, 1e-8} and e just above the
    dead threshold, log E = log E0 + 0.01."""
    ln_E0 = q * math.log(R2 * 1e-9) - 40.0
    return [math.log(R2 * r) for r in (2.0, 0.5, 1e-3, 1e-8)] + [(ln_E0 + 0.01) / q]


def d_integrand(b, q, s, ln_E):
    R = mpf(R2)

    def f(y):
        u2 = (y / R)**2
        return mp.exp((b - q) * s * mp.log(y) + s * mp.log(y**q + mp.exp(ln_E))) * \
            mp.expm1(u2 / (u2 - 1))
    return f


def d_by_y_then_w(b, q, sigma, ln_e):
    s, ln_e = mpf(sigma), mpf(ln_e)
    f = d_integrand(b, q, s, q * ln_e)
    ln_m = min(ln_e, mp.log(R2))
    total = mp.quad(f, [0, mp.exp(ln_m)])
    pts = [ln_m]
    while pts[-1] + 5 < mp.log(R2):
        pts.append(pts[-1] + 5)
    if pts[-1] < mp.log(R2):
        pts.append(mp.log(R2))
    return total + mp.quad(lambda w: f(mp.exp(w)) * mp.exp(w), pts)


def d_by_w(b, q, sigma, ln_e):
    s, ln_e = mpf(sigma), mpf(ln_e)
    f = d_integrand(b, q, s, q * ln_e)
    ln_R = mp.log(R2)
    pts = [min(ln_e, ln_R) - 60]
    while pts[-1] + 2 < ln_R:
        pts.append(pts[-1] + 2)
    pts.append(ln_R)
    return mp.quad(lambda w: f(mp.exp(w)) * mp.exp(w), pts)


worst = 0
for b, q in D_FAMILIES:
    for X in D_XS:
        sigma = (X - 1.0) / b
        for ln_e in d_ln_es(q):
            mp.dps = 30
            ref_w = d_by_w(b, q, sigma, ln_e)
            mp.dps = 40
            ref = d_by_y_then_w(b, q, sigma, ln_e)
            worst = max(worst, abs(ref_w - ref) / abs(ref))
            print(f"    ({b}, {q}, {X!r}, {ln_e!r}, {mp.nstr(ref, 20)}),")
print("D: y then w at 40 digits vs w alone at 30 digits, max relative difference:",
      mp.nstr(worst, 3))


E0_SIGMAS = [(b, s) for b in (2, 3, 7) for s in (-1.0 / b + 1e-4, -0.6 / b, -0.01)]


def e0_integrand(b, s):
    R = mpf(R2)

    def f(y):
        u2 = (y / R)**2
        return mp.exp(b * s * mp.log(y)) * mp.expm1(u2 / (u2 - 1))
    return f


worst = 0
mp.dps = 30
for b, sigma in E0_SIGMAS:
    f = e0_integrand(b, mpf(sigma))
    ref = mp.quad(f, [0, R2])
    ln_R = mp.log(R2)
    pts = [ln_R - 60]
    while pts[-1] + 2 < ln_R:
        pts.append(pts[-1] + 2)
    pts.append(ln_R)
    ref_w = mp.quad(lambda w: f(mp.exp(w)) * mp.exp(w), pts)
    worst = max(worst, abs(ref_w - ref) / abs(ref))
    print(f"    ({b}, {sigma!r}, {mp.nstr(ref, 20)}),")
print("D0: y at 30 digits vs w = log y at 30 digits, max relative difference:",
      mp.nstr(worst, 3))
