"""Fourth oracle batch: the region pieces z1 and z2 separately at two families
with a/b >= 0.8 and large p, for tests/test_zeta.py.  Not collected by
pytest; run directly to regenerate.

For each case (a,b,q,p), r1, lambda, X of CASES (r2 = 1/2, s = (X - 1)/b),

    z2 = int_0^r1 x^(a s) I2(x) dx,    z1 = int_0^r1 x^(a s) (I(x) - I2(x)) dx,

with I(x) = int_0^r2 y^((b-q)s) (y^q + E)^s dy, E = exp(-1/x^p), and I2(x)
the same integral below y = min(e(x)/lambda, r2), e = E^(1/q).  Both are
closed forms (DLMF 15.6.1):

    int_0^T y^(al-1) (y^q + E)^s dy = T^al/al E^s 2F1(-s, al/q; 1+al/q; -T^q/E),

al = (b-q)s + 1; below the kink e(x)/lambda < r2 this gives
I2 = e^X V(1/lambda), V(S) = S^al/al 2F1(-s, al/q; 1+al/q; -S^q).  Where
T^q/E is large the 2F1 is taken through its transformation to argument
-E/T^q (DLMF 15.8.2): mpmath's direct hyp2f1 at -T^q/E ~ -exp(1e30) loses
thirteen digits.  The outer integrals are split at the kink and at decades
of x.  Both precisions must agree to the digits frozen in
tests/test_zeta.py.

At r1 = r2 = 1/2 the slice of (5,6,4,6) stays below the box top (e(r1) =
e^-16) for every lambda above 2.3e-7, so the kinked case lambda = 1/4 takes
r1 = 0.9, where e(x)/lambda meets r2 at x = 0.703; lambda = 4 saturates at
r1, and X = 1e-6 takes the case next to the blow-up.
"""
import time
from mpmath import mp, mpf, exp, gamma, hyp2f1

# ((a, b, q, p), r1, lambda, X)
CASES = [((5, 6, 4, 6), "0.5", "1", "0.02"), ((4, 5, 2, 5), "0.5", "1", "0.02"),
         ((5, 6, 4, 6), "0.9", "0.25", "0.02"), ((5, 6, 4, 6), "0.5", "4", "0.02"),
         ((5, 6, 4, 6), "0.5", "1", "1e-6")]
R2 = "0.5"


def pieces(fam, r1, lam, X, dps):
    mp.dps = dps
    a, b, q, p = fam
    X = mpf(X)
    s = (X - 1) / b
    al = (b - q) * s + 1
    r1, r2 = mpf(r1), mpf(R2)
    lam = mpf(lam)

    def closed(T, E):
        Z = T**q / E
        if Z < 2:
            return T**al / al * E**s * hyp2f1(-s, al / q, 1 + al / q, -Z)
        # DLMF 15.8.2 in 1/Z, free of the huge factors E^s and Z^s; the
        # second series is 1 because b - c + 1 = 0, and T^X g1 / al = T^X / X
        g1 = gamma(1 + al / q) * gamma(X / q) / (gamma(al / q) * gamma(1 + X / q))
        g2 = gamma(1 + al / q) * gamma(-X / q) / gamma(-s)
        return (T**X * g1 * hyp2f1(-s, -X / q, 1 - X / q, -1 / Z) + E**(X / q) * g2) / al

    V = closed(1 / lam, mpf(1))          # the scaled slice below e(x)/lambda

    def e_of(x):
        return exp(-1 / (q * x**p))

    def inner(x):                        # (I, I2) at one x
        e = e_of(x)
        whole = closed(r2, e**q)
        if e / lam < r2:
            return whole, e**X * V
        return whole, whole

    # e(x)/lambda = r2 at x_kink (where lambda r2 < 1); split there and at
    # decades below
    pts = {mpf(0), mpf("1e-3"), mpf("1e-2"), mpf("0.05"), mpf("0.1"), mpf("0.2"), mpf("0.3"),
           mpf("0.4"), mpf("0.6"), mpf("0.8"), r1}
    if lam * r2 < 1:
        pts.add((-1 / (q * mp.log(lam * r2))) ** (mpf(1) / p))
    pts = sorted(x for x in pts if x <= r1)
    z2 = mp.quad(lambda x: x**(a * s) * inner(x)[1], pts)
    # z1 as the monomial integral minus a remainder that vanishes like e(x)^X
    # at x = 0, where x^(a s) is nearly non-integrable
    lim = r2**X / X
    mono = lim * r1**(a * s + 1) / (a * s + 1)
    z1 = mono - mp.quad(lambda x: x**(a * s) * (lambda ii: lim - ii[0] + ii[1])(inner(x)), pts)
    return z1, z2


t0 = time.time()
for case in CASES:
    results = {}
    for dps in (30, 40):
        z1, z2 = pieces(*case, dps)
        results[dps] = (z1, z2)
        print(f"{case} dps={dps}: z1 =", mp.nstr(z1, 20), " z2 =", mp.nstr(z2, 20),
              " z1 + z2 =", mp.nstr(z1 + z2, 20), flush=True)
        print("elapsed", round(time.time() - t0, 1), flush=True)
    mp.dps = 40
    print(f"{case} dps 30 vs 40, max relative difference:",
          mp.nstr(max(abs(u - v) / abs(v) for u, v in zip(results[30], results[40])), 3))
