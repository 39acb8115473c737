"""Third oracle batch: the exact degree-40 Taylor polynomial of the weighted
monomial integral, for acceptance criterion 09a.  Not collected by pytest;
run directly to regenerate.

For f = x y^2 (greenblatt with the flat term off) and the product bump
e^2 exp(1/((2x)^2 - 1)) exp(1/((2y)^2 - 1)) on (-1/2, 1/2)^2,

    D_0(s) = 4 * I_x(s) * I_y(s),
    I_x(s) = int_0^1/2 x^s     phi(x) dx,   I_y(s) = int_0^1/2 y^(2s) phi(y) dy,
    phi(u) = e * exp(1/((2u)^2 - 1)).

With h = s - s0 and log f = log x + 2 log y, the Taylor polynomial of D_0
around s0 factorizes as

    P_J(s) = sum_{j<=J} D_j(s0) h^j / j! = 4 * sum_{k+m<=J} A_k B_m,
    A_k = int x^s0     (h log x)^k / k!    phi(x) dx,
    B_m = int y^(2 s0) (2 h log y)^m / m!  phi(y) dy,

so every Taylor term D_j(s0) h^j / j! = 4 sum_{k+m=j} A_k B_m is a sum of
positive 1D integrals when h < 0.  The moments peak near x ~ e^(-k/1.5) and
y ~ e^(-m/2), so the intervals are split at every decade down to 1e-60; the
endpoint singularities x^-0.3 and y^-0.6 of D_0(-0.3) are split the same way.
Both precisions must agree to the digits frozen in tests/test_acceptance.py.

`python tests/oracle_gen3.py F` runs bump_moments and bump_taylor instead.
bump_moments prints the rows of F_ORACLE in tests/test_zeta.py: the bump
correction of a power on the unit interval,

    F(c) = int_0^1 u^c (phi1(u) - 1) du,   phi1(u) = exp(u^2/(u^2 - 1)),

which scales to any half-width R as int_0^R t^c (phi1(t/R) - 1) dt =
R^(c+1) F(c).  The rows cover c in {-1 + 1e-4, -0.6, -0.3, 0, 0.5}, c the
double value, at 30 digits, checked against 40.  bump_taylor prints the
F_TERMS coefficients of the Taylor series of F around c0 = -1/4,

    f_k = (1/k!) int_0^1 u^c0 (log u)^k (phi1(u) - 1) du,

at 40 digits, checked against 50: flatzeta.zeta._bump_moments sums that
series, frozen in flatzeta.zeta._F_TAYLOR.  `python tests/oracle_gen3.py F
--check` also compares each frozen coefficient with the double nearest its
40-digit value and exits with status 1 where they differ by more than one
ulp (it imports flatzeta, so run it with the package installed or on
PYTHONPATH; about two minutes).
"""
import math
import sys
import time
from mpmath import mp, mpf, exp, log, quad, factorial, fsum

J = 40
S0 = "0.5"
S_TARGET = "-0.3"


def breakpoints():
    return [mpf(0)] + [mpf(10) ** -n for n in range(60, 0, -1)] + [
        mpf("0.2"), mpf("0.3"), mpf("0.4"), mpf("0.45"), mpf(1) / 2]


def phi(u):
    v = (2 * u) ** 2 - 1
    return exp(1 + 1 / v) if v < 0 else mpf(0)


def oracle(dps):
    mp.dps = dps
    s0, s = mpf(S0), mpf(S_TARGET)
    h = s - s0
    pts = breakpoints()

    def moment(power, scale, k):
        return quad(lambda u: u**power * (scale * log(u)) ** k / factorial(k)
                    * phi(u), pts)

    A = [moment(s0, h, k) for k in range(J + 1)]
    B = [moment(2 * s0, 2 * h, m) for m in range(J + 1)]
    terms = [4 * fsum(A[k] * B[j - k] for k in range(j + 1)) for j in range(J + 1)]
    P = fsum(terms)
    D0 = 4 * quad(lambda x: x**s * phi(x), pts) * quad(lambda y: y**(2 * s) * phi(y), pts)
    return P, D0, (D0 - P) / D0, all(t > 0 for t in terms)


#: the exponents of bump_moments, as doubles
F_CS = (-1.0 + 1e-4, -0.6, -0.3, 0.0, 0.5)


def taylor_main():
    t0 = time.time()
    results = {}
    for dps in (30, 40):
        P, D0, r, one_signed = oracle(dps)
        results[dps] = (P, D0, r)
        print(f"dps={dps}: P{J}(-0.3) =", mp.nstr(P, 20), flush=True)
        print(f"dps={dps}: D_0(-0.3) =", mp.nstr(D0, 20), flush=True)
        print(f"dps={dps}: r{J} = (D_0 - P{J}) / D_0 =", mp.nstr(r, 12), flush=True)
        print(f"dps={dps}: all {J + 1} Taylor terms positive:", one_signed, flush=True)
        print("elapsed", time.time() - t0, flush=True)
    mp.dps = 40
    print("dps 30 vs 40, max relative difference:",
          mp.nstr(max(abs(x30 - x40) / abs(x40)
                      for x30, x40 in zip(results[30], results[40])), 3))


#: the expansion point and the number of terms of F's Taylor series
F_C0 = "-0.25"
F_TERMS = 32


def bump_pts():
    return [mpf(0)] + [mpf(10) ** -n for n in range(30, 0, -1)] + [
        mpf("0.5"), mpf("0.9"), mpf("0.99"), mpf(1)]


def bump_moments(dps):
    """[(c, F(c))] for the c of F_CS at dps digits, c taken from its double."""
    mp.dps = dps
    rows = []
    for c in F_CS:
        c = mpf(c)
        rows.append((c, quad(lambda u: u**c * (exp(u * u / (u * u - 1)) - 1), bump_pts())))
    return rows


def bump_taylor(dps):
    """[f_0, ..., f_(F_TERMS - 1)], the Taylor coefficients of F around F_C0,
    at dps digits.  The k-th integrand peaks near u = e^(-k/(c0 + 3)), above
    1e-5 for every k, inside the decades of bump_pts."""
    mp.dps = dps
    c0 = mpf(F_C0)
    return [quad(lambda u: u**c0 * log(u) ** k * (exp(u * u / (u * u - 1)) - 1), bump_pts())
            / factorial(k) for k in range(F_TERMS)]


def f_main(check):
    rows30, rows40 = bump_moments(30), bump_moments(40)
    mp.dps = 40
    print("F(c), max relative difference, 30 vs 40 digits:",
          mp.nstr(max(abs(f30 - f40) / abs(f40) for (_, f30), (_, f40) in zip(rows30, rows40)), 3))
    for (c, f) in rows30:
        print(f"    ({float(c)!r}, {mp.nstr(f, 30, min_fixed=-3, max_fixed=3)!r}),")
    taylor40, taylor50 = bump_taylor(40), bump_taylor(50)
    mp.dps = 50
    spread = max(abs(f40 - f50) / abs(f50) for f40, f50 in zip(taylor40, taylor50))
    print(f"f_k around c0 = {F_C0}, max relative difference, 40 vs 50 digits:", mp.nstr(spread, 3))
    for f in taylor40:
        print(f"    {mp.nstr(f, 40)}  # {float(f)!r}")
    if check:
        from flatzeta.zeta import _F_C0, _F_TAYLOR
        if spread > mpf(10) ** -30 or _F_C0 != float(mpf(F_C0)) or len(_F_TAYLOR) != F_TERMS:
            sys.exit("the coefficients are not settled at 40 digits, or c0 or the term count differ")
        bad = [k for k, f in enumerate(taylor40) if abs(_F_TAYLOR[k] - float(f)) > math.ulp(float(f))]
        if bad:
            sys.exit(f"frozen _F_TAYLOR differs from the regenerated coefficients by over one ulp at k = {bad}")
        print(f"frozen _F_TAYLOR: all {F_TERMS} coefficients within one ulp of the regenerated ones")

if __name__ == "__main__":
    if sys.argv[1:2] == ["F"]:
        f_main(check=sys.argv[2:] == ["--check"])
    else:
        taylor_main()
