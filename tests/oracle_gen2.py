"""Second oracle batch: deep-X weighted value and a bounded-regime quadrant
value.  Not collected by pytest; run directly to regenerate."""
import time
from mpmath import mp, mpf, exp, log, quad

t0 = time.time()

# ---- weighted Z (0,2,2,1), bump R=(1/2,1/2), X = 2^-8 ----
mp.dps = 25
a, b, q, p = 0, 2, 2, 1
R1 = R2 = mpf(1) / 2
X = mpf(2) ** -8
sigma = (X - 1) / b


def phix(x):
    return exp(1 / ((x / R1) ** 2 - 1)) * exp(1)


def phiy(y):
    return exp(1 / ((y / R2) ** 2 - 1)) * exp(1)


def inner_w(x):
    lne = -1 / (q * x**p)
    e = exp(lne)
    E = e**q
    if e >= R2:
        s_hi = R2 / e
        return e**X * quad(lambda v: v**((b - q) * sigma) * (1 + v**q)**sigma
                           * phiy(e * v), [0, s_hi])
    low = e**X * quad(lambda v: v**((b - q) * sigma) * (1 + v**q)**sigma
                      * phiy(e * v), [0, 1])
    pts = sorted(set([log(e), log(R2) - 40, log(R2) - 20, log(R2) - 8,
                      log(R2) - 2, log(R2)]))
    pts = [t for t in pts if t >= log(e)]
    if pts[0] != log(e):
        pts = [log(e)] + pts
    upper = quad(lambda w: exp(X * w) * (1 + E * exp(-q * w))**sigma * phiy(exp(w)),
                 pts)
    return low + upper


W = 4 * quad(lambda x: x**(a * sigma) * phix(x) * inner_w(x),
             [mpf(0), mpf("1e-6"), mpf("1e-3"), mpf("0.02"), mpf("0.1"), R1])
print("Z_weighted(0,2,2,1; bump .5, X=2^-8) =", mp.nstr(W, 20), flush=True)
print("elapsed", time.time() - t0, flush=True)

# ---- quadrant Z (1,2,2,1/4), r=(1/2,1/2), sigma=-0.45 :: plain-y inner ----
mp.dps = 60
a, b, q = 1, 2, 2
p = mpf(1) / 4
r1 = r2 = mpf(1) / 2
sigma = mpf("-0.45")
X = b * sigma + 1


def inner_plain(x):
    lne = -1 / (q * x**p)
    e = exp(lne)
    E = e**q

    def fy(y):
        return x**(a * sigma) * y**((b - q) * sigma) * (y**q + E)**sigma

    pts = [mpf(0)] + ([e] if e < r2 else []) + [r2]
    return quad(fy, pts)


t1 = time.time()
Zg = quad(inner_plain, [mpf(0), mpf("1e-8"), mpf("1e-4"), mpf("0.01"),
                        mpf("0.1"), r1])
print("Z(1,2,2,1/4; -0.45) =", mp.nstr(Zg, 25), flush=True)
print("elapsed", time.time() - t1, "total", time.time() - t0, flush=True)
