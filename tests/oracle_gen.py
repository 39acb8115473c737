"""One-shot high-precision oracle runs; values get frozen into the tests.

Independent of the package: plain mpmath adaptive tanh-sinh at 30-40 digits.
"""
import time
from mpmath import mp, mpf, exp, log, quad, sqrt, gamma, pi

t0 = time.time()

# ---- quadrant Z (0,2,2,2), r=(1/2,1/2), sigma=-0.4 :: plain-y inner ----
mp.dps = 40
a, b, q, p = 0, 2, 2, 2
r1 = r2 = mpf(1) / 2
sigma = mpf("-0.4")
X = b * sigma + 1


def inner_plain(x):
    lne = -1 / (q * x**p)
    e = exp(lne)
    E = e**q

    def fy(y):
        return x**(a * sigma) * y**((b - q) * sigma) * (y**q + E)**sigma

    pts = [mpf(0)] + ([e] if e < r2 else []) + [r2]
    return quad(fy, pts)


Z_sup = quad(inner_plain, [mpf(0), mpf("0.02"), mpf("0.08"), mpf("0.2"), r1])
print("Z(0,2,2,2; -0.4) =", mp.nstr(Z_sup, 25), flush=True)
print("elapsed", time.time() - t0, flush=True)

# ---- ztilde1 (0,2,2,2), lam=1, sigma=-0.45 ----
mp.dps = 30
sigma = mpf("-0.45")
X = b * sigma + 1
rt2 = r2  # lam = 1
# e(r1) = exp(-2) < rt2 -> saturation, upper limit rho = r1
zt1 = (1 / X) * quad(lambda x: rt2**X - exp(X * (-1 / (q * x**p))), [mpf(0), mpf("0.05"), r1])
print("ztilde1(0,2,2,2; lam=1, -0.45) =", mp.nstr(zt1, 25), flush=True)

# ---- ztilde2 (0,2,2,1), lam=4, sigma=-0.49 ----
aa, bb, qq, pp = 0, 2, 2, 1
sigma = mpf("-0.49")
X = bb * sigma + 1
lam = mpf(4)
denom = X - qq * sigma
# lam*r2 = 2 >= e(r1) -> rho = r1, second piece empty
piece1 = lam**(-denom) / denom * quad(lambda x: exp(X * (-1 / (qq * x**pp))),
                                      [mpf(0), mpf("0.01"), mpf("0.1"), r1])
print("ztilde2(0,2,2,1; lam=4, -0.49) =", mp.nstr(piece1, 25), flush=True)

# ---- constant_M (1,2,2,1/4), r=(1/2,1/2), lam=1 ----
aa, bb, qq = 1, 2, 2
pp = mpf(1) / 4
lamr2 = r2
# rho from the inverse profile: lamr2 < e(r1) = exp(-1/(2*r1^(1/4)))?
e_r1 = exp(-1 / (qq * r1**pp))
rho = (-1 / (qq * log(lamr2)))**(1 / pp) if lamr2 < e_r1 else r1
M1 = bb**2 / (qq * (bb - aa)) * rho**(1 - mpf(aa) / bb)
M2 = (bb / qq) * r2**(mpf(qq) / bb) * quad(
    lambda x: x**(-mpf(aa) / bb) * exp(1 / (bb * x**pp)), [rho, r1])
print("rho =", mp.nstr(rho, 25), flush=True)
print("constant_M(1,2,2,1/4; lam=1) =", mp.nstr(M1 + M2, 25), flush=True)

# ---- constant_A closed forms ----
mp.dps = 30
for (aa, bb, qq, pp) in [(0, 2, 2, 2), (0, 2, 1, 2), (1, 2, 2, 2), (0, 3, 2, 3)]:
    beta = (1 - mpf(aa) / bb) / pp
    A_cf = (mpf(1) / qq)**beta * gamma(1 - beta) / (pp * beta)
    A_num = quad(lambda x: x**(-mpf(aa) / bb) * (1 - exp(-1 / (qq * x**pp))),
                 [0, 1, 10, 100, mp.inf])
    print(f"A({aa},{bb},{qq},{pp}) closed={mp.nstr(A_cf, 20)} quad={mp.nstr(A_num, 20)}",
          flush=True)

# ---- constant_A without the Gamma substitution ----
# A = int_0^1 x^(-a/b) (1 - e^(-1/(q x^p))) dx, as 1/(1 - a/b) minus the
# quadrature of x^(-a/b) e^(-1/(q x^p)) on (0, 1] (which vanishes to all
# orders at 0; the unsplit integrand converges slowly at p = 1/3), plus the
# tail int_1^inf x^(-a/b) (1 - e^(-t)) dx, t = 1/(q x^p) <= 1, integrated
# term by term from the exponential series:
#   sum_k (-1)^(k+1) / (k! q^k (a/b + k p - 1)),
# which converges because p > 1 - a/b.  Two precisions must agree to 1e-25.
def A_series(aa, bb, qq, pp):
    ab = mpf(aa) / bb
    head = 1 / (1 - ab) - quad(lambda x: x**(-ab) * exp(-1 / (qq * x**pp)),
                               [0, mpf(1) / 4, mpf(1) / 2, mpf(3) / 4, 1])
    tail, k, term, fact = mpf(0), 1, mpf(1), mpf(1)
    while abs(term) > mpf(10)**(-mp.dps - 5):
        fact *= k
        term = (-1)**(k + 1) / (fact * mpf(qq)**k * (ab + k * pp - 1))
        tail += term
        k += 1
    return head + tail


for (aa, bb, qq, pp) in [(1, 7, 1, (7, 8)), (2, 7, 2, (3, 4)), (5, 7, 2, (1, 3)),
                         (2, 7, 7, (7, 1))]:
    vals = []
    for dps in (30, 40):
        mp.dps = dps
        vals.append(A_series(aa, bb, qq, mpf(pp[0]) / pp[1]))
    mp.dps = 40
    assert abs(vals[0] - vals[1]) <= mpf(10)**-25 * abs(vals[1])
    print(f"A({aa},{bb},{qq},{pp[0]}/{pp[1]}) = {mp.nstr(vals[1], 21)}  "
          f"(30 vs 40 digits: {mp.nstr(abs(vals[0] - vals[1]) / vals[1], 3)})", flush=True)

# ---- weighted Z (0,2,2,2), bump R=(1/2,1/2), sigma=-0.49 :: w-space inner ----
mp.dps = 25
a, b, q, p = 0, 2, 2, 2
R1 = R2 = mpf(1) / 2
sigma = mpf("-0.49")
X = b * sigma + 1


def phix(x):
    return exp(1 / ((x / R1)**2 - 1)) * exp(1)


def phiy(y):
    return exp(1 / ((y / R2)**2 - 1)) * exp(1)


def inner_w(x):
    lne = -1 / (q * x**p)
    e = exp(lne)
    E = e**q
    lo = e * 1  # split at e(x)
    # low piece by v-substitution y = e v
    low = e**X * quad(lambda v: v**((b - q) * sigma) * (1 + v**q)**sigma * phiy(e * v),
                      [0, 1]) if lo < R2 else None
    if lo >= R2:
        s_hi = R2 / e
        return e**X * quad(lambda v: v**((b - q) * sigma) * (1 + v**q)**sigma * phiy(e * v),
                           [0, s_hi])
    # upper piece in w = log y
    upper = quad(lambda w: exp(X * w) * (1 + E * exp(-q * w))**sigma * phiy(exp(w)),
                 [log(e), log(R2) - 20, log(R2) - 3, log(R2)])
    return low + upper


t1 = time.time()
W = 4 * quad(lambda x: x**(a * sigma) * phix(x) * inner_w(x),
             [mpf(0), mpf("0.02"), mpf("0.08"), mpf("0.2"), R1])
print("Z_weighted(0,2,2,2; bump .5, -0.49) =", mp.nstr(W, 20), flush=True)
print("weighted took", time.time() - t1, flush=True)
print("total", time.time() - t0, flush=True)
