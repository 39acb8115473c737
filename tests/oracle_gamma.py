"""Sweep of the scaled upper incomplete Gamma of the slice reductions,

    S(alpha, z) = e^z z^-alpha Gamma(alpha, z)    (flatzeta.zeta._gamma_upper),

against mpmath's gammainc at 40 digits, checked against 50.  Not collected
by pytest; run as

    python tests/oracle_gamma.py sweep [cells] [seed]

The cells (alpha, z) come from a seeded generator: alpha uniform in [-8, 1)
for a third of them, next to an integer n in {0, -1, ..., -8} (n plus or
minus 10^u, u uniform in [-16, -1]) for a third, and an integer in
{0, -1, ..., -8} exactly for the rest; z log-uniform in [1e-13, 1e6] for
half of the cells and uniform in [0.5, 2], next to the branch switch z = 1,
for the other half.  It prints the worst relative error of each branch
(z <= 1: series and recurrence; z > 1: continued fraction) with its cell.
zeta._GAMMA_SERIES_REL_ERR and zeta._GAMMA_CF_REL_ERR are set at 20x or
more the worst of a 4000-cell sweep.
"""

import sys

import mpmath
import numpy as np

from flatzeta.zeta import _Z_SERIES, _gamma_upper


def reference(alpha: float, z: float, dps: int):
    with mpmath.workdps(dps):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)
        return mpmath.gammainc(a, x) * mpmath.exp(x) * x ** (-a)


def cells(count: int, seed: int):
    rng = np.random.default_rng(seed)
    third = count // 3
    n = -rng.integers(0, 9, count).astype(float)
    alpha = np.concatenate([
        rng.uniform(-8.0, 1.0, third),
        n[third:2 * third] + rng.choice([-1.0, 1.0], third) * 10.0 ** rng.uniform(-16, -1, third),
        n[2 * third:],
    ])
    half = count // 2
    z = np.concatenate([10.0 ** rng.uniform(-13.0, 6.0, half),
                        rng.uniform(0.5, 2.0, count - half)])
    rng.shuffle(z)
    keep = alpha < 1.0
    return alpha[keep], z[keep]


def sweep(count=4000, seed=42):
    alpha, z = cells(count, seed)
    got = _gamma_upper(alpha, z)
    worst = {"series": (0.0, None), "continued fraction": (0.0, None)}
    for a, x, g in zip(alpha.tolist(), z.tolist(), got.tolist()):
        ref, ref50 = reference(a, x, 40), reference(a, x, 50)
        assert abs(ref - ref50) <= 1e-30 * abs(ref50), (a, x)
        err = float(abs(mpmath.mpf(g) - ref) / ref)
        branch = "series" if x <= _Z_SERIES else "continued fraction"
        if err > worst[branch][0]:
            worst[branch] = (err, (a, x))
    print(f"{alpha.size} cells")
    for branch, (err, cell) in worst.items():
        print(f"{branch}: worst relative error {err:.3g} at (alpha, z) = {cell}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["sweep"]:
        sys.exit(__doc__)
    sweep(*(int(v) for v in sys.argv[2:]))
