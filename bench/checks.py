"""Output checks made apart from flatzeta.

Each checker takes a job and its raw output and returns a list of problems
(empty when the output is right).  The references are closed forms, bounds
and properties the method must have, and for the Landau rebuild a scipy
computation of the exact Taylor remainder; nothing is compared with a stored
copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from scipy.integrate import quad

from workloads import CliJob, Family, LandauJob

#: The suites' own tolerances on the fitted limits (flatzeta.verify) are 2%
#: and 5% for thm31, 5% and 7% for thm21.  The benchmark holds the limits
#: tighter: on every probed family the thm31 fits land within 0.07% and the
#: thm21 fits within 1.5%, so a limit a few percent off is a fault even where
#: the suite would let it pass.
LIMIT_TOL = {"thm31": 0.01, "thm21": 0.03}
DECOMP_TOL = 1e-5
LANDAU_TOL = 1e-6

CHECK_IDS = {
    ("thm31", "SupercriticalFlat"): "thm31_power_law",
    ("thm31", "CriticalFlat"): "thm31_log_law",
    ("thm31", "SubcriticalFlat"): "thm31_bounded_bracket",
    ("thm21", "SupercriticalFlat"): "thm21_power_law",
    ("thm21", "CriticalFlat"): "thm21_log_law",
    ("thm21", "SubcriticalFlat"): "thm21_bounded_limit",
    ("sandwich", None): "sandwich_envelopes",
    ("decomp", None): "decomposition_identities",
}


def constant_A(fam: Family) -> float:
    """A = q^(-beta) Gamma(1 - beta) / (p beta), beta = (1 - a/b)/p, the
    power-law constant by the substitution t = 1/(q x^p)."""
    beta = float((1 - Fraction(fam.a, fam.b)) / fam.p)
    return fam.q ** (-beta) * math.gamma(1.0 - beta) / (float(fam.p) * beta)


def monomial_bound(fam: Family, sigma: float, r1: float, r2: float) -> float:
    """int_0^r1 int_0^r2 (x^a y^b)^sigma dy dx, an upper bound of Z(sigma):
    |f| >= x^a y^b on the box and sigma < 0."""
    ax = fam.a * sigma + 1.0
    X = fam.b * sigma + 1.0
    return r1 ** ax * r2 ** X / (ax * X)


def scaled_value(fam: Family, X: float, Z: float) -> float:
    """The regime scaling the CSV's `scaled` column must hold."""
    if fam.regime == "SupercriticalFlat":
        kappa = float(1 - (1 - Fraction(fam.a, fam.b)) / fam.p)
        return X ** kappa * Z
    if fam.regime == "CriticalFlat":
        return Z / abs(math.log(X))
    return Z


def check_compute(job: CliJob, output) -> list[str]:
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["sigma", "X", "Z", "scaled", "err"]:
        return [f"bad CSV header {rows[:1]}"]
    x0, ratio, count = job.schedule
    if len(rows) != count + 1:
        return [f"{len(rows) - 1} rows, expected {count}"]
    fam = job.family
    problems = []
    prev_z = 0.0
    for k, row in enumerate(rows[1:]):
        sigma, X, Z, scaled, err = (float(v) for v in row)
        # X is reported as b sigma + 1, which carries the rounding of sigma
        x_k = x0 * ratio ** k
        if abs(sigma - (x_k - 1.0) / fam.b) > 1e-15 or abs(X - x_k) > 1e-14:
            problems.append(f"row {k}: (sigma, X) = ({sigma}, {X}), expected X = {x_k}")
        bound = monomial_bound(fam, sigma, fam.r1, fam.r2)
        if not (math.isfinite(Z) and 0.0 < Z <= bound * (1.0 + 1e-9)):
            problems.append(f"row {k}: Z = {Z!r} outside (0, {bound!r}]")
        if not Z > prev_z:
            problems.append(f"row {k}: Z = {Z!r} does not exceed {prev_z!r} at larger X")
        prev_z = Z
        if not (math.isfinite(err) and err >= 0.0):
            problems.append(f"row {k}: err = {err!r}")
        want = scaled_value(fam, X, Z)
        if not abs(scaled - want) <= 1e-13 * abs(want):
            problems.append(f"row {k}: scaled = {scaled!r}, expected {want!r}")
    return problems


def _params_problems(fam: Family, doc: dict) -> list[str]:
    want = {"a": fam.a, "b": fam.b, "q": fam.q,
            "p": f"{fam.p.numerator}/{fam.p.denominator}", "r1": fam.r1, "r2": fam.r2}
    got = doc.get("params")
    if not isinstance(got, dict) or set(got) != set(want):
        return [f"params {got!r}"]
    return [f"params.{k} = {got[k]!r}, expected {v!r}" for k, v in want.items()
            if got[k] != v or type(got[k]) is not type(v)]


def _limit_problems(suite: str, observed: float, target: float,
                    limit: float) -> list[str]:
    problems = []
    if not abs(target - limit) <= 1e-6 * abs(limit):
        problems.append(f"{suite} target {target!r}, closed form {limit!r}")
    if not abs(observed - limit) <= LIMIT_TOL[suite] * abs(limit):
        problems.append(f"{suite} limit {observed!r} is more than "
                        f"{LIMIT_TOL[suite]:.0%} from {limit!r}")
    return problems


def check_verify(job: CliJob, output) -> list[str]:
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    fam = job.family
    problems = _params_problems(fam, doc)
    if doc.get("regime") != fam.regime:
        problems.append(f"regime {doc.get('regime')!r}, expected {fam.regime!r}")
    checks = doc.get("checks")
    if not isinstance(checks, list) or len(checks) != 1:
        return problems + [f"expected one check, got {checks!r}"]
    c = checks[0]
    key = (job.suite, fam.regime if job.suite in ("thm31", "thm21") else None)
    if c.get("id") != CHECK_IDS[key]:
        problems.append(f"check id {c.get('id')!r}, expected {CHECK_IDS[key]!r}")
    if c.get("passed") is not True:
        problems.append(f"check {c.get('id')!r} did not pass")
    observed, target = c.get("observed"), c.get("target")
    if not isinstance(observed, (int, float)) or not math.isfinite(observed):
        return problems + [f"observed {observed!r}"]
    regime = fam.regime
    if job.suite in ("thm31", "thm21"):
        factor = 4.0 if job.suite == "thm21" else 1.0
        if regime == "SupercriticalFlat":
            problems += _limit_problems(job.suite, observed, target,
                                        factor * constant_A(fam))
        elif regime == "CriticalFlat":
            problems += _limit_problems(job.suite, observed, target,
                                        factor / (float(fam.p) * fam.q))
        else:
            # bounded regime: Z at the last sigma, inside the reported bracket
            # for thm31, and below the monomial bound (x4 over the plane, the
            # bump being at most 1) for both
            x_last = job.schedule[0] * job.schedule[1] ** (job.schedule[2] - 1)
            sigma = (x_last - 1.0) / fam.b
            r1, r2 = (fam.r1, fam.r2) if job.suite == "thm31" else (0.5, 0.5)
            bound = factor * monomial_bound(fam, sigma, r1, r2)
            if not 0.0 < observed <= bound:
                problems.append(f"{job.suite} limit {observed!r} outside (0, {bound!r}]")
            if job.suite == "thm31":
                lo, hi = target
                if not lo <= observed <= hi:
                    problems.append(f"thm31 limit {observed!r} outside [{lo!r}, {hi!r}]")
    elif job.suite == "sandwich":
        if observed != 0 or target != 0:
            problems.append(f"{observed!r} sandwich violations")
    elif job.suite == "decomp":
        if not 0.0 <= observed <= DECOMP_TOL:
            problems.append(f"worst decomposition residual {observed!r} > {DECOMP_TOL}")
    return problems


# ---------------------------------------------------------------------------
# Landau rebuild: the exact Taylor remainder from the factorised integral
# ---------------------------------------------------------------------------

def _moment(power: float, c: float, k: int, R: float) -> float:
    """int_0^R u^power (-c log u)^k / k! phi(u) du with the bump factor
    phi(u) = e exp(1/((u/R)^2 - 1)), as an integral in t = -log u."""
    if k > 0 and c == 0.0:
        return 0.0
    t0 = -math.log(R)
    log_kfact = math.lgamma(k + 1)
    decay = power + 1.0

    def f(t):
        v = math.exp(-2.0 * t) / (R * R) - 1.0
        if v >= 0.0:
            return 0.0
        log_phi = 1.0 + 1.0 / v
        if k == 0:
            return math.exp(log_phi - decay * t)
        return math.exp(k * math.log(c * t) - log_kfact - decay * t + log_phi)

    peak = max(t0 + 1.0, k / decay)      # the moment's mass sits around here
    cut = 2.0 * peak + 40.0 / decay
    points = sorted({t0 + 0.05, t0 + 0.5, t0 + 1.0, 0.5 * peak, peak, 1.5 * peak})
    head, _ = quad(f, t0, cut, points=[p for p in points if t0 < p < cut],
                   epsabs=0.0, epsrel=1e-13, limit=400)
    tail, _ = quad(f, cut, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return head + tail


def landau_remainder(a: int, b: int, s0: float, s: float, J: int,
                     R: float = 0.5) -> float:
    """r_J = (D_0(s) - P_J(s)) / D_0(s) for |f| = x^a y^b under the product
    bump of half-width R.  D_0 = 4 I_x I_y factorises, and so does every
    Taylor term: D_j(s0) h^j / j! = 4 sum_{k+m=j} A_k B_m with
    A_k = int x^(a s0) (a h log x)^k / k! phi and B_m likewise in y^b."""
    h = abs(s - s0)
    A = [_moment(a * s0, a * h, k, R) for k in range(J + 1)]
    B = [_moment(b * s0, b * h, m, R) for m in range(J + 1)]
    P = math.fsum(4.0 * A[k] * B[m] for k in range(J + 1) for m in range(J + 1 - k))
    D0 = 4.0 * _moment(a * s, 0.0, 0, R) * _moment(b * s, 0.0, 0, R)
    return (D0 - P) / D0


def check_landau(job: LandauJob, report) -> list[str]:
    problems = []
    if report.check_id != "landau_taylor_rebuild":
        problems.append(f"check id {report.check_id!r}")
    if not report.passed:
        problems.append(f"rebuild did not pass: observed {report.observed!r} "
                        f"tolerance {report.tolerance!r}")
    r_J = landau_remainder(job.a, job.b, job.s0, job.s_target, job.J)
    if not abs(report.observed - r_J) <= LANDAU_TOL:
        problems.append(f"rebuild error {report.observed!r}, exact remainder {r_J!r}")
    return problems


def check_job(job, output) -> list[str]:
    if isinstance(job, LandauJob):
        return check_landau(job, output)
    if job.command == "compute":
        return check_compute(job, output)
    return check_verify(job, output)
