"""Seeded inputs of the three workloads and the code that runs one job.

Every job gets inputs that no other job of the same run shares: a fresh
family (a fresh box r1, r2 counts as a fresh family) or a schedule whose start
X0 is shifted by a fresh fraction of an octave.  So no two jobs in a run
evaluate the same (family, sigma), and a cross-call memo cannot turn a
repeated job into a cache hit.  The lru_cache on C1/C2 is keyed by (b, q,
sigma) alone; it is shared only where sandwich and decomp evaluate the sigmas
the CLI fixes for them, at the cost of two 1D quadratures per sigma.

Jobs come in rounds.  A run always executes whole rounds, and every round
holds the same kinds of job in the same proportions, so the mix that a run's
median and throughput are taken over does not depend on the run's length.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("schedule", "verify", "landau")

#: 14-point geometric schedules with ratio 1/2 ending at X ~ 1e-5, the range
#: the quadrant engine is documented to be exact on.
POINTS = 14
RATIO = 0.5
X0_BASE = 1e-5 * 2 ** (POINTS - 1)

#: The pinned family whose last sample returns a loose error estimate; its
#: schedule is fixed, so it runs once per run.
PINNED = (0, 7, 1, Fraction(5))
PINNED_SCHEDULE = (0.8192, 0.5, 14)

PRESET_CLASSES = {
    "supercritical": (0, 2, 2, Fraction(2)),
    "critical": (0, 2, 2, Fraction(1)),
    "greenblatt": (1, 2, 2, Fraction(1, 4)),
}


@dataclass(frozen=True)
class Family:
    """One member of the family: exponents, exact rational p and the box."""

    a: int
    b: int
    q: int
    p: Fraction
    r1: float = 0.5
    r2: float = 0.5
    preset: str | None = None

    def cli_args(self) -> list[str]:
        if self.preset is not None:
            return ["--preset", self.preset]
        return ["--a", str(self.a), "--b", str(self.b), "--q", str(self.q),
                "--p", f"{self.p.numerator}/{self.p.denominator}",
                "--r1", repr(self.r1), "--r2", repr(self.r2)]

    @property
    def regime(self) -> str:
        """The flatness regime, by exact comparison of p with 1 - a/b."""
        eps0 = Fraction(self.a, self.b) + self.p - 1
        if eps0 > 0:
            return "SupercriticalFlat"
        if eps0 == 0:
            return "CriticalFlat"
        return "SubcriticalFlat"


@dataclass(frozen=True)
class CliJob:
    """One `flatzeta compute` or `flatzeta verify --suite S` invocation."""

    family: Family
    command: str                                  # "compute" or "verify"
    schedule: tuple[float, float, int] | None     # the --schedule passed, if any
    suite: str | None = None

    @property
    def argv(self) -> list[str]:
        argv = [self.command] + self.family.cli_args()
        if self.schedule is not None:
            x0, ratio, count = self.schedule
            argv += ["--schedule", f"geo:{x0!r},{ratio!r},{count}"]
        if self.suite is not None:
            argv += ["--suite", self.suite]
        return argv

    @property
    def items(self) -> int:
        """Z samples (CSV rows) for compute, verification checks for verify."""
        return self.schedule[2] if self.command == "compute" else 1


@dataclass(frozen=True)
class LandauJob:
    """One Landau rebuild: flat term off, q = 2, the default product bump."""

    a: int
    b: int
    s0: float
    s_target: float
    J: int

    @property
    def items(self) -> int:
        return self.J + 1


def _shifted_schedule(rng: random.Random) -> tuple[float, float, int]:
    """The 14-point schedule ending at X ~ 1e-5, started a fresh fraction of
    an octave higher so that its sigmas are new to the run."""
    return (X0_BASE * 2.0 ** rng.random(), RATIO, POINTS)


def _box(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.25, 0.5), rng.uniform(0.25, 0.5)


def _seeded_family(rng: random.Random, regime: str) -> Family:
    """A random family of the given regime: b <= 7, any q, p = num/den with
    num, den <= 8 and p <= 2, where the critical regime pins p = 1 - a/b.
    Other p keep 1/8 away from the critical value, near which a job's cost
    climbs steeply, so that each regime's costs stay within a narrow band."""
    while True:
        b = rng.randint(2, 7)
        a = rng.randint(0, b - 1)
        q = rng.randint(1, b)
        crit = 1 - Fraction(a, b)
        if regime == "CriticalFlat":
            p = crit
        else:
            p = Fraction(rng.randint(1, 8), rng.randint(1, 8))
            if p > 2 or abs(p - crit) < Fraction(1, 8):
                continue
            if (p > crit) != (regime == "SupercriticalFlat"):
                continue
        return Family(a, b, q, p, *_box(rng))


REGIMES = ("SupercriticalFlat", "CriticalFlat", "SubcriticalFlat")


def schedule_rounds(seed: int, count: int) -> list[list[CliJob]]:
    """`compute` jobs.  A round runs the three presets and one seeded family
    of each regime (b <= 7, any q, p <= 2), each on a freshly shifted
    schedule; the first round also runs the pinned family on its fixed
    schedule.  In probes, draws with p > 2 ran up to twenty times faster than
    the rest, so they would make the run's cost depend on the seed."""
    rng = random.Random(f"schedule:{seed}")
    rounds = []
    for r in range(count):
        jobs = []
        if r == 0:
            jobs.append(CliJob(Family(*PINNED), "compute", PINNED_SCHEDULE))
        for name, (a, b, q, p) in PRESET_CLASSES.items():
            jobs.append(CliJob(Family(a, b, q, p, preset=name), "compute",
                               _shifted_schedule(rng)))
        for regime in REGIMES:
            fam = _seeded_family(rng, regime)
            jobs.append(CliJob(fam, "compute", _shifted_schedule(rng)))
        rounds.append(jobs)
    return rounds


VERIFY_SUITES = ("thm31", "thm21", "sandwich", "decomp")


def verify_rounds(seed: int, count: int) -> list[list[CliJob]]:
    """`verify --suite S` jobs.  A round runs thm31 on the three presets, and
    the four suites on three seeded families: each preset's (a, b, q, p) on a
    box (r1, r2) drawn from [0.25, 0.5]^2.  thm31 and thm21 get freshly
    shifted schedules; sandwich and decomp evaluate sigmas fixed by the CLI,
    which is why they run on fresh boxes only.

    The seed draws the boxes and the shifts but not (a, b, q, p): a run holds
    two or three rounds, and with (a, b, q, p) drawn per round the cost of a
    family within one regime spread by a factor of three, which moved a run's
    throughput with the seed by about 10%."""
    rng = random.Random(f"verify:{seed}")
    rounds = []
    for r in range(count):
        jobs = []
        for name, (a, b, q, p) in PRESET_CLASSES.items():
            jobs.append(CliJob(Family(a, b, q, p, preset=name), "verify",
                               _shifted_schedule(rng), "thm31"))
        for a, b, q, p in PRESET_CLASSES.values():
            fam = Family(a, b, q, p, *_box(rng))
            for suite in VERIFY_SUITES:
                sched = _shifted_schedule(rng) if suite in ("thm31", "thm21") else None
                jobs.append(CliJob(fam, "verify", sched, suite))
        rounds.append(jobs)
    return rounds


def landau_rounds(seed: int, count: int) -> list[list[LandauJob]]:
    """Landau rebuilds, one for each (a, b) with b in {2, 3} per round.  The
    expansion point s0 and the target s < s0 lie inside the convergence disc
    around s0 (radius s0 + 1/b), so all Taylor terms are positive."""
    rng = random.Random(f"landau:{seed}")
    rounds = []
    for r in range(count):
        jobs = []
        for b in (2, 3):
            for a in range(b):
                s0 = rng.uniform(0.4, 0.6)
                s_target = rng.uniform(-1.0 / b + 0.1, 0.1)
                J = rng.randint(34, 40)
                jobs.append(LandauJob(a, b, s0, s_target, J))
        rounds.append(jobs)
    return rounds


ROUNDS = {"schedule": schedule_rounds, "verify": verify_rounds, "landau": landau_rounds}


def run_job(fz, job):
    """Run one job against the flatzeta modules `fz` (a namespace holding
    `cli`, `verify`, `model`, `funcs`).  Returns the raw output: (exit code,
    stdout text) for a CLI job, the VerificationReport for a Landau job."""
    if isinstance(job, LandauJob):
        params = fz.model.FamilyParams(a=job.a, b=job.b, q=2, p=Fraction(1, 4))
        bump = fz.funcs.BumpSpec(0.5, 0.5)
        return fz.verify.landau_taylor_rebuild(params, bump, job.s0, job.s_target,
                                               job.J, flat=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fz.cli.main(job.argv)
    return code, out.getvalue()


def describe(job) -> str:
    """Short one-line label of a job, for messages and the trace file."""
    if isinstance(job, LandauJob):
        return (f"landau a={job.a} b={job.b} s0={job.s0:.4f} "
                f"s={job.s_target:.4f} J={job.J}")
    return " ".join(job.argv)
