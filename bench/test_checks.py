"""The benchmark's output checkers accept what flatzeta outputs today and
reject a corrupted copy.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import flatzeta.cli  # noqa: E402
import flatzeta.funcs  # noqa: E402
import flatzeta.model  # noqa: E402
import flatzeta.verify  # noqa: E402
from checks import (  # noqa: E402
    check_compute, check_landau, check_verify, landau_remainder, monomial_bound)
from workloads import CliJob, Family, LandauJob, run_job  # noqa: E402

FZ = types.SimpleNamespace(cli=flatzeta.cli, verify=flatzeta.verify,
                           model=flatzeta.model, funcs=flatzeta.funcs)


def _render_csv(rows):
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.fixture(scope="module")
def compute_run():
    fam = Family(0, 2, 2, Fraction(2), r1=0.3, r2=0.4)
    job = CliJob(fam, "compute", (0.1, 0.5, 6))
    code, text = run_job(FZ, job)
    rows = [line.split(",") for line in text.splitlines()]
    return job, code, rows


def test_compute_checker_accepts_todays_output(compute_run):
    job, code, rows = compute_run
    assert check_compute(job, (code, _render_csv(rows))) == []


def test_compute_checker_rejects_z_above_monomial_bound(compute_run):
    job, code, rows = compute_run
    bad = [list(r) for r in rows]
    sigma = float(bad[6][0])
    bad[6][2] = repr(1.01 * monomial_bound(job.family, sigma, 0.3, 0.4))
    problems = check_compute(job, (code, _render_csv(bad)))
    assert any("row 5: Z" in p and "outside" in p for p in problems)


def test_compute_checker_rejects_z_out_of_order(compute_run):
    job, code, rows = compute_run
    bad = [list(r) for r in rows]
    bad[3][2], bad[4][2] = bad[4][2], bad[3][2]
    problems = check_compute(job, (code, _render_csv(bad)))
    assert any("row 3" in p and "does not exceed" in p for p in problems)


def test_verify_checker_rejects_thm21_limit_five_percent_off():
    """The critical preset: the suite's own 7% tolerance would let a limit 5%
    off pass, the benchmark's check does not."""
    job = CliJob(Family(0, 2, 2, Fraction(1), preset="critical"), "verify",
                 (0.125, 0.5, 14), "thm21")
    code, text = run_job(FZ, job)
    assert check_verify(job, (code, text)) == []
    doc = json.loads(text)
    doc["checks"][0]["observed"] = 1.05 * 4.0          # 4/(pq) = 4
    problems = check_verify(job, (code, json.dumps(doc)))
    assert any("thm21 limit" in p for p in problems)


def test_landau_checker_rejects_error_off_by_1e5():
    job = LandauJob(a=1, b=2, s0=0.5, s_target=-0.3, J=12)
    report = run_job(FZ, job)
    assert check_landau(job, report) == []
    bad = dataclasses.replace(report, observed=report.observed + 1e-5)
    problems = check_landau(job, bad)
    assert any("exact remainder" in p for p in problems)


def test_landau_remainder_matches_mpmath_oracle():
    """r40 for f = x y^2 at s0 = 0.5, s = -0.3, frozen from the 40-digit
    oracle tests/oracle_gen3.py."""
    assert abs(landau_remainder(1, 2, 0.5, -0.3, 40) - 3.09792181865e-4) <= 1e-13
