"""CLI integration: CSV/JSON contracts, exit codes, config round-trip,
determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatzeta.cli import RunConfig, main
from flatzeta.model import FamilyParams, PRESETS
from flatzeta.zeta import monomial_closed_form
from fractions import Fraction


def run_cli(args, env_extra=None, capsys=None):
    """Invoke the CLI in-process, capturing stdout."""
    env_backup = {}
    if env_extra:
        for k, v in env_extra.items():
            env_backup[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        code = main(args)
    finally:
        for k, v in env_backup.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    out = capsys.readouterr().out if capsys else ""
    return code, out


def test_compute_row_count_and_header(capsys):
    code, out = run_cli(["compute", "--preset", "supercritical",
                         "--schedule", "geo:0.125,0.5,12"], capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sigma,X,Z,scaled,err"
    assert len(lines) == 13
    # columns parse as floats and X = b sigma + 1
    for line in lines[1:]:
        sigma, X, Z, scaled, err = map(float, line.split(","))
        assert X == pytest.approx(2.0 * sigma + 1.0, abs=1e-15)
        assert Z > 0.0


def test_compute_flat_off_matches_closed_form(capsys):
    code, out = run_cli(["compute", "--preset", "greenblatt", "--flat", "off",
                         "--schedule", "geo:0.125,0.5,6"], capsys=capsys)
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        sigma, X, Z, scaled, err = map(float, line.split(","))
        cf = monomial_closed_form(1, 2, 0.5, 0.5, sigma)
        assert Z == pytest.approx(cf, rel=1e-8)


def test_compute_deterministic_output(capsys):
    args = ["compute", "--preset", "critical", "--schedule", "geo:0.125,0.5,6"]
    _, out1 = run_cli(args, capsys=capsys)
    _, out2 = run_cli(args, capsys=capsys)
    assert out1 == out2


def test_compute_workers_env_same_output(capsys):
    args = ["compute", "--preset", "critical", "--schedule", "geo:0.125,0.5,6"]
    _, out1 = run_cli(args, capsys=capsys)
    _, out2 = run_cli(args, env_extra={"FLATZETA_THREADS": "3"}, capsys=capsys)
    assert out1 == out2


def test_constants_regime_gating(capsys):
    code, out = run_cli(["constants", "--preset", "supercritical"], capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["regime"] == "SupercriticalFlat"
    assert "A" in doc and "case3_bounds" not in doc
    assert doc["A"] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-9)

    code, out = run_cli(["constants", "--preset", "critical"], capsys=capsys)
    doc = json.loads(out)
    assert doc["one_over_pq"] == 0.5
    assert "A" not in doc

    code, out = run_cli(["constants", "--preset", "greenblatt"], capsys=capsys)
    doc = json.loads(out)
    assert "case3_bounds" in doc and "A" not in doc
    assert doc["case3_bounds"]["lower"] <= doc["case3_bounds"]["upper"]
    assert len(doc["L_curve"]) == 13


def test_verify_suite_exit_codes(tmp_path, capsys):
    plot = tmp_path / "conv.svg"
    code, out = run_cli(["verify", "--preset", "greenblatt", "--suite", "thm31",
                         "--plot", str(plot)], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "SubcriticalFlat"
    assert all(c["passed"] for c in doc["checks"])
    svg = plot.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_verify_expect_injection_fails(capsys):
    code, out = run_cli(["verify", "--preset", "supercritical", "--suite", "thm31",
                         "--expect", "A=2.0"], capsys=capsys)
    assert code == 1
    doc = json.loads(out)
    assert not doc["checks"][0]["passed"]


def test_verify_landau_suite(capsys):
    code, out = run_cli(["verify", "--preset", "greenblatt", "--suite", "landau"],
                        capsys=capsys)
    assert code == 0


def test_verify_json_byte_identical(capsys):
    args = ["verify", "--preset", "greenblatt", "--suite", "landau"]
    _, out1 = run_cli(args, capsys=capsys)
    _, out2 = run_cli(args, capsys=capsys)
    assert out1.encode() == out2.encode()
    assert "runtime_s" not in out1


def test_usage_error_exit_2(capsys):
    code, _ = run_cli(["compute", "--a", "0", "--b", "2"], capsys=capsys)
    assert code == 2
    # decimal p must be rejected (rational literals only)
    code, _ = run_cli(["compute", "--a", "0", "--b", "2", "--q", "2",
                       "--p", "0.25"], capsys=capsys)
    assert code == 2


def test_config_round_trip(tmp_path):
    cfg = RunConfig(params=FamilyParams(1, 2, 2, Fraction(1, 4), r1=0.4, r2=0.6),
                    schedule_spec=(0.25, 0.5, 8))
    text = cfg.to_text()
    back = RunConfig.from_text(text)
    assert back == cfg
    assert back.to_text() == text


def test_config_file_cli(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(
        "a=0\nb=2\nq=2\np=1/1\nr1=0.5\nr2=0.5\n"
        "schedule=geo:0.125,0.5,5\ntol_1d=1e-10\ntol_2d=1e-7\n", encoding="utf-8")
    code, out = run_cli(["compute", "--config", str(path)], capsys=capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 6


def test_csv_written_to_file_lf_endings(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, _ = run_cli(["compute", "--preset", "critical",
                       "--schedule", "geo:0.125,0.5,5", "--out", str(out_file)],
                      capsys=capsys)
    assert code == 0
    raw = out_file.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().startswith("sigma,X,Z,scaled,err\n")


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "flatzeta.cli", "constants",
                           "--preset", "critical"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["one_over_pq"] == 0.5
