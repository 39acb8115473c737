"""CLI integration: CSV/JSON contracts, exit codes, config round-trip,
determinism."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from flatzeta import cli, verify
from flatzeta import zeta as zeta_mod
from flatzeta.asym import scale_sequence
from flatzeta.cli import RunConfig, main
from flatzeta.model import FamilyParams, NumericConfig, PRESETS, make_schedule
from flatzeta.zeta import monomial_closed_form, zeta_samples
from fractions import Fraction


def run_cli(args, capsys=None):
    """Invoke the CLI in-process, capturing stdout."""
    code = main(args)
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


@pytest.mark.parametrize("b", [3, 7])
def test_compute_x_column_is_the_schedule_x(capsys, b):
    # X is the engine's input: row k holds the schedule's X_k = X0 ratio^k
    # bit for bit and sigma = (X - 1)/b, where rebuilding X as b sigma + 1
    # would lose eps/X of it (1e-10 relative at X = 1e-6, b = 3)
    code, out = run_cli(["compute", "--a", "1", "--b", str(b), "--q", "2", "--p", "3/2",
                         "--schedule", "geo:1e-6,0.5,14"], capsys=capsys)
    assert code == 0
    for k, line in enumerate(out.strip().split("\n")[1:]):
        sigma, X, *_ = map(float, line.split(","))
        assert X == 1e-6 * 0.5**k
        assert sigma == (X - 1.0) / b


def test_compute_flat_off_matches_closed_form(capsys):
    code, out = run_cli(["compute", "--preset", "greenblatt", "--flat", "off",
                         "--schedule", "geo:0.125,0.5,6"], capsys=capsys)
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        sigma, X, Z, scaled, err = map(float, line.split(","))
        cf = monomial_closed_form(1, 2, 0.5, 0.5, X)
        assert Z == pytest.approx(cf, rel=1e-8)


@pytest.mark.parametrize("flat", ["on", "off"])
def test_compute_csv_floats_parse_back_to_the_samples(capsys, flat):
    # each row is the five fields in %.17g, which round-trips every double:
    # every CSV float parses back to its ZetaSample field (and scaled value)
    # bit for bit, and no field is quoted
    schedule = (0.125, 0.5, 14)
    code, out = run_cli(["compute", "--preset", "critical", "--flat", flat,
                         "--schedule", "geo:%r,%r,%d" % schedule], capsys=capsys)
    assert code == 0
    params = PRESETS["critical"]
    samples = zeta_samples(params, None, make_schedule(*schedule, params.b).xs, NumericConfig(),
                           flat=flat == "on")
    seq = scale_sequence(params, samples)
    lines = out.split("\n")
    assert lines[-1] == "" and len(lines) == len(samples) + 2
    for line, s, sc in zip(lines[1:-1], samples, seq.scaled_values):
        assert '"' not in line
        assert list(map(float, line.split(","))) == [s.sigma, s.X, s.value, sc, s.error]


def test_compute_deterministic_output(capsys):
    args = ["compute", "--preset", "critical", "--schedule", "geo:0.125,0.5,6"]
    _, out1 = run_cli(args, capsys=capsys)
    _, out2 = run_cli(args, capsys=capsys)
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
    # the upper end is L(1) + M(1), so it carries no lambda of its own
    assert sorted(doc["case3_bounds"]) == ["lambda_lower", "lower", "upper"]
    assert len(doc["L_curve"]) == 13


def test_constants_near_critical_family(capsys):
    # p = 7/8 just above 1 - a/b = 6/7: A is large but finite
    code, out = run_cli(["constants", "--a", "1", "--b", "7", "--q", "1", "--p", "7/8"],
                        capsys=capsys)
    assert code == 0
    assert json.loads(out)["A"] == pytest.approx(56.5163659318812476902, rel=1e-13)


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


# sha256 of the greenblatt thm31 plot on the default schedule, as written
# when the plot recomputed its samples
GREEN_THM31_SVG_SHA256 = "bc5a39e3328a375c09b7175e58ae2bffe91cd555828c742d30a92413465b3aa5"


def test_verify_thm31_plot_reuses_samples(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return zeta_samples(*args, **kwargs)

    monkeypatch.setattr(cli, "zeta_samples", counted)
    monkeypatch.setattr(verify, "zeta_samples", counted)
    plot = tmp_path / "conv.svg"
    code, _ = run_cli(["verify", "--preset", "greenblatt", "--suite", "thm31",
                       "--plot", str(plot)], capsys=capsys)
    assert code == 0
    # one batch over the 14 points of the default schedule, shared by the plot
    assert [len(xs) for xs in calls] == [14]
    assert hashlib.sha256(plot.read_bytes()).hexdigest() == GREEN_THM31_SVG_SHA256


def test_verify_expect_injection_fails(capsys):
    code, out = run_cli(["verify", "--preset", "supercritical", "--suite", "thm31",
                         "--expect", "A=2.0"], capsys=capsys)
    assert code == 1
    doc = json.loads(out)
    assert not doc["checks"][0]["passed"]


def test_verify_numeric_failure_exits_1(capsys):
    # at ratio 1 - 1e-7 the 14 X of the schedule lie within 1.3e-6 of 0.5,
    # so the limit extraction's design matrix is singular to rounding: it
    # raises IllConditionedFit, reported on stderr
    code = main(["verify", "--preset", "supercritical", "--suite", "thm31",
                 "--schedule", "geo:0.5,0.9999999,14"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("numeric failure: IllConditionedFit: ")


@pytest.mark.parametrize("suite, key", [("thm21", "A"), ("thm31", "B")])
def test_verify_expect_that_no_check_reads_is_a_config_error(monkeypatch, capsys, suite, key):
    # only thm31 reads a target (A or limit): any other key would leave
    # every check as it was and exit 0, so the injected failure looks like
    # a pass; it is rejected before any quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature before the --expect check")

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", no_quadrature)
    code = main(["verify", "--preset", "supercritical", "--suite", suite,
                 "--expect", f"{key}=2.0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"config error: --expect {key}: no check of --suite {suite} reads it" in err


def test_verify_all_expect_injection_still_fails(capsys):
    code, out = run_cli(["verify", "--preset", "supercritical", "--suite", "all",
                         "--expect", "A=2.0"], capsys=capsys)
    assert code == 1
    assert not json.loads(out)["checks"][0]["passed"]


def test_verify_landau_suite(capsys):
    code, out = run_cli(["verify", "--preset", "greenblatt", "--suite", "landau"],
                        capsys=capsys)
    assert code == 0


def test_verify_landau_sees_the_flat_term(capsys):
    # the CLI rebuilds the flat-on integral, so the three b = 2 presets report
    # three observed values: critical (0,2,2,1) and supercritical (0,2,2,2)
    # differ in p alone, which the flat-off rebuild of the monomial y^2 did not
    # see (both read 1.747e-4 there), and greenblatt (1,2,2,1/4) differs from
    # both
    observed = []
    for preset in ("greenblatt", "critical", "supercritical"):
        code, out = run_cli(["verify", "--preset", preset, "--suite", "landau"], capsys=capsys)
        assert code == 0
        (check,) = json.loads(out)["checks"]
        assert check["id"] == "landau_taylor_rebuild" and check["passed"]
        observed.append(check["observed"])
    assert len(set(observed)) == 3


def test_verify_all_reaches_landau_at_b4(capsys):
    # the landau target -0.6/b lies inside the window (-1/b, 0) at every b:
    # a fixed -0.3 sits at or below -1/b for b >= 4, where the rebuild
    # raised and the reports of the other suites were lost with it
    code, out = run_cli(["verify", "--a", "1", "--b", "4", "--q", "2", "--p", "3/2",
                         "--suite", "all"], capsys=capsys)
    assert code == 0
    landau = json.loads(out)["checks"][-1]
    assert landau["id"] == "landau_taylor_rebuild" and landau["passed"]


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


@pytest.mark.parametrize("command, flag, value", [
    ("compute", "--tol-1d", "1e-9"),
    ("constants", "--schedule", "geo:0.125,0.5,4"),
    ("constants", "--tol-2d", "1e-6"),
], ids=["compute-tol-1d", "constants-schedule", "constants-tol-2d"])
def test_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, command, flag, value):
    # compute reads tol_2d alone, constants tol_1d alone (through M) and no
    # schedule: a flag that would change nothing is rejected, not ignored
    assert main([command, "--preset", "greenblatt", flag, value]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_tuning_flags_reach_the_config():
    def config(*argv):
        return cli._build_config(cli.build_parser().parse_args(argv))

    assert config("compute", "--preset", "critical", "--tol-2d", "1e-6",
                  "--schedule", "geo:0.125,0.5,4") == RunConfig(
        PRESETS["critical"], (0.125, 0.5, 4), NumericConfig(tol_2d=1e-6))
    assert config("constants", "--preset", "critical", "--tol-1d", "1e-9").numeric == \
        NumericConfig(tol_1d=1e-9)
    assert config("verify", "--preset", "critical", "--tol-1d", "1e-9", "--tol-2d", "1e-6",
                  "--schedule", "geo:0.125,0.5,4") == RunConfig(
        PRESETS["critical"], (0.125, 0.5, 4), NumericConfig(tol_1d=1e-9, tol_2d=1e-6))


def test_zero_denominator_in_p_is_a_usage_error(tmp_path, capsys):
    assert main(["constants", "--a", "0", "--b", "2", "--q", "2", "--p", "1/0"]) == 2
    assert "invalid parse_rational value: '1/0'" in capsys.readouterr().err
    path = tmp_path / "zero.cfg"
    path.write_text("a=0\nb=2\nq=2\np=1/0\n", encoding="utf-8")
    assert main(["constants", "--config", str(path)]) == 2
    assert "config error: zero denominator in '1/0'" in capsys.readouterr().err


def test_successive_main_calls_share_no_state(capsys):
    # the parser is built once per process; an --expect (an append action)
    # of one call must not leak into the next
    args = ["verify", "--preset", "supercritical", "--suite", "thm31"]
    code, out = run_cli(args + ["--expect", "A=2.0"], capsys=capsys)
    assert code == 1 and json.loads(out)["checks"][0]["target"] == 2.0
    code, out = run_cli(args, capsys=capsys)
    assert code == 0 and json.loads(out)["checks"][0]["target"] != 2.0
    assert cli.build_parser() is cli.build_parser()


def test_config_round_trip(tmp_path):
    cfg = RunConfig(params=FamilyParams(1, 2, 2, Fraction(1, 4), r1=0.4, r2=0.6),
                    schedule_spec=(0.25, 0.5, 8))
    text = cfg.to_text()
    back = RunConfig.from_text(text)
    assert back == cfg
    assert back.to_text() == text
    # files written with the former out_dir/formats keys still load
    old = text + "out_dir=.\nformats=csv,json\n"
    assert RunConfig.from_text(old) == cfg
    # so do files with the former flat_cutoff key, which is ignored
    old = text + "flat_cutoff=600\n"
    assert RunConfig.from_text(old) == cfg
    assert RunConfig.from_text(old).numeric == NumericConfig()


def test_config_file_unknown_key_is_a_config_error(tmp_path, capsys):
    # a misspelt tol_2d would otherwise run at the default 1e-7 and exit 0
    path = tmp_path / "typo.cfg"
    path.write_text("a=0\nb=2\nq=2\np=1/1\ntol2d=1e-12\n", encoding="utf-8")
    assert main(["compute", "--config", str(path)]) == 2
    assert "config error: unknown config key(s): tol2d" in capsys.readouterr().err


def test_config_file_cli(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(
        "a=0\nb=2\nq=2\np=1/1\nr1=0.5\nr2=0.5\n"
        "schedule=geo:0.125,0.5,5\ntol_1d=1e-10\ntol_2d=1e-7\n", encoding="utf-8")
    code, out = run_cli(["compute", "--config", str(path)], capsys=capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 6
    # flags set next to the file take precedence over its keys
    code, out = run_cli(["compute", "--config", str(path), "--schedule", "geo:0.125,0.5,4",
                         "--r1", "0.3"], capsys=capsys)
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 5
    _, X, Z, _, _ = map(float, rows[1].split(","))
    (z,) = zeta_samples(FamilyParams(0, 2, 2, Fraction(1), r1=0.3, r2=0.5), None, [X],
                        NumericConfig(), flat=True)
    assert Z == z.value


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


@pytest.mark.parametrize("argv", [["compute", "--preset", "critical"],
                                  ["verify", "--preset", "greenblatt", "--suite", "all"]],
                         ids=["compute", "verify"])
def test_runs_without_scipy(argv, capsys):
    # scipy is not a runtime dependency: importing the CLI loads no scipy
    # module, and with every scipy import made to fail the command exits 0
    # and prints what it prints in this process
    script = ("import sys\n"
              "import flatzeta.cli\n"
              "assert 'scipy' not in sys.modules, 'flatzeta.cli imports scipy'\n"
              "sys.modules['scipy'] = None\n"
              f"sys.exit(flatzeta.cli.main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
