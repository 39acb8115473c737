"""Command-line front end.

    flatzeta compute   tabulate Z(sigma) along a schedule as CSV
    flatzeta constants closed-form constants for the current regime as JSON
    flatzeta verify    run verification suites, JSON report + exit code

Exit codes: 0 all checks pass, 1 numeric/verification failure, 2 usage or
config error.  Floating output uses fixed 17-significant-digit formatting so
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

from .errors import FlatZetaError
from .funcs import BumpSpec
from .model import (
    DEFAULT_SCHEDULE,
    FamilyParams,
    NumericConfig,
    PRESETS,
    RegimeKind,
    SigmaSchedule,
    classify_regime,
    make_schedule,
    parse_rational,
)
from .asym import (
    case3_bounds,
    constant_A,
    constant_L,
    constant_M,
    scale_sequence,
)
from .verify import (
    VerificationReport,
    landau_taylor_rebuild,
    verify_LM_limits,
    verify_blowup_law,
    verify_decompositions,
    verify_psi_and_flat,
    verify_sandwich,
)
from .zeta import zeta_samples
from ._svg import convergence_svg

SUITES = ("thm31", "thm21", "sandwich", "decomp", "lemmas", "landau", "all")


def _f17(x) -> str:
    """Fixed 17-significant-digit decimal rendering."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_render(obj, indent=0) -> str:
    """Deterministic JSON with .17g floats and insertion-ordered keys."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(k)}: {_json_render(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_render(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return json.dumps(str(obj))   # JSON has no literal for these
        return _f17(obj)
    return json.dumps(obj)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; round-trips through key=value files.
    An unknown key in a file is a ValueError, except out_dir, formats and
    flat_cutoff, which older versions wrote and which are ignored."""

    params: FamilyParams
    schedule_spec: tuple[float, float, int] = DEFAULT_SCHEDULE
    numeric: NumericConfig = field(default_factory=NumericConfig)

    def schedule(self) -> SigmaSchedule:
        x0, ratio, count = self.schedule_spec
        return make_schedule(x0, ratio, count)

    def to_text(self) -> str:
        p = self.params
        lines = [
            f"a={p.a}",
            f"b={p.b}",
            f"q={p.q}",
            f"p={p.p.numerator}/{p.p.denominator}",
            f"r1={_f17(p.r1)}",
            f"r2={_f17(p.r2)}",
            f"schedule=geo:{_f17(self.schedule_spec[0])},{_f17(self.schedule_spec[1])},{self.schedule_spec[2]}",
            f"tol_1d={_f17(self.numeric.tol_1d)}",
            f"tol_2d={_f17(self.numeric.tol_2d)}",
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        kv = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            k, v = line.split("=", 1)
            kv[k.strip()] = v.strip()
        unknown = kv.keys() - {"a", "b", "q", "p", "r1", "r2", "schedule", "tol_1d", "tol_2d",
                               "out_dir", "formats", "flat_cutoff"}
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        params = FamilyParams(
            a=int(kv["a"]), b=int(kv["b"]), q=int(kv["q"]),
            p=parse_rational(kv["p"]),
            r1=float(kv.get("r1", 0.5)), r2=float(kv.get("r2", 0.5)))
        sched = _parse_schedule(kv.get("schedule", ""))
        numeric = NumericConfig(
            tol_1d=float(kv.get("tol_1d", 1e-10)),
            tol_2d=float(kv.get("tol_2d", 1e-7)))
        return RunConfig(params=params, schedule_spec=sched, numeric=numeric)


def _parse_schedule(spec: str) -> tuple[float, float, int]:
    if not spec:
        return DEFAULT_SCHEDULE
    if not spec.startswith("geo:"):
        raise ValueError(f"unknown schedule kind in {spec!r} (expected geo:X0,RATIO,COUNT)")
    parts = spec[4:].split(",")
    if len(parts) != 3:
        raise ValueError(f"schedule needs 3 fields, got {spec!r}")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


def _add_param_args(sp, tuning):
    """The family flags, --config and --out, and those of --schedule,
    --tol-1d and --tol-2d that the subcommand reads (tuning), so that a
    flag it would ignore is a usage error."""
    sp.add_argument("--preset", choices=sorted(PRESETS),
                    help="canonical parameter set (overridden by explicit flags)")
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--p", type=parse_rational,
                    help="flat decay rate, rational NUM/DEN or integer")
    sp.add_argument("--r1", type=float)
    sp.add_argument("--r2", type=float)
    if "schedule" in tuning:
        sp.add_argument("--schedule", type=str, help="geo:X0,RATIO,COUNT")
    for tol in ("tol_1d", "tol_2d"):
        if tol in tuning:
            sp.add_argument("--" + tol.replace("_", "-"), type=float, dest=tol)
    sp.add_argument("--config", type=str, help="key=value config file")
    sp.add_argument("--out", type=str, help="write the report here as well as stdout")


def _given(args, *names) -> dict:
    """The flags among names that the subcommand has and that were set on
    the command line."""
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


def _build_config(args) -> RunConfig:
    """The config of --config, --preset or the family flags, in that order,
    with every flag that was set taking precedence over it."""
    params = _given(args, "a", "b", "q", "p", "r1", "r2")
    if args.config:
        cfg = RunConfig.from_text(Path(args.config).read_text(encoding="utf-8"))
    elif args.preset:
        cfg = RunConfig(params=PRESETS[args.preset])
    elif {"a", "b", "q", "p"} <= params.keys():
        cfg = RunConfig(params=FamilyParams(**params))
    else:
        raise ValueError("need --preset, --config, or all of --a --b --q --p")
    spec = getattr(args, "schedule", None)
    schedule = {"schedule_spec": _parse_schedule(spec)} if spec else {}
    return replace(cfg, params=replace(cfg.params, **params),
                   numeric=replace(cfg.numeric, **_given(args, "tol_1d", "tol_2d")),
                   **schedule)


def _emit(text: str, out_path: str | None):
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    cfg = _build_config(args)
    flat = args.flat != "off"
    samples = zeta_samples(cfg.params, None, cfg.schedule().xs, cfg.numeric, flat=flat)
    seq = scale_sequence(cfg.params, samples)
    rows = ["sigma,X,Z,scaled,err"]
    for s, sc in zip(samples, seq.scaled_values):
        rows.append("%.17g,%.17g,%.17g,%.17g,%.17g" % (s.sigma, s.X, s.value, sc, s.error))
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_constants(args) -> int:
    cfg = _build_config(args)
    params = cfg.params
    regime = classify_regime(params)
    doc: dict = {
        "params": _params_doc(params),
        "regime": regime.kind.value,
    }
    if regime.kind is RegimeKind.SUPERCRITICAL_FLAT:
        doc["blowup_exponent"] = regime.blowup_exponent
        doc["A"] = constant_A(params)
    elif regime.kind is RegimeKind.CRITICAL_FLAT:
        doc["one_over_pq"] = 1.0 / (params.p_float * params.q)
    else:
        lams = [10.0 ** (k / 2.0) for k in range(-6, 7)]
        doc["L_curve"] = [[lam, constant_L(params, lam)] for lam in lams]
        doc["M_curve"] = [[lam, constant_M(params, lam, cfg.numeric)] for lam in lams]
        b3 = case3_bounds(params, cfg.numeric)
        doc["case3_bounds"] = {
            "lower": b3.lower, "upper": b3.upper, "lambda_lower": b3.lambda_lower,
        }
    _emit(_json_render(doc) + "\n", args.out)
    return 0


def _params_doc(params: FamilyParams) -> dict:
    return {
        "a": params.a, "b": params.b, "q": params.q,
        "p": f"{params.p.numerator}/{params.p.denominator}",
        "r1": params.r1, "r2": params.r2,
    }


def _run_suite(cfg: RunConfig, suite: str, expects: dict[str, float],
               plot_path: str | None) -> tuple[list[VerificationReport], dict]:
    params, numeric = cfg.params, cfg.numeric
    sched = cfg.schedule()
    bump = BumpSpec(0.5, 0.5)
    reports: list[VerificationReport] = []
    plot_doc = None
    # only thm31 reads a target; a key no check reads would look like a pass
    unread = expects.keys() - ({"A", "limit"} if suite in ("thm31", "all") else set())
    if unread:
        raise ValueError(f"--expect {', '.join(sorted(unread))}: "
                         f"no check of --suite {suite} reads it")

    def maybe_expect(report: VerificationReport, key: str) -> VerificationReport:
        if key not in expects:
            return report
        target = expects[key]
        return replace(report, target=target,
                       passed=abs(report.observed - target) <= report.tolerance)

    if suite in ("thm31", "all"):
        samples = (zeta_samples(params, None, sched.xs, numeric, flat=True)
                   if plot_path else None)
        rep = verify_blowup_law(params, None, sched, numeric, samples)
        rep = maybe_expect(maybe_expect(rep, "A"), "limit")
        reports.append(rep)
        if plot_path:
            seq = scale_sequence(params, samples)
            target = rep.target if isinstance(rep.target, float) else None
            plot_doc = convergence_svg(seq.schedule.xs, seq.scaled_values, target,
                                       f"scaled Z along the schedule ({rep.check_id})")
    if suite in ("thm21", "all"):
        reports.append(verify_blowup_law(params, bump, sched, numeric))
    if suite in ("sandwich", "all"):
        short = make_schedule(0.125, 0.25, 4)
        reports.append(verify_sandwich(params, [0.25, 1.0, 4.0], short, numeric))
    if suite in ("decomp", "all"):
        reports.append(verify_decompositions(params, 1.0, 0.02, numeric))
    if suite in ("lemmas", "all"):
        reports.append(verify_psi_and_flat(200, 0))
        if classify_regime(params).kind is RegimeKind.SUBCRITICAL_FLAT:
            reports.append(verify_LM_limits(params, numeric))
    if suite in ("landau", "all"):
        # the target inside the window (-1/b, 0) for every b: -0.3 at b = 2
        reports.append(landau_taylor_rebuild(params, bump, 0.5, -0.6 / params.b, 40,
                                             numeric, flat=True))
    if plot_path and plot_doc:
        Path(plot_path).write_text(plot_doc, encoding="utf-8", newline="")
    doc = {
        "params": _params_doc(params),
        "regime": classify_regime(params).kind.value,
        "checks": [
            {
                "id": r.check_id,
                "target": list(r.target) if isinstance(r.target, tuple) else r.target,
                "observed": r.observed,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in reports
        ],
    }
    return reports, doc


def cmd_verify(args) -> int:
    cfg = _build_config(args)
    expects = {}
    for item in args.expect or []:
        if "=" not in item:
            raise ValueError(f"--expect wants NAME=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        expects[k.strip()] = float(v)
    reports, doc = _run_suite(cfg, args.suite, expects, args.plot)
    _emit(_json_render(doc) + "\n", args.out)
    return 0 if all(r.passed for r in reports) else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """main's parser, built once per process (parse_args does not change it)."""
    ap = argparse.ArgumentParser(
        prog="flatzeta",
        description="local zeta functions of flat-perturbed monomials: "
                    "evaluation, constants, verification")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compute", help="tabulate Z along a sigma schedule (CSV)")
    _add_param_args(sp, ("schedule", "tol_2d"))
    sp.add_argument("--flat", choices=("on", "off"), default="on",
                    help="off suppresses the flat term (pure monomial mode)")
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("constants", help="regime-applicable closed-form constants (JSON)")
    _add_param_args(sp, ("tol_1d",))
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("verify", help="run verification suites (JSON report)")
    _add_param_args(sp, ("schedule", "tol_1d", "tol_2d"))
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--expect", action="append", metavar="NAME=VALUE",
                    help="override a check target (for failure injection)")
    sp.add_argument("--plot", type=str, help="write an SVG convergence plot here")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FlatZetaError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
