"""Command-line front end.

    flatzeta compute   tabulate Z(sigma) along a schedule as CSV
    flatzeta constants closed-form constants for the current regime as JSON
    flatzeta verify    run verification suites, JSON report + exit code

Exit codes: 0 all checks pass, 1 numeric/verification failure, 2 usage or
config error.  Floating output uses fixed 17-significant-digit formatting so
identical configs produce byte-identical files.  FLATZETA_THREADS overrides
the worker count used to evaluate schedule points.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
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
    verify_decompositions,
    verify_psi_and_flat,
    verify_sandwich,
    verify_theorem21,
    verify_theorem31,
)
from .zeta import zeta_quadrant
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


def _csv_field(s: str) -> str:
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; round-trips through key=value files."""

    params: FamilyParams
    schedule_spec: tuple[float, float, int] = DEFAULT_SCHEDULE
    numeric: NumericConfig = field(default_factory=NumericConfig)
    out_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json")

    def schedule(self) -> SigmaSchedule:
        x0, ratio, count = self.schedule_spec
        return make_schedule(x0, ratio, count, self.params.b)

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
            f"flat_cutoff={_f17(self.numeric.flat_cutoff_exponent)}",
            f"out_dir={self.out_dir}",
            f"formats={','.join(self.formats)}",
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
        params = FamilyParams(
            a=int(kv["a"]), b=int(kv["b"]), q=int(kv["q"]),
            p=parse_rational(kv["p"]),
            r1=float(kv.get("r1", 0.5)), r2=float(kv.get("r2", 0.5)))
        sched = _parse_schedule(kv.get("schedule", ""))
        numeric = NumericConfig(
            tol_1d=float(kv.get("tol_1d", 1e-10)),
            tol_2d=float(kv.get("tol_2d", 1e-7)),
            flat_cutoff_exponent=float(kv.get("flat_cutoff", 690.0)))
        formats = tuple(f for f in kv.get("formats", "csv,json").split(",") if f)
        return RunConfig(params=params, schedule_spec=sched, numeric=numeric,
                         out_dir=kv.get("out_dir", "."), formats=formats)


def _parse_schedule(spec: str) -> tuple[float, float, int]:
    if not spec:
        return DEFAULT_SCHEDULE
    if not spec.startswith("geo:"):
        raise ValueError(f"unknown schedule kind in {spec!r} (expected geo:X0,RATIO,COUNT)")
    parts = spec[4:].split(",")
    if len(parts) != 3:
        raise ValueError(f"schedule needs 3 fields, got {spec!r}")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


def _add_param_args(sp):
    sp.add_argument("--preset", choices=sorted(PRESETS),
                    help="canonical parameter set (overridden by explicit flags)")
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--p", type=str, help="flat decay rate, rational NUM/DEN or integer")
    sp.add_argument("--r1", type=float)
    sp.add_argument("--r2", type=float)
    sp.add_argument("--schedule", type=str, help="geo:X0,RATIO,COUNT")
    sp.add_argument("--tol-1d", type=float, dest="tol_1d")
    sp.add_argument("--tol-2d", type=float, dest="tol_2d")
    sp.add_argument("--flat-cutoff", type=float, dest="flat_cutoff")
    sp.add_argument("--config", type=str, help="key=value config file")
    sp.add_argument("--out", type=str, help="write the report here as well as stdout")


def _build_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_text(Path(args.config).read_text(encoding="utf-8"))
    elif args.preset:
        cfg = RunConfig(params=PRESETS[args.preset])
    else:
        if args.a is None or args.b is None or args.q is None or args.p is None:
            raise ValueError("need --preset, --config, or all of --a --b --q --p")
        cfg = RunConfig(params=FamilyParams(
            a=args.a, b=args.b, q=args.q, p=parse_rational(args.p),
            r1=args.r1 if args.r1 is not None else 0.5,
            r2=args.r2 if args.r2 is not None else 0.5))
    params = cfg.params
    overrides = {}
    for name in ("a", "b", "q"):
        v = getattr(args, name)
        if v is not None:
            overrides[name] = v
    if args.p is not None:
        overrides["p"] = parse_rational(args.p)
    if args.r1 is not None:
        overrides["r1"] = args.r1
    if args.r2 is not None:
        overrides["r2"] = args.r2
    if overrides:
        base = dict(a=params.a, b=params.b, q=params.q, p=params.p,
                    r1=params.r1, r2=params.r2)
        base.update(overrides)
        cfg = replace(cfg, params=FamilyParams(**base))
    if args.schedule:
        cfg = replace(cfg, schedule_spec=_parse_schedule(args.schedule))
    num = dict(tol_1d=cfg.numeric.tol_1d, tol_2d=cfg.numeric.tol_2d,
               flat_cutoff_exponent=cfg.numeric.flat_cutoff_exponent,
               max_subdivisions=cfg.numeric.max_subdivisions)
    if args.tol_1d is not None:
        num["tol_1d"] = args.tol_1d
    if args.tol_2d is not None:
        num["tol_2d"] = args.tol_2d
    if args.flat_cutoff is not None:
        num["flat_cutoff_exponent"] = args.flat_cutoff
    cfg = replace(cfg, numeric=NumericConfig(**num))
    return cfg


def _n_workers() -> int:
    raw = os.environ.get("FLATZETA_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _schedule_samples(cfg: RunConfig, flat: bool):
    sched = cfg.schedule()
    workers = _n_workers()
    if workers == 1:
        return sched, [zeta_quadrant(cfg.params, s, cfg.numeric, flat=flat)
                       for s in sched.sigmas]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        samples = list(pool.map(
            lambda s: zeta_quadrant(cfg.params, s, cfg.numeric, flat=flat),
            sched.sigmas))
    return sched, samples


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
    sched, samples = _schedule_samples(cfg, flat)
    seq = scale_sequence(cfg.params, samples)
    rows = ["sigma,X,Z,scaled,err"]
    for s, sc in zip(samples, seq.scaled_values):
        rows.append(",".join(_csv_field(_f17(v))
                             for v in (s.sigma, s.X, s.value, sc, s.error)))
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
        doc["A"] = constant_A(params, cfg.numeric)
    elif regime.kind is RegimeKind.CRITICAL_FLAT:
        doc["one_over_pq"] = 1.0 / (params.p_float * params.q)
    else:
        lams = [10.0 ** (k / 2.0) for k in range(-6, 7)]
        doc["L_curve"] = [[lam, constant_L(params, lam, cfg.numeric)] for lam in lams]
        doc["M_curve"] = [[lam, constant_M(params, lam, cfg.numeric)] for lam in lams]
        b3 = case3_bounds(params, cfg.numeric)
        doc["case3_bounds"] = {
            "lower": b3.lower, "upper": b3.upper,
            "lambda_lower": b3.lambda_lower, "lambda_upper": b3.lambda_upper,
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

    def maybe_expect(report: VerificationReport, key: str) -> VerificationReport:
        if key in expects:
            target = expects[key]
            tol = report.tolerance
            return VerificationReport(
                check_id=report.check_id, target=target, observed=report.observed,
                tolerance=tol, passed=abs(report.observed - target) <= tol,
                residual_log=report.residual_log,
                runtime_seconds=report.runtime_seconds)
        return report

    if suite in ("thm31", "all"):
        rep = verify_theorem31(params, sched, numeric)
        rep = maybe_expect(maybe_expect(rep, "A"), "limit")
        reports.append(rep)
        if plot_path:
            samples = [zeta_quadrant(params, s, numeric) for s in sched.sigmas]
            seq = scale_sequence(params, samples)
            target = rep.target if isinstance(rep.target, float) else None
            plot_doc = convergence_svg(seq.schedule.xs, seq.scaled_values, target,
                                       title=f"scaled Z along the schedule ({rep.check_id})")
    if suite in ("thm21", "all"):
        reports.append(verify_theorem21(params, bump, sched, numeric))
    if suite in ("sandwich", "all"):
        short = make_schedule(0.125, 0.25, 4, params.b)
        reports.append(verify_sandwich(params, [0.25, 1.0, 4.0], short, numeric))
    if suite in ("decomp", "all"):
        reports.append(verify_decompositions(params, 1.0, -0.98 / params.b, numeric))
    if suite in ("lemmas", "all"):
        reports.append(verify_psi_and_flat(200, 0))
        if classify_regime(params).kind is RegimeKind.SUBCRITICAL_FLAT:
            reports.append(verify_LM_limits(params, numeric))
    if suite in ("landau", "all"):
        reports.append(landau_taylor_rebuild(params, bump, 0.5, -0.3, 40,
                                             numeric, flat=False))
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatzeta",
        description="local zeta functions of flat-perturbed monomials: "
                    "evaluation, constants, verification")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compute", help="tabulate Z along a sigma schedule (CSV)")
    _add_param_args(sp)
    sp.add_argument("--flat", choices=("on", "off"), default="on",
                    help="off suppresses the flat term (pure monomial mode)")
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("constants", help="regime-applicable closed-form constants (JSON)")
    _add_param_args(sp)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("verify", help="run verification suites (JSON report)")
    _add_param_args(sp)
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
