"""Per-layer tracing of flatzeta, installed from outside the package.

The layers are the package's modules.  Each module binds the functions it
calls in other modules by name (`from .zeta import zeta_quadrant`), so the
tracer replaces those bindings in the calling module with timing wrappers.
Calls inside one module stay unwrapped and count as that module's own time.

    cli     the benchmark's call of `main`
    verify  the suites the CLI calls, and the benchmark's Landau rebuild call
    asym    constants, case-3 bounds, scaling and limit fits called by cli/verify
    zeta    the evaluators called by cli/verify
    quad    `_tanh_sinh` as bound in zeta, `integrate_1d`/`integrate_tail` in asym
    funcs   the e/E/rho/psi/bump kernels called by verify, asym and zeta

The integrand a quadrature calls back is timed as a span of its own, so that
the refinement loop's own time (quad.self_s) and the integrand's numpy work
(quad.integrand_s) come apart.  A span's self time is its duration minus the
durations of the spans directly inside it, so the layers' self times add up to
the traced wall time.  `model` is set-up only and is not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

#: calling module -> the modules whose functions it calls are wrapped there
CROSSINGS = {
    "cli": ("verify", "asym", "zeta"),
    "verify": ("asym", "zeta", "funcs"),
    "asym": ("quad", "funcs"),
    "zeta": ("quad", "funcs"),
}

#: layers whose spans are kept one by one for the trace file; quadrature,
#: integrand and kernel spans number in the millions and are kept as sums
SPAN_LAYERS = ("cli", "verify", "asym", "zeta")

FIT = ("scale_sequence", "extract_limit")
CONSTANTS = ("constant_A", "constant_A_closed_form", "constant_L", "constant_M",
             "case3_bounds")

#: samples whose reported error exceeds this many times tol_2d * Z are loose
LOOSE_FACTOR = 100.0

PER_LAYER = (
    # name, unit, better
    ("quad.calls", "count", "lower"),
    ("quad.nodes_per_call", "count", "higher"),
    ("quad.evals", "count", "lower"),
    ("quad.self_s", "s", "lower"),
    ("quad.integrand_s", "s", "lower"),
    ("zeta.zeta_quadrant.calls", "count", "lower"),
    ("zeta.zeta_quadrant.p50_s", "s", "lower"),
    ("zeta.zeta_weighted.p50_s", "s", "lower"),
    ("zeta.region_pieces.p50_s", "s", "lower"),
    ("zeta.ztilde_2d.p50_s", "s", "lower"),
    ("zeta.log_derivative_integral.calls", "count", "lower"),
    ("zeta.log_derivative_integral.p50_s", "s", "lower"),
    ("zeta.self_s", "s", "lower"),
    ("zeta.loose_error_count", "count", "lower"),
    ("verify.zeta_calls", "count", "lower"),
    ("verify.zeta_distinct_ratio", "ratio", "higher"),
    ("verify.self_s", "s", "lower"),
    ("asym.fit_s", "s", "lower"),
    ("asym.constants_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("funcs.self_s", "s", "lower"),
    ("funcs.calls", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _evaluations(result) -> int:
    """Integrand evaluations reported by a quadrature: the third element of
    `_tanh_sinh`'s tuple, or `QuadResult.evaluations`."""
    if isinstance(result, tuple) and len(result) >= 3:
        return int(result[2])
    return int(getattr(result, "evaluations", 0))


class Tracer:
    """Collects spans of one traced pass; `install` wires it into a fresh
    import of flatzeta, `metrics` turns the sums into per-item figures."""

    def __init__(self, tol_2d: float):
        self.tol_2d = tol_2d
        self.stack = []                 # open spans: [layer, child seconds, id]
        self.self_s = {}                # layer -> self seconds
        self.calls = {}                 # layer or "zeta.<name>" -> count
        self.durations = {}             # zeta/asym function -> [seconds]
        self.evals = 0
        self.loose = 0
        self.verify_zeta_calls = 0
        self.verify_zeta_distinct = 0
        self._job_keys = set()
        self.job = None
        self.spans = []                 # (job, id, parent, layer, name, t0, t1)
        self._next_id = 0

    # -- wiring ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Replace, in each calling module, its bindings of functions from the
        modules it crosses into (see CROSSINGS) with traced ones."""
        for caller, targets in CROSSINGS.items():
            mod = modules[caller]
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if value.__module__.startswith("flatzeta.") and layer in targets:
                    setattr(mod, attr, self.wrap(layer, attr, value))

    def wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == "quad" and args and callable(args[0]):
                args = (tracer._wrap_integrand(args[0]),) + args[1:]
            parent = tracer.stack[-1] if tracer.stack else None
            frame = tracer._open(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._close(frame, parent, t1 - t0)
            tracer._record(layer, name, args, kwargs, result, t0, t1, frame, parent)
            return result

        return traced

    def _wrap_integrand(self, f):
        tracer = self

        def integrand(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = tracer._open("integrand")
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                tracer._close(frame, parent, time.perf_counter() - t0)

        return integrand

    def _open(self, layer: str) -> list:
        self._next_id += 1
        frame = [layer, 0.0, self._next_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, parent, dt: float) -> None:
        self.stack.pop()
        if parent is not None:
            parent[1] += dt
        self.self_s[frame[0]] = self.self_s.get(frame[0], 0.0) + dt - frame[1]

    def _count(self, key: str) -> None:
        self.calls[key] = self.calls.get(key, 0) + 1

    def _record(self, layer, name, args, kwargs, result, t0, t1, frame, parent):
        self._count(layer)
        if layer == "quad":
            self.evals += _evaluations(result)
        elif layer in ("zeta", "asym"):
            self.durations.setdefault(name, []).append(t1 - t0)
        if layer == "zeta":
            self._count(f"zeta.{name}")
            if name in ("zeta_quadrant", "zeta_weighted") and (
                    result.error > LOOSE_FACTOR * self.tol_2d * result.value):
                self.loose += 1
            if parent is not None and parent[0] == "verify":
                self.verify_zeta_calls += 1
                self._job_keys.add(repr((name, args, sorted(kwargs.items()))))
        if layer in SPAN_LAYERS:
            self.spans.append((self.job, frame[2], parent[2] if parent else None,
                               layer, name, t0, t1))

    # -- jobs and results --------------------------------------------------

    def begin_job(self, label: str) -> None:
        self.job = label
        self._job_keys = set()

    def end_job(self) -> None:
        self.verify_zeta_distinct += len(self._job_keys)
        self._job_keys = set()

    def metrics(self, items: int, overhead_pct: float) -> dict:
        """Every per-layer metric: sums per item, medians per call, the loose
        error count per run."""
        def p50(*names):
            vals = [d for n in names for d in self.durations.get(n, [])]
            return statistics.median(vals) if vals else 0.0

        def per_item(x):
            return x / items

        def self_s(layer):
            return per_item(self.self_s.get(layer, 0.0))

        quad_calls = self.calls.get("quad", 0)
        values = {
            "quad.calls": per_item(quad_calls),
            "quad.nodes_per_call": self.evals / quad_calls if quad_calls else 0.0,
            "quad.evals": per_item(self.evals),
            "quad.self_s": self_s("quad"),
            "quad.integrand_s": self_s("integrand"),
            "zeta.zeta_quadrant.calls": per_item(self.calls.get("zeta.zeta_quadrant", 0)),
            "zeta.zeta_quadrant.p50_s": p50("zeta_quadrant"),
            "zeta.zeta_weighted.p50_s": p50("zeta_weighted"),
            "zeta.region_pieces.p50_s": p50("region_pieces"),
            "zeta.ztilde_2d.p50_s": p50("ztilde1_2d", "ztilde2_2d"),
            "zeta.log_derivative_integral.calls":
                per_item(self.calls.get("zeta.log_derivative_integral", 0)),
            "zeta.log_derivative_integral.p50_s": p50("log_derivative_integral"),
            "zeta.self_s": self_s("zeta"),
            "zeta.loose_error_count": self.loose,
            "verify.zeta_calls": per_item(self.verify_zeta_calls),
            "verify.zeta_distinct_ratio": (self.verify_zeta_distinct / self.verify_zeta_calls
                                           if self.verify_zeta_calls else 0.0),
            "verify.self_s": self_s("verify"),
            "asym.fit_s": per_item(sum(sum(self.durations.get(n, [])) for n in FIT)),
            "asym.constants_s": per_item(sum(sum(self.durations.get(n, []))
                                             for n in CONSTANTS)),
            "cli.self_s": self_s("cli"),
            "funcs.self_s": self_s("funcs"),
            "funcs.calls": per_item(self.calls.get("funcs", 0)),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def trace_doc(self) -> dict:
        """Spans of the coarse layers one by one, the rest as sums."""
        return {
            "span_fields": ["job", "id", "parent", "layer", "name", "start_s", "end_s"],
            "spans": self.spans,
            "self_s": self.self_s,
            "calls": self.calls,
            "quad_evals": self.evals,
        }
