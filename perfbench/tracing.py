"""Outside-in tracing of the leafgauge layers.

`Tracer.install()` replaces every public function of the nine leafgauge
modules at every place it is bound: the defining module, every module
that imported the name (for example `leafgauge.charts.integrate_flow`),
and the package namespace.  Each call then records one span

    (name, start, end, parent span, op id, error, warm-start flag,
     field evaluations, exact evaluations, projections)

in memory.  The three counters at the end are deltas over the span of
three hot functions that are counted instead of spanned, because they
run about a million times per build:

* `VectorFieldC2.eval_complex`, patched on the class;
* `wirtinger.poly_eval`, at every binding site;
* `charts._project`, the projection solver under both the public
  projection calls and the radius probes of `build_chart`.

Self time is span duration minus the time covered by child spans.
`layer_metrics` turns the spans of a run into per-op, per-layer numbers.
Nothing in the program is edited; `uninstall()` restores every binding.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("wirtinger", "fields", "flows", "charts", "gauge", "verify",
          "pipeline", "fixtures", "cli")

# Functions whose span records whether the caller passed a warm start.
_WARM_ARG = {"solve_scale": ("t_guess", 2), "gauge_eval": ("t_guess", 2),
             "leaf_coords_with_times": ("guess", 2)}

# Span tuple layout.
NAME, T0, T1, PARENT, OP, ERR, WARM, EVALS, POLYS, PROJ = range(10)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


class Tracer:
    """Span and counter store for one process; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.names: list[str] = []
        self.op = -1
        self.counts = [0, 0, 0]       # eval_complex, poly_eval, _project
        self._stack: list[int] = []
        self._undo: list = []
        self._bindings = None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        warm_kw, warm_pos = _WARM_ARG.get(fn.__name__, (None, None))
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if warm_kw is None:
                warm = 0
            else:
                g = kwargs.get(warm_kw, args[warm_pos] if len(args) > warm_pos else None)
                warm = 0 if g is None else 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            e0, p0, j0 = counts
            err = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.op, err, warm,
                              counts[0] - e0, counts[1] - p0, counts[2] - j0)

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, slot: int, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------------

    def _plan(self) -> list:
        """(target, attribute, original, replacement) for every binding site."""
        mods = [importlib.import_module(f"leafgauge.{layer}") for layer in LAYERS]
        wirtinger, fields, charts = mods[0], mods[1], mods[3]
        replace = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(mod):
                if fn is wirtinger.poly_eval:
                    replace[id(fn)] = (fn, self._count_wrapper(1, fn))
                else:
                    replace[id(fn)] = (fn, self._span_wrapper(f"{layer}.{name}", fn))
        project = charts._project
        replace[id(project)] = (project, self._count_wrapper(2, project))
        plan = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "leafgauge" or modname.startswith("leafgauge.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    plan.append((mod, name, obj, hit[1]))
        cls = fields.VectorFieldC2
        plan.append((cls, "eval_complex", cls.eval_complex,
                     self._count_wrapper(0, cls.eval_complex)))
        return plan

    def install(self) -> None:
        """Patch every binding site; the wrappers are built on first use."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        if self._bindings is None:
            self._bindings = self._plan()
        for target, name, orig, new in self._bindings:
            setattr(target, name, new)
            self._undo.append((target, name, orig))

    def uninstall(self) -> None:
        while self._undo:
            target, name, obj = self._undo.pop()
            setattr(target, name, obj)

    # -- output --------------------------------------------------------------

    def records(self) -> list:
        """Finished spans with names resolved; parent indices stay valid
        because every span has finished once the traced calls returned."""
        names = self.names
        return [[names[s[NAME]], *s[1:]] for s in self.spans]

    def dump(self, path) -> None:
        write_records(path, self.records())


def op_records(records: list) -> list:
    """Drop spans recorded outside any op (the harness generating inputs
    between ops) and renumber the parents of the rest."""
    index = {}
    out = []
    for i, r in enumerate(records):
        if r[OP] >= 0:
            index[i] = len(out)
            out.append(r)
    for r in out:
        if r[PARENT] >= 0:
            r[PARENT] = index[r[PARENT]]
    return out


def load_records(path) -> list:
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]


def write_records(path, records) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

_PROJECTION = ("charts.leaf_coords", "charts.leaf_coords_with_times")


def layer_metrics(records: list, n_ops: int, op_wall_s: float,
                  report_skip: tuple[int, int] = (0, 0),
                  report_bytes: int = 0) -> dict:
    """Per-op layer metrics from span records (name resolved, parent
    indices local to `records`).

    `op_wall_s` is the summed wall time of the traced ops, so the time the
    ops spent outside every span (harness, child interpreter start) is
    reported as `trace.unspanned_s`.
    """
    n = max(n_ops, 1)
    dur = [r[T1] - r[T0] for r in records]
    child = [0.0] * len(records)
    for i, r in enumerate(records):
        if r[PARENT] >= 0:
            child[r[PARENT]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]
    name_of = [r[NAME] for r in records]

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_by: dict[str, float] = {}
    errors: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    top = 0.0
    for i, r in enumerate(records):
        name = name_of[i]
        calls[name] = calls.get(name, 0) + 1
        self_by[name] = self_by.get(name, 0.0) + self_t[i]
        layer_self[name.split(".", 1)[0]] += self_t[i]
        if r[ERR] is not None:
            errors[name] = errors.get(name, 0) + 1
        parent = r[PARENT]
        # inclusive time counts only the outermost call of a name
        if parent < 0 or name_of[parent] != name:
            incl[name] = incl.get(name, 0.0) + dur[i]
        if parent < 0:
            top += dur[i]

    evals = sum(r[EVALS] for r in records if r[PARENT] < 0)
    polys = sum(r[POLYS] for r in records if r[PARENT] < 0)

    flow_spans = [i for i, nm in enumerate(name_of) if nm == "flows.integrate_flow"]
    flow_evals = sum(records[i][EVALS] for i in flow_spans)
    lcwt = [i for i, nm in enumerate(name_of) if nm == "charts.leaf_coords_with_times"]
    lcwt_set = set(lcwt)
    flows_in_proj = sum(1 for i in flow_spans if records[i][PARENT] in lcwt_set)
    probes = sum(records[i][PROJ] for i, nm in enumerate(name_of)
                 if nm == "charts.build_chart")
    solves = [i for i, nm in enumerate(name_of) if nm == "gauge.solve_scale"]
    solve_set = set(solves)
    proj_in_solve = [i for i in lcwt if records[i][PARENT] in solve_set]
    cold_retries = sum(1 for i in proj_in_solve
                       if records[i][WARM] and records[i][ERR] is not None)

    def per_op(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    skipped, drawn = report_skip
    m = {
        "wirtinger.poly_eval.calls": per_op(polys),
        "wirtinger.hessian_eval.calls": per_op(calls.get("wirtinger.hessian_eval", 0)),
        "wirtinger.levi_determinant.s": per_op(incl.get("wirtinger.levi_determinant", 0.0)),
        "wirtinger.is_on_harmonic_line.s": per_op(incl.get("wirtinger.is_on_harmonic_line", 0.0)),
        "fields.eval_complex.calls": per_op(evals),
        "fields.field_eval.calls": per_op(calls.get("fields.field_eval", 0)),
        "fields.lie_bracket_real.calls": per_op(calls.get("fields.lie_bracket_real", 0)),
        "fields.involutivity_check.s": per_op(incl.get("fields.involutivity_check", 0.0)),
        "fields.select_field.s": per_op(incl.get("fields.select_field", 0.0)),
        "fields.transversality_check.s": per_op(incl.get("fields.transversality_check", 0.0)),
        "flows.integrate_flow.calls": per_op(len(flow_spans)),
        "flows.integrate_flow.self_s": per_op(self_by.get("flows.integrate_flow", 0.0)),
        "flows.evals_per_flow": ratio(flow_evals, len(flow_spans)),
        "flows.errors": per_op(errors.get("flows.integrate_flow", 0)),
        "charts.projection.calls": per_op(len(lcwt)),
        "charts.projection.self_s": per_op(sum(self_by.get(k, 0.0) for k in _PROJECTION)),
        "charts.flows_per_projection": ratio(flows_in_proj, len(lcwt)),
        "charts.projection_errors": per_op(errors.get("charts.leaf_coords_with_times", 0)),
        "charts.build_chart.s": per_op(incl.get("charts.build_chart", 0.0)),
        "charts.build_chart.probes": per_op(probes),
        "gauge.solve_scale.calls": per_op(len(solves)),
        "gauge.solve_scale.self_s": per_op(self_by.get("gauge.solve_scale", 0.0)),
        "gauge.projections_per_solve": ratio(len(proj_in_solve), len(solves)),
        "gauge.warm_ratio": ratio(sum(records[i][WARM] for i in solves), len(solves)),
        "gauge.cold_retries": per_op(cold_retries),
        "gauge.root_errors": per_op(errors.get("gauge.solve_scale", 0)),
        "gauge.build_gauge.s": per_op(incl.get("gauge.build_gauge", 0.0)),
        "verify.check_chart.s": per_op(incl.get("verify.check_chart", 0.0)),
        "verify.check_leaf_constancy.s": per_op(incl.get("verify.check_leaf_constancy", 0.0)),
        "verify.check_homogeneity.s": per_op(incl.get("verify.check_homogeneity", 0.0)),
        "verify.check_ray_consistency.s": per_op(incl.get("verify.check_ray_consistency", 0.0)),
        "verify.check_scaling_laws.s": per_op(incl.get("verify.check_scaling_laws", 0.0)),
        "verify.skip_ratio": ratio(skipped, drawn),
        "pipeline.validate_hypotheses.s": per_op(incl.get("pipeline.validate_hypotheses", 0.0)),
        "pipeline.leaf_harmonicity_check.s": per_op(incl.get("pipeline.leaf_harmonicity_check", 0.0)),
        "fixtures.load_fixture.s": per_op(incl.get("fixtures.load_fixture", 0.0)),
        "cli.report_bytes": per_op(report_bytes),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(layer_self[layer])
    m["trace.unspanned_s"] = per_op(op_wall_s - top)
    return m
