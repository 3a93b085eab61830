"""Command-line front end.

Subcommands:
    check-poly    hypothesis verdicts for a polynomial fixture
    derive-field  print the two candidate tangent fields of a polynomial
    trace-leaf    sample one leaf on a flow-time grid, emit CSV
    build-gauge   full pipeline, JSON report and optional gauge sample CSV
    verify        re-derive a saved report's verdicts, rebuild it, compare

Exit codes: 0 pass, 2 hypothesis/assumption violation, 3 numeric failure
(also a failing report, and a saved report whose verdicts or rebuild do
not match it), 4 malformed input or an unwritable output path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from .errors import AssumptionError, FixtureError, NumericError
from .fields import PointC2, derive_candidate_fields, select_field
from .fixtures import (REPORT_SCHEMA, Fixture, config_to_dict, fixture_to_dict, load_fixture,
                       load_report, point_from_real4, resolve_config)
from .flows import trace_leaf
from .gauge import gauge_grid_rows
from .pipeline import PipelineConfig, run_field_pipeline, run_pipeline, validate_hypotheses
from .verify import check_entry, check_rng, report_to_dict, report_to_text, sample_chart_ball

__all__ = ["main"]

EXIT_PASS = 0
EXIT_ASSUMPTION = 2
EXIT_NUMERIC = 3
EXIT_BAD_INPUT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route that to the
    # bad-input exit code instead.
    def error(self, message):
        raise FixtureError(message)


def _require_point(fx: Fixture, args) -> PointC2:
    if args.point is not None:
        try:
            coords = [float(v) for v in args.point.split(",")]
        except ValueError as exc:
            raise FixtureError(f"bad point {args.point!r}: {exc}") from exc
        return point_from_real4(coords)
    if fx.point is None:
        raise FixtureError("no base point: supply --point or a fixture point")
    return fx.point


def _config(fx: Fixture, args) -> PipelineConfig:
    # each config flag's dest is its fixture key
    return resolve_config(fx.config, **{key: getattr(args, key, None) for key in
                                        ("tol_ode", "tol_root", "chart_radius", "samples", "seed")})


def _write(path: str | None, text: str) -> None:
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise FixtureError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Write header, then each row of floats as their reprs, as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) for v in row] for row in rows)
    _write(path, buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_poly(args) -> int:
    fx = load_fixture(args.fixture)
    if fx.polynomial is None:
        raise FixtureError("check-poly needs a polynomial fixture")
    point = _require_point(fx, args)
    checklist = validate_hypotheses(fx.polynomial, point)
    for check in checklist.checks:
        verdict = "PASS" if check.passed else "FAIL"
        detail = f" ({check.detail})" if check.detail else ""
        print(f"{check.name}: {verdict}{detail}")
    verdicts = {c.name: c.passed for c in checklist.checks}
    if verdicts["real_valued"]:
        print(f"levi_det: {'ZERO' if verdicts['levi_determinant_zero'] else 'NONZERO'}")
    return EXIT_PASS if checklist.all_passed else EXIT_ASSUMPTION


def cmd_derive_field(args) -> int:
    fx = load_fixture(args.fixture)
    if fx.polynomial is None:
        raise FixtureError("derive-field needs a polynomial fixture")
    V1, V2 = derive_candidate_fields(fx.polynomial)
    print(f"V1 = ({V1.comp_z}, {V1.comp_w})   degree {V1.degree}")
    print(f"V2 = ({V2.comp_z}, {V2.comp_w})   degree {V2.degree}")
    return EXIT_PASS


def _grid_times(text: str, span: float):
    if not 0 < span < float("inf"):
        raise FixtureError(f"bad --span {span!r}, expected a positive finite number")
    try:
        rows, cols = (int(v) for v in text.lower().split("x"))
        if rows < 1 or cols < 1:
            raise ValueError
    except ValueError as exc:
        raise FixtureError(f"bad --grid {text!r}, expected like 5x5") from exc
    return [(a, b) for a in _linspace(span, rows) for b in _linspace(span, cols)]


def _linspace(span: float, n: int) -> list[float]:
    # numpy.linspace(-span, span, n) for n > 1, [0.0] for n = 1
    if n == 1:
        return [0.0]
    step = 2 * span / (n - 1)
    return [-span + i * step for i in range(n - 1)] + [span]


def cmd_trace_leaf(args) -> int:
    fx = load_fixture(args.fixture)
    point = _require_point(fx, args)
    cfg = _config(fx, args)
    V = fx.field if fx.field is not None else select_field(fx.polynomial, point)
    grid = _grid_times(args.grid, args.span)
    points = trace_leaf(V, point, grid, cfg.flow_cfg())
    _write_csv(args.out, ["s1", "s2", "re_z", "im_z", "re_w", "im_w"],
               ((s1, s2, *p.to_real4()) for (s1, s2), p in zip(grid, points)))
    return EXIT_PASS


def _run_fixture_pipeline(fx: Fixture, point: PointC2, degree: int | None,
                          cfg: PipelineConfig):
    if fx.field is not None:
        if degree is None:
            raise FixtureError("explicit-field fixtures need a gauge degree")
        return run_field_pipeline(fx.field, point, degree, cfg)
    return run_pipeline(fx.polynomial, point, degree, cfg)


def _report_payload(fx: Fixture, point: PointC2, degree: int,
                    cfg: PipelineConfig, gauge, report) -> dict:
    base = gauge.chart.point    # the base-point record: x, frame, ray velocity
    return {
        "schema": REPORT_SCHEMA,
        "description": {
            "fixture": fixture_to_dict(fx),
            "point": list(point.to_real4()),
            "degree": degree,
            "config": config_to_dict(cfg),
        },
        "gauge": {
            "base": list(base.x.to_real4()),
            "frame": [list(row) for row in base.frame],
            "radius_scale": gauge.chart.radius_scale,
            "ray_velocity": list(base.ray_velocity),
            "degree": gauge.degree,
            "bracket_halfwidth": gauge.bracket_halfwidth,
        },
        "report": report_to_dict(report),
    }


def _emit_report(payload: dict, out: str | None) -> None:
    _write(out, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def cmd_build_gauge(args) -> int:
    if args.grid_n < 1:
        raise FixtureError(f"bad --grid-n {args.grid_n}, expected at least 1")
    if args.degree is not None and args.degree < 1:
        raise FixtureError(f"bad --degree {args.degree}, expected a positive integer")
    fx = load_fixture(args.fixture)
    point = _require_point(fx, args)
    degree = fx.degree if args.degree is None else args.degree
    cfg = _config(fx, args)
    gauge, report = _run_fixture_pipeline(fx, point, degree, cfg)
    payload = _report_payload(fx, point, gauge.degree, cfg, gauge, report)
    # the grid is computed and written first: a run that fails on it leaves
    # no report behind
    if args.grid_out:
        pts = sample_chart_ball(gauge.chart, args.grid_n, check_rng(cfg.seed, "grid"),
                                shrink=0.7)
        _write_csv(args.grid_out, ["re_z", "im_z", "re_w", "im_w", "scale", "gauge"],
                   gauge_grid_rows(gauge, pts))
    _emit_report(payload, args.out)
    if args.out:
        sys.stdout.write(report_to_text(report))
    return EXIT_PASS if report.overall_pass else EXIT_NUMERIC


def cmd_verify(args) -> int:
    fx, point, degree, saved_cfg, saved = load_report(args.report)
    cfg = resolve_config(saved_cfg, seed=args.seed)     # the saved seed unless --seed
    gauge, report = _run_fixture_pipeline(fx, point, degree, cfg)
    payload = _report_payload(fx, point, gauge.degree, cfg, gauge, report)
    _emit_report(payload, args.out)
    drift = _artifact_drift(saved, payload, cfg.seed == saved_cfg["seed"])
    for key, (was, now) in drift.items():
        print(f"drift {key}: saved {was!r}, rebuilt {now!r}", file=sys.stderr)
    return EXIT_PASS if report.overall_pass and not drift else EXIT_NUMERIC


# the frame rows and the ray velocity are computed in float and compared
# within this tolerance relative to their norm; every other field is exact
_DRIFT_REL_TOL = 1e-9


def _close(saved, rebuilt) -> bool:
    """Each row of saved (a vector, or a list of row vectors, of rebuilt's
    shape) is within _DRIFT_REL_TOL of rebuilt's, relative to the rebuilt
    row's norm; an infinite or NaN saved value never is."""
    rows = zip(saved, rebuilt) if isinstance(rebuilt[0], list) else [(saved, rebuilt)]
    return all(abs(x - y) <= _DRIFT_REL_TOL * math.hypot(*b)
               for a, b in rows for x, y in zip(a, b))


def _artifact_drift(saved: dict, rebuilt: dict, same_seed: bool) -> dict:
    """key -> (saved value, rebuilt value) for each saved field that the code
    writing reports would not write.  Under any seed: the gauge block, each
    entry's verdict (check_entry's, on its own residual, tolerance and mode),
    overall_pass (all saved verdicts) and the entry names in written order,
    which no seed changes.  Under the saved seed also overall_pass, note and,
    when the names match, every key but the residual of each entry in turn."""
    old, new = saved["report"], rebuilt["report"]
    entries = old["entries"]
    names = [e["name"] for e in entries], [e["name"] for e in new["entries"]]
    pairs = [(f"gauge.{k}", saved["gauge"][k], now) for k, now in sorted(rebuilt["gauge"].items())]
    pairs += [(f"report.entries[{e['name']}].passed", e["passed"],
               check_entry(e["name"], e["residual"], e["tolerance"], e["mode"]).passed)
              for e in entries]
    pairs.append(("report.overall_pass", old["overall_pass"], all(e["passed"] for e in entries)))
    pairs.append(("report.entries", *names))
    if same_seed:
        if names[0] == names[1]:
            pairs += [(f"report.entries[{e['name']}].{k}", e[k], now)
                      for e, mine in zip(entries, new["entries"])
                      for k, now in mine.items() if k != "residual"]
        pairs += [(f"report.{k}", old[k], new[k]) for k in ("overall_pass", "note")]
    drift = {}
    for key, was, now in pairs:
        if not (_close(was, now) if key in ("gauge.frame", "gauge.ray_velocity") else was == now):
            drift.setdefault(key, (was, now))
    return drift


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="leafgauge",
                     description="gauge functions constant along foliation leaves")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=True, config=True):
        if point:
            p.add_argument("--point", help="base point as re_z,im_z,re_w,im_w")
        if config:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--tol-ode", dest="tol_ode", type=float, default=None)
            p.add_argument("--tol-root", dest="tol_root", type=float, default=None)
            p.add_argument("--chart-radius", dest="chart_radius", type=float, default=None)
            p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("check-poly", help="hypothesis verdicts for a polynomial fixture")
    p.add_argument("fixture")
    common(p, config=False)
    p.set_defaults(func=cmd_check_poly)

    p = sub.add_parser("derive-field", help="print the candidate tangent fields")
    p.add_argument("fixture")
    p.set_defaults(func=cmd_derive_field)

    p = sub.add_parser("trace-leaf", help="sample one leaf on a flow-time grid")
    p.add_argument("fixture")
    p.add_argument("--grid", default="5x5")
    p.add_argument("--span", type=float, default=0.1)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_trace_leaf)

    p = sub.add_parser("build-gauge", help="run the full pipeline and report")
    p.add_argument("fixture")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--grid-out", dest="grid_out", default=None)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_build_gauge)

    p = sub.add_parser("verify", help="re-run the suite from a saved report")
    p.add_argument("report")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
