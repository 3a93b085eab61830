"""Command-line front end.

Subcommands:
    check-poly    hypothesis verdicts for a polynomial fixture
    derive-field  print the two candidate tangent fields of a polynomial
    trace-leaf    sample one leaf on a flow-time grid, emit CSV
    build-gauge   full pipeline, JSON report and optional gauge sample CSV
    verify        rebuild a saved report and compare the rebuild with it

Exit codes: 0 pass, 2 hypothesis/assumption violation, 3 numeric failure
(including a failing verification report, and a saved report that verify's
rebuild does not reproduce), 4 malformed input or an unwritable output path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from .errors import AssumptionError, FixtureError, LeafgaugeError, NumericError
from .fields import PointC2, derive_candidate_fields, select_field
from .fixtures import (Fixture, config_to_dict, fixture_to_dict, load_fixture, parse_fixture,
                       point_from_real4, resolve_config)
from .flows import trace_leaf
from .gauge import gauge_grid_rows
from .pipeline import PipelineConfig, run_field_pipeline, run_pipeline, validate_hypotheses
from .verify import check_rng, report_to_dict, report_to_text, sample_chart_ball
from .wirtinger import as_int

__all__ = ["main"]

EXIT_PASS = 0
EXIT_ASSUMPTION = 2
EXIT_NUMERIC = 3
EXIT_BAD_INPUT = 4

REPORT_SCHEMA = "leafgauge-report@1"


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route that to the
    # bad-input exit code instead.
    def error(self, message):
        raise FixtureError(message)


def _parse_point(text: str) -> PointC2:
    parts = text.split(",")
    if len(parts) != 4:
        raise FixtureError("--point expects four comma-separated reals")
    try:
        return point_from_real4(parts)
    except ValueError as exc:
        raise FixtureError(f"bad --point value: {exc}") from exc


def _require_point(fx: Fixture, args) -> PointC2:
    if getattr(args, "point", None):
        return _parse_point(args.point)
    if fx.point is None:
        raise FixtureError("no base point: supply --point or a fixture point")
    return fx.point


def _resolve_degree(fx: Fixture, args) -> int | None:
    degree = getattr(args, "degree", None)
    if degree is None:
        degree = fx.degree
    if degree is not None and degree < 1:
        raise FixtureError("gauge degree must be a positive integer")
    return degree


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
    if fx.field is not None:
        V = fx.field
    else:
        V = select_field(fx.polynomial, point)
    grid = _grid_times(args.grid, args.span)
    points = trace_leaf(V, point, grid, cfg.flow_cfg())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["s1", "s2", "re_z", "im_z", "re_w", "im_w"])
    for (s1, s2), p in zip(grid, points):
        writer.writerow([repr(s1), repr(s2), repr(p.z.real), repr(p.z.imag),
                         repr(p.w.real), repr(p.w.imag)])
    _write(args.out, buf.getvalue())
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
    return {
        "schema": REPORT_SCHEMA,
        "description": {
            "fixture": fixture_to_dict(fx),
            "point": list(point.to_real4()),
            "degree": degree,
            "config": config_to_dict(cfg),
        },
        "gauge": {
            "base": list(gauge.chart.base.to_real4()),
            "frame": [list(row) for row in gauge.chart.frame],
            "radius_scale": gauge.chart.radius_scale,
            "ray_velocity": list(gauge.ray_velocity),
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
    fx = load_fixture(args.fixture)
    point = _require_point(fx, args)
    degree = _resolve_degree(fx, args)
    cfg = _config(fx, args)
    gauge, report = _run_fixture_pipeline(fx, point, degree, cfg)
    payload = _report_payload(fx, point, gauge.degree, cfg, gauge, report)
    _emit_report(payload, args.out)
    if args.out:
        sys.stdout.write(report_to_text(report))
    if args.grid_out:
        pts = sample_chart_ball(gauge.chart, args.grid_n, check_rng(cfg.seed, "grid"),
                                shrink=0.7)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["re_z", "im_z", "re_w", "im_w", "scale", "gauge"])
        for row in gauge_grid_rows(gauge, pts):
            writer.writerow([repr(v) for v in row])
        _write(args.grid_out, buf.getvalue())
    return EXIT_PASS if report.overall_pass else EXIT_NUMERIC


def cmd_verify(args) -> int:
    try:
        data = json.loads(Path(args.report).read_text())
    except OSError as exc:
        raise FixtureError(f"cannot read report {args.report}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != REPORT_SCHEMA:
        raise FixtureError(f"report schema is not {REPORT_SCHEMA}")
    desc = data.get("description")
    if not isinstance(desc, dict) or "fixture" not in desc:
        raise FixtureError("report carries no gauge description")
    saved_gauge, saved_report = data.get("gauge"), data.get("report")
    saved_entries = saved_report.get("entries") if isinstance(saved_report, dict) else None
    if not (isinstance(saved_gauge, dict) and isinstance(saved_entries, list)
            and all(isinstance(e, dict) for e in saved_entries)):
        raise FixtureError("report carries no gauge block or entry list")
    try:
        fx = parse_fixture(desc["fixture"], name=desc["fixture"].get("name", "saved"))
        point = point_from_real4(desc["point"])
        degree = as_int(desc["degree"])
        saved = dict(desc.get("config", {}))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"malformed report description: {exc!r}") from exc
    seed = args.seed if args.seed is not None else saved.get("seed")
    cfg = resolve_config(fx.config, **{**saved, "seed": seed})
    gauge, report = _run_fixture_pipeline(fx, point, degree, cfg)
    payload = _report_payload(fx, point, gauge.degree, cfg, gauge, report)
    _emit_report(payload, args.out)
    same_seed = "seed" in saved and cfg.seed == saved["seed"]
    drift = _artifact_drift(saved_gauge, saved_entries if same_seed else None, payload)
    for key, was, now in drift:
        print(f"drift {key}: saved {was!r}, rebuilt {now!r}", file=sys.stderr)
    return EXIT_PASS if report.overall_pass and not drift else EXIT_NUMERIC


# the frame rows and the ray velocity are computed in float and compared
# within this tolerance relative to their norm; every other field is exact
_DRIFT_REL_TOL = 1e-9


def _close(saved, rebuilt) -> bool:
    """saved has the shape of rebuilt (a vector, or a list of row vectors)
    and each row is within _DRIFT_REL_TOL of it, relative to the larger of
    the two row norms."""
    if not (isinstance(saved, list) and len(saved) == len(rebuilt)):
        return False
    rows = zip(saved, rebuilt) if isinstance(rebuilt[0], list) else [(saved, rebuilt)]
    for a, b in rows:
        if not (isinstance(a, list) and len(a) == len(b)):
            return False
        try:
            a = [float(v) for v in a]
        except (TypeError, ValueError):
            return False
        tol = _DRIFT_REL_TOL * max(math.hypot(*a), math.hypot(*b))
        if not all(abs(x - y) <= tol for x, y in zip(a, b)):
            return False
    return True


def _artifact_drift(saved_gauge: dict, saved_entries: list | None,
                    rebuilt: dict) -> list[tuple]:
    """(key, saved value, rebuilt value) for every saved field that the
    rebuild does not reproduce: the gauge block, and each entry's name,
    verdict and sample counts unless saved_entries is None."""
    drift = []
    rg = rebuilt["gauge"]
    for key in sorted(set(saved_gauge) | set(rg)):
        was, now = saved_gauge.get(key), rg.get(key)
        same = (key in saved_gauge and key in rg
                and (_close(was, now) if key in ("frame", "ray_velocity") else was == now))
        if not same:
            drift.append((f"gauge.{key}", was, now))
    if saved_entries is not None:
        ours = rebuilt["report"]["entries"]
        if len(saved_entries) != len(ours):
            drift.append(("report.entries", len(saved_entries), len(ours)))
        else:
            for was, now in zip(saved_entries, ours):
                drift += [(f"report.entries[{now['name']}].{k}", was.get(k), now[k])
                          for k in ("name", "passed", "samples", "skipped")
                          if was.get(k) != now[k]]
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
    except LeafgaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
