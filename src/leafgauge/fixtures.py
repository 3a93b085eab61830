"""Fixture files: JSON descriptions of a polynomial or an explicit field,
a base point, a gauge degree, and config overrides.

Schema:
    {
      "name": "optional label",
      "polynomial": [ {dz, dzbar, dw, dwbar, re, im}, ... ],
      "field": {"z": [records], "w": [records], "m": int},
      "point": [re_z, im_z, re_w, im_w],
      "n": int,
      "config": {"chart_radius": ..., "bracket_halfwidth": ...,
                 "tol_ode": ..., "tol_root": ..., "newton_tol": ...,
                 "max_step": ..., "samples": ..., "seed": ...}
    }

Coefficients are strings parsed as exact rationals so that fixtures
round-trip through the exact polynomial representation without rounding.
The integers (exponents, m, n, samples, seed) may be written as 4 or 4.0;
a value with a fractional part is malformed, never truncated, and so is a
JSON true, false or string wherever a number belongs.  tol_ode is
the one flow tolerance, absolute and relative.
A fixture carries a polynomial, an explicit field, or both (the field then
takes precedence on the gauge-building path).

Every input value of the command line is read here, once: fixtures, saved
reports, base points and the gauge degree (a fixture's n, --degree, a
report's degree).  Malformed input raises FixtureError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import FixtureError
from .fields import PointC2, VectorFieldC2
from .pipeline import PipelineConfig
from .wirtinger import WirtingerPoly, as_int, poly_from_records, poly_to_records

__all__ = [
    "Fixture",
    "load_fixture",
    "parse_fixture",
    "fixture_to_dict",
    "config_to_dict",
    "field_to_dict",
    "field_from_dict",
    "resolve_config",
    "point_from_real4",
    "gauge_degree",
    "load_report",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "leafgauge-report@1"

# The one table of config names: fixture key -> PipelineConfig field.
# Reports save the run configuration under these keys.
_CONFIG_KEYS = {
    "chart_radius": "chart_radius",
    "bracket_halfwidth": "bracket_halfwidth",
    "tol_ode": "ode_tol",
    "tol_root": "root_tol",
    "newton_tol": "newton_tol",
    "max_step": "max_step",
    "samples": "n_samples",
    "seed": "seed",
}
_INT_FIELDS = {"n_samples", "seed"}


@dataclass(frozen=True)
class Fixture:
    name: str
    polynomial: WirtingerPoly | None
    field: VectorFieldC2 | None
    point: PointC2 | None
    degree: int | None
    config: dict


def field_to_dict(V: VectorFieldC2) -> dict:
    return {"z": poly_to_records(V.comp_z), "w": poly_to_records(V.comp_w),
            "m": V.degree}


def field_from_dict(data: dict) -> VectorFieldC2:
    return VectorFieldC2(poly_from_records(data["z"]),
                         poly_from_records(data["w"]), as_int(data["m"]))


def point_from_real4(values) -> PointC2:
    """A base point from four real coordinates.  Raises FixtureError unless
    they are finite real numbers, not all zero: the construction lives on
    C^2 minus the origin."""
    try:
        coords = [_as_float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"bad point {values!r}: {exc}") from exc
    if len(coords) != 4:
        raise FixtureError("point must have 4 real components")
    if not all(map(math.isfinite, coords)) or not any(coords):
        raise FixtureError(f"point {coords} must be finite and not the origin")
    return PointC2.from_real4(coords)


def gauge_degree(value) -> int:
    """A gauge degree: a positive integer, which may be written as 4.0.
    Raises FixtureError below 1, and ValueError, TypeError or OverflowError
    (which its callers report as malformed input) for a non-integer."""
    degree = as_int(value)
    if degree < 1:
        raise FixtureError("gauge degree must be a positive integer")
    return degree


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise FixtureError(f"{what} must be a JSON object")
    return data


def parse_fixture(data: dict, name: str = "") -> Fixture:
    _object(data, "fixture root")
    try:
        poly = poly_from_records(data["polynomial"]) if "polynomial" in data else None
        fld = field_from_dict(data["field"]) if "field" in data else None
        point = point_from_real4(data["point"]) if "point" in data else None
        degree = gauge_degree(data["n"]) if "n" in data else None
        config = dict(_object(data.get("config", {}), "fixture config"))
        unknown = set(config) - set(_CONFIG_KEYS)
        if unknown:
            raise FixtureError(f"unknown config keys: {sorted(unknown)}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"malformed fixture: {exc}") from exc
    if poly is None and fld is None:
        raise FixtureError("fixture must provide a polynomial or a field")
    return Fixture(name=data.get("name", name), polynomial=poly, field=fld,
                   point=point, degree=degree, config=config)


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise FixtureError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_fixture(path) -> Fixture:
    return parse_fixture(_read_json(path, "fixture"), name=Path(path).stem)


def load_report(path) -> tuple[Fixture, PointC2, int, dict, dict, list]:
    """A saved report: the fixture, base point, gauge degree and run
    configuration (under fixture keys) of its description, its gauge block
    and its entry list."""
    data = _read_json(path, "report")
    if not isinstance(data, dict) or data.get("schema") != REPORT_SCHEMA:
        raise FixtureError(f"report schema is not {REPORT_SCHEMA}")
    desc = _object(data.get("description"), "report description")
    try:
        described = (parse_fixture(desc["fixture"], name="saved"),
                     point_from_real4(desc["point"]), gauge_degree(desc["degree"]),
                     dict(_object(desc.get("config", {}), "saved run configuration")))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"malformed report description: {exc!r}") from exc
    saved_gauge, saved_report = data.get("gauge"), data.get("report")
    saved_entries = saved_report.get("entries") if isinstance(saved_report, dict) else None
    if not (isinstance(saved_gauge, dict) and isinstance(saved_entries, list)
            and all(isinstance(e, dict) for e in saved_entries)):
        raise FixtureError("report carries no gauge block or entry list")
    return (*described, saved_gauge, saved_entries)


def fixture_to_dict(fx: Fixture) -> dict:
    out: dict = {"name": fx.name}
    if fx.polynomial is not None:
        out["polynomial"] = poly_to_records(fx.polynomial)
    if fx.field is not None:
        out["field"] = field_to_dict(fx.field)
    if fx.point is not None:
        out["point"] = list(fx.point.to_real4())
    if fx.degree is not None:
        out["n"] = fx.degree
    if fx.config:
        out["config"] = dict(sorted(fx.config.items()))
    return out


def config_to_dict(cfg: PipelineConfig) -> dict:
    """The run configuration a report saves, under its fixture keys."""
    return {key: getattr(cfg, name) for key, name in _CONFIG_KEYS.items()}


def _expand(key: str, value, kwargs: dict) -> None:
    name = _CONFIG_KEYS[key]    # KeyError: an unknown key
    kwargs[name] = as_int(value) if name in _INT_FIELDS else _as_float(value)


def _as_float(value) -> float:
    # float(True) is 1.0 and float("1") is 1.0: a JSON true, string or null is
    # no number
    if value is None or isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def resolve_config(fixture_config: dict, /, **overrides) -> PipelineConfig:
    """Defaults <- fixture config <- keyword overrides under fixture keys
    (None means unset)."""
    kwargs: dict = {}
    try:
        for key, value in fixture_config.items():
            _expand(key, value, kwargs)
        for key, value in overrides.items():
            if value is not None:
                _expand(key, value, kwargs)
        return PipelineConfig(**kwargs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"bad configuration: {exc!r}") from exc
