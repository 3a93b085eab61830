"""Fixture files and saved reports: every JSON input, read by one reader.

One key table is the schema: _FIXTURE (a polynomial as term records, an
explicit field, or both, the field then taking precedence on the
gauge-building path; a base point, a gauge degree n and a config block),
_CONFIG and _REPORT give the kind of every key path, and _read walks
parsed JSON through it.  A repeated key, and a key the table does not
name, are refused at every level.  Every refusal is a FixtureError naming
the key path and the JSON type it got.  An integer may be written as 4.0
(2.5 is never truncated), and a JSON number where an exact rational
belongs (coefficients are strings such as "1/3" or "0.25") is read as the
decimal it prints as.  Range checks stay with the layers that own them:
PipelineConfig and the solver configs.  tol_ode is the one flow
tolerance, absolute and relative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import FixtureError
from .fields import PointC2, VectorFieldC2
from .pipeline import PipelineConfig
from .wirtinger import WirtingerPoly, poly_from_records, poly_to_records

__all__ = ["Fixture", "load_fixture", "parse_fixture", "fixture_to_dict", "config_to_dict",
           "resolve_config", "point_from_real4", "load_report", "REPORT_SCHEMA"]

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


@dataclass(frozen=True)
class Fixture:
    name: str
    polynomial: WirtingerPoly | None
    field: VectorFieldC2 | None
    point: PointC2 | None
    degree: int | None
    config: dict


# -- the key table -------------------------------------------------------------
#
# A leaf kind is (what a value must be, the Python types of the JSON values
# it takes, its reading); a reading raises ValueError, OverflowError or
# ZeroDivisionError for a value that is still not one.  A JSON true is no
# number.  [kind] is an array of any length, [kind, n] one of length n.

def _integer(low):
    def read(value):
        n = int(value)      # 4.0 is 4; 2.5, inf and nan are no integer
        if n != value or n < low:
            raise ValueError
        return n
    return read


class _Object(dict):
    """An object kind: key -> kind, each key of need given, no other key;
    label names the block (and what it holds) in refusals."""

    def __init__(self, need, may=(), label=""):
        super().__init__({**need, **dict(may)})
        self.need, self.label = need, label


_NUMBER = (int, float)
_INT, _NATURAL, _POSITIVE = (("an integer", _NUMBER, _integer(-math.inf)),
                             ("a non-negative integer", _NUMBER, _integer(0)),
                             ("a positive integer", _NUMBER, _integer(1)))
# the float nearest the decimal: an integer past the float range reads as
# inf, as 1e400 does
_FLOAT = ("a number", _NUMBER, lambda value: float(str(value)))
_RATIONAL = ('an exact rational such as "1/3" or "0.25"', (str, *_NUMBER),
             lambda value: Fraction(str(value)))
_TEXT, _FLAG = ("a string", (str,), str), ("a boolean", (bool,), bool)

_CONFIG = _Object({}, {key: _INT if name in ("n_samples", "seed") else _FLOAT
                       for key, name in _CONFIG_KEYS.items()}, "configuration")
_TERMS = [_Object({"dz": _NATURAL, "dzbar": _NATURAL, "dw": _NATURAL, "dwbar": _NATURAL,
                   "re": _RATIONAL}, {"im": _RATIONAL})]
_FIXTURE = _Object({}, {"name": _TEXT, "polynomial": _TERMS,
                        "field": _Object({"z": _TERMS, "w": _TERMS, "m": _NATURAL}),
                        "point": [_FLOAT, 4], "n": _POSITIVE, "config": _CONFIG}, "fixture")
# the gauge block and the entries are compared with a rebuild: any number
# reads, and a value that the rebuild does not reproduce is drift.  A saved
# configuration is complete: each key of _CONFIG is needed, the seed too
_REPORT = _Object({
    "schema": _TEXT,
    "description": _Object({"fixture": _FIXTURE, "point": [_FLOAT, 4], "degree": _POSITIVE,
                            "config": _Object(_CONFIG)}),
    "gauge": _Object({"base": [_FLOAT, 4], "frame": [[_FLOAT, 4], 4], "radius_scale": _FLOAT,
                      "ray_velocity": [_FLOAT, 2], "degree": _INT, "bracket_halfwidth": _FLOAT}),
    "report": _Object({"entries": [_Object({
        "name": _TEXT, "residual": _FLOAT, "tolerance": _FLOAT, "passed": _FLAG, "mode": _TEXT,
        "samples": _INT, "skipped": _INT})], "overall_pass": _FLAG, "note": _TEXT}),
}, label="report")

_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


def _json_type(value) -> str:
    return "a JSON " + _JSON_TYPES.get(type(value), type(value).__name__)


def _read(value, kind, path: str = "", label: str = ""):
    """value read as kind, or FixtureError naming the key path, the JSON
    type of value and what it is not."""
    if isinstance(kind, list):
        item, *n = kind
        if isinstance(value, list) and len(value) == (n[0] if n else len(value)):
            return [_read(v, item, f"{path}[{i}]", label) for i, v in enumerate(value)]
        what = f"an array of length {n[0]}" if n else "an array"
    elif isinstance(kind, _Object):
        label = kind.label or label
        if isinstance(value, dict):
            at = f"{path}." if path else ""
            for key, v in value.items():
                if key not in kind:
                    raise FixtureError(f"bad {label}: unknown key {at}{key} ({_json_type(v)})")
            for key in kind.need:
                if key not in value:
                    raise FixtureError(f"bad {label}: {at}{key} is missing")
            return {key: _read(v, kind[key], at + key, label) for key, v in value.items()}
        what = "an object"
    else:
        what, types, read = kind
        try:
            if type(value) in types:
                return read(value)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise FixtureError(f"bad {label}: {path or 'the top level'} is {_json_type(value)}: "
                       f"{value!r} is not {what}")


def _unique(pairs: list) -> dict:
    # the object_pairs_hook of every JSON input: a repeated key is refused,
    # never read as its last value
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice ({obj[key]!r}, then {value!r})")
        obj[key] = value
    return obj


def _read_json(path, kind: _Object) -> dict:
    """The JSON document at path, read as kind (a fixture or a report)."""
    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=_unique)
    except OSError as exc:
        raise FixtureError(f"cannot read {kind.label} {path}: {exc}") from exc
    except ValueError as exc:   # also bytes that are no text, and a repeated key
        raise FixtureError(f"{kind.label} {path} is not strict JSON: {exc}") from exc
    return _read(data, kind)


# -- fixtures and reports ----------------------------------------------------------

def point_from_real4(values, name: str = "point") -> PointC2:
    """A base point from four real coordinates.  Raises FixtureError unless
    they are four finite numbers, not all zero: the construction lives on
    C^2 minus the origin."""
    if len(values) != 4 or not all(map(math.isfinite, values)) or not any(values):
        raise FixtureError(f"{name} {values} must have 4 coordinates, finite and not the origin")
    return PointC2.from_real4(values)


def _fixture(data: dict, name: str, at: str = "") -> Fixture:
    # a fixture from its block, read; at is the block's key path
    if "polynomial" not in data and "field" not in data:
        raise FixtureError(f"bad fixture: {at}polynomial and {at}field are both missing")
    poly, fld, point = data.get("polynomial"), data.get("field"), data.get("point")
    return Fixture(
        name=data.get("name", name),
        polynomial=None if poly is None else poly_from_records(poly),
        field=None if fld is None else VectorFieldC2(poly_from_records(fld["z"]),
                                                     poly_from_records(fld["w"]), fld["m"]),
        point=None if point is None else point_from_real4(point, at + "point"),
        degree=data.get("n"), config=data.get("config", {}))


def parse_fixture(data: dict, name: str = "") -> Fixture:
    return _fixture(_read(data, _FIXTURE), name)


def load_fixture(path) -> Fixture:
    return _fixture(_read_json(path, _FIXTURE), Path(path).stem)


def load_report(path) -> tuple[Fixture, PointC2, int, dict, dict]:
    """A saved report: the fixture, base point, gauge degree and complete
    run configuration (under fixture keys) of its description, and the
    whole report as read."""
    data = _read_json(path, _REPORT)
    if data["schema"] != REPORT_SCHEMA:
        raise FixtureError(f"report schema is {data['schema']!r}, not {REPORT_SCHEMA}")
    desc = data["description"]
    return (_fixture(desc["fixture"], "saved", "description.fixture."),
            point_from_real4(desc["point"], "description.point"), desc["degree"],
            desc["config"], data)


def fixture_to_dict(fx: Fixture) -> dict:
    out: dict = {"name": fx.name}
    if fx.polynomial is not None:
        out["polynomial"] = poly_to_records(fx.polynomial)
    if fx.field is not None:
        out["field"] = {"z": poly_to_records(fx.field.comp_z),
                        "w": poly_to_records(fx.field.comp_w), "m": fx.field.degree}
    if fx.point is not None:
        out["point"] = list(fx.point.to_real4())
    if fx.degree is not None:
        out["n"] = fx.degree
    if fx.config:
        out["config"] = dict(sorted(fx.config.items()))
    return out


def config_to_dict(cfg: PipelineConfig) -> dict:
    """The complete run configuration a report saves, under fixture keys."""
    return {key: getattr(cfg, name) for key, name in _CONFIG_KEYS.items()}


def resolve_config(fixture_config: dict, /, **overrides) -> PipelineConfig:
    """Defaults <- fixture config <- keyword overrides, both read values
    under fixture keys (None means unset).  A value that PipelineConfig's
    range checks refuse raises FixtureError."""
    settings = {**fixture_config, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        return PipelineConfig(**{_CONFIG_KEYS[key]: value for key, value in settings.items()})
    except ValueError as exc:
        raise FixtureError(f"bad configuration: {exc}") from exc
