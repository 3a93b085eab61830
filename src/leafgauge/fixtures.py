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
                 "samples": ..., "seed": ...}
    }

Coefficients are strings parsed as exact rationals so that fixtures
round-trip through the exact polynomial representation without rounding.
A fixture carries a polynomial, an explicit field, or both (the field then
takes precedence on the gauge-building path).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import FixtureError
from .fields import PointC2, VectorFieldC2
from .pipeline import PipelineConfig
from .wirtinger import WirtingerPoly, poly_from_records, poly_to_records

__all__ = [
    "Fixture",
    "load_fixture",
    "parse_fixture",
    "fixture_to_dict",
    "field_to_dict",
    "field_from_dict",
    "resolve_config",
    "point_from_real4",
]

_CONFIG_KEYS = {
    "chart_radius": "chart_radius",
    "bracket_halfwidth": "bracket_halfwidth",
    "tol_ode": None,        # expands to ode_abs_tol + ode_rel_tol
    "tol_root": "root_tol",
    "newton_tol": "newton_tol",
    "max_step": "max_step",
    "samples": "n_samples",
    "seed": "seed",
    "involutivity_tol": "involutivity_tol",
}


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
                         poly_from_records(data["w"]), int(data["m"]))


def point_from_real4(values) -> PointC2:
    """A base point from four real coordinates.  Raises FixtureError unless
    they are finite and not all zero: the construction lives on C^2 minus
    the origin."""
    coords = [float(v) for v in values]
    if len(coords) != 4:
        raise FixtureError("point must have 4 real components")
    if not all(map(math.isfinite, coords)) or not any(coords):
        raise FixtureError(f"point {coords} must be finite and not the origin")
    return PointC2.from_real4(coords)


def parse_fixture(data: dict, name: str = "") -> Fixture:
    if not isinstance(data, dict):
        raise FixtureError("fixture root must be a JSON object")
    try:
        poly = None
        if "polynomial" in data:
            poly = poly_from_records(data["polynomial"])
        fld = None
        if "field" in data:
            fld = field_from_dict(data["field"])
        point = point_from_real4(data["point"]) if "point" in data else None
        degree = int(data["n"]) if "n" in data else None
        config = dict(data.get("config", {}))
        unknown = set(config) - set(_CONFIG_KEYS)
        if unknown:
            raise FixtureError(f"unknown config keys: {sorted(unknown)}")
    except FixtureError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"malformed fixture: {exc}") from exc
    if poly is None and fld is None:
        raise FixtureError("fixture must provide a polynomial or a field")
    return Fixture(name=data.get("name", name), polynomial=poly, field=fld,
                   point=point, degree=degree, config=config)


def load_fixture(path) -> Fixture:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture {path} is not valid JSON: {exc}") from exc
    return parse_fixture(data, name=path.stem)


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


_INT_FIELDS = {"n_samples", "seed", "max_steps", "n_involutivity"}


def _expand(key: str, value, kwargs: dict) -> None:
    if key == "tol_ode":
        kwargs["ode_abs_tol"] = float(value)
        kwargs["ode_rel_tol"] = float(value)
        return
    name = _CONFIG_KEYS.get(key, key)
    kwargs[name] = int(value) if name in _INT_FIELDS else float(value)


def resolve_config(fixture_config: dict, **overrides) -> PipelineConfig:
    """Defaults <- fixture config <- keyword overrides (None means unset)."""
    kwargs: dict = {}
    for key, value in fixture_config.items():
        _expand(key, value, kwargs)
    for key, value in overrides.items():
        if value is not None:
            _expand(key, value, kwargs)
    try:
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"bad configuration: {exc}") from exc
