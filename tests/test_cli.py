"""Command-line interface: exit codes, artifacts, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafgauge import (AssumptionError, PointC2, WirtingerPoly, poly_to_records, select_field,
                       validate_hypotheses)
from leafgauge.cli import _grid_times, main
from leafgauge.fixtures import fixture_to_dict, load_fixture, parse_fixture
from conftest import FIXTURE_DIR


def fx(name: str) -> str:
    return str(FIXTURE_DIR / name)


def test_check_poly_pzw_passes(capsys):
    assert main(["check-poly", fx("pzw.json")]) == 0
    out = capsys.readouterr().out
    assert "levi_det: ZERO" in out
    assert "FAIL" not in out


def test_check_poly_ball_fails(capsys):
    assert main(["check-poly", fx("ball.json")]) == 2
    out = capsys.readouterr().out
    assert "levi_det: NONZERO" in out


def test_missing_fixture_is_exit_4(capsys):
    assert main(["check-poly", "no/such/file.json"]) == 4


def test_malformed_fixture_is_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-poly", str(bad)]) == 4


def test_derive_field_output(capsys):
    assert main(["derive-field", fx("pz4.json")]) == 0
    out = capsys.readouterr().out
    assert "V1 = (0, 4*z*zbar)" in out
    assert "V2 = (0, 0)" in out


def test_trace_leaf_first_integral(tmp_path, capsys):
    out_path = tmp_path / "leaf.csv"
    assert main(["trace-leaf", fx("pzw.json"), "--grid", "5x5",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "s1,s2,re_z,im_z,re_w,im_w"
    assert len(lines) == 26
    for line in lines[1:]:
        _, _, re_z, im_z, re_w, im_w = (float(v) for v in line.split(","))
        zw = complex(re_z, im_z) * complex(re_w, im_w)
        assert abs(zw - 1) <= 1e-8


def test_trace_leaf_blow_up_is_exit_3(capsys):
    # the leaf flow escapes to infinity within the requested span
    assert main(["trace-leaf", fx("pzw.json"), "--point", "0.9,0.2,1.1,-0.3",
                 "--grid", "3x3", "--span", "1.0"]) == 3
    assert "blew up" in capsys.readouterr().err


def test_bad_grid_is_exit_4():
    assert main(["trace-leaf", fx("pzw.json"), "--grid", "5by5"]) == 4


@pytest.mark.parametrize("span", ["inf", "-inf", "nan", "0", "-0.1"])
def test_bad_span_is_exit_4(span, tmp_path, capsys):
    # a non-finite span used to put the base point at flow time inf
    out = tmp_path / "leaf.csv"
    assert main(["trace-leaf", fx("pzw.json"), "--grid", "2x1", f"--span={span}",
                 "--out", str(out)]) == 4
    assert "bad --span" in capsys.readouterr().err
    assert not out.exists()


def test_bad_grid_n_is_exit_4(tmp_path, capsys):
    # --grid-n 0 used to write an empty grid CSV and exit 0
    grid = tmp_path / "grid.csv"
    assert main(["build-gauge", fx("pz4.json"), "--grid-n", "0",
                 "--grid-out", str(grid)]) == 4
    assert "bad --grid-n" in capsys.readouterr().err
    assert not grid.exists()


def test_build_gauge_pzw(tmp_path, capsys):
    report_path = tmp_path / "rep.json"
    code = main(["build-gauge", fx("pzw.json"), "--samples", "15",
                 "--out", str(report_path)])
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["report"]["overall_pass"] is True
    assert data["gauge"]["degree"] == 4
    assert data["description"]["fixture"]["name"] == "abs-zw-squared"
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_build_gauge_field_path(tmp_path):
    report_path = tmp_path / "rep.json"
    assert main(["build-gauge", fx("field_v3.json"), "--samples", "15",
                 "--out", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert data["report"]["overall_pass"] is True
    assert data["gauge"]["degree"] == 2


def test_build_gauge_ball_is_exit_2():
    assert main(["build-gauge", fx("ball.json"), "--samples", "10"]) == 2


def test_build_gauge_bad_field_is_exit_2():
    assert main(["build-gauge", fx("field_bad.json"), "--samples", "10"]) == 2


def test_degree_zero_is_exit_4():
    assert main(["build-gauge", fx("pzw.json"), "--degree", "0"]) == 4


def test_numeric_failure_is_exit_3(tmp_path):
    # a tiny root bracket: verification samples leave the gauge domain
    data = json.loads((FIXTURE_DIR / "field_v3.json").read_text())
    data["config"]["bracket_halfwidth"] = 0.01
    bad = tmp_path / "tiny_bracket.json"
    bad.write_text(json.dumps(data))
    assert main(["build-gauge", str(bad), "--samples", "10"]) == 3


def test_gauge_grid_dump(tmp_path):
    grid_path = tmp_path / "grid.csv"
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10",
                 "--out", str(tmp_path / "r.json"),
                 "--grid-out", str(grid_path), "--grid-n", "8"]) == 0
    lines = grid_path.read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,re_w,im_w,scale,gauge"
    assert len(lines) == 9
    for line in lines[1:]:
        re_z, *_rest, scale, value = (float(v) for v in line.split(","))
        # closed form for this fixture: g = (Re z)^n and t = 1 / Re z
        assert value == pytest.approx(re_z ** 4, rel=1e-6)
        assert scale == pytest.approx(1 / re_z, rel=1e-6)


def test_verify_round_trip_and_determinism(tmp_path):
    report_path = tmp_path / "rep.json"
    assert main(["build-gauge", fx("field_v3.json"), "--samples", "12",
                 "--out", str(report_path)]) == 0
    v1 = tmp_path / "v1.json"
    v2 = tmp_path / "v2.json"
    assert main(["verify", str(report_path), "--out", str(v1)]) == 0
    assert main(["verify", str(report_path), "--out", str(v2)]) == 0
    assert v1.read_bytes() == v2.read_bytes()
    # seeded rerun is also reproducible byte for byte
    v3 = tmp_path / "v3.json"
    v4 = tmp_path / "v4.json"
    assert main(["verify", str(report_path), "--seed", "7", "--out", str(v3)]) == 0
    assert main(["verify", str(report_path), "--seed", "7", "--out", str(v4)]) == 0
    assert v3.read_bytes() == v4.read_bytes()
    assert v3.read_bytes() != v1.read_bytes()


def test_verify_rejects_plain_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{}")
    assert main(["verify", str(p)]) == 4


def test_involutivity_tol_is_not_a_config_key(tmp_path, capsys):
    # the involutivity tolerance is the constant 1e-8: a fixture or a saved
    # report that still sets it is malformed
    data = json.loads((FIXTURE_DIR / "field_v3.json").read_text())
    data["config"]["involutivity_tol"] = 1e-3
    fixture = tmp_path / "loose.json"
    fixture.write_text(json.dumps(data))
    assert main(["build-gauge", str(fixture), "--samples", "10"]) == 4
    assert "involutivity_tol" in capsys.readouterr().err

    report_path = tmp_path / "rep.json"
    assert main(["build-gauge", fx("field_v3.json"), "--samples", "10",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    inv = next(e for e in report["report"]["entries"] if e["name"] == "field_involutivity")
    assert inv["tolerance"] == 1e-8
    for block in (report["description"]["fixture"]["config"], report["description"]["config"]):
        block["involutivity_tol"] = 1e-3
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", str(tampered), "--out", str(tmp_path / "again.json")]) == 4
        assert "involutivity_tol" in capsys.readouterr().err
        del block["involutivity_tol"]


def test_verify_rejects_other_schema(tmp_path):
    report_path = tmp_path / "rep.json"
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10",
                 "--out", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    data["schema"] = "leafgauge-report@0"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    assert main(["verify", str(old)]) == 4


def _saved_pz4(tmp_path):
    report_path = tmp_path / "rep.json"
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10",
                 "--out", str(report_path)]) == 0
    return report_path, json.loads(report_path.read_text())


def _resaved(tmp_path, data):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_verify_untouched_round_trip(tmp_path, capsys):
    report_path, data = _saved_pz4(tmp_path)
    # a perturbation of the float frame far inside the relative 1e-9 is no drift
    data["gauge"]["frame"][0][0] *= 1 + 1e-12
    again = tmp_path / "again.json"
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data), "--out", str(again)]) == 0
    assert "drift" not in capsys.readouterr().err
    assert again.read_bytes() == report_path.read_bytes()


@pytest.mark.parametrize("name", ["pzw", "pz4", "field_v3", "field_nonholo"])
def test_base_point_record_is_the_saved_gauge_block(name, tmp_path):
    # base, frame and ray_velocity of a saved report are the base-point
    # record of the fixture's (V, x), bit for bit at every seed: one field
    # value and no flow code (no _first, _dp5 or _dop853 built) recompute them
    from leafgauge.fields import base_point

    fixture = load_fixture(fx(f"{name}.json"))
    x = fixture.point
    V = fixture.field if fixture.field is not None else select_field(fixture.polynomial, x)
    record = base_point(V, x)
    assert not {"_first", "_dp5", "_dop853"} & vars(V).keys()
    want = {"base": list(x.to_real4()), "frame": [list(row) for row in record.frame],
            "ray_velocity": list(record.ray_velocity)}
    for seed in (1, 7, 0x5EED):
        out = tmp_path / f"{seed}.json"
        assert main(["build-gauge", fx(f"{name}.json"), "--seed", str(seed),
                     "--out", str(out)]) == 0
        gauge = json.loads(out.read_text())["gauge"]
        assert json.dumps({key: gauge[key] for key in want}) == json.dumps(want)


def test_verify_detects_tampered_gauge(tmp_path, capsys):
    _, data = _saved_pz4(tmp_path)
    data["gauge"]["ray_velocity"] = [5, 5]
    data["gauge"]["frame"][2][3] += 1e-6
    data["gauge"]["degree"] = 3
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data)]) == 3
    err = capsys.readouterr().err
    for key in ("gauge.ray_velocity", "gauge.frame", "gauge.degree"):
        assert f"drift {key}:" in err
    assert "gauge.base" not in err


def test_verify_reads_a_huge_integer_frame_entry_as_drift(tmp_path, capsys):
    # an integer too large for a float raised OverflowError (exit 1)
    _, data = _saved_pz4(tmp_path)
    data["gauge"]["frame"][0][0] = 10 ** 400
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data), "--out", str(tmp_path / "again.json")]) == 3
    assert "drift gauge.frame:" in capsys.readouterr().err


def test_verify_detects_tampered_entries(tmp_path, capsys):
    _, data = _saved_pz4(tmp_path)
    for entry in data["report"]["entries"]:
        entry["passed"] = False
    data["report"]["entries"][0]["samples"] += 1
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data)]) == 3
    err = capsys.readouterr().err
    first = data["report"]["entries"][0]["name"]
    assert f"drift report.entries[{first}].samples:" in err
    assert err.count(".passed:") == len(data["report"]["entries"])
    # under another seed the entries are not compared with the rebuild, but
    # each saved verdict must still be check_entry's on its own residual
    assert main(["verify", _resaved(tmp_path, data), "--seed", "7"]) == 3
    err = capsys.readouterr().err
    assert err.count(".passed:") == len(data["report"]["entries"])
    assert ".samples:" not in err


def test_verify_detects_a_changed_tolerance_or_mode(tmp_path, capsys):
    # a saved entry that passes under a looser tolerance, or reads its
    # residual the other way, is not the rebuilt entry
    _, data = _saved_pz4(tmp_path)
    entry = next(e for e in data["report"]["entries"] if e["name"] == "gauge_root_consistency")
    entry["tolerance"] = 1.0
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data)]) == 3
    err = capsys.readouterr().err
    assert "drift report.entries[gauge_root_consistency].tolerance:" in err
    assert ".mode:" not in err
    _, data = _saved_pz4(tmp_path)
    entry = data["report"]["entries"][0]
    entry["mode"] = {"min": "max", "max": "min"}[entry["mode"]]
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data)]) == 3
    err = capsys.readouterr().err
    assert f"drift report.entries[{entry['name']}].mode:" in err
    assert ".tolerance:" not in err


def test_verify_names_the_entries_a_rebuild_lacks(tmp_path, capsys):
    # a pzw report saved while the build also wrote the base-point sine and
    # two spot checks of P along the leaves: the rebuild has none of them
    report_path = tmp_path / "rep.json"
    assert main(["build-gauge", fx("pzw.json"), "--samples", "10",
                 "--out", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    old = [("base_transversality", 1.0, 1e-8, "min", 1),
           ("leaf_levi_form", 2.4e-16, 1e-9, "max", 10),
           ("leaf_second_difference", 3.8e-13, 1e-6, "max", 10)]
    data["report"]["entries"] = sorted(
        data["report"]["entries"] + [{"name": n, "residual": r, "tolerance": t, "passed": True,
                                      "mode": m, "samples": k, "skipped": 0}
                                     for n, r, t, m, k in old],
        key=lambda e: e["name"])
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data), "--out", str(tmp_path / "again.json")]) == 3
    err = capsys.readouterr().err
    assert err == ("drift report.entries: saved ['base_transversality', 'leaf_levi_form', "
                   "'leaf_second_difference'], rebuilt []\n")


def _failing_everywhere(data):
    # every entry marked failed with a residual of 1e9, and the report too
    for entry in data["report"]["entries"]:
        entry.update(passed=False, residual=1e9)
    data["report"]["overall_pass"] = False


def _drift_lines(err: str) -> list[str]:
    lines = err.splitlines()
    assert all(line.startswith("drift ") for line in lines), err
    assert len({line.split(":")[0] for line in lines}) == len(lines), err   # one per key
    return lines


def test_verify_needs_the_saved_seed(tmp_path, capsys):
    # a report without its seed verified its gauge block alone and exited 0
    _, data = _saved_pz4(tmp_path)
    _failing_everywhere(data)
    del data["description"]["config"]["seed"]
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data)]) == 4
    err = capsys.readouterr().err
    assert err == "error: bad report: description.config.seed is missing\n"


def test_verify_detects_a_report_failing_everywhere(tmp_path, capsys):
    _, data = _saved_pz4(tmp_path)
    _failing_everywhere(data)
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data), "--out", str(tmp_path / "again.json")]) == 3
    # two min-mode entries fail check_entry's verdict (1e9 passes a lower
    # bound), the others only the rebuild's; each is named once
    lines = _drift_lines(capsys.readouterr().err)
    names = [e["name"] for e in data["report"]["entries"]]
    assert sorted(lines) == sorted(
        [f"drift report.entries[{n}].passed: saved False, rebuilt True" for n in names]
        + ["drift report.overall_pass: saved False, rebuilt True"])


@pytest.mark.parametrize("seed", [[], ["--seed", "7"]], ids=["saved-seed", "seed-7"])
def test_verify_rederives_a_verdict_from_its_residual(seed, tmp_path, capsys):
    # a residual far past its tolerance under a saved pass: the residual is
    # compared through its verdict only, at any seed
    _, data = _saved_pz4(tmp_path)
    entry = next(e for e in data["report"]["entries"] if e["name"] == "chart_leaf_scaling")
    assert entry["tolerance"] == 1e-6 and entry["passed"]
    entry["residual"] = 123.0
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data), *seed,
                 "--out", str(tmp_path / "again.json")]) == 3
    assert _drift_lines(capsys.readouterr().err) == [
        "drift report.entries[chart_leaf_scaling].passed: saved True, rebuilt False"]


def test_verify_detects_an_edited_overall_verdict_and_note(tmp_path, capsys):
    _, data = _saved_pz4(tmp_path)
    assert data["report"]["overall_pass"] and data["report"]["note"] == ""
    data["report"].update(overall_pass=False, note="edited")
    capsys.readouterr()
    assert main(["verify", _resaved(tmp_path, data), "--out", str(tmp_path / "again.json")]) == 3
    assert _drift_lines(capsys.readouterr().err) == [
        "drift report.overall_pass: saved False, rebuilt True",
        "drift report.note: saved 'edited', rebuilt ''"]


def test_verify_rejects_report_without_gauge(tmp_path):
    _, data = _saved_pz4(tmp_path)
    del data["gauge"]
    assert main(["verify", _resaved(tmp_path, data)]) == 4


def test_fixture_round_trip():
    for name in ("pzw.json", "pz4.json", "ball.json", "field_v3.json",
                 "field_nonholo.json", "field_bad.json"):
        fixture = load_fixture(FIXTURE_DIR / name)
        again = parse_fixture(fixture_to_dict(fixture), name=fixture.name)
        assert again.polynomial == fixture.polynomial
        if fixture.field is not None:
            assert again.field.comp_z == fixture.field.comp_z
            assert again.field.comp_w == fixture.field.comp_w
            assert again.field.degree == fixture.field.degree
        assert again.point == fixture.point
        assert again.degree == fixture.degree


def test_unknown_flag_is_exit_4(capsys):
    assert main(["build-gauge", fx("pzw.json"), "--frobnicate"]) == 4


def test_cross_process_determinism(tmp_path):
    # separate interpreters with different hash seeds must emit identical
    # bytes; nothing in the report path may depend on hash ordering
    import os
    import subprocess
    import sys

    import leafgauge

    # the child imports the same package as this process, installed or not
    src = str(Path(leafgauge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = []
    for tag, hash_seed in (("a", "1"), ("b", "2")):
        out = tmp_path / f"{tag}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "leafgauge.cli", "build-gauge",
             fx("field_v3.json"), "--samples", "10", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_point_and_degree_overrides(tmp_path):
    report_path = tmp_path / "rep.json"
    assert main(["build-gauge", fx("field_v3.json"), "--point", "1,0,1,0",
                 "--degree", "4", "--samples", "10",
                 "--out", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert data["gauge"]["degree"] == 4
    assert data["description"]["point"] == [1.0, 0.0, 1.0, 0.0]


def test_bad_point_is_exit_4():
    assert main(["build-gauge", fx("field_v3.json"), "--point", "1,0,1"]) == 4


@pytest.mark.parametrize("command, name", [("check-poly", "pzw.json"), ("trace-leaf", "pzw.json"),
                                           ("build-gauge", "pz4.json")])
def test_empty_point_is_exit_4(command, name, capsys):
    # an empty --point was read as none given, and the command ran on the
    # fixture's own point with exit 0
    assert main([command, fx(name), "--point", ""]) == 4
    assert capsys.readouterr().err.startswith("error: bad point ''")


@pytest.mark.parametrize("command", ["check-poly", "build-gauge"])
@pytest.mark.parametrize("point", ["0,0,0,0", "-0.0,0,0,0", "nan,0,1,0", "inf,0,1,0"])
def test_origin_or_non_finite_point_is_exit_4(command, point, capsys):
    # the origin used to raise "direction must be nonzero", nan a ValueError
    # and inf an OverflowError, each exiting 1 with a traceback
    assert main([command, fx("pzw.json"), f"--point={point}"]) == 4
    assert "finite and not the origin" in capsys.readouterr().err


@pytest.mark.parametrize("point", [[0, 0, 0, 0], ["NaN", 0, 1, 0], [1, "-Infinity", 0, 0]])
def test_fixture_origin_or_non_finite_point_is_exit_4(point, tmp_path, capsys):
    data = json.loads(Path(fx("pzw.json")).read_text())
    data["point"] = [float(v) for v in point]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["check-poly", str(bad)]) == 4
    assert "finite and not the origin" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-poly", "build-gauge"])
def test_overflowing_point_is_exit_3(command, capsys):
    # the exact value is fine; its rounding to a float overflows
    assert main([command, fx("pzw.json"), "--point", "1e300,0,1e300,0"]) == 3
    assert "overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["build-gauge", fx("field_v3.json")],
    ["build-gauge", fx("field_nonholo.json")],
    ["trace-leaf", fx("pzw.json")],
])
def test_huge_point_is_exit_3(args, capsys):
    # finite coordinates whose field values, scales or determinants
    # overflow a float: a numeric failure, not a traceback or a false
    # assumption verdict
    assert main([*args, "--point", "1e300,0,1e300,0"]) == 3
    assert "overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-gauge", "trace-leaf"])
def test_tiny_ode_tolerance_is_exit_3(command, tmp_path, capsys):
    # tolerances from 1e-150 down to 1e-30 exhaust the step budget; below
    # that the error norm of a step overflows, which exited 1 with a traceback
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, fx("field_v3.json"), "--tol-ode", "1e-200", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("grid, span", [("5x5", 0.1), ("7x3", 0.3), ("1x4", 0.2),
                                        ("2x2", 1e-3), ("11x1", 2.5), ("64x9", 0.07)])
def test_grid_times_are_numpy_linspace(grid, span):
    rows, cols = (int(v) for v in grid.split("x"))
    axis = [np.linspace(-span, span, n) if n > 1 else np.array([0.0]) for n in (rows, cols)]
    ref = [(float(a), float(b)) for a in axis[0] for b in axis[1]]
    assert [(a.hex(), b.hex()) for a, b in _grid_times(grid, span)] == \
        [(a.hex(), b.hex()) for a, b in ref]


def test_build_runs_without_numpy(tmp_path):
    # numpy is a test oracle only: a build imports none of it
    code = ("import sys; sys.modules['numpy'] = None\n"
            "import leafgauge.cli\n"
            f"sys.exit(leafgauge.cli.main(['build-gauge', {fx('pz4.json')!r}, "
            f"'--out', {str(tmp_path / 'rep.json')!r}]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads((tmp_path / "rep.json").read_text())["report"]["overall_pass"]


@pytest.mark.parametrize("flags", [
    ["--samples", "0"],
    ["--samples", "-3"],
    ["--tol-root", "-1"],
    ["--tol-ode", "-1"],
    ["--chart-radius", "2"],
    ["--seed", "-1"],
    ["--tol-root", "inf"],
    ["--tol-ode", "inf"],
    ["--tol-ode", "nan"],
])
def test_bad_config_is_exit_4(flags, tmp_path, capsys):
    # rejected before any work: no vacuous pass, no traceback, no report
    out = tmp_path / "rep.json"
    assert main(["build-gauge", fx("pz4.json"), *flags, "--out", str(out)]) == 4
    assert "bad configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("tol_root", math.inf), ("tol_ode", math.inf),
                                        ("max_step", math.inf), ("samples", math.inf),
                                        ("samples", math.nan), ("seed", "abc"),
                                        ("tol_root", "abc")])
def test_bad_fixture_config_is_exit_4(key, value, tmp_path, capsys):
    # an infinite tolerance switched error control off (the suite passed
    # vacuously and the report failed to serialize, or the chart failed),
    # and a value that is no number escaped as a traceback
    data = json.loads(Path(fx("pzw.json")).read_text())
    data["config"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["build-gauge", str(bad), "--out", str(tmp_path / "rep.json")]) == 4
    assert "bad configuration" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_negative_fixture_seed_is_exit_4(tmp_path, capsys):
    # a seed the sample streams cannot take is bad input, found before any work
    data = json.loads(Path(fx("pz4.json")).read_text())
    data["config"]["seed"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["build-gauge", str(bad), "--out", str(tmp_path / "rep.json")]) == 4
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-poly", "build-gauge"])
def test_overflowing_hessian_scale_is_exit_3(command, tmp_path, capsys):
    # the Hessian of 10^-300 |zw|^2 at this point is finite, its scale
    # |x|^(deg - 2) is not
    data = json.loads(Path(fx("pzw.json")).read_text())
    data["polynomial"][0]["re"] = f"1/{10 ** 300}"
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(data))
    assert main([command, str(tiny), "--point", "1e200,0,1e200,0"]) == 3
    assert "overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-gauge", "trace-leaf"])
def test_overflowing_field_coefficient_is_exit_3(command, tmp_path, capsys):
    # the exact coefficients are fine; their rounding to a float overflows
    data = json.loads(Path(fx("field_v3.json")).read_text())
    data["field"]["z"][0]["re"], data["field"]["w"][0]["re"] = "-1e400", "1e400"
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data))
    assert main([command, str(huge), "--out", str(tmp_path / "out.json")]) == 3
    assert "coefficient of the term (1, 0, 0, 0)" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_build_writes_once(tmp_path):
    # the forked verification worker never returns into the caller: the
    # caller's finally block runs once and the report table prints once
    log = tmp_path / "finally.log"
    code = ("import os, sys\n"
            "if len(os.sched_getaffinity(0)) < 2:\n"
            "    os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "import leafgauge.cli\n"
            "try:\n"
            f"    code = leafgauge.cli.main(['build-gauge', {fx('pz4.json')!r}, "
            f"'--out', {str(tmp_path / 'rep.json')!r}])\n"
            "finally:\n"
            f"    with open({str(log)!r}, 'a') as f:\n"
            "        f.write(f'{len(forks)} fork\\n')\n"
            "sys.exit(code)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert log.read_text().splitlines() == ["1 fork"]
    assert proc.stdout.count("overall: pass") == 1
    assert proc.stdout.startswith("check ")


@pytest.mark.parametrize("name", ["pzw.json", "field_nonholo.json"])
def test_involutivity_overflow_is_exit_3(name, capsys):
    # the rank test overflows from about 1e44 x on: exit 3, where the
    # ratio inf once failed the involutivity hypothesis with exit 2
    assert main(["build-gauge", fx(name), "--point", "1e50,0,1e50,0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: involutivity") and "overflows a float" in err


@pytest.mark.parametrize("c, code", [(Fraction(1, 10 ** 9), 2), (Fraction(3, 2 * 10 ** 9), 2),
                                     (Fraction(1), 0)])
def test_hessian_verdict_is_the_builds(c, code, tmp_path, capsys):
    # c |z + w|^4 at (1, 0): the four Hessian entries are 4c, so each
    # candidate value has norm 4 sqrt(2) c and the four entries together 8c;
    # at c = 3/2 10^-9 check-poly passed on the 8c while the build refused
    # the candidates (exit 2, "Hessian vanishes")
    f = WirtingerPoly.monomial(1, 0, 0, 0) + WirtingerPoly.monomial(0, 0, 1, 0)
    P = f * f.conjugate() * f * f.conjugate() * WirtingerPoly.constant(c)
    x = PointC2(1, 0)
    verdict = {ch.name: ch.passed for ch in validate_hypotheses(P, x).checks}
    try:
        select_field(P, x)
        selected = True
    except AssumptionError:
        selected = False
    assert verdict["hessian_nonzero_at_base"] is selected is (code == 0)
    path = tmp_path / "zw4.json"
    path.write_text(json.dumps({"polynomial": poly_to_records(P), "point": [1, 0, 0, 0], "n": 4}))
    assert main(["check-poly", str(path)]) == code
    norm = 4 * math.sqrt(2) * c
    assert (f"hessian_nonzero_at_base: {'PASS' if code == 0 else 'FAIL'} (larger candidate "
            f"norm {norm:.3e}, threshold 1.000e-08)") in capsys.readouterr().out


@pytest.mark.parametrize("point, code", [("1,0,3e-5,0", 2), ("0.01,0,3e-7,0", 2),
                                         ("100,0,3e-3,0", 2), ("100,0,1e-4,0", 2),
                                         ("1,0,1e-3,0", 3)])
def test_near_tangent_base_point_exit_is_unit_free(point, code, capsys):
    # the tangency guard compares |d| with |x|: the same near-tangent
    # geometry exits 2 at every scale (100,0,3e-3,0 exited 3 under an
    # absolute threshold), and a wider angle gets past it
    assert main(["build-gauge", fx("field_v3.json"), "--point", point]) == code
    assert ("tangent to leaf" in capsys.readouterr().err) == (code == 2)


def _edited_fixture(tmp_path, name: str, edit) -> str:
    data = json.loads(Path(fx(name)).read_text())
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name, edit", [
    ("pz4.json", lambda d: d.update(n=2.5)),
    ("pz4.json", lambda d: d.update(n=math.inf)),
    ("pz4.json", lambda d: d["polynomial"][0].update(dz=2.5, dzbar=2.9)),
    ("field_v3.json", lambda d: d["field"].update(m=1.5)),
    ("pz4.json", lambda d: d["config"].update(samples=20.5)),
    ("pz4.json", lambda d: d["config"].update(seed=1.5)),
], ids=["n", "n_inf", "exponents", "m", "samples", "seed"])
def test_non_integral_integer_is_exit_4(name, edit, tmp_path, capsys):
    # int() truncated these: n = 2.5 built a degree-2 gauge, exponents
    # 2.5 and 2.9 became |z|^4, and both exited 0
    path = _edited_fixture(tmp_path, name, edit)
    out = tmp_path / "rep.json"
    assert main(["build-gauge", path, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_integral_floats_and_large_ints_are_integers(tmp_path):
    # 4.0 is 4: the report is byte-identical to the shipped fixture's
    def edit(d):
        d.update(n=4.0)
        d["polynomial"][0].update(dz=2.0, dzbar=2.0)

    path = _edited_fixture(tmp_path, "pz4.json", edit)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10", "--out", str(a)]) == 0
    assert main(["build-gauge", path, "--samples", "10", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    big = _edited_fixture(tmp_path, "pz4.json", lambda d: d["config"].update(seed=2 ** 64 + 1))
    assert main(["build-gauge", big, "--samples", "10", "--out", str(b)]) == 0
    assert json.loads(b.read_text())["description"]["config"]["seed"] == 2 ** 64 + 1
    assert main(["verify", str(b), "--out", str(a)]) == 0


@pytest.mark.parametrize("name, a, b", [("pz4.json", 2, 2), ("pzw.json", 3, 1)],
                         ids=["pz4+Re(z2w2)", "pzw+Re(z3w)"])
def test_pluriharmonic_term_keeps_the_report(name, a, b, tmp_path):
    # P + Re(z^a w^b) has P's complex Hessian, so the same hypotheses, field,
    # leaves and gauge; P is harmonic along the leaves, not constant, and a
    # report that bounded P's second differences along them exited 3 here
    def add_re_h(d):
        d["polynomial"] += [{"dz": a, "dzbar": 0, "dw": b, "dwbar": 0, "re": "1/2", "im": "0"},
                            {"dz": 0, "dzbar": a, "dw": 0, "dwbar": b, "re": "1/2", "im": "0"}]

    path = _edited_fixture(tmp_path, name, add_re_h)
    assert main(["check-poly", path]) == 0
    base, shifted = tmp_path / "base.json", tmp_path / "shifted.json"
    assert main(["build-gauge", fx(name), "--out", str(base)]) == 0
    assert main(["build-gauge", path, "--out", str(shifted)]) == 0
    want, got = json.loads(base.read_text()), json.loads(shifted.read_text())
    assert len(got["description"].pop("fixture")["polynomial"]) == 3
    del want["description"]["fixture"]
    assert got == want


@pytest.mark.parametrize("degree, code", [(4.0, 0), (2.5, 4)])
def test_verify_saved_degree_must_be_integral(degree, code, tmp_path):
    report = tmp_path / "rep.json"
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10", "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    data["description"]["degree"] = degree
    report.write_text(json.dumps(data))
    assert main(["verify", str(report), "--out", str(tmp_path / "again.json")]) == code


def test_config_names_live_in_one_table(tmp_path):
    # every PipelineConfig field but the unused velocity_step has a fixture
    # key, and a report saves the run configuration under exactly those keys
    from dataclasses import fields

    from leafgauge.fixtures import _CONFIG_KEYS
    from leafgauge.pipeline import PipelineConfig

    names = {f.name for f in fields(PipelineConfig)}
    assert names == set(_CONFIG_KEYS.values()) | {"velocity_step"}
    assert len(_CONFIG_KEYS) == 8
    report = tmp_path / "rep.json"
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10", "--out", str(report)]) == 0
    assert sorted(json.loads(report.read_text())["description"]["config"]) == sorted(_CONFIG_KEYS)


@pytest.mark.parametrize("degree", ["10000", "30000"])
def test_overflowing_gauge_degree_is_exit_3(degree, capsys):
    # the scale factor of a verification sample below the base, raised to
    # minus the degree, overflows a float
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10", "--degree", degree]) == 3
    assert "overflows a float" in capsys.readouterr().err


def test_large_degree_build_passes(capsys):
    # the pz4 gauge (Re z)^n is exact at any degree; gauge_euler_identity
    # failed this build (2.0e-4 against 1e-4) while its finite-difference
    # step did not shrink with the degree
    assert main(["build-gauge", fx("pz4.json"), "--samples", "20", "--degree", "3000"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["overall_pass"]


@pytest.mark.parametrize("to_file", [True, False])
def test_failed_grid_write_leaves_no_report(to_file, tmp_path, capsys):
    # the grid is written before the report, so a failed grid write leaves
    # no report for verify to read, neither at --out nor on stdout
    report = tmp_path / "rep.json"
    out_args = ["--out", str(report)] if to_file else []
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10", *out_args,
                 "--grid-out", str(tmp_path / "missing" / "x.csv")]) == 4
    out, err = capsys.readouterr()
    assert not report.exists()
    assert out == "" and "cannot write" in err


@pytest.mark.parametrize("args", [
    ["build-gauge", fx("pz4.json"), "--samples", "10", "--out", "{missing}/x.json"],
    ["build-gauge", fx("pz4.json"), "--samples", "10", "--grid-out", "{missing}/x.csv"],
    ["verify", "{report}", "--out", "{missing}/y.json"],
    ["trace-leaf", fx("pz4.json"), "--out", "{missing}/y.csv"],
])
def test_unwritable_output_is_exit_4(args, tmp_path, capsys):
    # each output path lies in a directory that does not exist
    report = tmp_path / "rep.json"
    assert main(["build-gauge", fx("pz4.json"), "--samples", "10", "--out", str(report)]) == 0
    capsys.readouterr()
    assert main([a.format(missing=tmp_path / "missing", report=report) for a in args]) == 4
    assert "cannot write" in capsys.readouterr().err


# -- the input boundary ----------------------------------------------------------
#
# Each row once exited 1 with a traceback, or ran on a value that the
# fixture reader now refuses.

def _record(dz, dzbar, dw, dwbar):
    return {"dz": dz, "dzbar": dzbar, "dw": dw, "dwbar": dwbar, "re": "1", "im": "0"}


_BAD_POLYNOMIALS = {
    "not-real": [_record(2, 1, 0, 0)],                            # z^2 zbar
    "inhomogeneous": [_record(2, 2, 0, 0), _record(0, 0, 1, 1)],  # |z|^4 + |w|^2
    "zero": [],
}


def _pairs(block: dict) -> list:
    return [list(item) for item in block.items()]


_V3_FIELD = json.loads(Path(fx("field_v3.json")).read_text())["field"]


def _json_type(value) -> str:
    return {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object"}[type(value)]


def _dotted(path) -> str:
    """A key path as the reader names it: description.fixture.polynomial[0].re"""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _typed(path) -> str:
    # the stderr fragment naming a key path and the JSON type it got
    return f"{_dotted(path[:-1])} is a JSON {path[-1]}"


# one value of each JSON type (numbers small enough that no run grows)
_ONE_OF_EACH = {"null": None, "boolean": True, "number": -1.5, "string": "x", "array": [],
                "object": {}}
_CONFIG_NAMES = ("chart_radius", "bracket_halfwidth", "tol_ode", "tol_root", "newton_tol",
                 "max_step", "samples", "seed")
# each key path of a fixture (through the first item of each list) and
# the JSON types its reader takes; a JSON number is also a rational
_FIXTURE_PATHS = {
    ("name",): {"string"}, ("n",): {"number"}, ("point",): {"array"}, ("point", 2): {"number"},
    ("polynomial",): {"array"}, ("polynomial", 0): {"object"},
    **{("polynomial", 0, k): {"number"} for k in ("dz", "dzbar", "dw", "dwbar")},
    **{("polynomial", 0, k): {"string", "number"} for k in ("re", "im")},
    ("field",): {"object"}, ("field", "z"): {"array"}, ("field", "w"): {"array"},
    ("field", "m"): {"number"}, ("field", "w", 0, "dzbar"): {"number"},
    ("config",): {"object"}, **{("config", k): {"number"} for k in _CONFIG_NAMES},
}


def _set(path, value):
    # the edit of pz4 (with field_v3's field added) that puts value at path
    def edit(d):
        d["field"] = copy.deepcopy(_V3_FIELD)
        node = d
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = copy.deepcopy(value)
    return edit


def _row(command, edit, code, *want, id):
    return pytest.param(command, edit, code, want, id=id)


_BOUNDARY = [
    _row("verify", lambda d: d["description"].update(degree=0), 4,
         "description.degree is a JSON number: 0 is not a positive integer", id="verify-degree-0"),
    _row("verify", lambda d: d["description"].update(degree=-2), 4,
         "description.degree is a JSON number", id="verify-degree-negative"),
    _row("verify", lambda d: d["description"].update(
        fixture=_pairs(d["description"]["fixture"])), 4, "description.fixture is a JSON array",
        id="verify-fixture-list"),
    _row("verify", lambda d: d["description"].update(
        config=_pairs(d["description"]["config"])), 4, "description.config is a JSON array",
        id="verify-config-pairs"),
    _row("verify", lambda d: d["description"]["config"].update(fixture_config=0.3), 4,
         "unknown key description.config.fixture_config (a JSON number)",
         id="verify-config-key-fixture_config"),
    _row("build-gauge", lambda d: d.update(config=_pairs(d["config"])), 4,
         "config is a JSON array", id="build-config-pairs"),
    _row("check-poly", lambda d: d.update(n=0), 4, "n is a JSON number: 0 is not a positive",
         id="check-poly-n-0"),
    # a JSON boolean is no number: float(True) is 1.0 and Fraction(True) is 1
    _row("build-gauge", lambda d: d.update(n=True), 4, "n is a JSON boolean", id="build-n-true"),
    _row("build-gauge", lambda d: d["config"].update(samples=True), 4,
         "config.samples is a JSON boolean", id="build-config-samples-true"),
    _row("build-gauge", lambda d: d["config"].update(tol_root=True), 4,
         "config.tol_root is a JSON boolean", id="build-config-float-true"),
    _row("build-gauge", lambda d: d.update(point=[True, 0, 0, 0]), 4,
         "point[0] is a JSON boolean", id="build-point-true"),
    _row("check-poly", lambda d: d["polynomial"][0].update(dw=False), 4,
         "polynomial[0].dw is a JSON boolean", id="check-poly-exponent-false"),
    _row("verify", lambda d: d["description"].update(degree=True), 4,
         "description.degree is a JSON boolean", id="verify-degree-true"),
    _row("verify", lambda d: d["description"]["config"].update(tol_root=True), 4,
         "description.config.tol_root is a JSON boolean", id="verify-config-float-true"),
    # a JSON string is no number either: float("1") is 1.0 and Fraction("4") is 4
    _row("build-gauge", lambda d: d.update(n="4"), 4, "n is a JSON string", id="build-n-string"),
    _row("build-gauge", lambda d: d["config"].update(samples="5"), 4,
         "config.samples is a JSON string", id="build-config-samples-string"),
    _row("build-gauge", lambda d: d["config"].update(seed="7"), 4,
         "config.seed is a JSON string", id="build-config-seed-string"),
    _row("build-gauge", lambda d: d["config"].update(tol_root="1e-11"), 4,
         "config.tol_root is a JSON string", id="build-config-float-string"),
    _row("build-gauge", lambda d: d.update(point=["1", "0", "0", "0"]), 4,
         "point[0] is a JSON string", id="build-point-string"),
    _row("check-poly", lambda d: d["polynomial"][0].update(dz="2"), 4,
         "polynomial[0].dz is a JSON string", id="check-poly-exponent-string"),
    _row("build-gauge", lambda d: d.update(field={**_V3_FIELD, "m": "1"}), 4,
         "field.m is a JSON string", id="build-field-m-string"),
    _row("verify", lambda d: d["description"].update(degree="4"), 4,
         "description.degree is a JSON string", id="verify-degree-string"),
    _row("verify", lambda d: d["description"]["config"].update(samples="10"), 4,
         "description.config.samples is a JSON string", id="verify-config-samples-string"),
    _row("verify", lambda d: d["description"]["config"].update(tol_root="1e-11"), 4,
         "description.config.tol_root is a JSON string", id="verify-config-float-string"),
    # a JSON null is no number either: it is refused like a bool or a
    # string, and its message names the null
    _row("build-gauge", lambda d: d.update(n=None), 4, "n is a JSON null", id="build-n-null"),
    _row("build-gauge", lambda d: d.update(field={**_V3_FIELD, "m": None}), 4,
         "field.m is a JSON null", id="build-field-m-null"),
    _row("check-poly", lambda d: d["polynomial"][0].update(dw=None), 4,
         "polynomial[0].dw is a JSON null", id="check-poly-exponent-null"),
    _row("build-gauge", lambda d: d["config"].update(samples=None), 4,
         "config.samples is a JSON null", id="build-config-samples-null"),
    _row("build-gauge", lambda d: d["config"].update(seed=None), 4,
         "config.seed is a JSON null", id="build-config-seed-null"),
    _row("build-gauge", lambda d: d["config"].update(chart_radius=None), 4,
         "config.chart_radius is a JSON null", id="build-config-chart_radius-null"),
    _row("build-gauge", lambda d: d.update(point=[1.0, None, 0.0, 0.0]), 4,
         "point[1] is a JSON null", id="build-point-null"),
    *[_row(command, lambda d, poly=poly: d.update(polynomial=poly), 2, id=f"{command}-{name}")
      for command in ("derive-field", "trace-leaf")
      for name, poly in _BAD_POLYNOMIALS.items()],
    # an array or an object where a number belongs fell through to
    # Fraction's "argument should be a string or a Rational instance"
    _row("build-gauge", lambda d: d.update(n=[2]), 4, "n is a JSON array: [2] is not",
         id="build-n-array"),
    _row("build-gauge", lambda d: d.update(field={**_V3_FIELD, "m": {}}), 4,
         "field.m is a JSON object: {} is not", id="build-field-m-object"),
    # a repeated key built on its last value, and an unknown top-level key
    # was ignored; both exited 0
    _row("build-gauge", lambda d: json.dumps(d).replace('"n": 4', '"n": 2, "n": 3'), 4,
         "key 'n' is given twice (2, then 3)", id="build-n-twice"),
    _row("build-gauge", lambda d: d.update(degree=4), 4, "unknown key degree (a JSON number)",
         id="build-unknown-key"),
    # a string point was read one character at a time ("'1' is not a number")
    _row("build-gauge", lambda d: d.update(point="1,0,1,0"), 4,
         "point is a JSON string: '1,0,1,0' is not an array of length 4",
         id="build-point-text"),
    # Fraction's "Invalid literal for Fraction: 'nan'", and a traceback for "1/0"
    *[_row("check-poly", lambda d, re=re: d["polynomial"][0].update(re=re), 4,
           f"polynomial[0].re is a JSON string: '{re}' is not an exact rational",
           id=f"check-poly-re-{re.replace('/', ':')}")
      for re in ("nan", "1/0")],
    # a flow tolerance so small that a DOP853 step's error norm overflows
    # raised OverflowError (exit 1, a traceback)
    *[_row(command, lambda d, tol=tol: d["config"].update(tol_ode=tol), 3,
           "flow error norm overflowed", id=f"{command}-tol_ode-{tol}")
      for command, tol in (("build-gauge", 1e-200), ("trace-leaf", 1e-200),
                           ("build-gauge", 1e-320))],
    # every key path of a fixture that takes a value of the wrong JSON type
    *[_row("build-gauge", _set(path, value), 4, _typed((*path, kind)),
           id=f"type-{_dotted(path)}-{kind}")
      for path, takes in _FIXTURE_PATHS.items()
      for kind, value in _ONE_OF_EACH.items() if kind not in takes],
]


@pytest.mark.parametrize("command, edit, code, want", _BOUNDARY)
def test_bad_input_gets_its_exit_code(command, edit, code, want, tmp_path, capsys):
    # one line on stderr naming the fault (for bad input: the key path and
    # the JSON type it got), and no report on stdout or disk
    out = tmp_path / "out.json"
    if command == "verify":
        _, data = _saved_pz4(tmp_path)
        edit(data)
        args = ["verify", _resaved(tmp_path, data), "--out", str(out)]
    else:
        data = json.loads(Path(fx("pz4.json")).read_text())
        path = tmp_path / "edited.json"
        path.write_text(edit(data) or json.dumps(data))    # an edit may return the text
        args = [command, str(path)]
        if command in ("build-gauge", "trace-leaf"):
            args += ["--out", str(out)]
    capsys.readouterr()
    assert main(args) == code
    captured = capsys.readouterr()
    prefix = {2: "assumption violated: ", 3: "numeric failure: ", 4: "error: "}[code]
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not out.exists()
    err = captured.err
    assert all(fragment in err for fragment in want), err
    if code == 4:
        # no exception repr, and nothing of how int(), float() or Fraction() failed
        assert not any(s in err for s in ("Error(", "NoneType", "Rational", "Fraction")), err
    if command != "verify" and "null" in Path(args[1]).read_text():
        # a null is named as such, not by how int(), float() or Fraction()
        # failed on it
        assert "None is not a" in err and "NoneType" not in err and "Rational" not in err, err


def _key_paths(node, path=()):
    """The path of every object key in a JSON tree, through the first item
    of each list (the 12 report entries have one shape)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        yield from _key_paths(node[0], path + (0,))


_DROP, _EDIT = object(), object()
_SWAPS = list(_ONE_OF_EACH.values())
# the key paths of a saved pz4 report that its reader may go without; a
# saved run configuration is complete, so none of its keys is among them
_FX = ("description", "fixture")
_OPTIONAL = {(*_FX, "name"), (*_FX, "point"), (*_FX, "n"), (*_FX, "config"),
             *[(*_FX, "config", k) for k in ("chart_radius", "bracket_halfwidth")],
             (*_FX, "polynomial", 0, "im")}
# same-type edits of a saved report's block that no writer would make, on
# the block holding the key: a flipped verdict, a changed note, and a
# residual moved across its tolerance (every saved entry passes)
_EDITS = {
    "passed": lambda e: not e["passed"],
    "overall_pass": lambda r: not r["overall_pass"],
    "note": lambda r: r["note"] + " edited",
    "residual": lambda e: e["tolerance"] - 1.0 if e["mode"] == "min" else 2 * e["tolerance"] + 1,
}


def _drift_key(name: str, block: dict) -> str:
    # the key verify names for an edit of name in block: an entry by its
    # name, and a residual by the verdict it breaks
    if name in ("passed", "residual"):
        return f"report.entries[{block['name']}].passed"
    return f"report.{name}"


def _verify_code(path, mutated) -> tuple:
    edited = path.with_name("edited.json")
    edited.write_text(json.dumps(mutated))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", str(edited), "--out", str(path.with_name("again.json"))])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def saved_pz4_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "rep.json"
    assert main(["build-gauge", fx("pz4.json"), "--samples", "5", "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_survives_any_one_key_mutation(saved_pz4_report, data):
    # drop one key of a saved report, or give it a value of another JSON
    # type: a wrong type exits 4 naming the key path and the type, and so
    # does a dropped key the reader needs.  A same-type edit of a verdict,
    # the note or a residual exits 3 naming its key
    path, report = saved_pz4_report
    key = data.draw(st.sampled_from(list(_key_paths(report))))
    mutated = copy.deepcopy(report)
    parent = mutated
    for part in key[:-1]:
        parent = parent[part]
    was = parent[key[-1]]
    swap = data.draw(st.sampled_from([_DROP, *[_EDIT][:key[-1] in _EDITS],
                                      *(v for v in _SWAPS if _json_type(v) != _json_type(was))]))
    if swap is _DROP:
        del parent[key[-1]]
    elif swap is _EDIT:
        parent[key[-1]] = _EDITS[key[-1]](parent)
    else:
        parent[key[-1]] = swap
    code, err = _verify_code(path, mutated)
    if swap is _DROP and key in _OPTIONAL:
        assert code in (0, 3)
    elif swap is _DROP:
        assert code == 4 and _dotted(key) in err, err
    elif swap is _EDIT:
        assert code == 3 and f"drift {_drift_key(key[-1], parent)}:" in err, err
    elif key[-1] in ("re", "im") and _json_type(swap) == "number":
        assert code in (0, 2, 3)    # a number reads as the rational it prints as
    else:
        assert code == 4 and _typed((*key, _json_type(swap))) in err, err


@pytest.mark.parametrize("name", list(_EDITS))
def test_verify_names_each_same_type_edit(name, saved_pz4_report):
    # the same-type edits of the mutation test, on every entry: each exits 3
    # with one drift line naming its key, and a flipped entry verdict a
    # second one, for the saved overall verdict it no longer makes
    path, report = saved_pz4_report
    in_entry = name in ("passed", "residual")
    for i in range(len(report["report"]["entries"]) if in_entry else 1):
        mutated = copy.deepcopy(report)
        block = mutated["report"]["entries"][i] if in_entry else mutated["report"]
        block[name] = _EDITS[name](block)
        code, err = _verify_code(path, mutated)
        want = [_drift_key(name, block)] + ["report.overall_pass"] * (name == "passed")
        assert code == 3, err
        assert [line.split(":")[0] for line in err.splitlines()] == [f"drift {k}" for k in want]
