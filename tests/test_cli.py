"""Command-line interface: exit codes, artifacts, determinism."""

import json
from pathlib import Path

import pytest

from leafgauge.cli import main
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


def test_verify_keeps_fixture_config(tmp_path):
    data = json.loads((FIXTURE_DIR / "field_v3.json").read_text())
    data["config"]["involutivity_tol"] = 1e-3
    fixture = tmp_path / "loose.json"
    fixture.write_text(json.dumps(data))
    report_path = tmp_path / "rep.json"
    again = tmp_path / "again.json"
    assert main(["build-gauge", str(fixture), "--samples", "10",
                 "--out", str(report_path)]) == 0
    assert main(["verify", str(report_path), "--out", str(again)]) == 0
    for path in (report_path, again):
        entries = json.loads(path.read_text())["report"]["entries"]
        inv = next(e for e in entries if e["name"] == "field_involutivity")
        assert inv["tolerance"] == 1e-3
    assert again.read_bytes() == report_path.read_bytes()


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
    # under another seed the entries are not comparable, only the gauge is
    assert main(["verify", _resaved(tmp_path, data), "--seed", "7"]) == 0


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


@pytest.mark.parametrize("flags", [
    ["--samples", "0"],
    ["--samples", "-3"],
    ["--tol-root", "-1"],
    ["--tol-ode", "-1"],
    ["--chart-radius", "2"],
])
def test_bad_config_is_exit_4(flags, tmp_path, capsys):
    # rejected before any work: no vacuous pass, no traceback, no report
    out = tmp_path / "rep.json"
    assert main(["build-gauge", fx("pz4.json"), *flags, "--out", str(out)]) == 4
    assert "bad configuration" in capsys.readouterr().err
    assert not out.exists()
