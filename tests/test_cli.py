"""Command-line interface: exit codes, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
