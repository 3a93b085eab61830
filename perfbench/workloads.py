"""The three benchmark workloads.

Each workload is a closed loop with one caller.  It generates its inputs
from the workload seed, runs one op per input, and checks every result
against an answer the generator knows independently of the program:

* `VerifiedBuild` - one fresh `leafgauge build-gauge` process per op,
  rotating pzw -> pz4 -> field_v3 -> field_nonholo at the shipped
  configs; the result must exit 0 with a passing, well-formed report.
* `ColdEval` - one cold `gauge_eval` per op on the four gauges, at a
  fresh seeded point where a closed-form oracle holds.
* `Admit` - one admissibility verdict per op on a stream of
  P = |f|^2 inputs with about one negative control in ten.

The interface the harness uses: `cycle` (ops per rotation of the input
mix), `next_input(i)`, `run(inp, traced)`, `check(inp, result)` (None
when correct, else the reason), `group(inp)` (the input class),
`describe(inp)`, `final_ops()` for checks that need the whole run, and
`self_test()`, which feeds each check a corrupted copy of a result it
accepted and reports whether the check rejected it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

FIXTURES = ("pzw", "pz4", "field_v3", "field_nonholo")

REPORT_SCHEMA = "leafgauge-report@1"
ENTRY_KEYS = {"name", "residual", "tolerance", "passed", "mode", "samples", "skipped"}

# Acceptance tolerances of the two closed-form gauge oracles.
TOL_RE_Z = 1e-6
TOL_ZW = 1e-5

CHILD_TIMEOUT_S = 170


class ProgramMissing(Exception):
    """The checkout holds no leafgauge sources to benchmark."""


def import_program(root: Path):
    """Import leafgauge from the checkout's own `src`, never from elsewhere."""
    src = root / "src"
    if not (src / "leafgauge" / "__init__.py").is_file() or not (root / "fixtures").is_dir():
        raise ProgramMissing(f"no leafgauge sources under {root}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import leafgauge

    if Path(leafgauge.__file__).resolve().parent != (src / "leafgauge").resolve():
        raise ProgramMissing(f"leafgauge imported from {leafgauge.__file__}, not {src}")
    return leafgauge


def _rng(seed: int, stream: int):
    import numpy as np

    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# verified_build
# ---------------------------------------------------------------------------

def check_report_bytes(data: bytes, seed: int) -> str | None:
    """Schema and verdict checks on one build-gauge report."""
    try:
        payload = json.loads(data)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if not isinstance(payload, dict) or set(payload) != {"schema", "description", "gauge", "report"}:
        return "report top-level keys differ from the schema"
    if payload["schema"] != REPORT_SCHEMA:
        return f"schema {payload['schema']!r}"
    cfg = payload["description"].get("config", {})
    if cfg.get("seed") != seed or cfg.get("samples") != 50:
        return f"description config {cfg}"
    if payload["description"].get("fixture", {}).get("name") is None:
        return "description carries no fixture"
    rep = payload["report"]
    entries = rep.get("entries")
    if not entries or any(set(e) != ENTRY_KEYS for e in entries):
        return "report entries malformed"
    if rep.get("overall_pass") is not True:
        failing = [e["name"] for e in entries if not e["passed"]]
        return f"overall_pass is not true; failing {failing}"
    if not all(e["passed"] for e in entries):
        return "overall_pass true with a failing entry"
    return None


class VerifiedBuild:
    name = "verified_build"
    cycle = len(FIXTURES)

    def __init__(self, root: Path, seed: int, workdir: Path):
        import_program(root)
        self.root = root
        self.workdir = workdir
        self.rng = _rng(seed, 1)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # One (fixture, seed) pair per run is built twice; which one rotates
        # with the workload seed so every fixture is covered across seeds.
        self.rebuild_index = seed % self.cycle
        self.kept = None
        self.report_skip = [0, 0]
        self.report_bytes = 0

    def next_input(self, i: int):
        fixture = FIXTURES[i % self.cycle]
        return {"i": i, "fixture": fixture, "seed": int(self.rng.integers(1, 2**31 - 1))}

    def group(self, inp) -> str:
        return inp["fixture"]

    def _command(self, inp, out: Path, spans: Path | None):
        build = ["build-gauge", str(self.root / "fixtures" / f"{inp['fixture']}.json"),
                 "--seed", str(inp["seed"]), "--out", str(out)]
        if spans is None:
            return [sys.executable, "-m", "leafgauge.cli", *build]
        child = Path(__file__).resolve().parent / "child.py"
        return [sys.executable, str(child), "--spans", str(spans), "--op", str(inp["i"]), *build]

    def run(self, inp, traced: bool = False):
        out = self.workdir / f"report-{inp['i']}.json"
        spans = self.workdir / f"spans-{inp['i']}.jsonl.gz" if traced else None
        proc = subprocess.run(self._command(inp, out, spans), cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return {"code": proc.returncode, "bytes": data, "spans": spans,
                "stderr": proc.stderr.decode(errors="replace")[-400:]}

    def check(self, inp, res) -> str | None:
        if res["code"] != 0:
            return f"exit code {res['code']}: {res['stderr'].strip()}"
        bad = check_report_bytes(res["bytes"], inp["seed"])
        if bad is None:
            if inp["i"] == self.rebuild_index:
                self.kept = (inp, res["bytes"])
            entries = json.loads(res["bytes"])["report"]["entries"]
            if res["spans"] is not None:
                self.report_skip[0] += sum(e["skipped"] for e in entries)
                self.report_skip[1] += sum(e["samples"] + e["skipped"] for e in entries)
                self.report_bytes += len(res["bytes"])
        return bad

    def final_ops(self):
        """Rebuild one pair and require byte-identical output."""
        if self.kept is None:
            return [("rebuild", "no passing build to rebuild")]
        inp, first = self.kept
        again = self.run(inp)
        if again["code"] != 0:
            return [("rebuild", f"rebuild exit code {again['code']}")]
        return [("rebuild", compare_bytes(first, again["bytes"]))]

    def self_test(self):
        """Each check must reject a corrupted result."""
        if self.kept is None:
            return [("verified_build", False)]
        inp, data = self.kept
        pos = len(data) // 2
        flipped = data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:]
        wrong_schema = data.replace(REPORT_SCHEMA.encode(), b"leafgauge-report@0")
        failing = data.replace(b'"overall_pass": true', b'"overall_pass": false')
        return [
            ("changed report byte", compare_bytes(data, flipped) is not None),
            ("wrong schema", check_report_bytes(wrong_schema, inp["seed"]) is not None),
            ("failing report", check_report_bytes(failing, inp["seed"]) is not None),
        ]

    def describe(self, inp) -> str:
        return f"{inp['fixture']} --seed {inp['seed']}"


def compare_bytes(a: bytes, b: bytes) -> str | None:
    if a == b:
        return None
    at = next((k for k in range(min(len(a), len(b))) if a[k] != b[k]), min(len(a), len(b)))
    return f"rebuilt report differs from the first build at byte {at}"


# ---------------------------------------------------------------------------
# cold_eval
# ---------------------------------------------------------------------------

class ColdEval:
    name = "cold_eval"
    cycle = len(FIXTURES)

    def __init__(self, root: Path, seed: int, workdir: Path):
        lg = import_program(root)
        from leafgauge import fixtures

        self.lg = lg
        self.gauges = {}
        for name in FIXTURES:
            fx = fixtures.load_fixture(root / "fixtures" / f"{name}.json")
            cfg = fixtures.resolve_config(fx.config)
            if fx.field is not None:                      # field entry path
                V = fx.field
            else:                                         # polynomial entry path
                V = lg.select_field(fx.polynomial, fx.point)
            chart = lg.build_chart(V, fx.point, cfg.chart_cfg())
            self.gauges[name] = lg.build_gauge(
                chart, fx.degree, bracket_halfwidth=cfg.bracket_halfwidth,
                root_tol=cfg.root_tol, velocity_step=cfg.velocity_step)
        self.rng = _rng(seed, 2)
        self.last_good = {}

    def _ball_point(self, G):
        chart = G.chart
        v = self.rng.standard_normal(4)
        v /= math.sqrt(float(v @ v))
        r = chart.ball_radius * self.rng.random() ** 0.25
        return self.lg.PointC2.from_real4(chart.base4 + r * v)

    def _zw_point(self, G):
        # z*w = a real positive: z uniform in a disk around the base z,
        # a uniform around the base value, w = a / z, kept if in the ball.
        chart = G.chart
        rad = chart.ball_radius
        z0, w0 = chart.base.z, chart.base.w
        a0 = (z0 * w0).real
        while True:
            dz = complex(*self.rng.uniform(-rad, rad, 2))
            if abs(dz) > rad:
                continue
            a = a0 * float(self.rng.uniform(1 - 2 * rad, 1 + 2 * rad))
            z = z0 + dz
            q = self.lg.PointC2(z, a / z)
            if self.lg.in_chart_ball(chart, q):
                return q, a

    def next_input(self, i: int):
        name = FIXTURES[i % self.cycle]
        G = self.gauges[name]
        if name == "pz4":
            q = self._ball_point(G)
            expected, tol = q.z.real ** G.degree, TOL_RE_Z
        else:
            q, a = self._zw_point(G)
            expected, tol = a ** (G.degree / 2), TOL_ZW
        return {"fixture": name, "q": q, "expected": expected, "tol": tol}

    def group(self, inp) -> str:
        return inp["fixture"]

    def run(self, inp, traced: bool = False):
        return self.lg.gauge_eval(self.gauges[inp["fixture"]], inp["q"])

    def check(self, inp, value) -> str | None:
        exp = inp["expected"]
        if not (isinstance(value, float) and math.isfinite(value) and value > 0):
            return f"gauge value {value!r} is not a positive float"
        err = abs(value - exp) / exp
        if err > inp["tol"]:
            return f"relative oracle error {err:.3e} > {inp['tol']:.0e}"
        self.last_good[inp["fixture"]] = (inp, value)
        return None

    def final_ops(self):
        return []

    def self_test(self):
        out = []
        for name in FIXTURES:
            if name not in self.last_good:
                out.append((f"oracle {name}", False))
                continue
            inp, value = self.last_good[name]
            out.append((f"oracle {name} off by 1e-3", self.check(inp, value * (1 + 1e-3)) is not None))
        return out

    def describe(self, inp) -> str:
        return f"{inp['fixture']} q={inp['q'].to_real4()}"


# ---------------------------------------------------------------------------
# admit
# ---------------------------------------------------------------------------

# (k, number of monomials of f): every degree 2..4 with 2..k+1 monomials,
# so P = |f|^2 has m^2 terms, 4..25.
SHAPES = tuple((k, m) for k in (2, 3, 4) for m in range(2, k + 2))
N_INVOLUTIVITY = 20
SAMPLE_RADIUS = 0.05           # involutivity samples, relative to |x|
INVOLUTIVITY_TOL = 1e-8
# Generated inputs keep f(x) and f_z(x) this far from zero, relative to
# their largest possible size at |x|, so the known verdict is robust.
MARGIN = 0.1

ADMISSIBLE = ((), True, True, True)
NEGATIVE_CONTROLS = (
    # name, fixture, base point override, known verdict
    ("ball", "ball", None, (("homogeneous_even_degree", "levi_determinant_zero"), None, None, None)),
    ("pz4@(0,1)", "pz4", (0.0, 0.0, 1.0, 0.0),
     (("hessian_nonzero_at_base", "base_off_harmonic_lines"), None, None, None)),
    ("field_bad", "field_bad", None, ("field", False, False, True)),
)


class Admit:
    name = "admit"
    cycle = len(SHAPES) + 1

    def __init__(self, root: Path, seed: int, workdir: Path):
        lg = import_program(root)
        from leafgauge import fixtures

        self.lg = lg
        self.rng = _rng(seed, 3)
        self.controls = []
        for label, fname, point, verdict in NEGATIVE_CONTROLS:
            fx = fixtures.load_fixture(root / "fixtures" / f"{fname}.json")
            x = lg.PointC2.from_real4(point) if point else fx.point
            self.controls.append((label, fx, x, verdict))
        self.plan = []
        self.last_good = None

    def _samples(self, x):
        x4 = self.rng.standard_normal((N_INVOLUTIVITY, 4))
        out = []
        radius = SAMPLE_RADIUS * x.norm()
        base = x.to_real4()
        for v in x4:
            v = v / math.sqrt(float(v @ v))
            r = radius * float(self.rng.random()) ** 0.25
            out.append(self.lg.PointC2.from_real4([b + r * c for b, c in zip(base, v)]))
        return out

    def _coeff(self):
        while True:
            re = Fraction(int(self.rng.integers(-4, 5)), int(self.rng.integers(1, 5)))
            im = Fraction(int(self.rng.integers(-4, 5)), int(self.rng.integers(1, 5)))
            if re or im:
                return complex(float(re), float(im)), (re, im)

    def _square_input(self, k: int, m: int):
        lg = self.lg
        while True:
            js = sorted(int(j) for j in self.rng.choice(k + 1, size=m, replace=False))
            coeffs = {j: self._coeff() for j in js}
            size_f = sum(abs(c) for c, _ in coeffs.values())
            size_fz = sum(j * abs(c) for j, (c, _) in coeffs.items())
            for _ in range(200):
                v = self.rng.standard_normal(4)
                v *= float(self.rng.uniform(0.8, 1.2)) / math.sqrt(float(v @ v))
                z, w = complex(v[0], v[1]), complex(v[2], v[3])
                r = math.hypot(abs(z), abs(w))
                f = sum(c * z ** j * w ** (k - j) for j, (c, _) in coeffs.items())
                fz = sum(j * c * z ** (j - 1) * w ** (k - j) for j, (c, _) in coeffs.items() if j)
                if abs(f) >= MARGIN * size_f * r ** k and abs(fz) >= MARGIN * size_fz * r ** (k - 1):
                    break
            else:
                continue
            f_poly = lg.WirtingerPoly({(j, 0, k - j, 0): exact for j, (_, exact) in coeffs.items()})
            P = f_poly * f_poly.conjugate()
            x = lg.PointC2(z, w)
            label = f"|f|^2 k={k} m={m} f=" + " + ".join(
                f"({cx.real:g}{cx.imag:+g}i) z^{j} w^{k - j}" for j, (cx, _) in coeffs.items())
            return {"kind": "poly", "P": P, "x": x, "samples": self._samples(x),
                    "expected": ADMISSIBLE, "label": label, "group": f"k{k}m{m}"}

    def next_input(self, i: int):
        pos = i % self.cycle
        if pos == 0:
            order = [SHAPES[j] for j in self.rng.permutation(len(SHAPES))]
            neg_at = int(self.rng.integers(0, self.cycle))
            order.insert(neg_at, None)
            self.plan = order
        shape = self.plan[pos]
        if shape is None:
            label, fx, x, verdict = self.controls[(i // self.cycle) % len(self.controls)]
            kind = "field" if fx.field is not None else "poly"
            return {"kind": kind, "P": fx.polynomial, "V": fx.field, "x": x,
                    "samples": self._samples(x), "expected": verdict,
                    "label": label, "group": label}
        return self._square_input(*shape)

    def group(self, inp) -> str:
        return inp["group"]

    def run(self, inp, traced: bool = False):
        lg = self.lg
        x, samples = inp["x"], inp["samples"]
        if inp["kind"] == "field":
            V = inp["V"]
            return ("field", lg.homogeneity_check_field(V),
                    lg.involutivity_check(V, samples, INVOLUTIVITY_TOL).passed,
                    lg.transversality_check(V, x).passed)
        P = inp["P"]
        checklist = lg.validate_hypotheses(P, x)
        if not checklist.all_passed:
            return (tuple(checklist.failures), None, None, None)
        V = lg.select_field(P, x)
        return ((), lg.annihilation_check(P, V),
                lg.involutivity_check(V, samples, INVOLUTIVITY_TOL).passed,
                lg.transversality_check(V, x).passed)

    def check(self, inp, verdict) -> str | None:
        if verdict != inp["expected"]:
            return f"verdict {verdict} != known {inp['expected']}"
        self.last_good = (inp, verdict)
        return None

    def final_ops(self):
        return []

    def self_test(self):
        if self.last_good is None:
            return [("flipped verdict", False)]
        inp, verdict = self.last_good
        flipped = tuple((not v) if isinstance(v, bool) else v for v in verdict)
        if flipped == verdict:           # hypotheses-stage verdict: drop a failure
            flipped = (verdict[0][1:],) + verdict[1:]
        return [("flipped verdict", self.check(inp, flipped) is not None)]

    def describe(self, inp) -> str:
        return f"{inp['label']} at {inp['x'].to_real4()}"


WORKLOADS = {w.name: w for w in (VerifiedBuild, ColdEval, Admit)}
