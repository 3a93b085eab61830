"""Shared builders and session-scoped charts/gauges for the test suite.

Charts and gauges are expensive enough to share: they are immutable after
construction, so session scope is safe.  All solver tolerances here are
the defaults (ODE 1e-12, projection 1e-13 relative); per-fixture
chart radii and brackets are sized so the closed-form oracle regions lie
inside the evaluable domain.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from leafgauge import (
    ChartConfig,
    FlowConfig,
    PointC2,
    VectorFieldC2,
    WirtingerPoly,
    build_chart,
    build_gauge,
    select_field,
)
from leafgauge import fields, wirtinger

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

FLOW_TIGHT = FlowConfig()

# Populated by the acceptance module; echoed after the run so the
# per-criterion verdicts always appear in the terminal output.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def chart_cfg(radius: float) -> ChartConfig:
    return ChartConfig(radius_scale=radius)


# -- polynomial and field builders ------------------------------------------

def make_pzw() -> WirtingerPoly:
    """|z w|^2 = z zbar w wbar."""
    return WirtingerPoly.monomial(1, 1, 1, 1)


def make_pz4() -> WirtingerPoly:
    """|z|^4 = z^2 zbar^2."""
    return WirtingerPoly.monomial(2, 2, 0, 0)


def make_ball() -> WirtingerPoly:
    """|z|^2 + |w|^2."""
    return WirtingerPoly.monomial(1, 1, 0, 0) + WirtingerPoly.monomial(0, 0, 1, 1)


def make_field_v3() -> VectorFieldC2:
    """(-z, w): linear field tangent to the level sets of z*w."""
    return VectorFieldC2(WirtingerPoly.monomial(1, 0, 0, 0, -1),
                         WirtingerPoly.monomial(0, 0, 1, 0), 1)


def make_field_nonholo() -> VectorFieldC2:
    """(-z zbar, zbar w): same complex span as (-z, w) where zbar != 0,
    with non-holomorphic components."""
    return VectorFieldC2(WirtingerPoly.monomial(1, 1, 0, 0, -1),
                         WirtingerPoly.monomial(0, 1, 1, 0), 2)


def make_field_curved() -> VectorFieldC2:
    """(-z, 2w): tangent to the level sets of z^2 w, whose leaf-space curves
    are curved, unlike those of the shipped fixtures."""
    return VectorFieldC2(WirtingerPoly.monomial(1, 0, 0, 0, -1),
                         WirtingerPoly.monomial(0, 0, 1, 0, 2), 1)


def make_field_bad() -> VectorFieldC2:
    """(1, zbar): not involutive, and inhomogeneous for its declared degree."""
    return VectorFieldC2(WirtingerPoly.constant(1),
                         WirtingerPoly.monomial(0, 1, 0, 0), 1)


X_PZW = PointC2(1, 1)
X_PZ4 = PointC2(1, 0)


def serial(monkeypatch) -> None:
    """Run the verification suite in one process, as on a host without
    os.sched_getaffinity: work done in a forked worker is not counted here."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)


@pytest.fixture
def forks(monkeypatch):
    """A one-element list counting os.fork calls, with the verification
    suite split across two processes whatever the host's core count: the
    process sees cores {0, 1}."""
    calls = [0]
    fork = os.fork

    def counted():
        calls[0] += 1
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return calls


def wrap_steps(monkeypatch, wrap) -> None:
    """Replace each field's generated flow step of pair "dp5" or "dop853"
    by wrap(pair, step).  The class-level properties over the cached steps
    take precedence over the instance caches, so fields built earlier are
    wrapped too."""
    for pair in ("dp5", "dop853"):
        cached = getattr(VectorFieldC2, f"_{pair}")
        monkeypatch.setattr(VectorFieldC2, f"_{pair}", property(
            lambda self, pair=pair, cached=cached: wrap(pair, cached.__get__(self, VectorFieldC2))))


@pytest.fixture
def field_evals(monkeypatch):
    """A one-element list counting field evaluations, a deterministic
    measure of solver work: each call of VectorFieldC2.eval_complex, six for
    each call of a field's generated DP5(4) step (its stages 2-7) and twelve
    for each call of its DOP853 step (stages 2-13).  A landed point's
    field value comes from the FSAL stage of the step that landed there,
    counted with that step, so the leaf solver and the second leg of
    leaf_flow_map take it without an evaluation.  Fields built earlier
    count too.  The verification suite runs in this process, so its work
    counts too."""
    serial(monkeypatch)
    calls = [0]
    evaluate = VectorFieldC2.eval_complex

    def counted(self, z, w):
        calls[0] += 1
        return evaluate(self, z, w)

    def counting(pair, step):
        stages = {"dp5": 6, "dop853": 12}[pair]

        def counted_step(*args):
            calls[0] += stages
            return step(*args)

        return counted_step

    monkeypatch.setattr(VectorFieldC2, "eval_complex", counted)
    wrap_steps(monkeypatch, counting)
    return calls


@pytest.fixture
def flow_steps(monkeypatch):
    """Calls of each field's generated flow steps by pair, a deterministic
    measure of the step-size control: {"dp5": [steps, rejected], "dop853":
    [steps, rejected]}, where a step is rejected when its error norm is not
    at most 1, as flows._flow decides.  A step that raises is not counted.
    Fields built earlier count too, and the verification suite runs in this
    process."""
    serial(monkeypatch)
    counts = {"dp5": [0, 0], "dop853": [0, 0]}

    def counting(pair, step):
        def counted_step(*args):
            out = step(*args)
            counts[pair][0] += 1
            counts[pair][1] += not out[-1] <= 1.0
            return out

        return counted_step

    wrap_steps(monkeypatch, counting)
    return counts


@pytest.fixture
def poly_diffs(monkeypatch):
    """A one-element list counting exact formal derivatives (poly_diff
    calls), the work of deriving complex Hessians and field Jacobians, with
    the verification suite in this process."""
    serial(monkeypatch)
    calls = [0]
    diff = wirtinger.poly_diff

    def counted(p, var):
        calls[0] += 1
        return diff(p, var)

    for module in (wirtinger, fields):
        monkeypatch.setattr(module, "poly_diff", counted)
    return calls


@pytest.fixture
def poly_products(monkeypatch):
    """A one-element list counting exact polynomial products
    (WirtingerPoly.__mul__ calls, scale included), the work of Levi
    determinants and annihilation tests, with the verification suite in
    this process."""
    serial(monkeypatch)
    calls = [0]
    mul = WirtingerPoly.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(WirtingerPoly, "__mul__", counted)
    return calls


@pytest.fixture
def code_generations(monkeypatch):
    """A one-element list counting instantiations of generated code
    (fields._exec calls: a field, its Jacobian, its first flow stage or one
    of its flow steps), with
    the verification suite in this process.  The code itself is compiled once
    per shape; code_compiles counts that."""
    serial(monkeypatch)
    calls = [0]
    run = fields._exec

    def counted(kind, shape, ns):
        calls[0] += 1
        return run(kind, shape, ns)

    monkeypatch.setattr(fields, "_exec", counted)
    return calls


@pytest.fixture
def code_compiles(monkeypatch):
    """A one-element list counting compiles of generated code, which only a
    shape missing from the code cache costs; the cache starts empty."""
    fields._code.cache_clear()
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return compile(*args)

    monkeypatch.setattr(fields, "compile", counted, raising=False)
    return calls


# -- session charts and gauges ----------------------------------------------

@pytest.fixture(scope="session")
def chart_pz4():
    return build_chart(select_field(make_pz4(), X_PZ4), X_PZ4, chart_cfg(0.30))


@pytest.fixture(scope="session")
def chart_pzw():
    return build_chart(select_field(make_pzw(), X_PZW), X_PZW, chart_cfg(0.30))


@pytest.fixture(scope="session")
def chart_v3():
    return build_chart(make_field_v3(), X_PZW, chart_cfg(0.30))


@pytest.fixture(scope="session")
def chart_nonholo():
    return build_chart(make_field_nonholo(), X_PZW, chart_cfg(0.30))


@pytest.fixture(scope="session")
def gauge_pz4_n4(chart_pz4):
    return build_gauge(chart_pz4, 4, bracket_halfwidth=0.60)


@pytest.fixture(scope="session")
def gauge_pz4_n2(chart_pz4):
    return build_gauge(chart_pz4, 2, bracket_halfwidth=0.60)


@pytest.fixture(scope="session")
def gauge_pzw_n4(chart_pzw):
    return build_gauge(chart_pzw, 4, bracket_halfwidth=0.45)


@pytest.fixture(scope="session")
def gauge_v3_n2(chart_v3):
    return build_gauge(chart_v3, 2, bracket_halfwidth=0.45)


@pytest.fixture(scope="session")
def gauge_nonholo_n2(chart_nonholo):
    return build_gauge(chart_nonholo, 2, bracket_halfwidth=0.45)
