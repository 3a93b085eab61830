"""Report assembly, determinism, and the sampling-based checks."""

import os
import signal
import threading

import numpy as np
import pytest

from leafgauge import verify
from leafgauge import (
    NumericError,
    RootSearchError,
    assemble_report,
    build_gauge,
    check_chart,
    check_homogeneity,
    check_leaf_constancy,
    check_ray_consistency,
    check_scaling_laws,
    report_to_json,
    report_to_text,
    run_standard_suite,
)
from leafgauge.verify import (CheckEntry, _min_singular_value, check_entry, leaf_coords_jacobian,
                             run_checks)


def test_empty_report_passes_vacuously():
    report = assemble_report([])
    assert report.overall_pass
    assert report.note == "no checks run"


def test_single_failure_fails_overall():
    entries = [check_entry("a", 1.0, 0.5), check_entry("b", 0.1, 0.5)]
    report = assemble_report(entries)
    assert not report.overall_pass
    assert [e.name for e in report.entries] == ["a", "b"]


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate check"):
        assemble_report([check_entry("a", 0.0, 1.0), check_entry("a", 0.0, 1.0)])


def test_entries_sorted_by_name():
    report = assemble_report([check_entry("zeta", 0, 1), check_entry("alpha", 0, 1)])
    assert [e.name for e in report.entries] == ["alpha", "zeta"]


def test_loosening_tolerances_keeps_passing():
    residuals = [0.3, 1e-9, 0.9]
    tight = [check_entry(f"c{i}", r, tol) for i, (r, tol) in
             enumerate(zip(residuals, [0.5, 1e-8, 1.0]))]
    assert assemble_report(tight).overall_pass
    loose = [check_entry(f"c{i}", r, tol * 10) for i, (r, tol) in
             enumerate(zip(residuals, [0.5, 1e-8, 1.0]))]
    assert assemble_report(loose).overall_pass
    # and for lower bounds, loosening means lowering the bound
    assert check_entry("m", 0.5, 1e-3, mode="min").passed
    assert check_entry("m", 0.5, 1e-4, mode="min").passed


def test_reports_deterministic(chart_pzw):
    a = check_chart(chart_pzw, n_samples=10, seed=0x5EED)
    b = check_chart(chart_pzw, n_samples=10, seed=0x5EED)
    assert a == b
    ra, rb = assemble_report(a), assemble_report(b)
    assert report_to_json(ra) == report_to_json(rb)
    assert report_to_text(ra) == report_to_text(rb)


def test_seed_changes_samples(chart_pzw):
    a = check_chart(chart_pzw, n_samples=10, seed=1)
    b = check_chart(chart_pzw, n_samples=10, seed=2)
    # residuals are sample-dependent; at least one entry should differ
    assert any(ea.residual != eb.residual for ea, eb in zip(a, b))


def test_standard_suite_passes(gauge_v3_n2):
    entries = run_standard_suite(gauge_v3_n2, n_samples=20, seed=0x5EED)
    report = assemble_report(entries)
    assert report.overall_pass, report_to_text(report)
    names = {e.name for e in entries}
    assert {"chart_u_leaf_constancy", "chart_submersion_sv",
            "chart_leaf_orthogonality", "chart_leaf_scaling",
            "gauge_leaf_constancy", "gauge_leaf_derivative",
            "gauge_homogeneity", "gauge_positivity",
            "gauge_root_consistency", "gauge_scale_reciprocity",
            "gauge_euler_identity", "ray_consistency"} <= names


def test_individual_checks_pass(gauge_pzw_n4):
    for entries in (
        check_leaf_constancy(gauge_pzw_n4, 15, 0x5EED),
        check_homogeneity(gauge_pzw_n4, (0.96, 1.04), 15, 0x5EED),
        check_ray_consistency(gauge_pzw_n4.chart, 15, 0x5EED),
        check_scaling_laws(gauge_pzw_n4, 15, 0x5EED),
    ):
        assert all(e.passed for e in entries)


def test_too_many_skips_is_an_error(chart_pzw):
    # a tiny bracket makes nearly every scaled sample leave the gauge domain
    tiny = build_gauge(chart_pzw, 2, bracket_halfwidth=0.01)
    with pytest.raises((NumericError,)):
        check_homogeneity(tiny, (0.92, 1.08), 12, 0x5EED)


@pytest.mark.parametrize("check, name", [
    (lambda G: check_chart(G.chart, n_samples=0), "chart leaf constancy"),
    (lambda G: check_leaf_constancy(G, n_samples=0), "gauge leaf constancy"),
    (lambda G: check_homogeneity(G, n_samples=0), "gauge homogeneity"),
    (lambda G: check_ray_consistency(G.chart, n_samples=0), "ray consistency"),
    (lambda G: check_scaling_laws(G, n_samples=0), "gauge scale reciprocity"),
])
def test_zero_used_samples_is_an_error(gauge_pz4_n4, check, name):
    # a check that measured nothing must not pass vacuously
    with pytest.raises(NumericError, match=f"^{name}: no sample was used"):
        check(gauge_pz4_n4)


def test_entry_is_frozen():
    e = CheckEntry(name="x", residual=0.0, tolerance=1.0, passed=True)
    with pytest.raises(AttributeError):
        e.passed = False


def test_gauge_constant_across_base_leaf(gauge_pz4_n2):
    # w-independent closed form: both points sit on the base leaf {z = 1}
    from leafgauge import PointC2, gauge_eval
    assert abs(gauge_eval(gauge_pz4_n2, PointC2(1, 0.3)) - 1) <= 1e-9
    assert abs(gauge_eval(gauge_pz4_n2, PointC2(1, -0.2 + 0.1j)) - 1) <= 1e-9


def test_gauge_on_base_leaf_of_saddle(gauge_pzw_n4):
    # leaf mates on {z w = 1} all carry the base gauge value
    from leafgauge import PointC2, gauge_eval
    for z in (1.05, 0.92, 1.0 + 0.08j):
        q = PointC2(z, 1 / z)
        assert abs(gauge_eval(gauge_pzw_n4, q) - 1) <= 1e-6


def test_homogeneity_worked_values(gauge_pz4_n2, gauge_pzw_n4):
    from leafgauge import PointC2, gauge_eval
    # degree 2 along the real axis: g(1.05 * base) = 1.05^2
    assert gauge_eval(gauge_pz4_n2, PointC2(1.05, 0)) == pytest.approx(1.1025, rel=1e-9)
    # degree 4 at the scaled base point of the saddle foliation
    got = gauge_eval(gauge_pzw_n4, PointC2(0.95, 0.95))
    assert got == pytest.approx(0.95 ** 4, rel=1e-8)


def test_submersion_singular_value_matches_numpy(chart_pz4, chart_pzw, chart_v3, chart_nonholo):
    # closed form det(J J^T) / l_max against numpy's SVD, on random 2x4
    # matrices and on the chart Jacobians the check measures
    rng = np.random.default_rng(4)
    cases = [tuple(map(tuple, rng.standard_normal((2, 4)))) for _ in range(500)]
    cases += [leaf_coords_jacobian(c, c.base, 1e-4 * c.base_norm)
              for c in (chart_pz4, chart_pzw, chart_v3, chart_nonholo)]
    for J in cases:
        ref = np.linalg.svd(np.asarray(J), compute_uv=False)[-1]
        assert _min_singular_value(J) == pytest.approx(ref, rel=1e-12)


# -- the suite across two processes ------------------------------------------

def _raise(exc):
    def check(*args):
        raise exc
    return check


def _assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_side_error_surfaces(gauge_pz4_n4, forks, monkeypatch):
    monkeypatch.setattr(verify, "check_leaf_constancy", _raise(RootSearchError("boom")))
    with pytest.raises(RootSearchError, match="^boom$"):
        run_standard_suite(gauge_pz4_n4, n_samples=10)
    assert forks[0] == 1
    _assert_no_worker_left()


def _dying_fork(death):
    fork = os.fork

    def dying_fork():
        # the worker dies before it writes anything
        pid = fork()
        if pid == 0:
            death()
        return pid
    return dying_fork


@pytest.mark.parametrize("parent_check, first, worker_dies", [
    ("check_chart", "parent", False),           # serial index 0 comes before 1
    ("check_chart", "parent", True),            # whatever happens to the worker
    ("check_homogeneity", "worker", False),     # serial index 1 comes before 2
])
def test_first_error_in_serial_order_wins(gauge_pz4_n4, forks, monkeypatch, parent_check, first,
                                          worker_dies):
    # leaf constancy runs in the worker, chart and homogeneity here
    if worker_dies:
        monkeypatch.setattr(os, "fork", _dying_fork(lambda: os._exit(1)))
    errors = {"worker": RootSearchError("boom"), "parent": NumericError("parent")}
    monkeypatch.setattr(verify, "check_leaf_constancy", _raise(errors["worker"]))
    monkeypatch.setattr(verify, parent_check, _raise(errors["parent"]))
    with pytest.raises(NumericError) as info:
        run_standard_suite(gauge_pz4_n4, n_samples=10)
    assert type(info.value) is type(errors[first])
    assert str(info.value) == str(errors[first])
    assert forks[0] == 1
    _assert_no_worker_left()


@pytest.mark.parametrize("death", [lambda: os._exit(1),
                                   lambda: os.kill(os.getpid(), signal.SIGKILL)])
def test_dead_worker_is_runtime_error(gauge_pz4_n4, forks, monkeypatch, death):
    monkeypatch.setattr(os, "fork", _dying_fork(death))
    with pytest.raises(RuntimeError, match="wait status"):
        run_standard_suite(gauge_pz4_n4, n_samples=10)
    assert forks[0] == 1
    _assert_no_worker_left()


def test_unpicklable_result_is_runtime_error(forks):
    tasks = [(lambda: [check_entry("a", 0.0, 1.0)], False), (lambda: [lambda: 0], True)]
    with pytest.raises(RuntimeError, match="wait status"):
        run_checks(tasks)
    assert forks[0] == 1


def _tasks():
    return [(lambda: [check_entry("a", 0.0, 1.0)], False),
            (lambda: [check_entry("b", 2.0, 1.0)], True),
            (lambda: [check_entry("c", 0.0, 1.0), check_entry("d", 0.0, 1.0)], True),
            (lambda: [check_entry("e", 0.0, 1.0)], False)]


def test_split_keeps_serial_order(forks):
    assert [e.name for e in run_checks(_tasks())] == ["a", "b", "c", "d", "e"]
    assert forks[0] == 1


def test_no_fork_with_a_second_thread(forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        entries = run_checks(_tasks())
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks[0] == 0
    assert [e.name for e in entries] == ["a", "b", "c", "d", "e"]


def test_no_fork_on_one_core(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert [e.name for e in run_checks(_tasks())] == ["a", "b", "c", "d", "e"]
    assert forks[0] == 0
