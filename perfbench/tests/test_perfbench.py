"""Tests of the benchmark itself: span arithmetic, tracing, output checks.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
import numpy as np
import pytest

import reillylab
import layers
import spans
import workloads


def span(sid, parent, name, start, end, op=1):
    return (sid, parent, op, name, start, end)


class TestSelfTimes:
    TREE = [
        span("1", None, "op", 0.0, 10.0),
        span("2", "1", "reports", 1.0, 6.0),
        span("3", "2", "immersion.frame_at", 2.0, 3.0),
        span("4", "2", "immersion.frame_at", 3.5, 4.0),
        span("5", "1", "spectra.solve", 7.0, 9.5),
        span("6", "5", "spectra.factor", 7.0, 8.0),
    ]

    def test_self_is_duration_minus_children(self):
        assert spans.self_times(self.TREE) == {
            "1": 2.5, "2": 3.5, "3": 1.0, "4": 0.5, "5": 1.5, "6": 1.0}

    def test_self_times_sum_to_operation_time(self):
        ops = spans.per_operation(self.TREE, {})
        values = layers.layer_values(ops[1])
        assert values["self_sum_s"] == pytest.approx(10.0)
        assert values["op.s"] == 10.0
        assert values["reports.self_s"] == pytest.approx(3.5)
        assert values["immersion.frame_at.s"] == pytest.approx(1.5)
        assert values["immersion.frame_at.calls"] == 2
        assert values["spectra.solve.s"] == 2.5
        assert values["spectra.factor.s"] == 1.0

    def test_overlapping_and_overhanging_children_count_once(self):
        tree = [span("1", None, "op", 0.0, 4.0),
                span("2", "1", "cli", 1.0, 3.0),
                span("3", "1", "cli", 2.0, 5.0)]
        assert spans.self_times(tree)["1"] == pytest.approx(1.0)
        total = spans.per_operation(tree, {})[1]["total"]["cli"]
        assert total == pytest.approx(4.0)

    def test_spans_outside_an_operation_are_ignored(self):
        tree = self.TREE + [span("9", None, "mesh", 20.0, 21.0, op=None)]
        assert list(spans.per_operation(tree, {})) == [1]


def test_missing_target_is_reported_not_raised():
    original = reillylab.fem.DiscreteGeometry.__init__
    targets = (
        spans.Target("gone", "reillylab.reports", "no_such_function"),
        spans.Target("gone", "reillylab.no_such_module", "anything"),
        spans.Target("gone", "reillylab.fem", "NoSuchClass.method"),
        spans.Target("fem.geometry", "reillylab.fem",
                     "DiscreteGeometry.__init__"),
    )
    tracer = spans.Tracer()
    restore = spans.install(tracer, targets)
    try:
        assert tracer.missing == {"reillylab.reports.no_such_function",
                                  "reillylab.no_such_module.anything",
                                  "reillylab.fem.NoSuchClass.method"}
        assert reillylab.fem.DiscreteGeometry.__init__ is not original
    finally:
        restore()
    assert reillylab.fem.DiscreteGeometry.__init__ is original


def traced_counts(workload, seed, workdir):
    """Counts of one traced operation, as the traced run derives them."""
    state = workload.prepare(seed, workdir)
    tracer = spans.Tracer()
    restore = spans.install(tracer, layers.TARGETS)
    try:
        with tracer.operation(1):
            result = workload.run(state, tracer)
    finally:
        restore()
    assert not tracer.missing
    values = layers.layer_values(
        spans.per_operation(tracer.spans, tracer.counts)[1])
    return result, {k: v for k, v in values.items() if isinstance(v, int)}


@pytest.mark.parametrize("geometry, operator, level", [
    (lambda: reillylab.sphere(2, 1.0, 1, 0.0), "identity", 4),
    (lambda: reillylab.ellipsoid((1.0, 1.0, 1.3)), "newton:0", 3),
])
def test_traced_counts_repeat_at_one_seed(tmp_path, geometry, operator,
                                          level):
    workload = workloads.FemWorkload("small", geometry, operator, level)
    _, first = traced_counts(workload, 7, tmp_path)
    _, second = traced_counts(workload, 7, tmp_path)
    assert first == second
    assert first["immersion.frame_at.calls"] >= first["mesh.vertices"] > 0


def test_lab_session_traced_counts_repeat(tmp_path):
    lab = workloads.LabSession()
    counts = []
    for _ in range(2):
        result, values = traced_counts(lab, 3, tmp_path)
        assert lab.check(result, workloads.load_reference())[0] == []
        counts.append(values)
    assert counts[0] == counts[1]
    assert counts[0]["balance.iterations"] > 0
    assert counts[0]["moebius.gamma_calls"] > 0


class TestFemCheck:
    workload = workloads.WORKLOADS["sphere_l6"]
    ref = workloads.load_reference()["sphere_l6"]

    def report(self, scale=1.0, **kw):
        fields = dict(lambda2=self.ref["lambda2"] * scale, rhs=self.ref["rhs"],
                      asserted=True, passed=True)
        fields.update(kw)
        return types.SimpleNamespace(**fields)

    def failures(self, report):
        return self.workload.check(report, workloads.load_reference())[0]

    def test_pinned_values_pass(self):
        assert self.failures(self.report(1.0 + 1e-13)) == []

    def test_perturbed_lambda2_fails(self):
        failures = self.failures(self.report(1.0 + 1e-8))
        assert any("lambda2" in f for f in failures)

    def test_unasserted_bound_fails(self):
        assert self.failures(self.report(asserted=False)) != []

    def test_relerr_against_closed_form(self):
        facts = self.workload.check(self.report(),
                                    workloads.load_reference())[1]
        assert facts["lambda2_relerr"] == pytest.approx(
            abs(self.ref["lambda2"] - 2.0) / 2.0)


class TestLabCheck:
    ref = workloads.load_reference()["lab_session"]

    def result(self, tmp_path, codes=None, lambda2=None):
        lams = dict(self.ref["lambda2"], **(lambda2 or {}))
        for name, lam in lams.items():
            (tmp_path / "run" / name).mkdir(parents=True)
            (tmp_path / "run" / name / "report.json").write_text(
                json.dumps([{"lambda2": lam}]))
        run_out = "".join("%-40s ok\n" % name for name in lams)
        return workloads.LabResult(
            tmp_path, dict({"run": 0, "balance": 0}, **(codes or {})),
            {"run": run_out, "balance": "converged True after 5 iterations"},
            {"run": "", "balance": ""}, 1000)

    def failures(self, result):
        return workloads.LabSession().check(result,
                                            workloads.load_reference())[0]

    def test_pinned_values_pass(self, tmp_path):
        assert self.failures(self.result(tmp_path)) == []

    def test_nonzero_exit_fails(self, tmp_path):
        failures = self.failures(self.result(tmp_path, codes={"balance": 2}))
        assert any("balance exited 2" in f for f in failures)

    def test_perturbed_lambda2_fails(self, tmp_path):
        lam = self.ref["lambda2"]["veronese"] * (1.0 + 1e-8)
        failures = self.failures(self.result(tmp_path,
                                             lambda2={"veronese": lam}))
        assert any("veronese" in f for f in failures)


def test_rotation_is_proper_and_seed_zero_is_identity():
    assert np.array_equal(workloads.rotation(0), np.eye(3))
    q = workloads.rotation(5)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(q) == pytest.approx(1.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere_l6",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
