"""Fast self-test of the benchmark: span arithmetic, wrapper hygiene, error counting."""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from harness import Checks, Rep  # noqa: E402


def _attributes():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.WRAP_POINTS
    }


class StubWorkload:
    """Records what the library's wrap points hold while its task runs."""

    name = "stub"

    def __init__(self, fail_check=False):
        self.fail_check = fail_check
        self.seen = []

    def setup(self, seed, workdir):
        return seed

    def digest(self, inputs):
        return str(inputs)

    def warm_up(self, inputs, checks):
        pass

    def task(self, inputs):
        self.seen.append(_attributes())
        return Rep(0.001, 1, 0.001, None)

    trace_task = task

    def layer_extras(self, inputs, ref, checks):
        return {}

    def check(self, inputs, output, checks):
        checks.check("stub output", not self.fail_check)


def test_self_time_is_parent_minus_children():
    ticks = iter([0, 10, 12, 20, 30, 40, 70, 100])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("parent"):
        with tracer.span("child"):  # 10..30, holding a grandchild 12..20
            with tracer.span("grandchild"):
                pass
        with tracer.span("child"):  # 40..70
            pass
    parent, child, grandchild, second = (t * 1e9 for t in tracer.self_times())
    assert round(parent) == 100 - 20 - 30
    assert round(child) == 20 - 8
    assert round(grandchild) == 8
    assert round(second) == 30
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_timed_runs_install_no_wrappers(tmp_path):
    originals = _attributes()
    stub = StubWorkload()
    harness.measure(stub, 0, 0.0, tmp_path, Checks(), import_probe=lambda: 0.0)
    assert len(stub.seen) == harness.MIN_TASK_REPEATS
    assert all(seen == originals for seen in stub.seen)

    traced = StubWorkload()
    harness.measure_traced(traced, 0, tmp_path, Checks())
    untraced_pass, traced_pass = traced.seen
    assert untraced_pass == originals
    assert all(traced_pass[key] is not originals[key] for key in originals)
    assert _attributes() == originals


def test_failed_output_check_raises_error_rate(tmp_path):
    passing, failing = Checks(), Checks()
    harness.measure(StubWorkload(), 0, 0.0, tmp_path, passing, import_probe=lambda: 0.0)
    harness.measure(StubWorkload(fail_check=True), 0, 0.0, tmp_path, failing, import_probe=lambda: 0.0)
    assert passing.failed == 0 and passing.error_rate == 0.0
    assert failing.failed == harness.MIN_TASK_REPEATS
    assert failing.error_rate > passing.error_rate


def test_grid_check_counts_a_wrongly_skipped_cell():
    import workloads
    from trailgrade import experiments

    def results(skipped):
        return [
            experiments.ExperimentResult(w, k, experiments.SKIPPED_KERNEL_TOO_LONG)
            if (w, k) in skipped
            else experiments.ExperimentResult(w, k, experiments.COMPLETED, 0.5, 1, 10, 12)
            for w in experiments.WINDOW_MS_GRID
            for k in experiments.KERNEL_LEN_GRID
        ]

    grid, checks = workloads.GridSweep(jobs=1), Checks()
    grid.check(None, (results(workloads.EXPECTED_SKIPPED), None), checks)
    assert checks.failed == 0
    grid.check(None, (results(workloads.EXPECTED_SKIPPED | {(2000, 40)}), None), checks)
    assert checks.failed > 0 and checks.error_rate > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
