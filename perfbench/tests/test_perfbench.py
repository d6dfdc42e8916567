"""Tests of the benchmark itself: seeded inputs, tracing, checkers.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work_dir():
    out = os.path.join(BENCH, "out")
    os.makedirs(out, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=out)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_block_inputs_deterministic_per_seed(workload):
    first = workloads.block_inputs(workload, 7, 0)
    assert first == workloads.block_inputs(workload, 7, 0)
    assert first != workloads.block_inputs(workload, 8, 0)
    assert first != workloads.block_inputs(workload, 7, 1)


def test_block_composition_is_fixed():
    for seed in (1, 2):
        kinds = Counter(item[0] for item in workloads.block_inputs("fock-gate", seed, 0))
        assert kinds == {"vacuum": 1, "coherent": 3, "smsv": 3, "tmss": 3}
        grid = workloads.block_inputs("advantage-map", seed, 0)
        assert all(1e-3 <= x <= 10 for x in grid["n_s"])
        assert all(1e-3 <= x <= 100 for x in grid["n_b"])


def _run(workload, inputs, work_dir, traced):
    """Run one block, optionally traced; returns (block, layer metrics)."""
    tr = tracer.Tracer() if traced else None
    if tr is not None:
        tr.install()
    try:
        runner = workloads.Runner(
            workload, work_dir,
            (lambda item: setattr(tr, "current_item", item)) if tr else (lambda item: None),
        )
        runner.setup()
        block = runner.run_block(inputs)
    finally:
        if tr is not None:
            tr.uninstall()
    return block, tr.layer_metrics(len(block.failures)) if tr else None


SMALL_INPUTS = {
    "advantage-map": {"n_s": [0.01, 1.0], "n_b": [0.1, 20.0], "kappa": 1e-2},
    "fock-gate": [("vacuum", 0.0, 0.3, 0.2), ("coherent", 0.2, 0.4, 0.1), ("smsv", 0.4, 0.1, 0.3)],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_identical(workload, work_dir):
    plain, _ = _run(workload, SMALL_INPUTS[workload], work_dir, traced=False)
    traced, layers = _run(workload, SMALL_INPUTS[workload], work_dir, traced=True)
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert plain.failures == traced.failures
    assert layers["trace.spans_per_item"] > 0


def test_tracer_restores_program_functions(work_dir):
    import gaussqi.divergence
    import gaussqi.sweeps

    original = gaussqi.sweeps.chernoff
    _run("advantage-map", SMALL_INPUTS["advantage-map"], work_dir, traced=True)
    assert gaussqi.sweeps.chernoff is original is gaussqi.divergence.chernoff


def test_planted_wrong_value_fails_the_item(work_dir, monkeypatch):
    import gaussqi.divergence

    real = gaussqi.divergence.q_s_general
    monkeypatch.setattr(gaussqi.divergence, "q_s_general",
                        lambda *args: real(*args) + 1e-5)
    block, _ = _run("fock-gate", SMALL_INPUTS["fock-gate"][:1], work_dir, traced=False)
    assert block.failures[0] and "Fock - Gaussian" in block.failures[0]


def test_planted_wrong_mpmath_value_fails_the_item(work_dir, monkeypatch):
    import gaussqi.highprec

    real = gaussqi.highprec.log_q_s
    monkeypatch.setattr(gaussqi.highprec, "log_q_s",
                        lambda *args, **kwargs: real(*args, **kwargs) + 1e-7)
    block, _ = _run("fock-gate", SMALL_INPUTS["fock-gate"][1:2], work_dir, traced=False)
    assert block.failures[0] and "mpmath" in block.failures[0]


def _csv(rows):
    lines = [",".join(checks.ADVANTAGE_HEADER)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _row(ns, nb, value="2.0", flags=""):
    return ["tmss", "agnostic", repr(ns), repr(nb), "0.01", "ratio_vs_coherent", value, "0.5", flags]


def test_advantage_checker_rejects_planted_values():
    grid = ([0.1, 1.0], [2.0])
    good = [_row(0.1, 2.0), _row(1.0, 2.0)]
    assert checks.check_advantage_csv(_csv(good), *grid, 0.01) == [None, None]
    for planted in (
        _row(1.0, 2.0, value="4.0"),
        _row(1.0, 2.0, value="0"),
        _row(1.0, 2.0, value="nan"),
        _row(1.0, 2.0, value=""),
        _row(1.0, 2.0, flags="maxiter"),
        _row(1.0, 3.0),
    ):
        reasons = checks.check_advantage_csv(_csv([good[0], planted]), *grid, 0.01)
        assert reasons[0] is None and reasons[1], planted
    assert checks.check_advantage_csv(_csv(good[:1]), *grid, 0.01)[1] == "row missing"
    assert all(checks.check_advantage_csv(_csv(good + good), *grid, 0.01))


def test_fock_checker_rejects_planted_values():
    log_q = math.log(0.9)
    assert checks.check_fock_item([(0.5, 0.9, 0.9 + 1e-9, log_q + 1e-9)]) is None
    assert checks.check_fock_item([(0.3, 0.9, 0.9, log_q), (0.5, 0.9, 0.9 + 2e-6, log_q)])
    assert checks.check_fock_item([(0.5, float("nan"), 0.9, log_q)])
    assert checks.check_fock_item([(0.5, 0.9, 0.9, log_q + 1e-7)])
    assert checks.check_fock_item([(0.5, 0.9, 0.9, float("nan"))])
    assert checks.check_fock_item([(0.5, 0.0, 0.0, -1e3)])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_seconds_scale_with_the_kernel(workload):
    kernel = reference.Kernel(workload)
    block = {"seconds": 2.0, "latencies_ms": [500.0, 1500.0],
             "kernel_s": [kernel.nominal_s, kernel.nominal_s]}
    assert run._ref_seconds(kernel, block) == pytest.approx(2.0)
    # A host twice as slow around the second item halves its share.
    block["kernel_s"][1] *= 2
    assert run._ref_seconds(kernel, block) == pytest.approx(0.5 + 0.75)
    assert kernel.median_seconds() > 0


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    # root [0, 100] has children [10, 30] and [40, 90]; the second has a child [50, 60].
    for name, start, end, parent in ((0, 0, 100, -1), (0, 10, 30, 0), (0, 40, 90, 0), (0, 50, 60, 2)):
        tr.name.append(name)
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
        tr.item.append(0)
    assert tr.self_times_ns() == [30, 20, 40, 10]


def test_run_exits_nonzero_without_program_sources(work_dir):
    shutil.copytree(BENCH, os.path.join(work_dir, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work_dir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "advantage-map",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work_dir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
