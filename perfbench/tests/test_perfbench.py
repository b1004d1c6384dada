"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

They are kept out of the repository's main test run: they time nothing,
but they execute whole workload passes, traced and untraced.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import DEFAULT_SEED, HELD_OUT_SEED, prepare_environment, tail  # noqa: E402

prepare_environment()

import povmcoarse  # noqa: E402
import pytest  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, region_digest  # noqa: E402


def _verdicts(outcomes):
    return [type(c).__name__ if isinstance(c, Exception) else c.verdict for c in outcomes]


def _traced_pass(workload, inputs):
    with Tracer() as tracer:
        outcomes, _ = workload.run_pass(inputs)
    return outcomes, tracer


@pytest.mark.parametrize("name", ["lp_generic", "lp_degenerate"])
def test_traced_and_untraced_lp_verdicts_agree(name):
    workload = WORKLOADS[name]
    inputs = workload.build(DEFAULT_SEED)
    untraced, _ = workload.run_pass(inputs)
    traced, _ = _traced_pass(workload, inputs)
    assert _verdicts(traced) == _verdicts(untraced)
    assert workload.gate(inputs, [untraced, traced])[1] == 0


def test_traced_and_untraced_region_scan_digests_agree():
    workload = WORKLOADS["region_scan"]
    argv = workload.build(DEFAULT_SEED)
    untraced, _ = workload.run_pass(argv)
    traced, tracer = _traced_pass(workload, argv)
    assert region_digest(traced[0][1]) == region_digest(untraced[0][1])
    assert workload.gate(argv, [untraced, traced]) == (2 * 101**2, 0, [])
    assert tracer.layer_times()["cli"]["calls"] > 0


@pytest.mark.parametrize("name", ["lp_degenerate", "suite_sweep"])
def test_traced_counts_repeat_for_one_seed(name):
    workload = WORKLOADS[name]
    inputs = workload.build(HELD_OUT_SEED)
    if name == "suite_sweep":
        inputs = inputs[:1]  # one dimension keeps the test short
    runs = [_traced_pass(workload, inputs)[1] for _ in range(2)]
    calls = [{k: v["calls"] for k, v in t.layer_times().items()} for t in runs]
    assert calls[0] == calls[1]
    assert runs[0].counters.pivots == runs[1].counters.pivots > 0
    assert vars(runs[0].counters) == vars(runs[1].counters)


def test_tracer_restores_the_library():
    before = (povmcoarse.check_coarser, povmcoarse.coarseness.lp_feasible,
              povmcoarse.DensityMatrix.__init__)
    with Tracer():
        assert povmcoarse.coarseness.lp_feasible is not before[1]
    after = (povmcoarse.check_coarser, povmcoarse.coarseness.lp_feasible,
             povmcoarse.DensityMatrix.__init__)
    assert after == before


def test_self_times_cover_the_traced_wall_time():
    workload = WORKLOADS["lp_degenerate"]
    _, tracer = _traced_pass(workload, workload.build(DEFAULT_SEED))
    layers = tracer.layer_times()
    covered = sum(v["self_s"] for v in layers.values())
    assert set(layers) == set(LAYERS)
    assert 0.0 <= tracer.wall_s - covered < 0.05 * tracer.wall_s


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_mix_is_the_same_for_both_recorded_seeds(name):
    workload = WORKLOADS[name]
    assert workload.mix(workload.build(DEFAULT_SEED)) == workload.mix(workload.build(HELD_OUT_SEED))


def test_lp_mixes_pair_every_feasible_instance_with_an_infeasible_one():
    generic = WORKLOADS["lp_generic"].mix(WORKLOADS["lp_generic"].build(DEFAULT_SEED))
    degenerate = WORKLOADS["lp_degenerate"].mix(WORKLOADS["lp_degenerate"].build(DEFAULT_SEED))
    assert generic["feasible"] == generic["infeasible"] and generic["degenerate"] == 0
    assert degenerate["feasible"] == degenerate["infeasible"] == degenerate["degenerate"]


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(100))
    pct, value = tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 90.0
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
