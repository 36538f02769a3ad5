"""Tests of the benchmark itself: the metric contract, tiny runs of every
workload with their output checks on, span nesting and accounting, and
the exactness of the simulator's cost-model counts.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import report
from perfbench.layers import LayerCounts, instrument_runtime
from perfbench.live import LIVE_CHURN, LIVE_HOT, run_live
from perfbench.run import WORKLOADS
from perfbench.simwan import SimWanConfig, run_sim_wan
from perfbench.spans import Instrumenter, LayerStats, SpanRecorder
from perfbench.speed import REFERENCE, SpeedMeter

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY_HOT = dataclasses.replace(LIVE_HOT, setup_repeats=1)
TINY_CHURN = dataclasses.replace(LIVE_CHURN, read_users=300, setup_repeats=1)
TINY_WAN = SimWanConfig(users=300, duration=20.0)
END_TO_END = {name for name, *_ in report.END_TO_END}
PER_LAYER = {name for name, *_ in report.PER_LAYER}

#: Per-layer metrics that are counts of simulated work, hence exact per seed.
COUNTS = (
    "core.cache.hit_ratio",
    "auth.signatures.signs_per_miss",
    "protocols.planner.queries_per_miss",
    "protocols.planner.rounds_per_miss",
    "protocols.dissemination.msgs_per_write",
    "protocols.dissemination.quorum_acks",
    "protocols.revocation.forwards_per_revoke",
    "core.cache.flushes_per_revoke",
    "sim.engine.events_per_decision",
    "sim.engine.dead_pop_ratio",
    "sim.network.msgs_per_decision",
    "sim.network.drop_ratio",
)


def tiny_run(workload, seed, trace, spans_path=None):
    if workload == "sim_wan":
        return run_sim_wan(seed, 0.1, trace, config=TINY_WAN, spans_path=spans_path)
    config = TINY_HOT if workload == "live_hot" else TINY_CHURN
    return run_live(config, seed, 1.0, trace, spans_path)


# -- the contract ------------------------------------------------------------------
def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(metric) for metric in report.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in report.PER_LAYER
    ]


# -- tiny runs with the checks on ------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_its_checks(workload):
    result = tiny_run(workload, seed=1, trace=False)
    assert result.correct, result.failures
    assert result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == END_TO_END
    assert all(value > 0 for value in result.metrics.values()), result.metrics
    if workload != "sim_wan":
        assert result.metrics["availability"] == 1.0


@pytest.mark.parametrize("workload", ("live_hot", "live_churn"))
def test_traced_live_run_reports_every_layer(workload):
    result = tiny_run(workload, seed=2, trace=True)
    assert result.correct, result.failures
    metrics = result.metrics
    assert set(metrics) == PER_LAYER
    assert metrics["net.session.rejects"] == 0
    # Section 4.1 on the live cell: every miss queries all M = 3
    # managers, each signs its answer, and each update blocks for
    # exactly M - C + 1 = 2 acks.
    assert metrics["protocols.planner.queries_per_miss"] == 3
    assert metrics["auth.signatures.signs_per_miss"] == 3
    assert metrics["protocols.dissemination.quorum_acks"] == 2
    assert metrics["core.cache.flushes_per_revoke"] == 2
    for name in ("net.codec_bin.encode_us", "net.session.seal_us", "core.cache.probe_us",
                 "protocols.pipeline.check_us", "core.manager.answer_us"):
        assert metrics[name] > 0, name


def test_a_failed_check_fails_the_result():
    result = report.Result(attempted=10)
    assert result.correct
    result.failures.append("post-revoke probe of w0 on h0 was allowed")
    assert not result.correct
    assert json.loads(result.line())["correct"] is False


def test_speed_meter_scales_rates_and_durations_inversely():
    meter = SpeedMeter()
    meter.samples = [REFERENCE * 0.5, REFERENCE * 0.8, REFERENCE * 2.0]
    assert meter.ratio == pytest.approx(1.1)
    assert meter.rate(110.0) == pytest.approx(100.0)
    assert meter.duration(10.0) == pytest.approx(11.0)
    meter.samples = []
    meter.sample()
    assert meter.ratio > 0


def test_speed_meter_finds_operations_a_probe_overlapped():
    meter = SpeedMeter()
    meter.starts, meter.ends = [1.0, 2.0], [1.1, 2.1]
    assert meter.overlaps_probe(0.9, 1.05)
    assert meter.overlaps_probe(1.05, 1.2)
    assert meter.overlaps_probe(0.5, 3.0)
    assert not meter.overlaps_probe(1.1, 2.0)
    assert not meter.overlaps_probe(0.0, 1.0)
    assert not meter.overlaps_probe(2.1, 2.5)


def test_stepped_run_counts_events_and_leaves_the_run_unchanged():
    def ticker(env, seen):
        while True:
            yield env.timeout(1.0)
            seen.append(env.now)

    from repro.sim.engine import Environment

    plain, seen_plain = Environment(), []
    plain.process(ticker(plain, seen_plain))
    plain.run(until=5.5)
    stepped, seen_stepped = Environment(), []
    stepped.process(ticker(stepped, seen_stepped))
    counts = LayerCounts()
    inst = Instrumenter(SpanRecorder())
    instrument_runtime(inst, counts, [stepped], [])
    stepped.run(until=5.5)
    inst.restore()
    assert seen_stepped == seen_plain == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stepped.now == plain.now == 5.5
    assert counts.events == 6  # the process start and five timeouts
    assert "run" not in vars(stepped)


# -- spans -------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    outer = recorder.open("outer")
    clock.now = 1.0
    inner = recorder.open("inner")
    clock.now = 3.0
    recorder.close(inner)
    clock.now = 4.0
    recorder.close(outer)
    stats = LayerStats(recorder)
    assert stats.self_time == {"outer": 2.0, "inner": 2.0}
    assert stats.total_self_time == 4.0


def test_out_of_order_close_is_an_error():
    recorder = SpanRecorder()
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_generator_wrapper_keeps_send_and_throw_semantics():
    def echo():
        received = []
        try:
            while True:
                received.append((yield len(received)))
        except KeyError:
            return received

    recorder = SpanRecorder()
    traced = Instrumenter(recorder).generator_wrapper("layer", echo)()
    assert next(traced) == 0
    assert traced.send("a") == 1
    with pytest.raises(StopIteration) as stop:
        traced.throw(KeyError())
    assert stop.value.value == ["a"]
    assert LayerStats(recorder).calls == {"layer": 3}
    assert recorder.depth == 0


def test_instrumenter_restores_what_it_patched():
    class Layer:
        def work(self, user):
            return user.upper()

    original = Layer.__dict__["work"]
    recorder = SpanRecorder()
    inst = Instrumenter(recorder)
    recorder.bind("alice", "r1")
    inst.patch_call(Layer, "work", "layer.work", user_arg=1)
    assert Layer().work("alice") == "ALICE"
    inst.restore()
    assert Layer.__dict__["work"] is original
    assert recorder.request == ["r1"]


def load_spans(path):
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest_and_account_for_the_wall_time(workload, tmp_path):
    path = str(tmp_path / "spans.json.gz")
    result = tiny_run(workload, seed=3, trace=True, spans_path=path)
    assert result.correct, result.failures
    spans = load_spans(path)
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert len(start) > 100
    last_end = {}  # parent -> end of its previous child
    for index in range(len(start)):
        assert start[index] <= end[index]
        p = parent[index]
        if p >= 0:
            assert p < index
            assert start[p] <= start[index] and end[index] <= end[p]
        assert start[index] >= last_end.get(p, float("-inf")), "siblings overlap"
        last_end[p] = end[index]
    metrics = result.metrics
    # Self times plus the unaccounted loop time make up the traced wall
    # time: loop_us * requests / wall + accounted share == 1.
    loop_share = metrics["net.runtime.loop_us"] * 1e-6 * metrics["bench.trace.traced_rps"]
    assert loop_share >= 0
    assert loop_share + metrics["bench.trace.accounted_share"] == pytest.approx(1.0)
    assert 0 < metrics["bench.trace.accounted_share"] <= 1.0
    names = set(spans["names"])
    assert {"engine.run", "protocols.pipeline.check", "core.cache.probe",
            "core.manager.answer", "transport.send"} <= names


# -- exact counts ----------------------------------------------------------------------
def test_sim_counts_repeat_exactly_per_seed_and_differ_across_seeds():
    first = tiny_run("sim_wan", seed=5, trace=True)
    again = tiny_run("sim_wan", seed=5, trace=True)
    other = tiny_run("sim_wan", seed=6, trace=True)
    for result in (first, again, other):
        assert result.correct, result.failures
    assert {n: first.metrics[n] for n in COUNTS} == {n: again.metrics[n] for n in COUNTS}
    assert {n: first.metrics[n] for n in COUNTS} != {n: other.metrics[n] for n in COUNTS}
    # ... and in another process, whose string hashing differs.
    snippet = (
        "import json, sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1]];"
        "from perfbench.simwan import SimWanConfig, run_sim_wan;"
        "r = run_sim_wan(5, 0.1, True, config=SimWanConfig(users=300, duration=20.0));"
        "print(json.dumps(r.metrics))"
    )
    done = subprocess.run([sys.executable, "-c", snippet, ROOT], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONHASHSEED": "7"})
    elsewhere = json.loads(done.stdout.splitlines()[-1])
    assert {n: first.metrics[n] for n in COUNTS} == {n: elsewhere[n] for n in COUNTS}
    # Section 4.1: M = 5 queries per miss plus retries; an update quorum
    # is exactly M - C + 1 = 3 acks.
    assert first.metrics["protocols.planner.queries_per_miss"] >= 5
    assert first.metrics["protocols.dissemination.quorum_acks"] == 3


# -- the command -----------------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
