"""The benchmark's own arithmetic: spans, percentiles, paper error,
failure counting, seed plumbing and host-speed normalization.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import json
import math
import types
from pathlib import Path

import pytest

from perfbench import hostclock, workloads
from perfbench.layers import layer_metrics
from perfbench.spans import (
    Recorder, Span, children_index, percentile, self_time, tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


def _span(sid, parent, start, end, name="x", pid=1):
    s = Span(sid, parent, name, start, pid)
    s.end = end
    return s


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_union_of_children_only():
    parent = _span(1, None, 0.0, 10.0)
    spans = [
        parent,
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),    # overlaps the first child
        _span(4, 1, 8.0, 12.0),   # runs past the parent's end: clipped
        _span(5, 2, 1.5, 2.5),    # grandchild: already inside child 2
    ]
    index = children_index(spans)
    # children cover [1, 5] and [8, 10] -> 6 of 10 seconds
    assert self_time(parent, index) == pytest.approx(4.0)
    assert self_time(spans[1], index) == pytest.approx(1.0)
    assert self_time(spans[4], index) == pytest.approx(1.0)


def test_self_time_keeps_processes_apart():
    spans = [_span(1, None, 0.0, 4.0, pid=1), _span(2, 1, 0.0, 4.0, pid=2)]
    assert self_time(spans[0], children_index(spans)) == pytest.approx(4.0)


def test_recorder_links_nested_spans_to_their_parent():
    rec = Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    sibling = rec.open("sibling")
    rec.close(sibling)
    rec.close(outer)
    assert inner.parent == outer.sid and sibling.parent == outer.sid
    assert outer.parent is None and not rec.stack
    index = children_index(rec.spans)
    expected = outer.duration - inner.duration - sibling.duration
    assert self_time(outer, index) == pytest.approx(expected, abs=1e-9)


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, pct", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n)]
    tail = tail_percentile(samples)
    if pct is None:
        assert tail is None
    else:
        assert tail[0] == pct
        beyond = sum(1 for x in samples if x > tail[1])
        assert beyond >= 10


def test_percentile_interpolates_linearly():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75) == pytest.approx(4.0)
    assert percentile([7.0], 99.9) == 7.0


# -- paper error -------------------------------------------------------------

def _table(normalized):
    return types.SimpleNamespace(normalized=normalized)


def test_paper_err_pct_matches_hand_computation():
    paper = {
        "a": {"native": 2.0, "hafnium-kitten": 1.0, "hafnium-linux": 3.0},
        "b": {"native": 4.0, "hafnium-kitten": 4.0, "hafnium-linux": 2.0},
    }
    tables = {
        # paper ratios: a -> 0.5, 1.5 ; b -> 1.0, 0.5
        "a": _table({"native": 1.0, "hafnium-kitten": 0.6, "hafnium-linux": 1.4}),
        "b": _table({"native": 1.0, "hafnium-kitten": 0.97, "hafnium-linux": 0.5}),
    }
    # gaps in points: 10, 10, 3, 0 -> mean 5.75
    assert workloads.paper_err_pct(tables, paper) == pytest.approx(5.75)


def test_paper_err_pct_is_zero_on_the_paper_itself():
    from repro.core.experiments import PAPER_FIG10, paper_normalized

    tables = {b: _table(paper_normalized(PAPER_FIG10, b)) for b in PAPER_FIG10}
    assert workloads.paper_err_pct(tables, PAPER_FIG10) == 0.0


# -- failure counting --------------------------------------------------------

class _FakeProbe:
    def segment(self, fn, *args, cpus=None, **kwargs):
        return fn(*args, **kwargs), 1.0

    def factor(self, pooled=False):
        return 0.5 if pooled else 1.0


class _Ctx(workloads.Ctx):
    def validate(self, nodes, what):
        self.validated = getattr(self, "validated", 0) + len(list(nodes))


def _ctx():
    return _Ctx(_FakeProbe(), workloads.Ledger())


def test_a_raising_cell_counts_every_op_as_failed():
    ctx = _ctx()
    acc = workloads.Round()

    def boom():
        raise RuntimeError("cell exploded")

    assert workloads._guarded(ctx, acc, 9, "fig7/8", boom) is None
    assert workloads._guarded(ctx, acc, 15, "fig9/10", lambda: "ok",
                              cpus=[0, 1]) == "ok"
    assert (ctx.ledger.attempted, ctx.ledger.failed) == (24, 9)
    assert "cell exploded" in ctx.ledger.problems[0]
    # both segments were still timed; the pooled one rescales apart
    assert acc.raw_s == 2.0 and acc.norm_s(ctx.probe) == 1.5


def test_a_failed_check_counts_the_runs_it_covers():
    ctx = _ctx()
    ok = {"native": {"rate_hz": 10.0}, "hafnium-kitten": {"rate_hz": 20.0},
          "hafnium-linux": {"rate_hz": 300.0}}
    bad = dict(ok, **{"hafnium-kitten": {"rate_hz": 400.0}})
    state = {"nodes": {}, "summaries": [ok, bad, ok]}
    workloads.NoiseLong().finish({}, state, ctx)
    assert ctx.ledger.failed == 3
    assert "round 1" in ctx.ledger.problems[0]


def test_cluster_check_fails_a_live_rank_that_stalled():
    ctx = _ctx()
    steps = 4
    done = {r: [1] * steps for r in range(4)}
    done[2] = [1]              # the killed rank stopped early: expected
    done[3] = [1] * (steps - 1)  # a live rank lost a superstep: a failure
    wl = types.SimpleNamespace(
        completed_steps=lambda r: len(done[r]), aborted={}, step_done_ps=done)
    fabric = types.SimpleNamespace(
        stats=lambda: {"messages": 1, "bytes": 1, "busy_rejections": 0},
        port_stats=lambda r: {"busy_ps": 0})
    cluster = types.SimpleNamespace(
        live_ranks=lambda: [0, 1, 3], failed=[2], size=4, fabric=fabric,
        digest=lambda: "d")
    plan = {"supersteps": steps, "fail_rank": 2}
    workloads.ClusterBsp().finish(plan, {"cluster": cluster, "workload": wl}, ctx)
    assert ctx.ledger.failed == 1


# -- seed plumbing -----------------------------------------------------------

def test_every_workload_plan_is_a_function_of_seed_and_seconds():
    for wl in workloads.WORKLOADS.values():
        a, b = wl.plan(7, 10), wl.plan(8, 10)
        assert a == wl.plan(7, 10)
        assert a["seed"] == 7 and b["seed"] == 8
        assert {k: v for k, v in a.items() if k != "seed"} == \
               {k: v for k, v in b.items() if k != "seed"}


def test_the_seed_reaches_every_workload_through_seed_parameters(monkeypatch):
    import repro.cluster.node
    import repro.core.configs
    import repro.core.experiments
    import repro.exec.warm
    import repro.faults.campaign

    seen = []

    def record(name, result=None):
        def fn(*args, **kwargs):
            seen.append((name, kwargs.get("seed")))
            return result
        return fn

    monkeypatch.setattr(repro.core.experiments, "run_single_trial", record("trial"))
    monkeypatch.setattr(repro.core.experiments, "run_fig7_fig8", record("fig78"))
    monkeypatch.setattr(repro.core.experiments, "run_fig9_fig10", record("fig910"))
    monkeypatch.setattr(repro.exec.warm, "get_warm_pool", lambda n: None)
    monkeypatch.setattr(repro.core.configs, "build_node", record("build"))
    monkeypatch.setattr(repro.cluster.node, "Cluster", record("cluster"))
    monkeypatch.setattr(repro.faults.campaign, "run_scenario", record("scenario"))
    monkeypatch.setattr(repro.faults.campaign, "run_containment", record("containment"))

    seed = 4242
    for wl in workloads.WORKLOADS.values():
        plan = wl.plan(seed, 10)
        ctx = _ctx()
        try:
            state = wl.setup(plan, ctx, workloads.Round())
        except AttributeError:
            state = None  # a fake returned None where the workload needs an object
        if wl.name in ("figures", "faults-campaign"):
            wl.run_round(plan, state, ctx, workloads.Round())
    names = {name for name, _ in seen}
    assert names == {"trial", "fig78", "fig910", "build", "cluster",
                     "scenario", "containment"}
    assert all(s == seed for _, s in seen), seen


# -- host-speed normalization ------------------------------------------------

def test_factor_rescales_by_the_run_median_probe():
    probe = hostclock.SpeedProbe.__new__(hostclock.SpeedProbe)
    nominal = hostclock.REF_NOMINAL_S
    # A host at a quarter speed in the median; outliers do not count.
    probe.refs = [4 * nominal, 4 * nominal, 0.1 * nominal, 9 * nominal, 4 * nominal]
    probe.pool_refs = []
    assert probe.factor() == pytest.approx(0.25 ** hostclock.SENSITIVITY)
    assert probe.factor(pooled=True) == 1.0
    assert probe.speed() == pytest.approx(0.25)


def test_reference_kernel_is_fixed_work():
    assert hostclock.ref_kernel() == hostclock.REF_CHECKSUM
    assert hostclock.ref_sample(reps=1) > 0


# -- metric names ------------------------------------------------------------

def test_layer_metrics_cover_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = layer_metrics(
        [], {}, parent_pid=1, window=(0.0, 1.0), timed_raw_s=1.0, workers=1,
        extras={}, check_s=0.0, overhead_pct=0.0, paper_err_pct=None)
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(metrics)
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in metrics.values())


def test_build_share_and_settle_split_by_ancestry():
    build = _span(1, None, 0.0, 2.0, "core.build")
    pt = _span(2, 1, 0.0, 1.5, "hw.pt_map")
    settle = _span(3, 1, 1.5, 2.0, "sim.run_until")
    run = _span(4, None, 2.0, 6.0, "sim.run_until")
    run.attrs = {"events": 400, "queue_max": 3}
    m, _ = layer_metrics(
        [build, pt, settle, run], {}, parent_pid=1, window=(0.0, 6.0),
        timed_raw_s=8.0, workers=1, extras={}, check_s=0.0,
        overhead_pct=0.0, paper_err_pct=None)
    assert m["core.build_s"] == 2.0 and m["core.builds"] == 1
    assert m["hw.pt_map_share_pct"] == pytest.approx(75.0)
    assert m["sim.settle_s"] == 0.5 and m["sim.run_s"] == 4.0
    assert m["sim.events_per_s"] == pytest.approx(100.0)
    assert m["core.build_share_pct"] == pytest.approx(25.0)
