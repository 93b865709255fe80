"""The benchmark's four workloads.

Each workload is a closed batch of cells run by one process (``figures``
adds at most ``nproc`` pool workers). A workload has

* ``plan(seed, seconds)``: every input, derived from the seed and the run
  length only, so the same arguments give the same inputs;
* ``setup``: what must exist before the timed phase (imports are timed by
  the runner; this builds nodes or runs warm-up cells), timed as segments;
* ``run_round``: one repetition of the timed batch, timed as segments;
* ``finish``: the correctness checks (untimed) and per-layer extras.

Times are taken with :class:`perfbench.hostclock.SpeedProbe` segments
and rescaled with the run's probes.
Correctness checks hold for any seed: they compare orders the paper's
results imply, runs against each other, and model invariants, never
digests recorded for one seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import time
from typing import Any, Dict, List

FIGURE_CONFIGS = ("native", "hafnium-kitten", "hafnium-linux")
HAFNIUM_CONFIGS = ("hafnium-kitten", "hafnium-linux")
#: Spans every workload's traced pass must record (it builds nodes and
#: simulates); each workload adds its own.
BUILD_SPANS = ("core.build", "hw.pt_map", "tee.boot", "hafnium.spm_init",
               "hafnium.boot_primary", "sim.run_until")


class Ledger:
    """Operations attempted and failed, problems seen, the output digest,
    and time spent in untimed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._digest = hashlib.sha256()
        self.check_s = 0.0
        self.extras: Dict[str, float] = {}

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)

    def digest_update(self, *parts: Any) -> None:
        for part in parts:
            self._digest.update(repr(part).encode())
            self._digest.update(b"\x1e")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @contextlib.contextmanager
    def checking(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - t0


class Ctx:
    """What a workload sees of the runner."""

    def __init__(self, probe, ledger: Ledger, tracing=None):
        self.probe = probe
        self.ledger = ledger
        self.tracing = tracing

    @contextlib.contextmanager
    def span(self, name: str):
        if self.tracing is None:
            yield
            return
        span = self.tracing.recorder.open(name)
        try:
            yield
        finally:
            self.tracing.close(span)

    def validate(self, nodes, what: str) -> None:
        """``validate_node`` on each node; a violation fails one op."""
        from repro.analysis.validators import validate_node

        with self.ledger.checking():
            for node in nodes:
                try:
                    validate_node(node)
                except Exception as exc:  # noqa: BLE001 - reported, counted
                    self.ledger.fail(1, f"{what}: {type(exc).__name__}: {exc}")


class Round:
    """Host time and simulated seconds of one timed repetition (or one
    set-up). Pooled segments are kept apart: they rescale differently."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.pool_raw_s = 0.0
        self.sim_s = 0.0

    def add(self, raw: float, pooled: bool) -> None:
        self.raw_s += raw
        if pooled:
            self.pool_raw_s += raw

    def norm_s(self, probe) -> float:
        """Time in reference seconds, with the run's probes."""
        serial = self.raw_s - self.pool_raw_s
        return serial * probe.factor() + self.pool_raw_s * probe.factor(pooled=True)


def _segment(ctx: Ctx, acc: Round, fn, *args, cpus=None, **kwargs):
    result, raw = ctx.probe.segment(fn, *args, cpus=cpus, **kwargs)
    acc.add(raw, pooled=cpus is not None)
    return result


def _guarded(ctx: Ctx, acc: Round, ops: int, what: str, fn, *args,
             cpus=None, **kwargs):
    """Run one timed segment worth ``ops`` operations. An exception fails
    all of them and returns None; the time it took still counts."""
    ctx.ledger.ops(ops)

    def attempt():
        try:
            return fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - reported, counted
            return None, exc

    result, exc = _segment(ctx, acc, attempt, cpus=cpus)
    if exc is not None:
        ctx.ledger.fail(ops, f"{what}: {type(exc).__name__}: {exc}")
    return result


def paper_err_pct(tables: Dict[str, Any], paper: Dict[str, Dict[str, float]]) -> float:
    """Mean absolute gap, in percentage points, between the reproduced
    Kitten/Native and Linux/Native ratios and the paper's, over every
    benchmark in ``tables`` (each must appear in ``paper``)."""
    from repro.core.experiments import paper_normalized

    gaps = []
    for bench in sorted(tables):
        ours = tables[bench].normalized
        ref = paper_normalized(paper, bench)
        for config in HAFNIUM_CONFIGS:
            gaps.append(abs(ours[config] - ref[config]) * 100.0)
    return sum(gaps) / len(gaps)


def _table_rows(tables: Dict[str, Any]) -> List[Any]:
    rows = []
    for bench in sorted(tables):
        t = tables[bench]
        for config in sorted(t.aggregates):
            agg = t.aggregates[config]
            rows.append((bench, config, t.unit, agg.values, agg.mean,
                         agg.stdev, t.normalized[config]))
    return rows


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

class Figures:
    name = "figures"
    stresses = "core/hw.mmu build, exec pool and result transfer, workloads"
    EXPECTED_SPANS = BUILD_SPANS + ("workloads.run", "exec.dispatch", "exec.job")
    #: Run seconds allotted per round (one round of both figures takes
    #: about 4.5 s at reference speed; three rounds in a 10 s run).
    ROUND_NOMINAL_S = 3.5
    WARMUP_BENCH = "randomaccess"

    def plan(self, seed: int, seconds: int) -> Dict[str, Any]:
        return {
            "seed": seed,
            "trials": 1,
            "rounds": max(1, round(seconds / self.ROUND_NOMINAL_S)),
            "workers": max(1, min(2, os.cpu_count() or 1)),
        }

    def setup(self, plan, ctx: Ctx, acc: Round) -> Dict[str, Any]:
        from repro.core.experiments import MEMORY_BENCHMARKS, run_single_trial
        from repro.exec.warm import get_warm_pool
        from perfbench.probes import NodeCapture

        if plan["workers"] >= 2:
            _segment(ctx, acc, get_warm_pool, plan["workers"])
        warm = {}
        for config in FIGURE_CONFIGS:
            ctx.ledger.ops(1)
            with NodeCapture() as cap:
                try:
                    with ctx.span("bench.cell"):
                        warm[config] = _segment(
                            ctx, acc, run_single_trial,
                            MEMORY_BENCHMARKS[self.WARMUP_BENCH],
                            self.WARMUP_BENCH, config,
                            trial=0, seed=plan["seed"],
                        )
                except Exception as exc:  # noqa: BLE001
                    ctx.ledger.fail(1, f"warm-up {config}: {exc!r}")
            ctx.validate(cap.nodes, f"warm-up {config}")
        return {"warm": warm}

    def run_round(self, plan, state, ctx: Ctx, acc: Round) -> None:
        from repro.core.experiments import (
            MEMORY_BENCHMARKS, NPB_BENCHMARKS, run_fig7_fig8, run_fig9_fig10,
        )

        kw = dict(trials=plan["trials"], seed=plan["seed"], jobs=plan["workers"])
        # The cells run in pool workers on every CPU: probe each of them.
        cpus = sorted(os.sched_getaffinity(0)) if plan["workers"] >= 2 else None
        ncell = len(FIGURE_CONFIGS) * plan["trials"]
        t78 = _guarded(ctx, acc, len(MEMORY_BENCHMARKS) * ncell, "fig7/8",
                       run_fig7_fig8, cpus=cpus, **kw)
        t910 = _guarded(ctx, acc, len(NPB_BENCHMARKS) * ncell, "fig9/10",
                        run_fig9_fig10, cpus=cpus, **kw)
        for tables, factories in ((t78, MEMORY_BENCHMARKS), (t910, NPB_BENCHMARKS)):
            if tables is None:
                continue
            for bench, table in tables.items():
                work = factories[bench]().total_work()
                for agg in table.aggregates.values():
                    acc.sim_s += sum(work / v for v in agg.values)
        state.setdefault("rounds", []).append((t78, t910))

    def finish(self, plan, state, ctx: Ctx) -> Dict[str, Any]:
        from repro.core.experiments import PAPER_FIG8, PAPER_FIG10
        from repro.exec.warm import warm_pool_stats

        led = ctx.ledger
        out: Dict[str, Any] = {}
        rounds = [r for r in state.get("rounds", []) if None not in r]
        if not rounds:
            return out
        with led.checking():
            rows = [(_table_rows(t78), _table_rows(t910)) for t78, t910 in rounds]
            for k, other in enumerate(rows[1:], start=1):
                if other != rows[0]:
                    led.fail(len(other[0]) + len(other[1]),
                             f"round {k} results differ from round 0")
            t78, t910 = rounds[0]
            # Each in-process warm-up cell against the pool's same cell.
            ra = t78[self.WARMUP_BENCH]
            for config, cell in sorted(state["warm"].items()):
                pooled = ra.aggregates[config].values[0]
                if cell.value != pooled:
                    led.fail(1, f"warm-up {config} {cell.value!r} != pool {pooled!r}")
            # RandomAccess normalized: Linux < Kitten < Native.
            for k, (r78, _) in enumerate(rounds):
                norm = r78["randomaccess"].normalized
                if not (norm["hafnium-linux"] < norm["hafnium-kitten"] < norm["native"]):
                    led.fail(len(FIGURE_CONFIGS),
                             f"round {k}: RandomAccess order broken {norm}")
            out["paper_err_pct"] = paper_err_pct({**t78, **t910},
                                                 {**PAPER_FIG8, **PAPER_FIG10})
            led.digest_update(self.name, rows[0],
                              sorted((c, repr(r)) for c, r in state["warm"].items()))
        out["warm_pool"] = warm_pool_stats()
        return out

    def teardown(self, state) -> None:
        from repro.exec.warm import shutdown_warm_pools

        shutdown_warm_pools()


# ---------------------------------------------------------------------------
# noise-long
# ---------------------------------------------------------------------------

class NoiseLong:
    name = "noise-long"
    stresses = "kernels, linuxk, kitten, hw.gic, hafnium vGIC exits, sim; bypasses build"
    EXPECTED_SPANS = BUILD_SPANS + ("workloads.run",)
    ROUND_NOMINAL_S = 0.75
    WINDOW_S = 10.0
    THRESHOLD_US = 1.0

    def plan(self, seed: int, seconds: int) -> Dict[str, Any]:
        return {
            "seed": seed,
            "window_s": self.WINDOW_S,
            "threshold_us": self.THRESHOLD_US,
            "rounds": max(2, round(seconds / self.ROUND_NOMINAL_S)),
        }

    def setup(self, plan, ctx: Ctx, acc: Round) -> Dict[str, Any]:
        from repro.core.configs import build_node

        nodes = {}
        for config in FIGURE_CONFIGS:
            nodes[config] = _segment(ctx, acc, build_node, config, seed=plan["seed"])
        ctx.validate(nodes.values(), "noise-long build")
        return {"nodes": nodes, "summaries": []}

    def _one_round(self, plan, nodes) -> Dict[str, Dict[str, float]]:
        from repro.workloads.base import WorkloadRun
        from repro.workloads.selfish import SelfishDetour

        out = {}
        for config in FIGURE_CONFIGS:
            w = SelfishDetour(duration_s=plan["window_s"],
                              threshold_us=plan["threshold_us"])
            WorkloadRun(nodes[config], w)
            out[config] = w.noise_summary()
        return out

    def run_round(self, plan, state, ctx: Ctx, acc: Round) -> None:
        nodes = state["nodes"]
        t0 = {c: n.engine.now for c, n in nodes.items()}
        summary = _guarded(ctx, acc, len(nodes), "noise round",
                           self._one_round, plan, nodes)
        acc.sim_s += sum((n.engine.now - t0[c]) / 1e12 for c, n in nodes.items())
        state["summaries"].append(summary)

    def finish(self, plan, state, ctx: Ctx) -> Dict[str, Any]:
        from repro.analysis.determinism import trace_digest

        led = ctx.ledger
        with led.checking():
            for k, summary in enumerate(state["summaries"]):
                if summary is None:
                    continue
                rates = [summary[c]["rate_hz"] for c in FIGURE_CONFIGS]
                if not rates[0] < rates[1] < rates[2]:
                    led.fail(len(FIGURE_CONFIGS),
                             f"round {k}: detour rates not native < kitten < linux: {rates}")
            led.digest_update(self.name, [
                sorted((c, sorted(s.items())) for c, s in summary.items())
                if summary is not None else None
                for summary in state["summaries"]
            ], [(c, trace_digest(n)) for c, n in sorted(state["nodes"].items())])
        ctx.validate(state["nodes"].values(), "noise-long after run")
        return {}

    def teardown(self, state) -> None:
        state.clear()


# ---------------------------------------------------------------------------
# cluster-bsp
# ---------------------------------------------------------------------------

class ClusterBsp:
    name = "cluster-bsp"
    stresses = "cluster fabric and collectives, sim engine at scale; build memory in set-up"
    EXPECTED_SPANS = BUILD_SPANS + ("cluster.build", "cluster.run")
    CONFIG = "hafnium-linux"
    NODES = 8
    FAIL_RANK = 5
    STEP_COMPUTE_S = 0.002
    #: Supersteps simulated per host second at reference speed, and the
    #: simulated length of one superstep (to place the kill mid-run).
    STEPS_PER_S = 150
    STEP_SIM_MS = 2.5
    #: Simulated seconds per timed segment: five 50 ms ``Cluster.run``
    #: slices, about 0.7 host seconds at reference speed.
    CHUNK_SIM_S = 0.25

    def plan(self, seed: int, seconds: int) -> Dict[str, Any]:
        steps = max(40, int(seconds * self.STEPS_PER_S))
        return {
            "seed": seed,
            "config": self.CONFIG,
            "nodes": self.NODES,
            "supersteps": steps,
            "fail_rank": self.FAIL_RANK,
            "fail_at_ms": steps * self.STEP_SIM_MS / 2.0,
        }

    def setup(self, plan, ctx: Ctx, acc: Round) -> Dict[str, Any]:
        from repro.cluster.node import Cluster

        cluster = _segment(ctx, acc, Cluster, plan["config"], plan["nodes"],
                           seed=plan["seed"])
        ctx.validate([c.node for c in cluster.nodes], "cluster build")
        return {"cluster": cluster}

    def _start(self, plan, cluster):
        from repro.cluster.bsp import BspClusterWorkload
        from repro.common.units import ms
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        workload = BspClusterWorkload(cluster, supersteps=plan["supersteps"],
                                      step_compute_s=self.STEP_COMPUTE_S)
        threads = workload.spawn()
        rank = plan["fail_rank"]
        fault = FaultPlan.single("node-failure", f"rank{rank}",
                                 cluster.engine.now + ms(plan["fail_at_ms"]),
                                 rank=rank)
        FaultInjector(cluster.nodes[0].node, fault).arm()
        return workload, threads

    @staticmethod
    def _advance(cluster, threads, chunk_s: float) -> bool:
        """``Cluster.run`` with a budget of ``chunk_s`` simulated seconds.
        Returns True once every live thread has finished. A chunk that
        is a whole number of ``Cluster.run`` slices leaves the simulation
        exactly where one unbounded call would."""
        from repro.common.errors import SimulationError

        try:
            cluster.run(threads, max_seconds=chunk_s)
            return True
        except SimulationError as exc:
            if "did not finish" not in str(exc):
                raise
            return False

    def _run(self, plan, cluster, ctx: Ctx, acc: Round):
        workload, threads = _segment(ctx, acc, self._start, plan, cluster)
        # A hung model must fail the run, not stall it: allow four times
        # the simulated time the supersteps need.
        budget = 4 * plan["supersteps"] * self.STEP_SIM_MS / 1000.0
        for _ in range(int(budget / self.CHUNK_SIM_S) + 1):
            if _segment(ctx, acc, self._advance, cluster, threads, self.CHUNK_SIM_S):
                return workload
        raise RuntimeError(f"cluster still running after {budget} simulated s")

    def run_round(self, plan, state, ctx: Ctx, acc: Round) -> None:
        cluster = state["cluster"]
        t0 = cluster.engine.now
        size, steps = plan["nodes"], plan["supersteps"]
        ctx.ledger.ops((size - 1) * steps + 1)
        try:
            state["workload"] = self._run(plan, cluster, ctx, acc)
        except Exception as exc:  # noqa: BLE001 - reported, counted
            ctx.ledger.fail((size - 1) * steps + 1,
                            f"cluster run: {type(exc).__name__}: {exc}")
        acc.sim_s += (cluster.engine.now - t0) / 1e12

    def finish(self, plan, state, ctx: Ctx) -> Dict[str, Any]:
        led = ctx.ledger
        cluster, workload = state["cluster"], state.get("workload")
        if workload is None:
            return {}
        steps, rank = plan["supersteps"], plan["fail_rank"]
        with led.checking():
            for r in cluster.live_ranks():
                done = workload.completed_steps(r)
                if done != steps:
                    led.fail(steps - done, f"rank {r} completed {done}/{steps}")
            if cluster.failed != [rank]:
                led.fail(1, f"failed ranks {cluster.failed}, expected [{rank}]")
            if not workload.completed_steps(rank) < steps:
                led.fail(1, f"killed rank {rank} finished every superstep")
            if workload.aborted:
                led.fail(len(workload.aborted), f"aborted ranks {workload.aborted}")
            fabric = cluster.fabric.stats()
            root = cluster.fabric.port_stats(0)
            led.digest_update(self.name, cluster.digest(),
                              [workload.step_done_ps[r] for r in range(cluster.size)])
            led.extras.update({
                "cluster.fabric_messages": fabric["messages"],
                "cluster.fabric_bytes": fabric["bytes"],
                "cluster.busy_rejections": fabric["busy_rejections"],
                "cluster.root_port_busy_ms": root["busy_ps"] / 1e9,
                "cluster.steps_completed": sum(
                    workload.completed_steps(r) for r in range(cluster.size)),
            })
        return {}

    def teardown(self, state) -> None:
        state.clear()


# ---------------------------------------------------------------------------
# faults-campaign
# ---------------------------------------------------------------------------

class FaultsCampaign:
    name = "faults-campaign"
    stresses = "faults (watchdog, recovery), per-cell build, hafnium mailboxes"
    EXPECTED_SPANS = BUILD_SPANS + ("faults.scenario", "faults.containment")
    ROUND_NOMINAL_S = 5.0
    WARMUP_SCENARIO = "vm-panic"

    def plan(self, seed: int, seconds: int) -> Dict[str, Any]:
        return {
            "seed": seed,
            "configs": list(HAFNIUM_CONFIGS),
            "rounds": max(1, round(seconds / self.ROUND_NOMINAL_S)),
        }

    def setup(self, plan, ctx: Ctx, acc: Round) -> Dict[str, Any]:
        from repro.faults.campaign import run_scenario
        from perfbench.probes import NodeCapture

        warm = {}
        for config in plan["configs"]:
            ctx.ledger.ops(1)
            with NodeCapture() as cap:
                try:
                    warm[config] = _segment(ctx, acc, run_scenario, config,
                                            self.WARMUP_SCENARIO, seed=plan["seed"])
                except Exception as exc:  # noqa: BLE001
                    ctx.ledger.fail(1, f"warm-up {config}: {exc!r}")
            ctx.validate(cap.nodes, f"warm-up {config}")
        return {"warm": warm, "reports": []}

    def run_round(self, plan, state, ctx: Ctx, acc: Round) -> None:
        """The cells ``run_resilience`` runs serially, one segment each:
        every applicable scenario, then the containment pair."""
        from repro.faults.campaign import run_containment, run_scenario, scenarios_for

        report = {}
        seed = plan["seed"]
        for config in plan["configs"]:
            cells = {}
            for scenario in scenarios_for(config):
                cell = _guarded(ctx, acc, 1, f"{config}/{scenario}",
                                run_scenario, config, scenario, seed=seed)
                cells[scenario] = cell
                if cell is not None:
                    acc.sim_s += cell["end_ps"] / 1e12
            contained = _guarded(ctx, acc, 1, f"containment {config}",
                                 run_containment, config, seed=seed)
            warm_cell = cells.get(self.WARMUP_SCENARIO)
            if contained is not None and warm_cell is not None:
                acc.sim_s += 2 * warm_cell["end_ps"] / 1e12  # same horizon, twice
            report[config] = {"cells": cells, "containment": contained}
        state["reports"].append(report)

    @staticmethod
    def _rows(report):
        rows = []
        for config, r in sorted(report.items()):
            cells = [
                (s, None) if c is None else
                (s, c["digest"], c["detected"], c["restarts"], c["faults_injected"],
                 c["jobs_completed"], c["detection_latency_us"], c["recovery_time_us"])
                for s, c in sorted(r["cells"].items())
            ]
            cont = r["containment"]
            rows.append((config, cells, None if cont is None else
                         (cont["contained"], cont["bystander_digest"])))
        return rows

    def finish(self, plan, state, ctx: Ctx) -> Dict[str, Any]:
        led = ctx.ledger
        reports = state["reports"]
        with led.checking():
            rows = [self._rows(r) for r in reports]
            for k, other in enumerate(rows[1:], start=1):
                if other != rows[0]:
                    led.fail(1, f"round {k} results differ from round 0")
            for k, report in enumerate(reports):
                for config, r in sorted(report.items()):
                    warm = state["warm"].get(config)
                    cell = r["cells"].get(self.WARMUP_SCENARIO)
                    if k == 0 and None not in (warm, cell) and warm["digest"] != cell["digest"]:
                        led.fail(1, f"warm-up {config} digest differs from the campaign's")
                    cont = r["containment"]
                    if config == "hafnium-kitten" and cont is not None and not cont["contained"]:
                        led.fail(1, f"round {k}: hafnium-kitten not CONTAINED")
            led.digest_update(self.name, rows[0] if rows else None)
            cells = [c for r in (reports[0].values() if reports else [])
                     for c in r["cells"].values() if c is not None]
            led.extras.update({
                "faults.injections": sum(c["faults_injected"] for c in cells),
                "faults.detections": sum(1 for c in cells if c["detected"]),
                "faults.restarts": sum(c["restarts"] for c in cells),
            })
        return {}

    def teardown(self, state) -> None:
        state.clear()


WORKLOADS = {w.name: w for w in (Figures(), NoiseLong(), ClusterBsp(), FaultsCampaign())}


def release(state) -> None:
    """Drop a set-up's objects and collect them before the next one."""
    state.clear()
    gc.collect()
