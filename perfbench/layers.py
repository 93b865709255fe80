"""Per-layer metrics of the traced pass, from spans, node counters and
the workload's own extras.

Every per-layer metric is reported on every workload; a layer that the
workload does not exercise reads 0. Times are raw host seconds of the
traced pass (set-up and timed phase together), except where a share of
the timed phase is named.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.probes import COUNTER_NAMES
from perfbench.spans import Span, ancestry, children_index, self_time, timing_summary


def _sum(spans: Iterable[Span]) -> float:
    return sum(s.duration for s in spans)


def layer_metrics(
    spans: Sequence[Span],
    snapshots: Dict[str, Dict[str, int]],
    *,
    parent_pid: int,
    window: Tuple[float, float],
    timed_raw_s: float,
    workers: int,
    extras: Dict[str, float],
    check_s: float,
    overhead_pct: float,
    paper_err_pct: Optional[float],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Returns ``(metrics, details)``; details carry sample counts and
    tail percentiles for the report."""
    index = children_index(spans)
    anc = ancestry(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def in_build(s: Span) -> bool:
        return "core.build" in anc[(s.pid, s.sid)]

    m: Dict[str, float] = {}
    details: Dict[str, Any] = {}

    builds = [s for s in named("core.build") if not in_build(s)]
    m["core.build_s"] = _sum(builds)
    m["core.builds"] = len(builds)
    pt = named("hw.pt_map")
    m["hw.pt_map_s"] = _sum(pt)
    m["hw.pt_map_calls"] = len(pt)
    m["hw.pt_map_share_pct"] = (
        100.0 * m["hw.pt_map_s"] / m["core.build_s"] if m["core.build_s"] else 0.0
    )
    m["tee.boot_s"] = _sum(named("tee.boot"))
    m["hafnium.spm_init_s"] = sum(self_time(s, index) for s in named("hafnium.spm_init"))
    m["hafnium.boot_primary_s"] = _sum(named("hafnium.boot_primary"))

    runs = named("sim.run_until")
    settle = [s for s in runs if in_build(s)]
    sim = [s for s in runs if not in_build(s)]
    m["sim.settle_s"] = _sum(settle)
    m["sim.run_s"] = _sum(sim)
    m["sim.events"] = sum(s.attrs.get("events", 0) for s in sim)
    m["sim.events_per_s"] = m["sim.events"] / m["sim.run_s"] if m["sim.run_s"] else 0.0
    m["sim.queue_len_max"] = max((s.attrs.get("queue_max", 0) for s in runs), default=0)

    totals: Counter = Counter()
    for snap in snapshots.values():
        totals.update(snap)
    for name in COUNTER_NAMES:
        m[name] = totals.get(name, 0)

    m["workloads.run_s"] = _sum(named("workloads.run"))

    lo, hi = window
    timed_builds = [s for s in builds if lo <= s.start <= hi]
    jobs = named("exec.job")
    pooled = any(s.pid != parent_pid for s in jobs)
    procs = workers if pooled else 1
    m["core.build_share_pct"] = (
        100.0 * _sum(timed_builds) / (procs * timed_raw_s) if timed_raw_s else 0.0
    )

    dispatch = [s for s in named("exec.dispatch") if s.pid == parent_pid]
    m["exec.dispatch_s"] = _sum(dispatch)
    cells = [s.duration for s in jobs]
    m["exec.efficiency"] = (
        sum(cells) / (procs * m["exec.dispatch_s"]) if m["exec.dispatch_s"] and cells else 0.0
    )
    m["exec.cells"] = len(cells)
    m["exec.cell_p50_s"] = statistics.median(cells) if cells else 0.0
    m["exec.cell_max_s"] = max(cells) if cells else 0.0
    per_pid = Counter(s.pid for s in jobs)
    m["exec.busiest_worker_cells"] = max(per_pid.values(), default=0)
    m["exec.result_bytes"] = sum(s.attrs.get("bytes", 0) for s in named("exec.encode"))
    details["exec.cell_s"] = timing_summary(cells)

    m["cluster.build_s"] = _sum(named("cluster.build"))
    m["cluster.run_s"] = _sum(named("cluster.run"))
    for key in ("cluster.fabric_messages", "cluster.fabric_bytes",
                "cluster.root_port_busy_ms", "cluster.busy_rejections",
                "cluster.steps_completed"):
        m[key] = extras.get(key, 0)

    scen = [s.duration for s in named("faults.scenario")]
    m["faults.scenario_p50_s"] = statistics.median(scen) if scen else 0.0
    details["faults.scenario_s"] = timing_summary(scen)
    for key in ("faults.injections", "faults.detections", "faults.restarts"):
        m[key] = extras.get(key, 0)
    m["faults.containment_s"] = _sum(named("faults.containment"))

    m["analysis.check_s"] = check_s
    m["analysis.paper_err_pct"] = paper_err_pct if paper_err_pct is not None else 0.0
    m["trace.overhead_pct"] = overhead_pct
    details["span_counts"] = {k: len(v) for k, v in sorted(by_name.items())}
    return m, details
