#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
repeated ``SETUP_REPS`` times and its median reported, then the timed
phase runs its rounds and the median round is reported. ``--trace 1``
runs the workload once untraced and once traced, and reports the
per-layer metrics of the traced pass plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report (host facts, output digest, raw timings, checks). The report and,
for traced runs, every span are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up repetitions in an untraced run; ``setup_s`` is their median.
SETUP_REPS = 3

sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench.hostclock import SpeedProbe  # noqa: E402

#: Program modules imported (and timed) as part of set-up.
PROGRAM_MODULES = (
    "repro.core.configs", "repro.core.experiments", "repro.core.metrics",
    "repro.exec", "repro.exec.warm", "repro.faults.campaign",
    "repro.cluster.node", "repro.cluster.bsp", "repro.cluster.campaign",
    "repro.analysis.validators", "repro.analysis.determinism",
)


def fail_usage(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    import importlib

    if not (SRC / "repro" / "__init__.py").is_file():
        fail_usage(f"no program sources under {SRC.name}/ in this checkout")
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        fail_usage(f"imported repro from {repro.__file__}, not this checkout")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail_usage("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text())


def host_facts(probe: SpeedProbe) -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host_speed": probe.speed(),
    }


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def live_children_hwm_kb() -> int:
    import multiprocessing

    return max((_vm_hwm_kb(p.pid) for p in multiprocessing.active_children()),
               default=0)


def peak_rss_mb(children_hwm_kb: int) -> float:
    """Largest resident set of this process and of every child it had
    (pool workers), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, kids_kb, children_hwm_kb) / 1024.0


def run_pass(wl, plan, ctx, setup_reps: int):
    """Set up ``setup_reps`` times (keeping the last), then run the timed
    rounds. Returns (state, setups, rounds, window)."""
    from perfbench.workloads import Round, release

    setups, state = [], None
    for _ in range(setup_reps):
        if state is not None:
            wl.teardown(state)
            release(state)
        acc = Round()
        state = wl.setup(plan, ctx, acc)
        setups.append(acc)
    rounds = []
    t_lo = time.perf_counter()
    for _ in range(plan.get("rounds", 1)):
        acc = Round()
        wl.run_round(plan, state, ctx, acc)
        rounds.append(acc)
    return state, setups, rounds, (t_lo, time.perf_counter())


def untraced(wl, plan, probe, import_raw: float, report: dict):
    from perfbench.workloads import Ctx, Ledger, release

    ledger = Ledger()
    ctx = Ctx(probe, ledger)
    state, setups, rounds, _ = run_pass(wl, plan, ctx, SETUP_REPS)
    extra = wl.finish(plan, state, ctx)
    hwm = live_children_hwm_kb()
    wl.teardown(state)
    release(state)
    round_norm = [r.norm_s(probe) for r in rounds]
    setup_norm = [s.norm_s(probe) for s in setups]
    metrics = {
        "setup_s": import_raw * probe.factor() + statistics.median(setup_norm),
        "wall_s": statistics.median(round_norm),
        "sim_s_per_host_s": statistics.median(
            r.sim_s / n for r, n in zip(rounds, round_norm)),
        "peak_rss_mb": peak_rss_mb(hwm),
    }
    report.update({
        "factor": probe.factor(),
        "pool_factor": probe.factor(pooled=True),
        "setup_rep_s": setup_norm,
        "setup_rep_raw_s": [s.raw_s for s in setups],
        "round_s": round_norm,
        "round_raw_s": [r.raw_s for r in rounds],
        "sim_s": sum(r.sim_s for r in rounds),
        "paper_err_pct": extra.get("paper_err_pct"),
        "workload_extra": extra,
    })
    return ledger, metrics


def traced(wl, plan, probe, report: dict):
    from perfbench.layers import layer_metrics
    from perfbench.probes import Tracing
    from perfbench.workloads import Ctx, Ledger, release

    # Pass A: untraced, the baseline of the tracing overhead.
    ledger_a = Ledger()
    ctx = Ctx(probe, ledger_a)
    state, setups, rounds, _ = run_pass(wl, plan, ctx, 1)
    wl.finish(plan, state, ctx)
    wl.teardown(state)
    release(state)
    total_a = sum(r.norm_s(probe) for r in setups + rounds)

    # Pass B: traced.
    OUT_DIR.mkdir(exist_ok=True)
    spool = OUT_DIR / f"spool-{os.getpid()}"
    spool.mkdir(exist_ok=True)
    tracing = Tracing(str(spool))
    bindings = tracing.install()
    ledger = Ledger()
    ctx = Ctx(probe, ledger, tracing)
    try:
        state, setups, rounds, window = run_pass(wl, plan, ctx, 1)
        tracing.finish_pass()
        extra = wl.finish(plan, state, ctx)
        wl.teardown(state)
    finally:
        tracing.uninstall()
    tracing.merge_spool()
    try:
        spool.rmdir()
    except OSError:
        pass
    release(state)
    total_b = sum(r.norm_s(probe) for r in setups + rounds)
    if ledger_a.digest != ledger.digest:
        ledger.fail(1, "traced pass digest differs from the untraced pass")
    ledger.attempted += ledger_a.attempted
    ledger.failed += ledger_a.failed
    ledger.problems[:0] = ledger_a.problems

    spans = tracing.recorder.spans
    metrics, details = layer_metrics(
        spans, tracing.snapshots,
        parent_pid=os.getpid(),
        window=window,
        timed_raw_s=sum(r.raw_s for r in rounds),
        workers=plan.get("workers", 1),
        extras=ledger.extras,
        check_s=ledger.check_s + ledger_a.check_s,
        overhead_pct=100.0 * (total_b / total_a - 1.0),
        paper_err_pct=extra.get("paper_err_pct"),
    )
    silent = [name for name in wl.EXPECTED_SPANS
              if not details["span_counts"].get(name)]
    if silent:
        print(f"perfbench: expected spans never recorded: {silent}", file=sys.stderr)
    report.update({
        "probe_bindings": bindings,
        "missing_probes": tracing.missing(),
        "silent_spans": silent,
        "details": details,
        "untraced_total_s": total_a,
        "traced_total_s": total_b,
        "paper_err_pct": extra.get("paper_err_pct"),
        "workload_extra": extra,
    })
    return ledger, metrics, spans


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    _, import_raw = probe.segment(import_program)

    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    plan = wl.plan(args.seed, args.seconds)
    report = {
        "workload": wl.name, "stresses": wl.stresses,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "plan": plan, "import_raw_s": import_raw,
    }
    spans = None
    try:
        if args.trace:
            ledger, metrics, spans = traced(wl, plan, probe, report)
            names = spec["per_layer"]
        else:
            ledger, metrics = untraced(wl, plan, probe, import_raw, report)
            names = spec["end_to_end"]
    finally:
        from repro.exec.warm import shutdown_warm_pools

        shutdown_warm_pools()
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        ledger.fail(1, f"metrics not computed: {missing}")
    report.update({
        "host": host_facts(probe),
        "ref_s": probe.refs,
        "pool_ref_s": probe.pool_refs,
        "digest": ledger.digest,
        "problems": ledger.problems,
        "check_s": ledger.check_s,
        "wall_clock_s": time.perf_counter() - _T_START,
        "all_metrics": metrics,
    })
    correct = ledger.failed == 0 and ledger.attempted > 0
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in names
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    doc = dict(report)
    if spans is not None:
        doc["spans"] = [s.to_json() for s in spans]
    out.write_text(json.dumps(doc, indent=1, default=repr) + "\n")
    for problem in ledger.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(report, default=repr, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
