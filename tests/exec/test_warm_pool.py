"""Warm pool: bit-identity across every path.

The executor's contract is that *how* a cell runs (in-process, legacy
fork-per-call pool, warm pool) never changes the result — only
wall-clock. These tests pin that with pickled bytes (literal
bit-identity), over one small cell of **every registered job kind**, at
``jobs=1`` vs ``jobs=4``.
"""

import pickle

import pytest

from repro.exec.jobs import SimJob, job_kinds
from repro.exec.runner import ParallelRunner
from repro.exec.warm import get_warm_pool, shutdown_warm_pools

SEED = 20260806


def _all_kind_cells():
    """One deliberately small cell per registered job kind."""
    cells = [
        SimJob.make(
            "selfish-profile", config="hafnium-kitten",
            duration_s=0.02, threshold_us=1.0, seed=SEED,
        ),
        SimJob.make(
            "bench-trial", benchmark_set="memory", benchmark="stream",
            config="hafnium-kitten", trial=0, seed=SEED,
        ),
        SimJob.make("determinism-run", config="hafnium-kitten", seed=SEED),
        SimJob.make(
            "fault-scenario", config="hafnium-kitten", scenario="vm-panic",
            seed=SEED,
        ),
        SimJob.make("containment", config="hafnium-kitten", seed=SEED),
        SimJob.make(
            "irq-latency", routing="forwarded", duration_s=0.01, seed=SEED,
        ),
        SimJob.make(
            "interference", scheduler="kitten", benchmark="ep",
            with_neighbor=False, seed=SEED,
        ),
        SimJob.make(
            "randomized-faults", config="hafnium-kitten", seed=SEED, count=1,
        ),
        SimJob.make(
            "cluster-run", config="hafnium-kitten", nodes=2, seed=SEED,
            supersteps=2, step_compute_s=0.0008,
        ),
    ]
    assert {c.kind for c in cells} == set(job_kinds())
    return cells


def _bits(results):
    return [
        pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL) for r in results
    ]


@pytest.fixture(scope="module")
def serial_bits():
    return _bits(ParallelRunner(1).run(_all_kind_cells()))


def test_warm_pool_matches_serial_bit_for_bit(serial_bits):
    shutdown_warm_pools()
    try:
        warm = ParallelRunner(4, warm=True).run(_all_kind_cells())
    finally:
        shutdown_warm_pools()
    assert _bits(warm) == serial_bits


def test_legacy_fork_per_call_matches_serial(serial_bits):
    cold = ParallelRunner(4, warm=False).run(_all_kind_cells())
    assert _bits(cold) == serial_bits


def test_warm_pool_reuse_stats_accumulate():
    shutdown_warm_pools()
    try:
        runner = ParallelRunner(2, warm=True)
        cells = [
            SimJob.make(
                "irq-latency", routing="forwarded", duration_s=0.005, seed=s,
            )
            for s in (1, 2)
        ]
        runner.run(cells)
        runner.run(cells)
        stats = get_warm_pool(2).stats()
    finally:
        shutdown_warm_pools()
    assert stats["dispatches"] == 2
    assert stats["jobs_run"] == 4
    assert stats["reuse_ratio"] == pytest.approx(0.5)
    assert 1 <= stats["distinct_worker_pids"] <= 2

