"""Warm worker pools: fork once per campaign, not once per call.

The figure campaigns issue many :class:`~repro.exec.runner.ParallelRunner`
calls back to back (one per sweep section); a fresh
``multiprocessing.Pool`` per call pays fork + interpreter warm-up + model
imports each time. A :class:`WarmPool` keeps one pool of workers alive
for the whole process and streams job cells through
``imap_unordered`` — completion order is free to vary, the merge is
re-keyed by submission index, so the bit-identical parallel==serial
contract is untouched.

Each result comes back as one inline pickle (:mod:`repro.exec.shm`).

Stats: each dispatch records which worker pid ran each job, so
``repro bench`` can show how much fork work the warmth saved
(``reuse_ratio`` = dispatches served by an already-forked pool).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.jobs import SimJob, execute_job
from repro.exec.shm import decode_result, encode_result


def _warm_execute(indexed_job: Tuple[int, SimJob]) -> Tuple[int, int, bytes]:
    """Worker-side: run one job, pickle the result.

    Returns ``(submission index, worker pid, pickled result)`` — the index
    keys the deterministic merge, the pid feeds the reuse stats.
    """
    index, job = indexed_job
    return index, os.getpid(), encode_result(execute_job(job))


class WarmPool:
    """A long-lived worker pool with a deterministic indexed merge."""

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError(f"a warm pool needs >= 2 workers, got {workers}")
        self.workers = workers
        self._pool = multiprocessing.Pool(processes=workers)
        #: run() calls served by this pool (every one after the first
        #: reused the already-forked workers).
        self.dispatches = 0
        self.jobs_run = 0
        #: jobs executed per worker pid, across the pool's lifetime.
        self.worker_jobs: Counter = Counter()

    def run(self, jobs_list: Sequence[SimJob]) -> List[Any]:
        """Run all jobs; results in submission order (completion order is
        unobservable by construction)."""
        self.dispatches += 1
        results: Dict[int, Any] = {}
        stream = self._pool.imap_unordered(
            _warm_execute, list(enumerate(jobs_list)), chunksize=1
        )
        for index, pid, data in stream:
            self.worker_jobs[pid] += 1
            results[index] = decode_result(data)
        self.jobs_run += len(jobs_list)
        return [results[i] for i in range(len(jobs_list))]

    @property
    def reuse_ratio(self) -> float:
        """Fraction of dispatches that skipped the fork (0.0 after one)."""
        if self.dispatches <= 1:
            return 0.0
        return (self.dispatches - 1) / self.dispatches

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "dispatches": self.dispatches,
            "jobs_run": self.jobs_run,
            "reuse_ratio": self.reuse_ratio,
            "busiest_worker_jobs": max(self.worker_jobs.values(), default=0),
            "distinct_worker_pids": len(self.worker_jobs),
        }

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WarmPool(workers={self.workers}, dispatches={self.dispatches})"


#: One pool per worker count, shared process-wide. A campaign that mixes
#: ``--jobs`` levels (the bench does) keeps each level's pool warm.
_POOLS: Dict[int, WarmPool] = {}


def get_warm_pool(workers: int) -> WarmPool:
    """The process-wide warm pool for ``workers`` (forked on first use)."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WarmPool(workers)
    return pool


def warm_pool_stats() -> Dict[int, Dict[str, Any]]:
    """Stats for every live pool, keyed by worker count."""
    return {w: p.stats() for w, p in sorted(_POOLS.items())}


@atexit.register
def shutdown_warm_pools() -> None:
    """Tear down all cached pools (also runs at interpreter exit)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.close()
