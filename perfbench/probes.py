"""Probes: spans around the program's public entry points, installed from
outside for the traced run only.

Modules bind names directly (``from repro.core.configs import
build_node``), so patching one module attribute would leave other
bindings untraced and their spans silently at zero. Functions are
therefore rebound in *every* loaded ``repro`` module that holds them, and
methods are wrapped on their class. ``install`` reports how many bindings
each probe replaced; a probe with none is listed as missing.

Counters the model already keeps (kernel ``stats``, ``Spm.stats``, GIC
deliveries and drops, stage-2 entry counts) are snapshotted per node when
the cell that built the node closes, or at the end of the pass for nodes
built outside any cell. Pool workers inherit the probes when the pool
forks; each worker appends its spans and snapshots to a spool file that
the parent merges when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

from perfbench.spans import Recorder, Span

#: Functions traced wherever they are bound: (module, name, span name).
FUNCTION_PROBES = (
    ("repro.core.configs", "build_node", "core.build"),
    ("repro.core.configs", "build_native_node", "core.build"),
    ("repro.core.configs", "build_hafnium_node", "core.build"),
    ("repro.faults.campaign", "build_faults_node", "core.build"),
    ("repro.faults.campaign", "run_scenario", "faults.scenario"),
    ("repro.faults.campaign", "run_containment", "faults.containment"),
    ("repro.exec.jobs", "execute_job", "exec.job"),
    ("repro.exec.shm", "encode_result", "exec.encode"),
)
#: Methods traced on their class: (module, class, method, span name).
METHOD_PROBES = (
    ("repro.hw.mmu", "PageTable", "map", "hw.pt_map"),
    ("repro.tee.boot", "BootChain", "run", "tee.boot"),
    ("repro.hafnium.spm", "Spm", "__init__", "hafnium.spm_init"),
    ("repro.hafnium.spm", "Spm", "boot_primary", "hafnium.boot_primary"),
    ("repro.sim.engine", "Engine", "run_until", "sim.run_until"),
    ("repro.workloads.base", "WorkloadRun", "__init__", "workloads.run"),
    ("repro.exec.runner", "ParallelRunner", "run", "exec.dispatch"),
    ("repro.cluster.node", "Cluster", "__init__", "cluster.build"),
    ("repro.cluster.node", "Cluster", "run", "cluster.run"),
)
#: Spans that own the nodes built inside them: closing one snapshots
#: those nodes' counters and releases them.
CELL_SPANS = frozenset({"exec.job", "faults.scenario", "faults.containment",
                        "bench.cell"})

COUNTER_NAMES = (
    "kernels.ticks", "kernels.irqs", "kernels.ctxsw", "kernels.hypercalls",
    "hafnium.vcpu_runs", "hafnium.exits_to_primary",
    "hw.gic_delivered", "hw.irq_drops", "hw.pt_entries",
)


def rebind(original: Any, replacement: Any,
           restore: List[Tuple[Any, str, Any]]) -> int:
    """Point every ``repro`` module binding of ``original`` at
    ``replacement``; records each in ``restore``. Returns the count."""
    count = 0
    for mname, module in sorted(sys.modules.items()):
        if not (mname == "repro" or mname.startswith("repro.")):
            continue
        for aname, value in list(vars(module).items()):
            if value is original:
                restore.append((module, aname, value))
                setattr(module, aname, replacement)
                count += 1
    return count


def restore_all(restore: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, value in reversed(restore):
        setattr(owner, attr, value)
    restore.clear()


def node_counters(node) -> Dict[str, int]:
    """Cumulative counters of one node, read from the model's own stats."""
    c: Counter = Counter()
    kernels = {id(k): k for k in node.kernels.values()}
    for kernel in kernels.values():
        stats = kernel.stats
        for key in ("ticks", "irqs", "ctxsw", "hypercalls"):
            c[f"kernels.{key}"] += int(stats.get(key, 0))
    spm = node.spm
    if spm is not None:
        c["hafnium.vcpu_runs"] += int(spm.stats.get("vcpu_runs", 0))
        c["hafnium.exits_to_primary"] += int(spm.stats.get("exits_to_primary", 0))
        c["hw.pt_entries"] += sum(vm.stage2.entry_count() for vm in spm.vms.values())
    gic = node.machine.gic
    c["hw.gic_delivered"] += sum(gic.stats_delivered.values())
    c["hw.irq_drops"] += sum(gic.dropped.values())
    return {k: c.get(k, 0) for k in COUNTER_NAMES}


class Tracing:
    """The traced run's state: recorder, node registry, spool."""

    def __init__(self, spool_dir: str):
        self.recorder = Recorder()
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        #: (pid, token) -> latest counter snapshot of that node
        self.snapshots: Dict[str, Dict[str, int]] = {}
        #: [node, token, depth of the innermost open cell span or -1]
        self._held: List[List[Any]] = []
        self._token = 0
        self._tokens: Dict[int, str] = {}
        self.bindings: Dict[str, int] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    def _check_fork(self) -> None:
        """A forked worker drops the state it inherited from the parent."""
        self.recorder._check_fork()
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.snapshots = {}
            self._held = []
            self._tokens = {}

    # -- node registry ---------------------------------------------------

    def _cell_depth(self) -> int:
        stack = self.recorder.stack
        for depth in range(len(stack) - 1, -1, -1):
            if stack[depth].name in CELL_SPANS:
                return depth
        return -1

    def register_node(self, node) -> None:
        self._check_fork()
        if id(node) in self._tokens and any(h[0] is node for h in self._held):
            return
        self._token += 1
        token = f"{os.getpid()}:{self._token}"
        self._tokens[id(node)] = token
        self._held.append([node, token, self._cell_depth()])

    def snapshot(self, node) -> None:
        token = self._tokens.get(id(node))
        if token is None:
            self._token += 1
            token = self._tokens[id(node)] = f"{os.getpid()}:{self._token}"
        self.snapshots[token] = node_counters(node)

    def _release_cell(self, depth: int) -> None:
        keep = []
        for entry in self._held:
            node, token, cell_depth = entry
            if cell_depth >= depth:
                self.snapshots[token] = node_counters(node)
                self._tokens.pop(id(node), None)
            else:
                keep.append(entry)
        self._held = keep

    def finish_pass(self) -> None:
        """Snapshot every node still held (those built outside a cell)."""
        for node, token, _ in self._held:
            self.snapshots[token] = node_counters(node)

    # -- spans -------------------------------------------------------------

    def close(self, span: Span) -> None:
        depth = len(self.recorder.stack) - 1
        if span.name in CELL_SPANS:
            self._release_cell(depth)
        self.recorder.close(span)
        if not self.recorder.stack and os.getpid() != self.owner_pid:
            self.spool()

    def spool(self) -> None:
        """Worker side: append this process's spans and snapshots to its
        spool file, then forget them."""
        path = os.path.join(self.spool_dir, f"spool-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.recorder.spans:
                fh.write(json.dumps({"span": span.to_json()}) + "\n")
            for token, snap in self.snapshots.items():
                fh.write(json.dumps({"counters": [token, snap]}) + "\n")
        self.recorder.spans = []
        self.snapshots = {}

    def merge_spool(self) -> None:
        """Parent side: read and delete every worker spool file."""
        if not os.path.isdir(self.spool_dir):
            return
        for name in sorted(os.listdir(self.spool_dir)):
            if not (name.startswith("spool-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if "span" in rec:
                        self.recorder.spans.append(Span.from_json(rec["span"]))
                    else:
                        token, snap = rec["counters"]
                        self.snapshots[token] = snap
            os.remove(path)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, hook=None) -> Callable:
        """``fn`` inside a span. ``hook(span, args)``, if given, runs when
        the span opens and may return ``finish(result)`` for its close."""
        tracing = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracing._check_fork()
            span = tracing.recorder.open(name)
            finish = hook(span, args) if hook is not None else None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if finish is not None:
                    finish(result)
                tracing.close(span)

        return traced

    def _builder_hook(self, span, args):
        def finish(node):
            if node is not None and hasattr(node, "machine"):
                self.register_node(node)
        return finish

    @staticmethod
    def _run_until_hook(span, args):
        engine = args[0]
        ev0, now0, q0 = engine.events_fired, engine.now, engine.queue_length

        def finish(_):
            span.attrs["events"] = engine.events_fired - ev0
            span.attrs["sim_ps"] = engine.now - now0
            span.attrs["queue_max"] = max(q0, engine.queue_length)
        return finish

    @staticmethod
    def _map_hook(span, args):
        def finish(entries):
            if isinstance(entries, int):
                span.attrs["entries"] = entries
        return finish

    @staticmethod
    def _encode_hook(span, args):
        def finish(envelope):
            span.attrs["bytes"] = len(pickle.dumps(envelope))
        return finish

    def _workload_run_hook(self, span, args):
        run = args[0]

        def finish(_):
            node = getattr(run, "node", None)
            if node is not None:
                self.snapshot(node)
        return finish

    def install(self) -> Dict[str, int]:
        """Wrap every probe; returns bindings replaced per probe."""
        hooks = {
            "core.build": self._builder_hook,
            "sim.run_until": self._run_until_hook,
            "hw.pt_map": self._map_hook,
            "workloads.run": self._workload_run_hook,
            "exec.encode": self._encode_hook,
        }
        for mod_name, _, _ in FUNCTION_PROBES:
            importlib.import_module(mod_name)
        for mod_name, attr, span_name in FUNCTION_PROBES:
            original = getattr(sys.modules[mod_name], attr, None)
            key = f"{mod_name}.{attr}"
            if original is None:
                self.bindings[key] = 0
                continue
            wrapper = self._wrap(original, span_name, hooks.get(span_name))
            self.bindings[key] = rebind(original, wrapper, self._restore)
        for mod_name, cls_name, meth, span_name in METHOD_PROBES:
            module = importlib.import_module(mod_name)
            cls = getattr(module, cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            key = f"{mod_name}.{cls_name}.{meth}"
            if original is None:
                self.bindings[key] = 0
                continue
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span_name,
                                          hooks.get(span_name)))
            self.bindings[key] = 1
        return self.bindings

    def uninstall(self) -> None:
        restore_all(self._restore)

    def missing(self) -> List[str]:
        return sorted(k for k, n in self.bindings.items() if n == 0)


class NodeCapture:
    """Set-up helper: while active, every node built through the program's
    builders is kept so the benchmark can validate it after the cell.
    Rebinds the same names as the probes, for set-up only."""

    BUILDERS = tuple(p for p in FUNCTION_PROBES if p[2] == "core.build")

    def __init__(self) -> None:
        self.nodes: List[Any] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "NodeCapture":
        for mod_name, attr, _ in self.BUILDERS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)

            def capture(*args, _fn=original, **kwargs):
                node = _fn(*args, **kwargs)
                if all(n is not node for n in self.nodes):
                    self.nodes.append(node)
                return node

            rebind(original, capture, self._restore)
        return self

    def __exit__(self, *exc) -> None:
        restore_all(self._restore)
