"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of each gaussqi layer module and
installs the wrapper under every name that refers to the function in any
loaded gaussqi module, so calls made through `from .divergence import
chernoff` inside `gaussqi.sweeps` are caught as well as the module's own
internal calls.  No program file changes.

Each wrapped call records one span (name, start, end, parent span, item id)
in flat arrays kept in memory; they are written out and reduced to
per-layer metrics only after the timed part ends.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

LAYERS = (
    "symplectic",
    "transmitters",
    "target",
    "divergence",
    "fock_oracle",
    "highprec",
    "sweeps",
    "cli",
)

# Spans recorded outside any item (imports, workload set-up) carry this id.
NO_ITEM = -1


class Tracer:
    """In-memory spans and counts for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("l")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("l")
        self.item = array.array("l")
        self.counts: Counter = Counter()
        self.current_item = NO_ITEM
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module that imports."""
        originals = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"gaussqi.{layer}")
            except ImportError:
                continue
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gaussqi" or mod_name.startswith("gaussqi.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, span_name: str, fn):
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        clock = time.perf_counter_ns
        stack = self._stack
        starts, ends, parents, items, names = (
            self.start, self.end, self.parent, self.item, self.name,
        )
        counts = self.counts
        count_flags = span_name == "divergence.chernoff"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.current_item)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count_flags and self.current_item != NO_ITEM:
                for flag in getattr(result, "flags", ()):
                    counts[f"divergence.flags.{flag}"] += 1
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Span duration minus the time its direct child spans cover."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        return [d - c for d, c in zip(durations, child)]

    def has_ancestor(self, index: int, name_id: int) -> bool:
        p = self.parent[index]
        while p >= 0:
            if self.name[p] == name_id:
                return True
            p = self.parent[p]
        return False

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: name,start_ns,end_ns,parent,item."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,item\n")
            for n, s, e, p, it in zip(self.name, self.start, self.end, self.parent, self.item):
                fh.write(f"{self.names[n]},{s},{e},{p},{it}\n")

    def layer_metrics(self, n_items: int) -> dict[str, float]:
        """Per-layer metrics over spans recorded inside items.

        `n_items` is the workload's item count (rows for a sweep), which may
        differ from the number of distinct span item ids.  Metrics of
        functions that never ran read 0.
        """
        self_ns = self.self_times_ns()
        ids = self._name_ids
        per_name_calls: Counter = Counter()
        per_name_self: Counter = Counter()
        per_name_total: Counter = Counter()
        per_layer_self: Counter = Counter()
        durations: dict[str, list[int]] = {}
        setup_total: Counter = Counter()
        for i, (n, s, e, it) in enumerate(zip(self.name, self.start, self.end, self.item)):
            name = self.names[n]
            if it == NO_ITEM:
                setup_total[name] += e - s
                continue
            per_name_calls[name] += 1
            per_name_self[name] += self_ns[i]
            per_name_total[name] += e - s
            per_layer_self[name.split(".", 1)[0]] += self_ns[i]
            durations.setdefault(name, []).append(e - s)

        def in_items(name: str, ancestor: str) -> int:
            nid, aid = ids.get(name), ids.get(ancestor)
            if nid is None or aid is None:
                return 0
            return sum(
                1
                for i, (n, it) in enumerate(zip(self.name, self.item))
                if n == nid and it != NO_ITEM and self.has_ancestor(i, aid)
            )

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def p50_ms(name: str) -> float:
            values = durations.get(name)
            return statistics.median(values) / 1e6 if values else 0.0

        per_item = max(n_items, 1)
        ms = 1e-6
        m = {
            "symplectic.states_validated_per_item":
                per_name_calls["symplectic.symplectic_eigenvalues"] / per_item,
            "symplectic.symplectic_form.calls_per_item":
                per_name_calls["symplectic.symplectic_form"] / per_item,
            "symplectic.williamson.calls_per_item":
                per_name_calls["symplectic.williamson"] / per_item,
            "symplectic.williamson.self_ms_per_item":
                per_name_self["symplectic.williamson"] * ms / per_item,
            "transmitters.probe_state.self_ms_per_item":
                per_name_self["transmitters.probe_state"] * ms / per_item,
            "target.make_pair.ms_p50": p50_ms("target.make_pair"),
            "target.make_pair.self_ms_per_item":
                per_name_self["target.make_pair"] * ms / per_item,
            "divergence.chernoff.ms_p50": p50_ms("divergence.chernoff"),
            "divergence.chernoff.self_ms_per_item":
                per_name_self["divergence.chernoff"] * ms / per_item,
            # _PairGeometry.log_q evaluates lambda_factor once per state.
            "divergence.log_q_evals_per_chernoff": ratio(
                in_items("divergence.lambda_factor", "divergence.chernoff") / 2,
                per_name_calls["divergence.chernoff"],
            ),
            "divergence.q_s_general.ms_p50": p50_ms("divergence.q_s_general"),
            "fock_oracle.hypothesis_pair_fock.self_ms_per_item":
                per_name_self["fock_oracle.hypothesis_pair_fock"] * ms / per_item,
            "fock_oracle.q_s_fock.ms_p50": p50_ms("fock_oracle.q_s_fock"),
            "fock_oracle.q_s_fock.ms_per_item":
                per_name_total["fock_oracle.q_s_fock"] * ms / per_item,
            "fock_oracle.q_s_fock.calls_per_pair": ratio(
                per_name_calls["fock_oracle.q_s_fock"],
                per_name_calls["fock_oracle.hypothesis_pair_fock"],
            ),
            "fock_oracle.choose_cutoff.s": setup_total["fock_oracle.choose_cutoff"] * 1e-9,
            "highprec.log_q_s.ms_p50": p50_ms("highprec.log_q_s"),
            "sweeps.chernoff_calls_per_row":
                in_items("divergence.chernoff", "sweeps.run_sweep") / per_item,
            "sweeps.run_sweep.self_ms_per_row":
                per_name_self["sweeps.run_sweep"] * ms / per_item,
            "sweeps.emit.ms_per_1k_rows":
                per_name_total["sweeps.emit"] * ms * 1000 / per_item,
            "cli.main.self_ms": ratio(
                per_name_self["cli.main"] * ms, per_name_calls["cli.main"]
            ),
            "trace.spans_per_item": sum(per_name_calls.values()) / per_item,
        }
        for flag in ("flat", "degenerate", "maxiter"):
            m[f"divergence.flags.{flag}"] = self.counts[f"divergence.flags.{flag}"] / per_item
        for layer in LAYERS:
            m[f"{layer}.self_ms_per_item"] = per_layer_self[layer] * ms / per_item
        return m
