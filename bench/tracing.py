"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public functions of ``flexshop`` with timing
wrappers at every module attribute that refers to them, which is where
their callers resolve them (``flexshop.moves.build_schedule``,
``flexshop.metaheuristics.insert_op``, ``flexshop.local_search.
enumerate_neighbors``, ...). ``uninstall`` puts the originals back, so
untraced runs call the library directly.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out at the end. A span's self time is its duration minus the
durations of its child spans. ``learning.actual_time`` and
``moves.feasible_window`` are only counted: a span around every call would
cost more than the calls themselves.
"""

import gzip
import importlib
import statistics
import sys
import time
from array import array

import flexshop.constructive
import flexshop.graph
import flexshop.harness
import flexshop.instance
import flexshop.learning
import flexshop.metaheuristics
import flexshop.moves

_now = time.perf_counter_ns

# layer metric name -> function whose calls become spans
SOLVER_SPANS = {
    "graph.build_schedule": flexshop.graph.build_schedule,
    "graph.critical_path": flexshop.graph.critical_path,
    "graph.topological_sort_plus": flexshop.graph.topological_sort_plus,
    "graph.build_arcs": flexshop.graph.build_arcs,
    "graph.reachable_from": flexshop.graph.reachable_from,
    "moves.remove_op": flexshop.moves.remove_op,
    "moves.insert_op": flexshop.moves.insert_op,
    "constructive.construct_est": flexshop.constructive.construct_est,
    "constructive.construct_ect": flexshop.constructive.construct_ect,
    "metaheuristics.run": flexshop.metaheuristics.run,
}
PARSE_SPANS = {
    "instance.parse": (flexshop.instance.parse_instance,
                       flexshop.instance.import_classical_fjs),
}
HARNESS_SPANS = {
    "harness.run_benchmark": flexshop.harness.run_benchmark,
    "harness.load_instance_file": flexshop.harness.load_instance_file,
    "harness.emit_results": flexshop.harness.emit_results,
}

SPAN_NAMES = (
    tuple(SOLVER_SPANS) + ("moves.enumerate_neighbors", "local_search",
                           "metaheuristics.perturb", "instance.predecessors")
    + tuple(PARSE_SPANS) + tuple(HARNESS_SPANS) + ("harness.pool_wait",)
)


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = []
        self.t0 = _now()
        self.actual_time_calls = [0]
        self.window_calls = [0]
        self.kept_slots = 0  # reduced-window slots, summed over scan windows
        self.cycle_free_slots = 0
        self.ls_accepted = 0
        self.ls_evaluated = 0
        self.sa_decisions = 0
        self.sa_accepted = 0
        self.adopted_perturbs = 0  # ILS perturbation moves (always adopted)
        self.algo = None
        self._last_perturb = None
        self._patches = []

    # -- spans ---------------------------------------------------------

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        if self.stack[-1] == idx:
            self.stack.pop()
        else:  # a generator closed out of order
            self.stack.remove(idx)

    def timed(self, name: str, fn, after=None):
        nid = self.names.index(name)
        opened, closed = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        """Span from a generator's first resume to its exhaustion or close.

        While it is suspended the consumer runs inside the span, so the
        consumer's per-item work counts as the generator's self time.
        """
        nid = self.names.index(name)
        opened, closed = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                yield from fn(*args, **kwargs)
            finally:
                closed(idx)

        return wrapper

    # -- hooks for ratios ----------------------------------------------

    def begin_run(self, algo: str) -> None:
        self.algo = algo
        self._last_perturb = None

    def _after_local_search(self, args, result):
        self.ls_accepted += result.iterations
        self.ls_evaluated += result.neighbors_evaluated

    def _after_perturb(self, args, result):
        # an SA candidate was accepted iff the next perturbation starts from it
        if self.algo == "sa":
            if self._last_perturb is not None:
                self.sa_decisions += 1
                self.sa_accepted += args[1] is self._last_perturb
        else:
            self.adopted_perturbs += 1
        self._last_perturb = result

    def _counted(self, box, fn):
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _window(self, fn):
        box = self.window_calls

        def wrapper(*args, **kwargs):
            box[0] += 1
            window = fn(*args, **kwargs)
            reduction = (args[2] if len(args) > 2
                         else kwargs.get("reduction_active", False))
            if reduction:
                self.kept_slots += len(window.positions)
                self.cycle_free_slots += len(window.cycle_free)
            return window

        return wrapper

    def _pool(self, base):
        tracer = self
        nid = self.names.index("harness.pool_wait")

        class TimedPool(base):
            """Times the parent's wait for pool results and shutdown."""

            def map(self, *args, **kwargs):
                idx = tracer.open(nid)
                try:
                    results = list(super().map(*args, **kwargs))
                finally:
                    tracer.close(idx)
                return iter(results)

            def shutdown(self, *args, **kwargs):
                idx = tracer.open(nid)
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    tracer.close(idx)

        return TimedPool

    # -- installation --------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every flexshop module attribute bound to ``original`` at
        ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if modname != "flexshop" and not modname.startswith("flexshop."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self, solver: bool) -> None:
        """Wrap the parse and harness layers, and with ``solver`` also the
        solver layers. Leave ``solver`` off when the solver runs in pool
        children: they inherit the wrappers but their spans are lost."""
        for name, fns in PARSE_SPANS.items():
            for fn in fns:
                self._replace(fn, self.timed(name, fn))
        for name, fn in HARNESS_SPANS.items():
            self._replace(fn, self.timed(name, fn))
        pool = flexshop.harness.ProcessPoolExecutor
        self._replace(pool, self._pool(pool))
        if not solver:
            return
        for name, fn in SOLVER_SPANS.items():
            self._replace(fn, self.timed(name, fn))
        ms = flexshop.metaheuristics
        self._replace(ms.perturb, self.timed(
            "metaheuristics.perturb", ms.perturb, self._after_perturb))
        # the package re-exports the function under its module's name
        ls = importlib.import_module("flexshop.local_search").local_search
        self._replace(ls, self.timed("local_search", ls,
                                     self._after_local_search))
        enum = flexshop.moves.enumerate_neighbors
        self._replace(enum, self.timed_generator(
            "moves.enumerate_neighbors", enum))
        self._replace(flexshop.moves.feasible_window,
                      self._window(flexshop.moves.feasible_window))
        at = flexshop.learning.actual_time
        self._replace(at, self._counted(self.actual_time_calls, at))
        cls = flexshop.instance.Instance
        preds = cls.predecessors
        cls.predecessors = self.timed("instance.predecessors", preds)
        self._patches.append((cls, "predecessors", preds))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in ns."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def layer_stats(self, rounds: int) -> dict:
        """Per-round calls and self seconds, and per-call inclusive
        microsecond percentiles, of every span name."""
        own = self.self_times()
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        durations = [[] for _ in self.names]
        for idx, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_ns[nid] += own[idx]
            durations[nid].append(self.end[idx] - self.start[idx])
        stats = {}
        for nid, name in enumerate(self.names):
            d = sorted(durations[nid])
            stats[name] = {
                "calls": calls[nid] / rounds,
                "self_s": self_ns[nid] / 1e9 / rounds,
                "us_p50": statistics.median(d) / 1e3 if d else 0.0,
                "us_p99": d[min(len(d) - 1, int(0.99 * len(d)))] / 1e3
                if d else 0.0,
            }
        return stats

    def write_spans(self, path) -> None:
        """Every span as CSV ``name,start_ns,end_ns,parent`` (gzip);
        times are relative to the tracer's creation, parent is a row
        index (-1 for a root span)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for nid, s, e, p in zip(self.span_name, self.start, self.end,
                                    self.parent):
                fh.write(f"{self.names[nid]},{s - self.t0},{e - self.t0},{p}\n")
