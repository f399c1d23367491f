"""Outside-in layer tracing: spans around each layer's public entry points.

:func:`install` wraps the entry points below from outside the program.
A function that callers imported by name is replaced in every ``repro``
module that holds it, so the wrapper sits where each caller looks it
up.  Spans (name, start, end, parent) are kept in memory, one parent
stack per thread, and written out by :meth:`Tracer.dump` at the end;
every span of one query descends from that query's ``solve`` span.  A layer's self time is its span durations minus the time its
child spans cover; its inclusive time counts only outermost spans of
that layer, so a layer that recurses into itself is not counted twice.

Counts come from the objects the wrapped calls return: ``SolverStats``
of every ``HdpllSolver.solve``, the session-lifetime counters stamped on
``SolverSession.solve`` results, ``LearnReport``, ``LeafCheckResult``
and the ``OmegaSolver.stats`` deltas.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path).  Several entries may share a layer.
TARGETS: List[Tuple[str, str, str]] = [
    ("learn", "repro.core.predlearn", "run_predicate_learning"),
    ("learn", "repro.core.session", "SolverSession.learn"),
    ("session.extend", "repro.bmc.session", "BmcSession.extend_to"),
    ("session.solve", "repro.core.session", "SolverSession.solve"),
    ("leaf", "repro.core.fme_leaf", "check_solution_box"),
    ("omega", "repro.fme.omega", "OmegaSolver.solve"),
    ("compile", "repro.constraints.compile", "compile_circuit"),
    ("compile", "repro.constraints.compile", "extend_compiled"),
    ("propagate", "repro.constraints.engine", "PropagationEngine.propagate"),
    ("conflict", "repro.core.conflict", "analyze_conflict"),
    ("decide", "repro.core.justify", "StructuralDecide.next_decision"),
    ("decide", "repro.core.decide", "ActivityOrder.pick"),
    ("unroll", "repro.bmc.property", "make_bmc_instance"),
    ("solve", "repro.core.hdpll", "HdpllSolver.solve"),
]

#: Per-solve ``SolverStats`` counters summed over every solve.
SOLVE_COUNTERS = (
    "decisions",
    "conflicts",
    "propagations",
    "narrowings",
    "clause_visits",
    "watch_moves",
    "literals_minimized",
    "heap_stale_pops",
)

#: Session-lifetime counters (last value per session, summed).
SESSION_COUNTERS = ("probe_cache_hits", "probe_cache_misses", "clauses_shifted")

#: Per-layer metrics: name -> (unit, better).  Every workload prints all
#: of them; an idle layer reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "learn.s": ("s", "lower"),
    "learn.self_s": ("s", "lower"),
    "learn.probes": ("count", "lower"),
    "learn.relations": ("count", "higher"),
    "session.extend_s": ("s", "lower"),
    "session.solve_s": ("s", "lower"),
    "probe_cache.hits": ("count", "higher"),
    "probe_cache.misses": ("count", "lower"),
    "clauses_shifted": ("count", "higher"),
    "leaf.calls": ("count", "lower"),
    "leaf.s": ("s", "lower"),
    "leaf.self_s": ("s", "lower"),
    "leaf.max_constraints": ("count", "lower"),
    "omega.s": ("s", "lower"),
    "omega.branches": ("count", "lower"),
    "omega.fme_calls": ("count", "lower"),
    "omega.substitutions": ("count", "lower"),
    "compile.s": ("s", "lower"),
    "propagate.calls": ("count", "lower"),
    "propagate.s": ("s", "lower"),
    "propagate.self_s": ("s", "lower"),
    "propagations": ("count", "lower"),
    "narrowings": ("count", "lower"),
    "props_per_s": ("1/s", "higher"),
    "clause_visits": ("count", "lower"),
    "watch_moves": ("count", "lower"),
    "conflict.calls": ("count", "lower"),
    "conflict.s": ("s", "lower"),
    "conflicts": ("count", "lower"),
    "literals_minimized": ("count", "higher"),
    "learned_lbd_mean": ("levels", "lower"),
    "decide.calls": ("count", "lower"),
    "decide.s": ("s", "lower"),
    "decisions": ("count", "lower"),
    "heap_stale_pops": ("count", "lower"),
    "unroll.s": ("s", "lower"),
    "serve.queue_s": ("s", "lower"),
    "serve.solve_s": ("s", "lower"),
    "serve.overhead_s": ("s", "lower"),
    "serve.cache_hits": ("count", "higher"),
    "serve.cache_misses": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        #: [layer, start, end, parent index, nested in the same layer?]
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.lbd_means: List[float] = []
        self.max_constraints = 0
        #: id(session) -> its latest lifetime counters.
        self.sessions: Dict[int, Dict[str, int]] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable]):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            nested = any(tracer.spans[i][0] == layer for i in stack)
            record = [layer, time.perf_counter(), 0.0, parent, nested]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                with tracer._lock:
                    after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """Everything recorded, as plain JSON-able data."""
        return {
            "spans": self.spans,
            "counters": self.counters,
            "lbd_means": self.lbd_means,
            "max_constraints": self.max_constraints,
            "sessions": list(self.sessions.values()),
        }


# ----------------------------------------------------------------------
# Count hooks (run after the wrapped call returns, under the lock)
# ----------------------------------------------------------------------
def _after_learn(tracer: Tracer, args, report) -> None:
    tracer.add("learn.probes", report.probes)
    tracer.add("learn.relations", report.relations_learned)


def _after_leaf(tracer: Tracer, args, result) -> None:
    tracer.max_constraints = max(tracer.max_constraints, result.constraints)


def _after_solve(tracer: Tracer, args, result) -> None:
    stats = result.stats
    for name in SOLVE_COUNTERS:
        tracer.add(name, getattr(stats, name))
    if stats.learned_lbd_mean:
        tracer.lbd_means.append(stats.learned_lbd_mean)


def _after_session_solve(tracer: Tracer, args, result) -> None:
    tracer.sessions[id(args[0])] = {
        name: getattr(result.stats, name) for name in SESSION_COUNTERS
    }


AFTER = {
    ("repro.core.predlearn", "run_predicate_learning"): _after_learn,
    ("repro.core.fme_leaf", "check_solution_box"): _after_leaf,
    ("repro.core.hdpll", "HdpllSolver.solve"): _after_solve,
    ("repro.core.session", "SolverSession.solve"): _after_session_solve,
}


def _omega_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``OmegaSolver.solve`` span plus the solver's stats deltas."""
    inner = tracer.wrap("omega", fn, None)

    def traced(self, *args, **kwargs):
        stats = self.stats
        before = (stats.branches, stats.fme_calls, stats.substitutions)
        try:
            return inner(self, *args, **kwargs)
        finally:
            with tracer._lock:
                tracer.add("omega.branches", stats.branches - before[0])
                tracer.add("omega.fme_calls", stats.fme_calls - before[1])
                tracer.add(
                    "omega.substitutions", stats.substitutions - before[2]
                )

    traced.__wrapped__ = fn
    return traced


class Installation:
    """The patches made by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every target; functions are re-bound in each ``repro`` module
    that imported them by name."""
    import importlib

    installation = Installation()
    for layer, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            if path == "OmegaSolver.solve":
                wrapped = _omega_wrapper(tracer, original)
            else:
                wrapped = tracer.wrap(
                    layer, original, AFTER.get((module_name, path))
                )
            installation.patch(owner, method, wrapped)
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(layer, original, AFTER.get((module_name, path)))
        for name, holder in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                holder is not None and holder.__dict__.get(path) is original
            ):
                installation.patch(holder, path, wrapped)
    return installation


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------
def summarize(dump: dict) -> Dict[str, float]:
    """Per-layer metrics from a :meth:`Tracer.dump` (serve fields and
    ``trace.overhead_s`` are filled in by the workload)."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index, (layer, start, end, _, nested) in enumerate(spans):
        duration = end - start
        calls[layer] = calls.get(layer, 0) + 1
        self_time[layer] = self_time.get(layer, 0.0) + duration - child_time[index]
        if not nested:
            inclusive[layer] = inclusive.get(layer, 0.0) + duration
    counters = dump["counters"]
    sessions = dump["sessions"]
    lbd = dump["lbd_means"]
    propagate_s = inclusive.get("propagate", 0.0)
    out = {name: 0.0 for name in PER_LAYER}
    out.update(
        {
            "learn.s": inclusive.get("learn", 0.0),
            "learn.self_s": self_time.get("learn", 0.0),
            "learn.probes": counters.get("learn.probes", 0),
            "learn.relations": counters.get("learn.relations", 0),
            "session.extend_s": inclusive.get("session.extend", 0.0),
            "session.solve_s": inclusive.get("session.solve", 0.0),
            "probe_cache.hits": sum(s["probe_cache_hits"] for s in sessions),
            "probe_cache.misses": sum(s["probe_cache_misses"] for s in sessions),
            "clauses_shifted": sum(s["clauses_shifted"] for s in sessions),
            "leaf.calls": calls.get("leaf", 0),
            "leaf.s": inclusive.get("leaf", 0.0),
            "leaf.self_s": self_time.get("leaf", 0.0),
            "leaf.max_constraints": dump["max_constraints"],
            "omega.s": inclusive.get("omega", 0.0),
            "omega.branches": counters.get("omega.branches", 0),
            "omega.fme_calls": counters.get("omega.fme_calls", 0),
            "omega.substitutions": counters.get("omega.substitutions", 0),
            "compile.s": inclusive.get("compile", 0.0),
            "propagate.calls": calls.get("propagate", 0),
            "propagate.s": propagate_s,
            "propagate.self_s": self_time.get("propagate", 0.0),
            "propagations": counters.get("propagations", 0),
            "narrowings": counters.get("narrowings", 0),
            "props_per_s": (
                counters.get("propagations", 0) / propagate_s
                if propagate_s
                else 0.0
            ),
            "clause_visits": counters.get("clause_visits", 0),
            "watch_moves": counters.get("watch_moves", 0),
            "conflict.calls": calls.get("conflict", 0),
            "conflict.s": inclusive.get("conflict", 0.0),
            "conflicts": counters.get("conflicts", 0),
            "literals_minimized": counters.get("literals_minimized", 0),
            "learned_lbd_mean": sum(lbd) / len(lbd) if lbd else 0.0,
            "decide.calls": calls.get("decide", 0),
            "decide.s": inclusive.get("decide", 0.0),
            "decisions": counters.get("decisions", 0),
            "heap_stale_pops": counters.get("heap_stale_pops", 0),
            "unroll.s": inclusive.get("unroll", 0.0),
        }
    )
    return out


#: Metrics that are counts of work: equal on two traced runs of the same
#: deterministic workload.
COUNT_METRICS = [
    name
    for name, (unit, _) in PER_LAYER.items()
    if unit == "count" and not name.startswith("serve.")
]
