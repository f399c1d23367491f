"""In-process workloads: ``paper``, ``search`` and ``bmc-sweep``.

Each runs whole rounds of its fixed query list through the public API
until the next round would overrun ``--seconds``.  The interval
interning cache (and every memo table registered with it) is emptied
before each one-shot query and each sweep session, so every round
starts from the same process-wide cache state.  A query's time is the
median over rounds; ``wall_s`` sums those medians.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import layers
import oracle
from queries import (
    PAPER_QUERIES,
    SEARCH_QUERIES,
    SWEEP_DESIGNS,
    pin_key,
    query_key,
)
from stats import median, nearest_rank, own_peak_rss_mb, tail

#: Guard deadline per query (s).  Every query here answers in under
#: 4 s; the guard sits an order of magnitude above, clear of the known
#: FME-leaf fault (the leaf never sees the solver's deadline).
GUARD_S = 60.0

#: Setup repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 5

FAILURE_KINDS = ("wrong_verdict", "replay_failure", "late", "protocol_error")


class Checker:
    """Checks every answer against the oracle and counts failures by kind."""

    def __init__(self, table: dict):
        self.table = table
        self.attempted = 0
        self.failures: Counter = Counter()
        self._replayed: Dict[tuple, Optional[str]] = {}

    def check(
        self,
        case: str,
        bound: int,
        status: str,
        model: Optional[dict],
        seconds: float,
        guard_s: float,
        pin: Optional[Tuple[str, int]] = None,
    ) -> Optional[str]:
        """Count one operation; returns its failure kind, if any."""
        self.attempted += 1
        kind = self._judge(case, bound, status, model, pin)
        if kind is None and seconds > guard_s:
            kind = "late"
        if kind is not None:
            self.failures[kind] += 1
        return kind

    def _judge(self, case, bound, status, model, pin) -> Optional[str]:
        if status == "unknown":
            return "late"
        key = query_key(case, bound)
        if pin is None:
            expected = self.table["queries"][key]
        else:
            expected = self.table["pins"][key][pin_key(*pin)]
        if status != expected:
            return "wrong_verdict"
        if status == "sat":
            pins = dict([pin]) if pin is not None else {}
            trace = tuple(
                sorted((n, v) for n, v in model.items() if "@" in n)
            ) if model is not None else None
            memo = (case, bound, pin, trace)
            if memo not in self._replayed:
                self._replayed[memo] = (
                    "model missing"
                    if model is None
                    else oracle.replay_model(case, bound, model, pins)
                )
            if self._replayed[memo] is not None:
                return "replay_failure"
        return None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return (
            self.failures["wrong_verdict"] == 0
            and self.failures["replay_failure"] == 0
        )


def _config(engine: str):
    from repro import HDPLL_BASE, HDPLL_S, HDPLL_SP

    base = {"hdpll": HDPLL_BASE, "hdpll+s": HDPLL_S, "hdpll+sp": HDPLL_SP}
    return base[engine].with_overrides(timeout=GUARD_S)


def _build_circuits(designs) -> dict:
    from repro.itc99 import CIRCUITS

    return {design: CIRCUITS[design][0]() for design in sorted(set(designs))}


def _property(case: str):
    from repro.itc99 import CIRCUITS

    design, _, name = case.partition("_")
    return CIRCUITS[design][1][name]


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
class OneShot:
    """A list of one-shot ``solve_circuit`` queries (``paper``/``search``)."""

    def __init__(self, queries: List[Tuple[str, str, int]]):
        self.queries = queries
        self.instances: list = []

    def setup(self) -> None:
        from repro.bmc import make_bmc_instance

        circuits = _build_circuits(case.split("_")[0] for _, case, _ in self.queries)
        self.instances = [
            make_bmc_instance(circuits[case.split("_")[0]], _property(case), bound)
            for _, case, bound in self.queries
        ]

    def run_round(self, checker: Checker, times: Dict[object, List[float]]) -> None:
        from repro import solve_circuit
        from repro.intervals import reset_interval_cache

        for index, ((engine, case, bound), inst) in enumerate(
            zip(self.queries, self.instances)
        ):
            config = _config(engine)
            reset_interval_cache()
            start = time.perf_counter()
            result = solve_circuit(inst.circuit, inst.assumptions, config)
            seconds = time.perf_counter() - start
            times.setdefault(index, []).append(seconds)
            checker.check(
                case, bound, result.status.value, result.model, seconds, GUARD_S
            )

    def metrics(self, medians: Dict[object, float]) -> Dict[str, float]:
        return _operation_metrics(list(medians.values()), sum(medians.values()))


class Sweep:
    """``bmc-sweep``: one incremental session per design, bounds 1..k."""

    def __init__(self, designs: List[Tuple[str, int]]):
        self.designs = designs
        self.circuits: dict = {}

    def setup(self) -> None:
        self.circuits = _build_circuits(case.split("_")[0] for case, _ in self.designs)

    def run_round(self, checker: Checker, times: Dict[object, List[float]]) -> None:
        from repro.bmc.session import BmcSession
        from repro.intervals import reset_interval_cache

        config = _config("hdpll+sp")
        for case, top in self.designs:
            reset_interval_cache()
            start = time.perf_counter()
            session = BmcSession(
                self.circuits[case.split("_")[0]], _property(case), config, base=True
            )
            times.setdefault((case, 0), []).append(time.perf_counter() - start)
            for bound in range(1, top + 1):
                start = time.perf_counter()
                result = session.solve_bound(bound)
                seconds = time.perf_counter() - start
                times.setdefault((case, bound), []).append(seconds)
                checker.check(
                    case, bound, result.status.value, result.model, seconds, GUARD_S
                )

    def metrics(self, medians: Dict[object, float]) -> Dict[str, float]:
        per_query = [value for (_, bound), value in medians.items() if bound > 0]
        metrics = _operation_metrics(per_query, sum(medians.values()))
        if tail(per_query, 0.95) is None:
            raise RuntimeError("too few sweep queries for a p95")
        return metrics


def _operation_metrics(per_op: List[float], wall_s: float) -> Dict[str, float]:
    """Metrics over per-operation median times.  The serve-named metrics
    read the same operations as requests answered back to back: latency
    is time to verdict, the rate is operations per second of wall."""
    return {
        "wall_s": wall_s,
        "query_p50_s": nearest_rank(per_op, 0.50),
        "query_p95_s": nearest_rank(per_op, 0.95),
        "serve_p50_s": nearest_rank(per_op, 0.50),
        "serve_p99_s": nearest_rank(per_op, 0.99),
        "serve_max_rps": len(per_op) / wall_s,
    }


WORKLOADS: Dict[str, Callable[[], object]] = {
    "paper": lambda: OneShot([("hdpll+sp", c, k) for c, k in PAPER_QUERIES]),
    "search": lambda: OneShot(SEARCH_QUERIES),
    "bmc-sweep": lambda: Sweep(SWEEP_DESIGNS),
}


# ----------------------------------------------------------------------
# Round loop
# ----------------------------------------------------------------------
def _median_times(times: Dict[object, List[float]]) -> Dict[object, float]:
    return {key: median(values) for key, values in times.items()}


def run(
    name: str, seconds: float, trace: bool, import_s: float, checker: Checker
) -> dict:
    """Run one in-process workload; returns its metrics (and spans)."""
    workload = WORKLOADS[name]()
    tracer: Optional[layers.Tracer] = None
    setups = []
    for repeat in range(SETUP_REPEATS):
        installation = None
        if trace and repeat == SETUP_REPEATS - 1:
            tracer = layers.Tracer()
            installation = layers.install(tracer)
        start = time.perf_counter()
        try:
            workload.setup()
        finally:
            if installation is not None:
                installation.remove()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + median(setups)

    if trace:
        return _run_traced(workload, checker, tracer)

    times: Dict[object, List[float]] = {}
    begin = time.perf_counter()
    slowest = 0.0
    while True:
        start = time.perf_counter()
        workload.run_round(checker, times)
        slowest = max(slowest, time.perf_counter() - start)
        if time.perf_counter() - begin + slowest > seconds:
            break
    metrics = workload.metrics(_median_times(times))
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = own_peak_rss_mb()
    return {"metrics": metrics}


def _run_traced(workload, checker: Checker, tracer: layers.Tracer) -> dict:
    """One untraced round, then one traced round; per-layer metrics come
    from the traced round (plus the traced setup repetition)."""
    plain: Dict[object, List[float]] = {}
    workload.run_round(checker, plain)
    traced: Dict[object, List[float]] = {}
    installation = layers.install(tracer)
    try:
        workload.run_round(checker, traced)
    finally:
        installation.remove()
    metrics = layers.summarize(tracer.dump())
    metrics["trace.overhead_s"] = sum(sum(v) for v in traced.values()) - sum(
        sum(v) for v in plain.values()
    )
    return {"metrics": metrics, "spans": tracer.dump()}
