"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q e2ebench/test_selfcheck.py

The traced-determinism test solves each in-process workload twice
(about a minute and a half on a 2-core machine).
"""

import itertools
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from queries import query_key  # noqa: E402
from stats import nearest_rank, tail  # noqa: E402


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def brute_force_verdict(case: str, bound: int) -> bool:
    """SAT iff some input sequence drives ``ok`` to 0 at frame bound-1."""
    from repro.rtl.simulate import SequentialSimulator

    circuit, prop = oracle.split_case(case)
    inputs = [(net.name, net.width) for net in circuit.inputs]
    per_frame = [
        dict(zip([name for name, _ in inputs], combo))
        for combo in itertools.product(*[range(1 << w) for _, w in inputs])
    ]
    for sequence in itertools.product(per_frame, repeat=bound):
        values = SequentialSimulator(circuit).run(sequence)
        if values[-1][prop.ok_signal] == 0:
            return True
    return False


@pytest.mark.parametrize("case", ["b01_1", "b02_1"])
@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_oracle_matches_brute_force(case, bound):
    expected = brute_force_verdict(case, bound)
    assert oracle.bitblast_verdict(case, bound) == expected
    assert oracle.explicit_verdicts(case, bound)[bound - 1] == expected
    table = oracle.load_table()["queries"]
    assert table[query_key(case, bound)] == ("sat" if expected else "unsat")


def test_replay_rejects_a_broken_model():
    from repro.baselines import solve_by_bitblasting
    from repro.itc99 import instance

    inst = instance("b01_1", 10)
    satisfiable, model, _ = solve_by_bitblasting(inst.circuit, inst.assumptions)
    assert satisfiable
    assert oracle.replay_model("b01_1", 10, model) is None
    pinned = "a@0"
    assert oracle.replay_model("b01_1", 10, model, {pinned: 1 - model[pinned]})
    broken = {name: value for name, value in model.items() if name != "a@3"}
    assert oracle.replay_model("b01_1", 10, broken)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_nearest_rank():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 0.50) == 50
    assert nearest_rank(samples, 0.95) == 95
    assert nearest_rank(samples, 1.0) == 100


@pytest.mark.parametrize(
    "count, q, reported",
    [
        (1000, 0.99, True),  # rank 990: 10 beyond
        (999, 0.99, False),  # rank 990: 9 beyond
        (200, 0.95, True),  # rank 190: 10 beyond
        (199, 0.95, False),
        (15, 0.95, False),
        (0, 0.50, False),
    ],
)
def test_tail_needs_ten_samples_beyond(count, q, reported):
    samples = [random.Random(count).random() for _ in range(count)]
    assert (tail(samples, q) is not None) == reported


# ----------------------------------------------------------------------
# Traced runs repeat their counts
# ----------------------------------------------------------------------
def traced_counts(name: str) -> dict:
    workload = workloads.WORKLOADS[name]()
    workload.setup()
    checker = workloads.Checker(oracle.load_table())
    tracer = layers.Tracer()
    installation = layers.install(tracer)
    try:
        workload.run_round(checker, {})
    finally:
        installation.remove()
    assert checker.failed == 0
    metrics = layers.summarize(tracer.dump())
    return {name: metrics[name] for name in layers.COUNT_METRICS}


@pytest.mark.parametrize("name", ["paper", "search", "bmc-sweep"])
def test_traced_counts_repeat(name):
    first = traced_counts(name)
    assert first == traced_counts(name)
    assert first["propagate.calls"] > 0
