"""Independent verdict oracle: the expected-verdict table and model replay.

The table is made without any HDPLL code.  Every verdict comes from the
bit-blasting baseline (``repro.baselines.solve_by_bitblasting``: CNF
plus its own DPLL, sharing no search, propagation, learning or FME code
with HDPLL).  Designs small enough for it (b01, b02, b03, b06) are
cross-checked by explicit-state reachability over
``simulate_combinational``.  A serve pin only restricts its query, so a
pin on an UNSAT key is UNSAT without a solve.

Remake the table (about four minutes on a 2-core machine)::

    python3 e2ebench/oracle.py

Model replay runs on every benchmark run: each SAT model's input
sequence is stepped through ``SequentialSimulator`` from reset, and
must drive the property's ``ok`` output to 0 at frame k-1 and honour
every pinned input.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from typing import Dict, List, Mapping, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "verdicts.json")

#: Designs whose state space explicit-state reachability can sweep.
EXPLICIT_DESIGNS = ("b01", "b02", "b03", "b06")


def load_table() -> dict:
    with open(TABLE_PATH) as handle:
        return json.load(handle)


def split_case(case: str):
    from repro.itc99 import CIRCUITS, circuit

    design, _, prop_name = case.partition("_")
    return circuit(design), CIRCUITS[design][1][prop_name]


# ----------------------------------------------------------------------
# Model replay
# ----------------------------------------------------------------------
def replay_model(
    case: str,
    bound: int,
    model: Mapping[str, int],
    pins: Optional[Mapping[str, int]] = None,
) -> Optional[str]:
    """Replay a SAT model on the sequential simulator from reset.

    Returns ``None`` when the model is a genuine counterexample that
    honours ``pins``, else a one-line reason.
    """
    from repro.rtl.simulate import SequentialSimulator

    circuit, prop = split_case(case)
    trace: List[Dict[str, int]] = []
    for frame in range(bound):
        step = {}
        for net in circuit.inputs:
            value = model.get(f"{net.name}@{frame}")
            if value is None:
                return f"model has no value for {net.name}@{frame}"
            step[net.name] = int(value)
        trace.append(step)
    for name, value in (pins or {}).items():
        base, _, frame = name.partition("@")
        if trace[int(frame)].get(base) != value:
            return f"model ignores pin {name}={value}"
    values = SequentialSimulator(circuit).run(trace)
    if values[bound - 1][prop.ok_signal] != 0:
        return f"{prop.ok_signal} is 1 at frame {bound - 1} on replay"
    return None


# ----------------------------------------------------------------------
# Explicit-state reachability (cross-check)
# ----------------------------------------------------------------------
def explicit_verdicts(
    case: str, max_bound: int, pins: Optional[Mapping[str, int]] = None
) -> List[bool]:
    """SAT/UNSAT of bounds 1..max_bound by exhaustive forward search.

    Bound k is SAT iff some state reachable at frame k-1 (from reset,
    under the pins) has an input making ``ok`` 0 — exactly the BMC
    query "ok is 0 at frame k-1" with earlier frames unconstrained.
    """
    from repro.rtl.simulate import simulate_combinational

    circuit, prop = split_case(case)
    registers = [node for node in circuit.registers]
    names = [node.output.name for node in registers]
    inputs = [(net.name, net.width) for net in circuit.inputs]
    every_input = [
        dict(zip([name for name, _ in inputs], combo))
        for combo in itertools.product(
            *[range(1 << width) for _, width in inputs]
        )
    ]
    pinned: Dict[int, Dict[str, int]] = {}
    for name, value in (pins or {}).items():
        base, _, frame = name.partition("@")
        pinned.setdefault(int(frame), {})[base] = value
    states = {tuple(node.init_value or 0 for node in registers)}
    verdicts: List[bool] = []
    for frame in range(max_bound):
        allowed = [
            step
            for step in every_input
            if all(step[n] == v for n, v in pinned.get(frame, {}).items())
        ]
        bad = False
        successors = set()
        for state in states:
            current = dict(zip(names, state))
            for step in allowed:
                values = simulate_combinational(circuit, step, current)
                if values[prop.ok_signal] == 0:
                    bad = True
                successors.add(
                    tuple(values[node.operands[0].name] for node in registers)
                )
        verdicts.append(bad)
        states = successors
    return verdicts


# ----------------------------------------------------------------------
# Table construction
# ----------------------------------------------------------------------
def bitblast_verdict(
    case: str, bound: int, pins: Optional[Mapping[str, int]] = None
) -> bool:
    from repro.baselines import solve_by_bitblasting
    from repro.itc99 import instance

    inst = instance(case, bound)
    assumptions = dict(inst.assumptions)
    assumptions.update(pins or {})
    satisfiable, model, _ = solve_by_bitblasting(inst.circuit, assumptions)
    if satisfiable is None:
        raise RuntimeError(f"bit-blasting gave no verdict on {case}({bound})")
    if satisfiable:
        reason = replay_model(case, bound, model, pins)
        if reason is not None:
            raise RuntimeError(f"bit-blast model of {case}({bound}): {reason}")
    return bool(satisfiable)


def _word(sat: bool) -> str:
    return "sat" if sat else "unsat"


def build_table(log=print) -> dict:
    from queries import SERVE_KEYS, all_queries, pin_key, pin_menu, query_key

    queries: Dict[str, str] = {}
    start = time.perf_counter()
    for case, bound in all_queries():
        queries[query_key(case, bound)] = _word(bitblast_verdict(case, bound))
    log(f"bit-blasted {len(queries)} queries in "
        f"{time.perf_counter() - start:.1f}s")

    # Cross-check every query of the explicit-state designs.
    tops: Dict[str, int] = {}
    for case, bound in all_queries():
        if case.split("_")[0] in EXPLICIT_DESIGNS:
            tops[case] = max(tops.get(case, 0), bound)
    checked = 0
    for case, top in sorted(tops.items()):
        verdicts = explicit_verdicts(case, top)
        for bound in range(1, top + 1):
            key = query_key(case, bound)
            if key in queries:
                if queries[key] != _word(verdicts[bound - 1]):
                    raise RuntimeError(f"oracles disagree on {key}")
                checked += 1
        if case == "b01_1":
            sat_bounds = [k + 1 for k, bad in enumerate(verdicts) if bad]
            expected = [k for k in (10, 18, 26, 34) if k <= top]
            if sat_bounds != expected:
                raise RuntimeError(f"b01_1 SAT at {sat_bounds}, not {expected}")
    log(f"explicit-state agreed on {checked} queries")

    pins: Dict[str, Dict[str, str]] = {}
    for case, bound in SERVE_KEYS:
        base = queries[query_key(case, bound)]
        explicit = case.split("_")[0] in EXPLICIT_DESIGNS
        table = {}
        for net, value in pin_menu(case, bound):
            pin = {net: value}
            if base == "unsat":
                verdict = "unsat"  # a pin only restricts the query
            else:
                verdict = _word(bitblast_verdict(case, bound, pin))
            if explicit:
                other = _word(explicit_verdicts(case, bound, pin)[bound - 1])
                if other != verdict:
                    raise RuntimeError(
                        f"oracles disagree on {case}({bound}) {net}={value}"
                    )
            table[pin_key(net, value)] = verdict
        pins[query_key(case, bound)] = table
        log(f"pins of {case}({bound}): {len(table)} verdicts, "
            f"{sum(v == 'sat' for v in table.values())} SAT")
    return {
        "remake": "python3 e2ebench/oracle.py",
        "oracle": "bit-blasting baseline; b01/b02/b03/b06 cross-checked "
        "by explicit-state reachability",
        "queries": queries,
        "pins": pins,
    }


def main() -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    table = build_table(log=lambda line: print(line, flush=True))
    with open(TABLE_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TABLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
