"""The fixed query lists of every workload, and the serve request menu.

Nothing here depends on the seed: the seed only orders the serve
requests, made from :data:`SERVE_KEYS` and :func:`pin_menu`.
Every query named here has an entry in ``verdicts.json`` (remade by
``python3 e2ebench/oracle.py``).
"""

from __future__ import annotations

from typing import List, Tuple

#: ``paper``: the paper configuration (HDPLL+S+P), one-shot.  The first
#: nine are UNSAT queries where Section 3 learning is nearly all the
#: time; the last six are SAT queries where one FME/Omega leaf dominates.
PAPER_QUERIES: List[Tuple[str, int]] = [
    ("b13_1", 10),
    ("b13_2", 10),
    ("b13_3", 10),
    ("b13_5", 10),
    ("b13_8", 10),
    ("b13_1", 30),
    ("b13_5", 30),
    ("b06_1", 20),
    ("b03_1", 20),
    ("b01_1", 18),
    ("b01_1", 26),
    ("b01_1", 34),
    ("b04_1", 20),
    ("b04_1", 30),
    ("b13_40", 13),
]

#: ``search``: conflict-heavy search with learning off.  Engine names
#: are ``hdpll`` (activity decisions) and ``hdpll+s`` (structural).
SEARCH_QUERIES: List[Tuple[str, str, int]] = [
    ("hdpll", "b02_1", 20),
    ("hdpll", "b02_1", 22),
    ("hdpll", "b06_1", 20),
    ("hdpll", "b13_3", 30),
    ("hdpll", "b13_8", 30),
    ("hdpll+s", "b02_1", 20),
    ("hdpll+s", "b02_1", 22),
    ("hdpll+s", "b06_1", 20),
    ("hdpll+s", "b13_1", 30),
]

#: ``bmc-sweep``: one incremental HDPLL+S+P session per design, swept
#: over bounds 1..k (306 queries).
SWEEP_DESIGNS: List[Tuple[str, int]] = [
    ("b01_1", 26),
    ("b02_1", 40),
    ("b03_1", 30),
    ("b04_1", 40),
    ("b06_1", 30),
    ("b13_1", 40),
    ("b13_3", 40),
    ("b13_5", 60),
]

#: ``serve``: the warm key set.  ``b01_1(10)``, ``b13_40(13)`` and
#: ``b03_40(10)`` are SAT keys whose SAT pins cost 10-25 ms a request
#: (model search + FME leaf); the UNSAT keys and UNSAT pins are answered
#: in about a millisecond by the warm session.  A serve round asks every
#: (key, pin) of the menu once: 348 requests, 143 of them SAT.
SERVE_KEYS: List[Tuple[str, int]] = [
    ("b01_1", 10),
    ("b13_40", 13),
    ("b03_40", 10),
    ("b13_5", 20),
    ("b06_1", 15),
    ("b02_1", 20),
]

#: Primary inputs of each design, as (name, width).  Kept here so the
#: pin menu is fixed by this file, not by whatever the netlist holds.
DESIGN_INPUTS = {
    "b01": [("a", 1), ("flow", 1)],
    "b02": [("char", 1)],
    "b03": [("request", 4)],
    "b06": [("irq", 1)],
    "b13": [("start", 1), ("din", 8)],
}


def pin_values(width: int) -> List[int]:
    """Values a serve request may pin an input of ``width`` bits to."""
    if width == 1:
        return [0, 1]
    top = (1 << width) - 1
    return [0, 1, 1 << (width - 1), top]


def pin_menu(case: str, bound: int) -> List[Tuple[str, int]]:
    """Every (unrolled input name, value) a serve request may pin."""
    design = case.split("_")[0]
    return [
        (f"{name}@{frame}", value)
        for frame in range(bound)
        for name, width in DESIGN_INPUTS[design]
        for value in pin_values(width)
    ]


def query_key(case: str, bound: int) -> str:
    """Key of an unpinned BMC query in the verdict table."""
    return f"{case}({bound})"


def pin_key(net: str, value: int) -> str:
    """Key of one pin inside a serve key's verdict table."""
    return f"{net}={value}"


def all_queries() -> List[Tuple[str, int]]:
    """Every unpinned (case, bound) any workload asks, deduplicated."""
    seen = []
    for case, bound in PAPER_QUERIES:
        seen.append((case, bound))
    for _, case, bound in SEARCH_QUERIES:
        seen.append((case, bound))
    for case, top in SWEEP_DESIGNS:
        seen.extend((case, bound) for bound in range(1, top + 1))
    for case, bound in SERVE_KEYS:
        seen.append((case, bound))
    return sorted(set(seen))
