"""Shared pytest wiring: a PASS/FAIL summary line per acceptance criterion,
an independent high-precision oracle for the regular-model density, a
planted-hole generator for the hole searches, and small graph and
regular-exponent helpers that only tests need (import them with
``from conftest import ...``)."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ramsey_lab.constructions import Graph


def adjacency_bitsets(graph: Graph) -> list[int]:
    """Per-vertex neighbourhoods as int bitmasks, from the edge tuples."""
    adj = [0] * graph.n
    for u, v in graph.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def has_edge(graph: Graph, u: int, v: int) -> bool:
    return bool(adjacency_bitsets(graph)[u] >> v & 1)


def neighbors(graph: Graph, v: int) -> list[int]:
    return [u for u in range(graph.n) if adjacency_bitsets(graph)[v] >> u & 1]


def with_edge(graph: Graph, u: int, v: int) -> Graph:
    return Graph(graph.n, graph.edges + ((u, v),), graph.side)


def tree_edges(tree) -> list[tuple[int, int]]:
    """A RootedTree's (parent, child) pairs as plain ints, in child order."""
    return list(zip(tree.parent[1:].tolist(), range(1, tree.n)))


def leaves(tree) -> np.ndarray:
    """A RootedTree's childless vertices, ascending."""
    return np.flatnonzero(tree.children_counts() == 0)


def tree_graph(tree) -> Graph:
    """A RootedTree as a Graph on the same vertices."""
    return Graph(tree.n, tree_edges(tree))


def xlogx(x: float) -> float:
    """x*ln(x) extended continuously by 0 at x = 0."""
    return 0.0 if x == 0 else x * math.log(x)


def display_exponent(a, c, d, g=xlogx):
    """The paper's nine-term regular-model exponent f(a, c, d), with g(x) = x*ln(x).

    g defaults to the binary64 ``xlogx``; pass another x*ln(x) to evaluate the
    display form in that number type.
    """
    return (
        g(c) + g(d) + g((c - 2) * d) + g((c - 1 - a) * d) / 2
        - g(c - 2) - g(a * d) - g((c - 2 - a) * d) - g((1 - a) * d) / 2 - g(c * d) / 2
    )


def ln_fraction(x: Fraction) -> float:
    """ln of a positive rational whose parts may lie beyond the binary64 range."""
    return math.log(x.numerator) - math.log(x.denominator)


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    status: dict[int, str] = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                num = int(match.group(1))
                if label == "FAIL" or num not in status:
                    status[num] = label
    if status:
        terminalreporter.write_line("")
        for num in sorted(status):
            terminalreporter.write_line(f"ACCEPTANCE criterion {num}: {status[num]}")


def _regular_density_oracle(c) -> mpmath.mpf:
    """d_min = k0 / -k1(a*) for the regular model, without ramsey_lab.

    a* is the root in (0, 1) of (c-2-a)**2 (1-a) = a**2 (c-1-a), found by
    plain bisection.  k0 and k1 are read off the paper's nine-term display
    form, which is affine in d: k1 = f(a*, c, 2) - f(a*, c, 1) and
    k0 = 2 f(a*, c, 1) - f(a*, c, 2), so no regrouped spelling is shared with
    the solver.  The terms of f (~c ln c) cancel to ~ln(c)/c, so the working
    precision grows with the digits of c: 60 digits plus three per digit of c.
    """
    c = Fraction(c)
    digits = 60 + 3 * len(str(c.numerator // c.denominator))
    with mpmath.workdps(digits):
        cm = mpmath.mpf(c.numerator) / c.denominator
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(int(3.4 * digits)):
            mid = (lo + hi) / 2
            if (cm - 2 - mid) ** 2 * (1 - mid) > mid * mid * (cm - 1 - mid):
                lo = mid
            else:
                hi = mid
        a = (lo + hi) / 2
        f1, f2 = (display_exponent(a, cm, d, lambda x: x * mpmath.log(x)) for d in (1, 2))
        k0, k1 = 2 * f1 - f2, f2 - f1
        return k0 / -k1


@pytest.fixture
def regular_density_oracle():
    return _regular_density_oracle


def _plant_hole(graph: Graph, s: int, seed: int) -> tuple[Graph, frozenset, frozenset]:
    """``graph`` with every edge between two random disjoint s-sets deleted.

    The 2s vertices are drawn with ``random.Random(seed)``.  Returns the
    new graph and the two sets; no hole search is called.
    """
    both = random.Random(seed).sample(range(graph.n), 2 * s)
    left, right = frozenset(both[:s]), frozenset(both[s:])
    kept = [(u, v) for u, v in graph.edges
            if not (u in left and v in right or u in right and v in left)]
    return Graph(graph.n, kept), left, right


@pytest.fixture
def plant_hole():
    return _plant_hole
