"""Tests for random graph samplers, hole search, and Monte Carlo estimation."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np
import pytest

import ramsey_lab.random_models as rm
from ramsey_lab.constructions import Graph
from ramsey_lab.errors import CapExceededError
from ramsey_lab.random_models import HoleWitness, Multigraph


# ── binomial samplers ────────────────────────────────────────────────────────


def test_gnp_deterministic_per_seed():
    a = rm.sample_gnp(30, 0.3, 99)
    b = rm.sample_gnp(30, 0.3, 99)
    c = rm.sample_gnp(30, 0.3, 100)
    assert a == b
    assert a != c


def test_gnp_extremes():
    assert rm.sample_gnp(12, 0.0, 1) == Graph.empty(12)
    assert rm.sample_gnp(12, 1.0, 1) == Graph.complete(12)
    with pytest.raises(ValueError):
        rm.sample_gnp(0, 0.5, 1)
    with pytest.raises(ValueError):
        rm.sample_gnp(5, 1.5, 1)
    with pytest.raises(ValueError):
        rm.sample_gnp(5, -0.1, 1)


def test_gnp_edge_count_within_five_sigma():
    n, p = 40, 0.25
    pairs = n * (n - 1) // 2
    total = sum(rm.sample_gnp(n, p, seed).edge_count for seed in range(100))
    mean = 100 * pairs * p
    sigma = math.sqrt(100 * pairs * p * (1 - p))
    assert abs(total - mean) <= 5 * sigma


def test_bipartite_sampler():
    g = rm.sample_bipartite(6, 9, 0.5, 3)
    assert g.n == 15
    assert g.side == (0,) * 6 + (1,) * 9
    assert all(u < 6 <= v for u, v in g.edges)  # crossing edges only

    assert rm.sample_bipartite(4, 5, 1.0, 0) == Graph.complete_bipartite(4, 5)
    assert rm.sample_bipartite(4, 5, 0.0, 0).edge_count == 0

    total = sum(rm.sample_bipartite(8, 8, 0.3, s).edge_count for s in range(100))
    mean = 100 * 64 * 0.3
    sigma = math.sqrt(100 * 64 * 0.3 * 0.7)
    assert abs(total - mean) <= 5 * sigma

    with pytest.raises(ValueError):
        rm.sample_bipartite(0, 3, 0.5, 1)


# ── pairing model ────────────────────────────────────────────────────────────


def _is_simple(mg: Multigraph) -> bool:
    """No loop and no repeated edge."""
    return all(u != v for u, v in mg.edges) and len(set(mg.edges)) == len(mg.edges)


def test_multigraph_invariants():
    mg = Multigraph(3, [(0, 0), (1, 2), (2, 1)])
    assert mg.edge_count == 3
    assert mg.degrees() == [2, 2, 2]  # loop counts twice
    assert not _is_simple(mg)
    assert mg.support_graph() == Graph(3, [(1, 2)])  # loops and repeats dropped
    assert _is_simple(Multigraph(3, [(0, 1), (1, 2)]))
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 2)])


def test_pairing_degrees_always_exact():
    for seed in range(30):
        n = 6 + 2 * (seed % 5)
        d = 1 + seed % 4
        mg = rm.sample_pairing(n, d, seed)
        assert isinstance(mg, Multigraph)
        assert mg.degrees() == [d] * n
        assert mg.edge_count == n * d // 2


def test_pairing_d1_is_a_perfect_matching():
    mg = rm.sample_pairing(10, 1, 7)
    assert mg.degrees() == [1] * 10
    assert _is_simple(mg)
    assert len({v for e in mg.edges for v in e}) == 10


def test_pairing_rejects_odd_total():
    with pytest.raises(ValueError, match="odd"):
        rm.sample_pairing(5, 3, 0)
    with pytest.raises(ValueError):
        rm.sample_pairing(0, 2, 0)


def test_pairing_simple_only():
    g, attempts = rm.sample_pairing(12, 3, 5, simple_only=True)
    assert isinstance(g, Graph)
    assert attempts >= 1
    assert g.degrees() == [3] * 12
    # impossible regularity is rejected up front instead of looping forever
    with pytest.raises(ValueError, match="never terminate"):
        rm.sample_pairing(4, 4, 0, simple_only=True)


def test_pairing_simple_only_caps_hopeless_degrees():
    """exp((d*d - 1)/4) expected attempts: d = 6 is under the cap, d = 7 and up refused."""
    assert 6 * 6 - 1 <= 4 * math.log(rm.PAIRING_ATTEMPTS_CAP) < 7 * 7 - 1
    for n, d in ((8, 7), (100, 12), (10**6, 1000)):
        with pytest.raises(CapExceededError):
            rm.sample_pairing(n, d, 0, simple_only=True)
    assert isinstance(rm.sample_pairing(100, 12, 0), Multigraph)  # multigraphs are uncapped


def test_pairing_simple_acceptance_rate():
    """At d=3 the asymptotic simple-graph rate is exp(-d^2/4+...) ~ 0.14."""
    accepted, attempts = 0, 0
    seed = 0
    while attempts < 2000:
        _, tries = rm.sample_pairing(1000, 3, seed, simple_only=True)
        attempts += tries
        accepted += 1
        seed += 1
    rate = accepted / attempts
    assert 0.09 <= rate <= 0.19


# ── hole search ──────────────────────────────────────────────────────────────


def brute_force_has_hole(graph: Graph, s: int) -> bool:
    """Reference oracle: every (left, right) pair of disjoint s-sets."""
    if graph.side is not None:
        lefts = combinations(graph.side_vertices(0), s)
        rights = list(combinations(graph.side_vertices(1), s))
        for left in lefts:
            for right in rights:
                if not any(graph.has_edge(u, v) for u in left for v in right):
                    return True
        return False
    verts = range(graph.n)
    for left in combinations(verts, s):
        rest = [v for v in verts if v not in left]
        for right in combinations(rest, s):
            if not any(graph.has_edge(u, v) for u in left for v in right):
                return True
    return False


def plain_branch_and_bound(graph: Graph, s: int) -> Optional[HoleWitness]:
    """Reference oracle: the search that prunes only when the right pool drops below s.

    Left sets in increasing vertex order; the first whose pool keeps s
    right vertices is returned with the s smallest of them.  Without
    2-class labels the right set lies above the left set's minimum.
    """
    adj = graph.adjacency_bitsets()
    if graph.side is not None:
        lefts = graph.side_vertices(0)
        pool0 = sum(1 << v for v in graph.side_vertices(1))
    else:
        lefts = list(range(graph.n))
        pool0 = (1 << graph.n) - 1
    chosen: list[int] = []

    def extend(start: int, pool: int) -> Optional[HoleWitness]:
        if len(chosen) == s:
            right = [v for v in range(graph.n) if pool >> v & 1][:s]
            return HoleWitness(frozenset(chosen), frozenset(right))
        for idx in range(start, len(lefts)):
            v = lefts[idx]
            new_pool = pool & ~adj[v] & ~(1 << v)
            if graph.side is None and not chosen:
                new_pool &= -1 << (v + 1)
            if new_pool.bit_count() < s:
                continue
            chosen.append(v)
            found = extend(idx + 1, new_pool)
            if found is not None:
                return found
            chosen.pop()
        return None

    return extend(0, pool0)


def test_verify_hole_rules():
    g = Graph(6, [(0, 1), (2, 3)])
    assert rm.verify_hole(g, HoleWitness(frozenset({0, 2}), frozenset({4, 5})))
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({1})))  # edge
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({0})))  # overlap
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({4, 5})))  # sizes
    assert not rm.verify_hole(g, HoleWitness(frozenset(), frozenset()))  # empty
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({9})))  # range
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({4})), size=2)

    kb = Graph.complete_bipartite(2, 2).with_edge(0, 1)
    # crossing pair with no edge is NOT a hole here: sides must differ
    assert not rm.verify_hole(kb, HoleWitness(frozenset({0}), frozenset({1})))


def test_find_hole_exact_trivia():
    assert rm.find_hole_exact(Graph.complete(8), 1) is None
    w = rm.find_hole_exact(Graph.empty(8), 4)
    assert w is not None and rm.verify_hole(Graph.empty(8), w, 4)
    # complete bipartite host has no crossing hole, but delete one edge...
    kb = Graph.complete_bipartite(3, 3)
    assert rm.find_hole_exact(kb, 1) is None
    missing = Graph(6, [e for e in kb.edges if e != (0, 3)], side=kb.side)
    w = rm.find_hole_exact(missing, 1)
    assert w == HoleWitness(frozenset({0}), frozenset({3}))


def test_find_hole_exact_matches_brute_force():
    rng = random.Random(17)
    found = 0
    for trial in range(120):
        n = rng.randint(4, 14)
        p = rng.choice([0.2, 0.5, 0.8])
        g = rm.sample_gnp(n, p, trial)
        if trial % 3 == 0:
            g = rm.sample_bipartite(n // 2 + 2, n // 2 + 2, p, trial)
        s = rng.randint(1, 3)
        w = rm.find_hole_exact(g, s)
        assert (w is not None) == brute_force_has_hole(g, s), (trial, n, p, s)
        if w is not None:
            assert rm.verify_hole(g, w, s)
            found += 1
    assert found >= 40


def test_find_hole_exact_matches_brute_force_at_size_four():
    """s = 4 reaches the fourth level of the candidate filter; witnesses match the plain search."""
    rng = random.Random(23)
    found = empty = 0
    for trial in range(120):
        n = rng.randint(8, 12)
        p = rng.choice([0.15, 0.3, 0.45])
        if trial % 3 == 0:
            g = rm.sample_bipartite(n // 2, n // 2, p, trial)
        else:
            g = rm.sample_gnp(n, p, trial)
        w = rm.find_hole_exact(g, 4)
        assert (w is not None) == brute_force_has_hole(g, 4), (trial, n, p)
        assert w == plain_branch_and_bound(g, 4), (trial, n, p)
        if w is not None:
            assert rm.verify_hole(g, w, 4)
            found += 1
        else:
            empty += 1
    assert found >= 30 and empty >= 30


def test_find_hole_exact_matches_plain_search_at_the_caps():
    """Identical witnesses to the plain search at 60 vertices and size 8.

    G(60, 0.47) at s = 8 is the benchmark's host (4 of these 12 hold a
    hole); bipartite G(30, 30, 0.4) at s = 6..8 covers the 2-class branch
    (7 of 12).  Filtering later candidates against the first vertex's
    swap-symmetry mask turns real holes into "no hole" here.
    """
    holes = 0
    for seed in range(12):
        g = rm.sample_gnp(60, 0.47, seed)
        w = rm.find_hole_exact(g, 8)
        assert w == plain_branch_and_bound(g, 8), seed
        holes += w is not None
    assert holes == 4
    holes = 0
    for seed in range(12):
        s = 6 + seed % 3
        g = rm.sample_bipartite(30, 30, 0.4, seed)
        w = rm.find_hole_exact(g, s)
        assert w == plain_branch_and_bound(g, s), (seed, s)
        holes += w is not None
    assert holes == 7


def test_find_hole_exact_finds_planted_holes(plant_hole):
    for p in (0.47, 0.6):
        for seed in range(20):
            g, left, right = plant_hole(rm.sample_gnp(60, p, seed), 8, seed)
            assert rm.verify_hole(g, HoleWitness(left, right), 8)
            w = rm.find_hole_exact(g, 8)
            assert w is not None and rm.verify_hole(g, w, 8), (p, seed)


def test_find_hole_exact_caps():
    with pytest.raises(CapExceededError):
        rm.find_hole_exact(Graph.empty(61), 2)
    with pytest.raises(CapExceededError):
        rm.find_hole_exact(Graph.empty(20), 9)
    with pytest.raises(ValueError):
        rm.find_hole_exact(Graph.empty(20), 0)
    # hosts and holes exactly at the caps are searched
    assert rm.find_hole_exact(Graph.empty(60), 2) is not None
    assert rm.find_hole_exact(Graph.empty(20), 8) is not None


def test_heuristic_returns_verified_witnesses_only():
    for seed in range(25):
        g = rm.sample_gnp(30, 0.15, seed)
        w = rm.find_hole_heuristic(g, 4, iters=300, seed=seed)
        if w is not None:
            assert rm.verify_hole(g, w, 4)


def test_heuristic_trivial_and_degenerate():
    w = rm.find_hole_heuristic(Graph.empty(10), 5, iters=1, seed=0)
    assert w is not None
    assert rm.find_hole_heuristic(Graph.empty(10), 6, iters=5, seed=0) is None  # 2s > n
    assert rm.find_hole_heuristic(Graph.complete(10), 1, iters=50, seed=0) is None
    bip = rm.sample_bipartite(3, 8, 0.2, 1)
    assert rm.find_hole_heuristic(bip, 4, iters=5, seed=0) is None  # class too small
    with pytest.raises(ValueError):
        rm.find_hole_heuristic(Graph.empty(4), 0)


def test_heuristic_recall_floor_on_exact_holes():
    """Recall at the exact-search scale, so that a weaker search fails.

    For seeds 0..39, the exact search proves a size-8 hole in 29 of the
    G(52, 0.42) hosts.  The earlier implementation of this search on numpy
    bool rows found 11 of them with 100 restarts, which is the floor; the
    bitset search finds 15, and either finds about 1 with 10 restarts.
    """
    holes = finds = 0
    for seed in range(40):
        g = rm.sample_gnp(52, 0.42, seed)
        if rm.find_hole_exact(g, 8) is None:
            continue
        holes += 1
        w = rm.find_hole_heuristic(g, 8, iters=100, seed=seed)
        if w is not None:
            assert rm.verify_hole(g, w, 8)
            finds += 1
    assert holes == 29
    assert finds >= 11


def test_heuristic_bipartite_witness_spans_both_classes():
    # K_{10,10} minus the block {0..3} x {10..13}: that block is the only 4-hole
    block = {(u, v) for u in range(4) for v in range(10, 14)}
    kb = Graph.complete_bipartite(10, 10)
    g = Graph(20, [e for e in kb.edges if e not in block], side=kb.side)
    w = rm.find_hole_heuristic(g, 4, iters=50, seed=3)
    assert w == HoleWitness(frozenset(range(4)), frozenset(range(10, 14)))
    assert rm.verify_hole(g, w, 4)

    # each of these sparse hosts holds a 4-hole, and the search finds them all
    for seed in range(20):
        g = rm.sample_bipartite(16, 16, 0.25, seed)
        w = rm.find_hole_heuristic(g, 4, iters=100, seed=seed)
        assert w is not None and rm.verify_hole(g, w, 4)
        assert {g.side[v] for v in w.left} == {0}
        assert {g.side[v] for v in w.right} == {1}


def test_heuristic_agrees_with_exact_search():
    """On hosts where the exact search finds a hole, the heuristic rarely misses."""
    cases = misses = 0
    for seed in range(150):
        g = rm.sample_gnp(18, 0.35, seed)
        if rm.find_hole_exact(g, 3) is None:
            continue
        cases += 1
        if rm.find_hole_heuristic(g, 3, iters=2000, seed=seed) is None:
            misses += 1
    assert cases >= 80
    assert misses <= 0.05 * cases


# ── Monte Carlo estimation ───────────────────────────────────────────────────


def test_wilson_interval():
    low, high = rm.wilson_interval(0, 10)
    assert low == 0.0 and 0.25 < high < 0.35
    low, high = rm.wilson_interval(10, 10)
    assert high == 1.0 and 0.65 < low < 0.75
    low, high = rm.wilson_interval(50, 100)
    assert low < 0.5 < high
    assert low == pytest.approx(0.40383, abs=1e-4)
    with pytest.raises(ValueError):
        rm.wilson_interval(5, 0)
    with pytest.raises(ValueError):
        rm.wilson_interval(11, 10)


def test_estimate_extreme_probabilities():
    full = rm.estimate_hole_probability("gnp", 12, 2, 10, 1, p=1.0)
    assert full.holes == 0 and full.freq == 0
    empty = rm.estimate_hole_probability("gnp", 12, 2, 10, 1, p=0.0)
    assert empty.holes == 10 and empty.freq == 1
    assert empty.ci_high == 1.0
    assert empty.mode == "exact"  # auto resolves under the caps


def test_estimate_validation():
    with pytest.raises(ValueError):
        rm.estimate_hole_probability("gnp", 12, 2, 10, 1)  # p missing
    with pytest.raises(ValueError):
        rm.estimate_hole_probability("gnp", 12, 2, 10, 1, p=0.5, d=3)
    with pytest.raises(ValueError):
        rm.estimate_hole_probability("pairing", 12, 2, 10, 1, p=0.5)
    with pytest.raises(ValueError):
        rm.estimate_hole_probability("pairing", 5, 2, 10, 1, d=3)  # odd n*d
    with pytest.raises(ValueError):
        rm.estimate_hole_probability("gnp", 12, 7, 10, 1, p=0.5)  # 2s > n
    with pytest.raises(ValueError):
        rm.estimate_hole_probability("bipartite", 4, 5, 10, 1, p=0.5)
    with pytest.raises(ValueError):
        rm.estimate_hole_probability("erdos", 12, 2, 10, 1, p=0.5)
    with pytest.raises(ValueError):
        rm.estimate_hole_probability("gnp", 12, 2, 10, 1, p=0.5, mode="psychic")


def test_estimate_deterministic_and_worker_invariant():
    kw = dict(p=0.4, mode="exact")
    base = rm.estimate_hole_probability("gnp", 20, 3, 24, 7, **kw)
    again = rm.estimate_hole_probability("gnp", 20, 3, 24, 7, **kw)
    assert base.as_dict() == again.as_dict()
    # trial i searches the host drawn from child_seed(seed, i, 0); at p = 0.75
    # about half the hosts have a hole, so the count is not trivially 0 or 24
    half = rm.estimate_hole_probability("gnp", 20, 3, 24, 7, p=0.75, mode="exact")
    for p, rep in ((0.4, base), (0.75, half)):
        expected = sum(
            rm.find_hole_exact(rm.sample_gnp(20, p, rm.child_seed(7, i, 0)), 3) is not None
            for i in range(24)
        )
        assert rep.holes == expected
    other_seed = rm.estimate_hole_probability("gnp", 20, 3, 24, 8, **kw)
    assert base.holes != other_seed.holes or base.seed != other_seed.seed


def test_estimate_report_schema():
    rep = rm.estimate_hole_probability("pairing", 14, 2, 8, 5, d=3)
    doc = rep.as_dict()
    assert list(doc) == [
        "model", "params", "trials", "holes", "freq",
        "ci_low", "ci_high", "mode", "seed", "version",
    ]
    assert doc["model"] == "pairing"
    assert doc["params"] == {"n": 14, "s": 2, "d": 3}
    assert doc["trials"] == 8
    assert isinstance(doc["freq"], str)  # exact rational rendering
    assert rep.freq == Fraction(rep.holes, rep.trials)
    assert doc["ci_low"] <= rep.holes / rep.trials <= doc["ci_high"]


def test_estimate_hole_frequency_decreasing_in_p():
    """Denser hosts have fewer holes; adjacent grid points may tie within CI."""
    freqs = []
    for p in (0.05, 0.15, 0.30, 0.50, 0.75):
        rep = rm.estimate_hole_probability("gnp", 24, 3, 60, 12, p=p, mode="exact")
        freqs.append((rep.freq, rep.ci_low, rep.ci_high))
    for (f1, lo1, hi1), (f2, lo2, hi2) in zip(freqs, freqs[1:]):
        assert f2 <= f1 or lo2 <= hi1  # decreasing up to CI overlap
    assert freqs[0][0] > freqs[-1][0]  # strictly smaller across the whole sweep


def test_child_seed_determinism():
    a = rm.child_seed(5, 3, 0).generate_state(4)
    b = rm.child_seed(5, 3, 0).generate_state(4)
    c = rm.child_seed(5, 3, 1).generate_state(4)
    d = rm.child_seed(6, 3, 0).generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
