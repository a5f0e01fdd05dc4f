"""Tests for random graph samplers, hole search, and Monte Carlo estimation."""

from __future__ import annotations

import hashlib
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np
import pytest

import ramsey_lab.random_models as rm
import ramsey_lab.threshold_solver as ts
from ramsey_lab.constructions import Graph, Multigraph
from ramsey_lab.errors import CapExceededError
from ramsey_lab.random_models import HoleWitness

from conftest import adjacency_bitsets, has_edge, with_edge


# ── binomial samplers ────────────────────────────────────────────────────────


def test_gnp_deterministic_per_seed():
    a = rm.sample_gnp(30, 0.3, 99)
    b = rm.sample_gnp(30, 0.3, 99)
    c = rm.sample_gnp(30, 0.3, 100)
    assert a == b
    assert a != c


def test_gnp_extremes():
    assert rm.sample_gnp(12, 0.0, 1) == Graph(12, [])
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


@pytest.mark.parametrize("n", [1, 2, 3, 60, 400, 1414])
@pytest.mark.parametrize("p", [0.0, 0.16, 0.5, 1.0])
def test_gnp_uniform_j_decides_the_jth_upper_triangle_pair(n, p):
    # oracle: the row-major upper-triangle pair table, masked by the same uniforms
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    expected = np.column_stack((iu[mask], iv[mask])).astype(np.int64)
    assert np.array_equal(rm.sample_gnp(n, p, 7).ends, expected)


@pytest.mark.parametrize("n, sha256", [
    (400, "683e90e34739efe543eeaca94dc73c464964927d3f97c83eee6dbdf51addc5e0"),
    (800, "704c25a6644c2f2a11fc25c8dc1da0284d6b3e9ff38ea4f8588d50a748785f24"),
])
def test_gnp_criterion_10_first_hosts_frozen(n, sha256):
    d = ts.gnp_min_density(Fraction(1, 10))
    ends = rm.sample_gnp(n, d / n, rm.child_seed(20260814, 0, 0)).ends
    assert ends.dtype == np.dtype("<i8")
    assert hashlib.sha256(ends.tobytes()).hexdigest() == sha256


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
    from_array = Multigraph(3, np.array([[2, 1], [0, 0], [1, 2]]))
    assert from_array.edges == mg.edges == ((0, 0), (1, 2), (1, 2))
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 2)])


@pytest.mark.parametrize("draw, fits, too_large", [
    (lambda n: rm.sample_gnp(n, 0.0, 1), 1414, 1415),  # n(n-1)/2: 998,991 and 1,000,405 pairs
    (lambda n: rm.sample_bipartite(n, 1000, 0.0, 1), 1000, 1001),  # 1000n pairs
    (lambda n: rm.sample_pairing(n, 4, 1), 1000, 250_001),  # 4n points
], ids=["gnp", "bipartite", "pairing"])
def test_samplers_refuse_draws_over_the_build_cap(draw, fits, too_large):
    draw(fits)
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError, match="over the build cap"):
        draw(too_large)
    with pytest.raises(CapExceededError, match="over the build cap"):
        draw(10**6)
    assert time.perf_counter() - t0 < 1.0


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
        lefts = combinations([v for v in range(graph.n) if graph.side[v] == 0], s)
        rights = list(combinations([v for v in range(graph.n) if graph.side[v] == 1], s))
        for left in lefts:
            for right in rights:
                if not any(has_edge(graph, u, v) for u in left for v in right):
                    return True
        return False
    verts = range(graph.n)
    for left in combinations(verts, s):
        rest = [v for v in verts if v not in left]
        for right in combinations(rest, s):
            if not any(has_edge(graph, u, v) for u in left for v in right):
                return True
    return False


def plain_branch_and_bound(graph: Graph, s: int) -> Optional[HoleWitness]:
    """Reference oracle: the search that prunes only when the right pool drops below s.

    Left sets in increasing vertex order; the first whose pool keeps s
    right vertices is returned with the s smallest of them.  Without
    2-class labels the right set lies above the left set's minimum.
    """
    adj = adjacency_bitsets(graph)
    if graph.side is not None:
        lefts = [v for v in range(graph.n) if graph.side[v] == 0]
        pool0 = sum(1 << v for v in range(graph.n) if graph.side[v] == 1)
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
    assert not rm.verify_hole(g, HoleWitness(frozenset({1}), frozenset({0})))  # edge (0, 1)
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({0})))  # overlap
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({4, 5})))  # sizes
    assert not rm.verify_hole(g, HoleWitness(frozenset(), frozenset()))  # empty
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({9})))  # range
    assert not rm.verify_hole(g, HoleWitness(frozenset({0}), frozenset({4})), size=2)

    kb = with_edge(Graph.complete_bipartite(2, 2), 0, 1)
    # crossing pair with no edge is NOT a hole here: sides must differ
    assert not rm.verify_hole(kb, HoleWitness(frozenset({0}), frozenset({1})))


def host_rows_oracle(graph: Graph) -> tuple[list[int], list[int], list[int]]:
    """The host table as Python ints of 64 * ceil(n/64) bits, from the edge tuples."""
    adj = adjacency_bitsets(graph)
    full = (1 << 64 * -(-graph.n // 64)) - 1
    if graph.side is None:
        sides = [(1 << graph.n) - 1] * 2
    else:
        sides = [sum(1 << v for v in range(graph.n) if graph.side[v] == k) for k in (0, 1)]
    clear = [full & ~(1 << v) for v in range(graph.n)]
    drop = [full & ~(adj[v] | 1 << v) for v in range(graph.n)]
    return sides, clear, drop


def test_host_rows_match_a_python_oracle():
    """sides, clear and drop equal the int-bitset oracle, across word boundaries."""

    def as_ints(table: np.ndarray) -> list[int]:
        assert table.dtype == np.uint64
        return [sum(w << 64 * i for i, w in enumerate(row)) for row in table.tolist()]

    for n in (1, 2, 63, 64, 65, 129, 400):
        hosts = [Graph(n, []), Graph.complete(n), rm.sample_gnp(n, 0.3, n)]
        if n >= 2:
            hosts += [Graph.complete_bipartite(n // 2, n - n // 2),
                      rm.sample_bipartite(n // 2, n - n // 2, 0.4, n)]
        for g in hosts:
            tables = rm._host_rows(g)
            assert [t.shape for t in tables] == [(2, -(-n // 64)), (n, -(-n // 64)),
                                                 (n, -(-n // 64))]
            assert [as_ints(t) for t in tables] == list(host_rows_oracle(g)), (
                n, g.edge_count, g.side is None)


def test_find_hole_exact_trivia():
    assert rm.find_hole_exact(Graph.complete(8), 1) is None
    assert rm.find_hole_exact(Graph(0, []), 1) is None
    assert rm.find_hole_exact(Graph(8, []), 5) is None  # 2s > n
    w = rm.find_hole_exact(Graph(8, []), 4)
    assert w is not None and rm.verify_hole(Graph(8, []), w, 4)
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
        rm.find_hole_exact(Graph(61, []), 2)
    with pytest.raises(CapExceededError):
        rm.find_hole_exact(Graph(20, []), 9)
    with pytest.raises(ValueError):
        rm.find_hole_exact(Graph(20, []), 0)
    # hosts and holes exactly at the caps are searched
    assert rm.find_hole_exact(Graph(60, []), 2) is not None
    assert rm.find_hole_exact(Graph(20, []), 8) is not None


def test_exact_vertex_cap_fits_one_word():
    # the exact search packs each right pool in one uint64
    assert rm.HOLE_EXACT_VERTEX_CAP <= 64


def shuffled_classes(base: Graph, rng: random.Random) -> Graph:
    """A 2-class host with its vertices permuted by rng, so that its classes interleave."""
    perm = list(range(base.n))
    rng.shuffle(perm)
    side = [0] * base.n
    for v in range(base.n):
        side[perm[v]] = base.side[v]
    return Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges], side=side)


def test_find_hole_exact_matches_plain_search_on_shuffled_classes():
    """2-class hosts whose classes interleave, so left indices and vertices differ."""
    holes = empty = 0
    for seed in range(24):
        rng = random.Random(seed)
        n1, n2 = rng.randint(4, 14), rng.randint(4, 14)
        g = shuffled_classes(rm.sample_bipartite(n1, n2, rng.choice([0.3, 0.5, 0.7]), seed), rng)
        s = rng.randint(1, 4)
        w = rm.find_hole_exact(g, s)
        assert w == plain_branch_and_bound(g, s), (seed, s)
        holes += w is not None
        empty += w is None
    assert holes >= 6 and empty >= 6


def test_find_hole_exact_uses_the_top_vertex():
    """A planted hole whose right set holds vertex 59, the pool's highest bit."""
    for seed in range(6):
        # vertex 0 on the left: the swap symmetry puts a hole's minimum there
        picked = random.Random(seed).sample(range(1, 59), 14)
        left, right = {0, *picked[:7]}, {*picked[7:], 59}
        g = rm.sample_gnp(60, 0.7, seed)
        g = Graph(60, [(u, v) for u, v in g.edges
                       if not (u in left and v in right or u in right and v in left)])
        w = rm.find_hole_exact(g, 8)
        assert w == plain_branch_and_bound(g, 8), seed
        assert 59 in w.right, seed


def test_find_hole_exact_matches_plain_search_at_size_one():
    """s = 1 on 1-class hosts: the root's symmetry mask and the leaf in one step."""
    holes = empty = 0
    for seed in range(40):
        n = 2 + seed % 12
        g = rm.sample_gnp(n, (0.6, 0.85, 0.95)[seed % 3], seed)
        w = rm.find_hole_exact(g, 1)
        assert w == plain_branch_and_bound(g, 1), seed
        holes += w is not None
        empty += w is None
    assert holes >= 10 and empty >= 5


def test_find_hole_exact_matches_plain_search_on_sparse_hosts():
    """Sparse 60-vertex hosts at s = 8, where the first blocks already hold a hole."""
    for p in (0.05, 0.3):
        for seed in range(4):
            g = rm.sample_gnp(60, p, seed)
            w = rm.find_hole_exact(g, 8)
            assert w is not None and w == plain_branch_and_bound(g, 8), (p, seed)


def test_find_hole_exact_witness_does_not_depend_on_the_block_cap(monkeypatch):
    """The same witness as the plain search whatever the most rows one step expands.

    Blocks of 1 and 3 rows split nearly every frame; 256 and 1024 split the
    dense hosts' frames at different rows.
    """
    hosts = [(rm.sample_gnp(60, p, seed), 8) for p in (0.05, 0.30) for seed in range(2)]
    hosts += [(rm.sample_gnp(60, 0.47, seed), 8) for seed in range(5)]
    hosts += [(rm.sample_bipartite(30, 30, 0.4, seed), 6 + seed % 3) for seed in range(3)]
    hosts += [(rm.sample_gnp(2 + seed, 0.85, seed), 1) for seed in range(8)]
    hosts += [(rm.sample_bipartite(3, 4, 0.9, seed), 1) for seed in range(6)]
    expected = [plain_branch_and_bound(g, s) for g, s in hosts]
    assert 10 <= sum(w is not None for w in expected) <= len(hosts) - 5
    for block in (1, 3, 256, 1024):
        monkeypatch.setattr(rm, "_EXACT_BLOCK", block)
        for i, (g, s) in enumerate(hosts):
            assert rm.find_hole_exact(g, s) == expected[i], (block, i)


class _RankSpy:
    """numpy as `random_models` sees it, recording each exact-search step's rank inputs.

    A step lists its (rows, candidates) live mask with ``flatnonzero`` and
    then ranks the list against ``arange(need - 1, ...)``; each step is kept
    as the pair (live candidates per row, need).
    """

    def __init__(self):
        self.steps: list[tuple[np.ndarray, int]] = []
        self._counts = None

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, a):
        if a.ndim == 2:
            self._counts = a.sum(1)
        return np.flatnonzero(a)

    def arange(self, *args):
        if len(args) == 2 and self._counts is not None:
            self.steps.append((self._counts, int(args[0]) + 1))
            self._counts = None
        return np.arange(*args)


def test_find_hole_exact_rank_rule_edge_frames(monkeypatch):
    """The rank rule keeps a live candidate iff need - 1 more live ones follow it in its row.

    Small dense hosts give frames whose rows are empty (the last one too),
    rows with fewer than need live candidates, need = 1 steps, s = 1 and
    bipartite hosts; at every block cap the witness must be the plain
    search's, and the spy shows that each kind of frame occurred.
    """
    shapes = ((14, 0.75, 3), (20, 0.7, 3), (12, 0.8, 2), (9, 0.9, 1), (24, 0.65, 4))
    hosts = [(rm.sample_gnp(n, p, seed), s) for seed in range(6) for n, p, s in shapes]
    hosts += [(rm.sample_bipartite(8, 9, 0.35, seed), 3) for seed in range(6)]
    hosts += [(rm.sample_bipartite(3, 4, 0.9, seed), 1) for seed in range(6)]
    expected = [plain_branch_and_bound(g, s) for g, s in hosts]
    assert 10 <= sum(w is not None for w in expected) <= len(hosts) - 10
    spy = _RankSpy()
    monkeypatch.setattr(rm, "np", spy)
    for block in (1, 3, 1024):
        monkeypatch.setattr(rm, "_EXACT_BLOCK", block)
        spy.steps.clear()
        for i, (g, s) in enumerate(hosts):
            assert rm.find_hole_exact(g, s) == expected[i], (block, i)
        steps = spy.steps
        assert sum(c[-1] == 0 for c, _ in steps) >= 10, block  # last row empty
        assert sum(bool(((c > 0) & (c < need)).any()) for c, need in steps) >= 10, block
        assert sum(need == 1 for _, need in steps) >= 10, block
        if block > 1:
            assert sum(bool((c[:-1] == 0).any()) for c, _ in steps) >= 10, block
            assert sum(len(c) > 1 for c, _ in steps) >= 10, block


def test_exact_live_table_matches_an_oracle():
    """Row last + 1 of the table for size s reads s where j > last and out of reach elsewhere."""
    table = rm._NEED_AT
    assert table.dtype == np.uint8
    assert table.shape == (rm.HOLE_EXACT_SIZE_CAP + 1, rm.HOLE_EXACT_VERTEX_CAP + 1,
                           rm.HOLE_EXACT_VERTEX_CAP)
    out_of_reach = 255  # above 64, the most vertices a uint64 pool holds
    for s in range(rm.HOLE_EXACT_SIZE_CAP + 1):
        for last in range(-1, rm.HOLE_EXACT_VERTEX_CAP):
            expected = [s if j > last else out_of_reach for j in range(rm.HOLE_EXACT_VERTEX_CAP)]
            assert table[s, last + 1].tolist() == expected, (s, last)


def test_find_hole_exact_live_table_rows(monkeypatch):
    """The live test reads the table at each node's last index + 1; witnesses stay the plain search's.

    A spy on the table records the rows each step reads.  Every search reads
    the root row (last = -1).  A node whose only later candidate is the
    final one reads the last row in reach: random hosts rarely push one, so
    hand-built 2-class hosts force it at every s from 2 to 8.  No node's
    last is the final candidate itself: the rank rule keeps such a child
    only at need = 1, where the search returns, so the all-out-of-reach row
    is never read.  Hosts: s = 1, s = 8, dense small hosts and bipartite
    ones, whose left set is class 0 alone and need not start at vertex 0.
    """
    reads: list[np.ndarray] = []

    class TableSpy(np.ndarray):
        def take(self, indices, axis=None, out=None, mode="raise"):
            reads.append(np.array(indices))
            return self.view(np.ndarray).take(indices, axis, out, mode)

    def split_pool_host(s):
        """Left class 0..s-1 and right class s..3s-1, with no hole of size s.

        The last two left vertices miss disjoint halves of the right class
        and the others miss all of it, so the node of the first s - 1 left
        vertices keeps a pool of s but its only child, the final candidate,
        has none.
        """
        edges = [(s - 2, v) for v in range(2 * s, 3 * s)] + [(s - 1, v) for v in range(s, 2 * s)]
        return Graph(3 * s, edges, side=[0] * s + [1] * (2 * s))

    hosts = [(split_pool_host(s), s) for s in range(2, rm.HOLE_EXACT_SIZE_CAP + 1)]
    hosts += [(rm.sample_gnp(2 + seed % 8, 0.85, seed), 1) for seed in range(16)]
    hosts += [(rm.sample_gnp(60, p, seed), 8) for p in (0.05, 0.47) for seed in range(3)]
    hosts += [(rm.sample_gnp(14, 0.75, seed), 3) for seed in range(6)]
    hosts += [(shuffled_classes(rm.sample_bipartite(n1, n2, p, seed), random.Random(seed)), s)
              for n1, n2, p, s in ((8, 13, 0.35, 3), (3, 5, 0.9, 1)) for seed in range(6)]
    expected = [plain_branch_and_bound(g, s) for g, s in hosts]
    assert 10 <= sum(w is not None for w in expected) <= len(hosts) - 10
    monkeypatch.setattr(rm, "_NEED_AT", rm._NEED_AT.view(TableSpy))
    for block in (1, 3, 1024):
        monkeypatch.setattr(rm, "_EXACT_BLOCK", block)
        last_in_reach = 0
        for i, (g, s) in enumerate(hosts):
            reads.clear()
            assert rm.find_hole_exact(g, s) == expected[i], (block, i)
            n_left = g.n if g.side is None else g.side.count(0)
            rows = np.concatenate(reads) if reads else np.zeros(0, int)
            if 2 * s <= g.n:
                assert rows[0] == 0, (block, i)  # the root, last = -1
            assert rows.min(initial=0) >= 0 and rows.max(initial=0) < n_left, (block, i)
            last_in_reach += int((rows == n_left - 1).sum())
        assert last_in_reach >= rm.HOLE_EXACT_SIZE_CAP - 1, block


def test_heuristic_returns_verified_witnesses_only():
    for seed in range(25):
        g = rm.sample_gnp(30, 0.15, seed)
        w = rm.find_hole_heuristic(g, 4, iters=300, seed=seed)
        if w is not None:
            assert rm.verify_hole(g, w, 4)


def test_heuristic_trivial_and_degenerate():
    w = rm.find_hole_heuristic(Graph(10, []), 5, iters=1, seed=0)
    assert w is not None
    assert rm.find_hole_heuristic(Graph(10, []), 6, iters=5, seed=0) is None  # 2s > n
    assert rm.find_hole_heuristic(Graph.complete(10), 1, iters=50, seed=0) is None
    bip = rm.sample_bipartite(3, 8, 0.2, 1)
    assert rm.find_hole_heuristic(bip, 4, iters=5, seed=0) is None  # class too small
    for side in ([0] * 10, [1] * 10):  # an empty class, where a restart would have no pool
        assert rm.find_hole_heuristic(Graph(10, [], side=side), 2, iters=600, seed=0) is None
    with pytest.raises(ValueError):
        rm.find_hole_heuristic(Graph(4, []), 0)


def test_heuristic_host_table_is_capped_before_it_is_built():
    """A search table of n * ceil(n/64) words counts against BUILD_SIZE_CAP: 8,000 vertices fit."""
    big = Graph(8001, [])  # 8001 * 126 words
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="hole search bitset words"):
            rm.find_hole_heuristic(big, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one table would take 8 MB
    g = Graph(8000, [])  # 8000 * 125 words, exactly the cap
    w = rm.find_hole_heuristic(g, 1)
    assert w is not None and rm.verify_hole(g, w, 1)


def test_hole_searches_and_verify_read_no_cached_adjacency(monkeypatch):
    """The searches read their own host table and verify_hole reads the edge array.

    With the graph's edges tuple view made to raise,
    every search, re-check and Monte Carlo returns what it returns without
    the patch: no derived copy of the edges could fool a search and its
    check together, and no host on the hole path becomes Python tuples.
    """
    hosts = [(rm.sample_gnp(24, 0.55, seed), 4) for seed in range(6)]
    hosts += [(rm.sample_bipartite(9, 11, 0.6, seed), 3) for seed in range(6)]
    hosts += [(rm.sample_pairing(30, 4, seed).support_graph(), 5) for seed in range(6)]
    runs = [(model, mode, dict(p=0.3) if model != "pairing" else dict(d=4))
            for model in ("gnp", "bipartite", "pairing") for mode in ("exact", "heuristic")]

    def results():
        out = []
        for i, (g, s) in enumerate(hosts):
            found = [rm.find_hole_exact(g, s), rm.find_hole_heuristic(g, s, iters=20, seed=i)]
            u, v = g.ends[0].tolist()
            crossing = HoleWitness(frozenset([u]), frozenset([v]))
            checks = [rm.verify_hole(g, w, s) for w in found if w is not None]
            out.append((found, checks, rm.verify_hole(g, crossing)))
        for model, mode, kw in runs:
            out.append(rm.estimate_hole_probability(model, 16, 3, 4, 7, mode=mode, iters=20, **kw))
        return out

    expected = results()
    monkeypatch.setattr(Multigraph, "edges", property(lambda _: pytest.fail("built the edges tuples")))
    assert results() == expected
    finds = [w for found, _, _ in expected[:len(hosts)] for w in found if w is not None]
    assert len(finds) >= 12 and all(c for _, checks, _ in expected[:len(hosts)] for c in checks)
    assert {r.holes for r in expected[len(hosts):]} != {0}


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


def lockstep_reference(graph: Graph, s: int, iters: int, seed, block: int,
                       skips: Optional[list] = None) -> Optional[HoleWitness]:
    """Reference oracle: the heuristic's rule one restart at a time, on Python ints.

    Blocks of restarts as in ``find_hole_heuristic`` (one restart, then
    ``block`` at a time); each step of a block draws a (block width, 10)
    array of uniforms, and restart j of the block reads row j of it.  A
    step whose rows after the last live restart go unread, in a block that
    a later block follows, appends the block's first restart to ``skips``.
    """
    n = graph.n
    if 2 * s > n:
        return None
    adj = adjacency_bitsets(graph)
    if graph.side is not None:
        base = [sum(1 << v for v, c in enumerate(graph.side) if c == k) for k in (0, 1)]
        if min(b.bit_count() for b in base) < s:
            return None
    else:
        base = [(1 << n) - 1] * 2
    rng = np.random.default_rng(seed)
    iters, done = max(1, iters), 0
    while done < iters:
        width = block if done else 1
        rows = [(list(base), [[], []]) for _ in range(min(width, iters - done))]
        live = list(range(len(rows)))
        for _ in range(2 * s):
            if not live:
                break
            if skips is not None and live[-1] + 1 < width and done + width < iters:
                skips.append(done)
            u = rng.random((width, 10))
            for j in list(live):
                pools, sets = rows[j]
                sizes = [len(sets[0]), len(sets[1])]
                side = int(u[j, 0] < 0.5) if sizes[0] == sizes[1] else int(sizes[0] > sizes[1])
                members = [v for v in range(n) if pools[side] >> v & 1]
                cands = [members[int(x * len(members))] for x in u[j, 2:]]
                kept = [(pools[1 - side] & ~(adj[c] | 1 << c)).bit_count() for c in cands]
                c = cands[0] if u[j, 1] < 0.4 else cands[kept.index(max(kept))]
                sets[side].append(c)
                pools[side] &= ~(1 << c)
                pools[1 - side] &= ~(adj[c] | 1 << c)
                if any(pools[k].bit_count() < s - len(sets[k]) for k in (0, 1)):
                    live.remove(j)
        for j in live:
            left, right = (frozenset(x) for x in rows[j][1])
            if graph.side is None and min(right) < min(left):
                left, right = right, left
            if rm.verify_hole(graph, HoleWitness(left, right), s):
                return HoleWitness(left, right)
        done += width
    return None


def test_heuristic_matches_the_reference(monkeypatch):
    """Identical witnesses (or None) to the one-restart-at-a-time oracle.

    With the real block size, with blocks of 3 so that 10 restarts cross
    several block boundaries, and with 25 restarts in blocks of 4.  About
    half of the searches find a hole.  The search draws each step's rows
    only up to its last live restart and advances the generator past the
    rest; the oracle draws them all, and in some of its blocks the last
    restarts die before earlier ones while a later block still follows.
    """
    finds = misses = 0
    skips: list[int] = []
    for block, sizes in ((rm._HEURISTIC_BLOCK, (1, 10)), (3, (1, 10)), (4, (25,))):
        monkeypatch.setattr(rm, "_HEURISTIC_BLOCK", block)
        for seed in range(24):
            if seed % 3 == 0:
                g, s = rm.sample_bipartite(9, 11, 0.6, seed), 3
            else:
                g, s = rm.sample_gnp(24, (0.55, 0.65)[seed % 2], seed), 4
            for iters in sizes:
                w = rm.find_hole_heuristic(g, s, iters=iters, seed=rm.child_seed(seed, 1))
                expected = lockstep_reference(g, s, iters, rm.child_seed(seed, 1), block, skips)
                assert w == expected, (block, seed, iters)
                finds += w is not None
                misses += w is None
    assert finds >= 30 and misses >= 30
    assert len(skips) >= 20


def test_heuristic_restart_streams():
    """Restart r depends on the seed and r alone, so a witness once found stays found.

    Restart 0 runs alone and each later block holds ``_HEURISTIC_BLOCK``
    restarts.  On each host, the witness that the smallest ``iters`` below
    finds is returned for every larger ``iters``, whether that cuts the
    block in which it was found or adds whole blocks after it.  The hosts
    have their first find in restart 0, in restart 1, inside the first full
    block and in the block after it.
    """
    block = rm._HEURISTIC_BLOCK
    sizes = (1, 2, 3, block, block + 1, block + 2, 2 * block + 1)
    hosts = [(40, 0.45, 6, seed) for seed in range(12)] + [(52, 0.42, 8, seed) for seed in (9, 20)]
    firsts = []
    for n, p, s, seed in hosts:
        g = rm.sample_gnp(n, p, seed)
        found = [rm.find_hole_heuristic(g, s, iters=a, seed=seed) for a in sizes]
        first = next(i for i, w in enumerate(found) if w is not None)
        assert rm.verify_hole(g, found[first], s)
        assert all(w == found[first] for w in found[first:]), (n, seed)
        firsts.append(sizes[first])
    assert {1, 2, block, 2 * block + 1} <= set(firsts)


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
    # trials times restarts (trials alone in exact mode) over the Monte Carlo cap
    cap = rm.MONTE_CARLO_CAP
    with pytest.raises(CapExceededError, match="Monte Carlo cap"):
        rm.estimate_hole_probability("gnp", 12, 2, cap // 1000 + 1, 1, p=0.5, mode="heuristic",
                                     iters=1000)
    with pytest.raises(CapExceededError, match="Monte Carlo cap"):
        rm.estimate_hole_probability("gnp", 12, 2, cap + 1, 1, p=0.5, mode="exact")
    assert rm.estimate_hole_probability("gnp", 12, 2, cap // 2000 + 1, 1, p=0.0).holes == 501


def test_estimate_refuses_an_oversized_search_before_sampling(monkeypatch):
    for name in ("sample_gnp", "sample_bipartite", "sample_pairing"):
        monkeypatch.setattr(rm, name, lambda *_, **__: pytest.fail("sampled a host"))
    with pytest.raises(CapExceededError, match="exact hole search capped at 60 vertices"):
        rm.estimate_hole_probability("gnp", 61, 2, 1, 1, p=0.5, mode="exact")
    with pytest.raises(CapExceededError, match="exact hole search capped at size 8"):
        rm.estimate_hole_probability("gnp", 40, 9, 1, 1, p=0.5, mode="exact")
    with pytest.raises(CapExceededError, match="hole search bitset words"):  # 8,002 vertices
        rm.estimate_hole_probability("bipartite", 4001, 1, 1, 1, p=0.5, mode="heuristic")
    with pytest.raises(CapExceededError, match="hole search bitset words"):
        rm.estimate_hole_probability("pairing", 500000, 1, 1, 1, d=2)


def _host(model: str, n: int, param, seed: int, i: int):
    """Trial i's host: drawn from child_seed(seed, i, 0) with p, or degree d for pairing."""
    sample_seed = rm.child_seed(seed, i, 0)
    if model == "gnp":
        return rm.sample_gnp(n, param, sample_seed)
    if model == "bipartite":
        return rm.sample_bipartite(n, n, param, sample_seed)
    return rm.sample_pairing(n, param, sample_seed).support_graph()


def _serial_heuristic_holes(model, n, s, trials, seed, param, iters) -> int:
    """Test-local oracle: heuristic Monte Carlo trials one after another."""
    return sum(
        rm.find_hole_heuristic(_host(model, n, param, seed, i), s, iters=iters,
                               seed=rm.child_seed(seed, i, 1)) is not None
        for i in range(trials)
    )


def test_estimate_deterministic_and_seeded_per_trial():
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

    # heuristic trials also seed their search from child_seed(seed, i, 1); the
    # counts lie strictly between 0 and the trials, so a wrong seed would show
    for model, n, s, param, holes in (("bipartite", 24, 5, 0.5, 5), ("gnp", 40, 5, 0.6, 4),
                                      ("pairing", 40, 8, 16, 3)):
        assert _serial_heuristic_holes(model, n, s, 6, 3, param, 40) == holes, model
        kw = {"d" if model == "pairing" else "p": param}
        rep = rm.estimate_hole_probability(model, n, s, 6, 3, mode="heuristic", iters=40, **kw)
        assert rep.holes == holes, model
        assert rep.as_dict() == rm.estimate_hole_probability(
            model, n, s, 6, 3, mode="heuristic", iters=40, **kw).as_dict()


def test_estimate_raises_the_lowest_failing_trial(monkeypatch):
    """The lowest-index failing trial's exception reaches the caller; later trials never run."""
    ran = []

    def search(g, s, iters, seed):
        i = seed.spawn_key[0]
        ran.append(i)
        if i in (1, 3):
            raise (ValueError if i == 1 else LookupError)(f"trial {i} failed")
        return None

    monkeypatch.setattr(rm, "sample_gnp", lambda n, p, seed: None)
    monkeypatch.setattr(rm, "find_hole_heuristic", search)
    with pytest.raises(ValueError, match="trial 1 failed"):
        rm.estimate_hole_probability("gnp", 20, 3, 4, 7, p=0.5, mode="heuristic", iters=40)
    assert ran == [0, 1]


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
