"""Tests for graph containers, tree builders and serialisation.

Also checks, on small hosts, the tree-embedding lemma of Friedman and
Pippenger (Combinatorica 1987): a host in which every small vertex set
expands embeds every small bounded-degree tree.  The expansion check and
the embedder are test-local helpers.
"""

from __future__ import annotations

import random
import re
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ramsey_lab.constructions as cons
from ramsey_lab.constructions import Graph, RootedTree
from ramsey_lab.errors import CapExceededError

from conftest import (adjacency_bitsets, has_edge, leaves, neighbors, tree_edges, tree_graph,
                      with_edge)


# ── small integer helpers ────────────────────────────────────────────────────


def test_ceil_log2_frozen():
    assert [cons.ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9, 1023, 1024, 1025)] == [
        0, 1, 2, 2, 3, 3, 4, 10, 10, 11,
    ]


def test_ceil_log2_is_the_least_covering_exponent():
    for n in range(1, 3000):
        t = cons.ceil_log2(n)
        assert 2**t >= n
        assert t == 0 or 2 ** (t - 1) < n


# ── Graph container ──────────────────────────────────────────────────────────


def test_graph_rejects_bad_input():
    # the first bad edge in input order, as given
    for edges, message in (
        ([(0, 1), (1, 1)], "loop at vertex 1 not allowed in a simple graph"),
        (np.array([[0, 1], [1, 1], [0, 3]]), "loop at vertex 1 not allowed in a simple graph"),
        ([(0, 3)], "edge (0, 3) out of range for n=3"),
        ([(1, 2), (-1, 0)], "edge (-1, 0) out of range for n=3"),
        (np.array([[2, 1], [3, 0], [1, 1]]), "edge (3, 0) out of range for n=3"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(3, edges)
    # triples are refused, never reshaped into pairs
    for edges in ([(0, 1, 2), (0, 1, 2)], np.array([[0, 1, 2], [0, 1, 2]]), [0, 1, 2, 0]):
        with pytest.raises(ValueError, match="pairs"):
            Graph(3, edges)
    # ids beyond int64, as Python ints and in a uint64 array
    huge = ([(0, 2**63)], [(2**70, 1)], [(-(2**70), 1)], np.array([[2**64 - 1, 0]], np.uint64))
    for edges in huge:
        with pytest.raises(ValueError, match="int64"):
            Graph(3, edges)
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1, [])
    with pytest.raises(ValueError, match="side"):
        Graph(3, [(0, 1)], side=[0, 1])
    with pytest.raises(ValueError, match="side"):
        Graph(3, [(0, 1)], side=[0, 1, 2])


def test_graph_normalizes_and_deduplicates_edges():
    g = Graph(4, [(2, 0), (0, 2), (3, 1)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.edge_count == 2
    assert has_edge(g, 2, 0) and has_edge(g, 0, 2)
    assert not has_edge(g, 0, 1)
    assert neighbors(g, 0) == [2]
    assert g.degrees() == [1, 1, 1, 1]

    # an (m, 2) array, and the same pairs shuffled, reversed and repeated as tuples
    rng = random.Random(3)
    for n in (1, 5, 30):
        pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        mixed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        mixed += rng.choices(mixed, k=len(mixed) // 2)
        rng.shuffle(mixed)
        h = Graph(n, mixed)
        assert g.edges == h.edges == tuple(pairs)
        assert g == h and hash(g) == hash(h)
        assert cons.serialize_graph(g) == cons.serialize_graph(h)


def _edge_orders(pairs: list[tuple[int, int]], rng: random.Random) -> dict[str, list]:
    """The same (u, v) pairs, u <= v, in the orders the edge normaliser must handle."""
    pairs = sorted(pairs)
    extra = rng.choices(pairs, k=len(pairs) // 2)
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs + extra]
    rng.shuffle(shuffled)
    return {
        "sorted": pairs,
        "sorted with repeats": sorted(pairs + extra),
        "swapped": [(v, u) for u, v in pairs],  # (max, min) rows, in order once normalised
        "reversed": pairs[::-1],
        "hi reversed": sorted(pairs, key=lambda e: (e[0], -e[1])),  # lo in order, hi not
        "shuffled with repeats": shuffled,
    }


_IN_ORDER = ("sorted", "sorted with repeats", "swapped")


@pytest.mark.parametrize("n", [7, 300, 2**33 + 5, 2**63 - 1])
def test_normalizer_matches_sorted_oracle(n, monkeypatch):
    lexsort, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    rng = random.Random(n)
    ids = sorted({0, n - 2, n - 1} | {rng.randrange(n) for _ in range(40)})
    pairs = [e for e in combinations(ids, 2) if rng.random() < 0.3 or e[0] == 0 and e[1] >= n - 2]
    loops = [(v, v) for v in rng.sample(ids, 3)]
    for graph_like, edges, oracle in (
        (Graph, pairs, lambda es: sorted({(min(e), max(e)) for e in es})),
        (cons.Multigraph, pairs + loops, lambda es: sorted((min(e), max(e)) for e in es)),
    ):
        for name, order in _edge_orders(edges, rng).items():
            expected = tuple(oracle(order))
            for given in (order, np.array(order, dtype=np.int64)):
                calls.clear()
                g = graph_like(n, given)
                assert g.edges == expected, (graph_like, name)
                assert len(calls) == (name not in _IN_ORDER), (graph_like, name)
                calls.clear()
                assert cons.serialize_graph(g) == reference_edge_list(n, expected)
                assert not calls  # canonical rows are never re-sorted
            calls.clear()
            text = cons.serialize_edge_list(n, order)
            assert text == reference_edge_list(n, order), name
            assert len(calls) == (name not in _IN_ORDER), name


def test_graph_constructors():
    k5 = Graph.complete(5)
    assert k5.edge_count == 10
    assert all(d == 4 for d in k5.degrees())

    k23 = Graph.complete_bipartite(2, 3)
    assert k23.edge_count == 6
    assert k23.side == (0, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="positive"):  # as for M0x3: a class may not be empty
        Graph.complete_bipartite(0, 3)

    c6 = Graph.cycle(6)
    assert c6.edge_count == 6
    assert all(d == 2 for d in c6.degrees())
    assert c6.side == (0, 1, 0, 1, 0, 1)
    assert Graph.cycle(5).side is None
    with pytest.raises(ValueError):
        Graph.cycle(2)

    assert Graph(4, []).edge_count == 0


def test_graph_equality_and_with_edge():
    g = Graph(3, [(0, 1)])
    assert g == Graph(3, [(1, 0)])
    assert hash(g) == hash(Graph(3, [(1, 0)])) == hash((3, ((0, 1),), None))
    assert g != Graph(3, [(0, 1)], side=[0, 1, 0])
    g2 = with_edge(g, 1, 2)
    assert g2.edges == ((0, 1), (1, 2))
    assert g.edges == ((0, 1),)  # original untouched


def test_complete_multipartite():
    g = cons.build_complete_multipartite([2, 2, 1])
    assert g.n == 5
    assert g.edge_count == 8
    assert g.side is None

    two = cons.build_complete_multipartite([3, 4])
    assert two == Graph.complete_bipartite(3, 4)
    assert two.side == (0, 0, 0, 1, 1, 1, 1)

    rng = random.Random(5)
    for _ in range(20):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        g = cons.build_complete_multipartite(sizes)
        assert g.n == sum(sizes)
        want = sum(a * b for a, b in combinations(sizes, 2))
        assert g.edge_count == want

    with pytest.raises(ValueError):
        cons.build_complete_multipartite([])
    with pytest.raises(ValueError):
        cons.build_complete_multipartite([2, 0])


# ── rooted trees ─────────────────────────────────────────────────────────────


def bfs_distances(graph: Graph, src: int) -> list[int]:
    """Plain queue BFS; the oracle for every distance claim below."""
    dist = [-1] * graph.n
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in neighbors(graph, u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def test_rooted_tree_requires_root_zero():
    with pytest.raises(ValueError):
        RootedTree(np.array([0, -1]), np.array([0, 1]))
    with pytest.raises(ValueError):
        RootedTree(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        RootedTree(np.array([-1, 0]), np.array([0]))


def test_leaf_tree_small_cases():
    t2 = cons.build_leaf_tree(2)
    assert t2.n == 3 and len(leaves(t2)) == 2

    t4 = cons.build_leaf_tree(4)  # perfect binary tree of height 2
    assert t4.n == 7
    assert list(leaves(t4)) == [3, 4, 5, 6]
    assert t4.max_degree() == 3

    t5 = cons.build_leaf_tree(5)  # levels of 1, 2, 3 and 5 vertices
    assert t5.n == 11
    rep = cons.verify_leaf_tree(t5, 5)
    assert rep["ok"] and rep["leaf_depth"] == 3 and rep["leaves"] == 5

    with pytest.raises(ValueError):
        cons.build_leaf_tree(1)
    with pytest.raises(ValueError):
        cons.build_leaf_tree(0)


def test_leaf_tree_is_built_level_by_level():
    for n in list(range(2, 2049)) + [9000, 10**4, 499_990]:
        tree = cons.build_leaf_tree(n)
        k = (n - 1).bit_length()
        widths = [-(-n // 2 ** (k - j)) for j in range(k + 1)]
        assert np.bincount(tree.depth).tolist() == widths, n
        assert np.array_equal(leaves(tree), np.arange(tree.n - n, tree.n)), n
        assert (np.diff(tree.parent[1:]) >= 0).all(), n
        if n == 2**k:
            assert np.array_equal(tree.parent[1:], np.arange(tree.n - 1) // 2), n


def test_leaf_tree_sweep_invariants():
    for n in list(range(2, 130)) + [255, 256, 257, 1000]:
        tree = cons.build_leaf_tree(n)
        rep = cons.verify_leaf_tree(tree, n)
        assert rep["ok"], (n, rep)
        assert rep["leaves"] == n
        assert rep["leaf_depth"] == cons.ceil_log2(n)
        assert rep["vertices"] <= 2 * n + cons.ceil_log2(n) - 2
        assert rep["max_degree"] <= 3
        assert rep["root_degree"] <= 2


def test_leaf_tree_depths_match_bfs():
    for n in (6, 11, 21):
        tree = cons.build_leaf_tree(n)
        dist = bfs_distances(tree_graph(tree), 0)
        assert dist == list(tree.depth)


def test_verify_leaf_tree_catches_tampering():
    tree = cons.build_leaf_tree(6)
    # pull one leaf up to hang off the root: leaf depth is no longer uniform
    parent = tree.parent.copy()
    depth = tree.depth.copy()
    leaf = int(leaves(tree)[-1])
    parent[leaf] = 0
    depth[leaf] = 1
    assert not cons.verify_leaf_tree(RootedTree(parent, depth), 6)["ok"]
    # lying about depth breaks the structural pass
    bad_depth = tree.depth.copy()
    bad_depth[-1] += 1
    assert not cons.verify_leaf_tree(RootedTree(tree.parent, bad_depth), 6)["ok"]
    # wrong leaf count
    assert not cons.verify_leaf_tree(tree, 7)["ok"]


def test_connector_path_case():
    # one leaf on each side: the connector degenerates to a path on n vertices
    t = cons.build_connector_tree(1, 1, 7)
    assert t.n == 7
    assert t.max_degree() <= 2
    rep = cons.verify_connector_tree(t, 1, 1, 7)
    assert rep["ok"] and rep["distance"] == 6


def test_connector_2_2_10():
    t = cons.build_connector_tree(2, 2, 10)
    assert t.n == 12
    rep = cons.verify_connector_tree(t, 2, 2, 10)
    assert rep["ok"]
    assert rep["distance"] == 9
    assert rep["parity_ok"] is True
    assert rep["max_degree"] <= 3


def test_connector_sweep_against_bfs_oracle():
    rng = random.Random(11)
    for _ in range(40):
        m1 = rng.randint(1, 6)
        m2 = rng.randint(1, 6)
        lo = 2 + cons.ceil_log2(m1) + cons.ceil_log2(m2)
        n = rng.randint(lo, lo + 12)
        t = cons.build_connector_tree(m1, m2, n)
        rep = cons.verify_connector_tree(t, m1, m2, n)
        assert rep["ok"], (m1, m2, n, rep)
        g = tree_graph(t)
        for x in t.x_leaves:
            dist = bfs_distances(g, int(x))
            assert all(dist[int(y)] == n - 1 for y in t.y_leaves)


def test_connector_even_n_classes_differ():
    for m1, m2, n in [(2, 3, 10), (4, 4, 12), (1, 5, 8)]:
        t = cons.build_connector_tree(m1, m2, n)
        rep = cons.verify_connector_tree(t, m1, m2, n)
        assert rep["parity_ok"] is True
        # explicit 2-colouring oracle: colour = parity of BFS distance from 0
        g = tree_graph(t)
        col = [d % 2 for d in bfs_distances(g, 0)]
        cx = {col[int(v)] for v in t.x_leaves}
        cy = {col[int(v)] for v in t.y_leaves}
        assert len(cx) == 1 and len(cy) == 1 and cx != cy


def test_connector_rejects_too_small_n():
    # (2, 2): joining path needs n >= 2 + ceil(log2 2) + ceil(log2 2) = 4
    t = cons.build_connector_tree(2, 2, 4)
    assert cons.verify_connector_tree(t, 2, 2, 4)["ok"]
    with pytest.raises(ValueError, match="too small"):
        cons.build_connector_tree(2, 2, 3)
    with pytest.raises(ValueError):
        cons.build_connector_tree(1, 1, 1)
    with pytest.raises(ValueError):
        cons.build_connector_tree(0, 2, 9)


def test_verify_connector_tree_catches_tampering():
    t = cons.build_connector_tree(2, 2, 10)
    assert not cons.verify_connector_tree(t, 2, 2, 11)["ok"]  # wrong distance
    assert not cons.verify_connector_tree(t, 3, 2, 10)["ok"]  # wrong leaf count
    # relabel an x-leaf into the y-set: branch disjointness fails
    bad = RootedTree(t.parent, t.depth, x_leaves=t.x_leaves, y_leaves=t.x_leaves)
    assert not cons.verify_connector_tree(bad, 2, 2, 10)["ok"]
    # leaf tree has no designated sides at all
    plain = cons.build_leaf_tree(4)
    assert not cons.verify_connector_tree(plain, 2, 2, 10)["ok"]


def branch_by_walk(parent: np.ndarray) -> list[int]:
    """Each vertex's child-of-root ancestor (0 for the root), by walking up the parents."""
    parent = parent.tolist()
    branch = {0: 0}
    for v in range(len(parent)):
        path = []
        while v not in branch and parent[v] != 0:
            path.append(v)
            v = parent[v]
        top = branch.get(v, v)  # a vertex seen before, or a child of the root
        for u in path + [v]:
            branch[u] = top
    return [branch[v] for v in range(len(parent))]


def _tree_from_parents(parent: list[int]) -> RootedTree:
    depth = [0] * len(parent)
    for v in range(1, len(parent)):
        depth[v] = depth[parent[v]] + 1
    return RootedTree(np.array(parent), np.array(depth))


def _branch_test_trees():
    rng = random.Random(77)
    for n in [1, 2, 3] + [rng.randint(4, 3000) for _ in range(40)]:
        # topological trees: bushy (any earlier parent) and deep (one of the last few)
        window = rng.choice([n, 1, 2, 5])
        yield _tree_from_parents([-1] + [rng.randint(max(0, v - window), v - 1)
                                         for v in range(1, n)])
    yield _tree_from_parents([-1] + [0] * 50)  # star
    heights = {1, 2, 3, 4} | {h for k in range(1, 14) for h in (2**k, 2**k + 1, 2**k + 2)}
    for h in sorted(heights):
        # a path of height h beside a second path from the root of half its height
        side = h // 2
        path = [-1] + list(range(h))
        yield _tree_from_parents(path + [0] * bool(side) + list(range(h + 1, h + side)))
    for m1, m2 in ((1, 1), (3, 5), (32, 17), (4096, 4096)):
        lo = 2 + cons.ceil_log2(m1) + cons.ceil_log2(m2)  # joining path of length 1
        for n in (lo, lo + 399):
            yield cons.build_connector_tree(m1, m2, n)


def test_branch_below_root_matches_parent_walk():
    for tree in _branch_test_trees():
        assert cons._tree_structure_ok(tree)  # the precondition of the fixed round count
        got = cons._branch_below_root(tree.parent, int(tree.depth.max()))
        assert got.tolist() == branch_by_walk(tree.parent), (tree.n, int(tree.depth.max()))


def test_builders_check_the_size_cap_before_allocating():
    cap = cons.BUILD_SIZE_CAP
    # 2n + ceil(log2 n) - 2 vertices: 999997 at n = 499990, 1000017 at n = 500000
    assert cons.build_leaf_tree(499_990).n <= cap
    with pytest.raises(CapExceededError):
        cons.build_leaf_tree(500_000)
    with pytest.raises(CapExceededError):
        cons.build_leaf_tree(99_999_999_999)
    with pytest.raises(CapExceededError):
        cons.build_connector_tree(1, 1, 99_999_999_999)
    with pytest.raises(CapExceededError):
        cons.build_connector_tree(10**11, 1, 100)
    with pytest.raises(CapExceededError):
        cons.build_complete_multipartite([1000, 1001])  # 1001000 edges
    with pytest.raises(CapExceededError):
        cons.build_complete_multipartite([cap + 1])  # no edges, too many vertices
    assert cons.build_complete_multipartite([cap]).n == cap


def test_connector_trees_do_not_share_mutable_state():
    # leaf trees are cached per m; editing one connector must not leak
    first = cons.build_connector_tree(3, 5, 12)
    fresh = [a.copy() for a in (first.parent, first.depth, first.x_leaves, first.y_leaves)]
    for arr in (first.parent, first.depth, first.x_leaves, first.y_leaves):
        arr[:] = 0
    again = cons.build_connector_tree(3, 5, 12)
    for old, new in zip(fresh, (again.parent, again.depth, again.x_leaves, again.y_leaves)):
        assert np.array_equal(old, new)
    assert cons.verify_connector_tree(again, 3, 5, 12)["ok"]


# ── expansion condition and tree embedding ───────────────────────────────────


def expansion_condition_check(
    graph: Graph, n_tree: int, d: int
) -> tuple[bool, frozenset | None]:
    """Does every set X with 1 <= |X| <= 2*n_tree - 2 satisfy |N(X)| >= (d+1)|X|?

    This is the expansion hypothesis under which every tree on n_tree
    vertices with maximum degree <= d embeds.  Exhaustive over subsets,
    smallest sizes first, so a returned violation is minimum-size.
    N(X) is the union of neighbourhoods (it may intersect X).
    """
    if n_tree < 1 or d < 0:
        raise ValueError("need n_tree >= 1 and d >= 0")
    adj = adjacency_bitsets(graph)
    top = min(2 * n_tree - 2, graph.n)
    for size in range(1, top + 1):
        need = (d + 1) * size
        for xs in combinations(range(graph.n), size):
            hood = 0
            for v in xs:
                hood |= adj[v]
            if hood.bit_count() < need:
                return False, frozenset(xs)
    return True, None


def embed_tree_backtracking(graph: Graph, tree: RootedTree) -> dict[int, int] | None:
    """Injective adjacency-preserving embedding of the tree, or None.

    Backtracks over tree vertices in id order (parents first), mapping
    each child to an unused neighbour of its parent's image.  Exhaustive:
    None means no embedding exists.
    """
    nt = tree.n
    if nt > graph.n:
        return None
    children = [[] for _ in range(nt)]
    for v in range(1, nt):
        children[int(tree.parent[v])].append(v)
    # a tree vertex with k children needs an image of degree >= k (+1 off-root)
    need = [len(children[v]) + (1 if v else 0) for v in range(nt)]
    deg = graph.degrees()
    image = [-1] * nt

    def place(v: int, used: int) -> bool:
        if v == nt:
            return True
        if v == 0:
            candidates = range(graph.n)
        else:
            candidates = neighbors(graph, image[int(tree.parent[v])])
        for g_v in candidates:
            if used >> g_v & 1 or deg[g_v] < need[v]:
                continue
            image[v] = g_v
            if place(v + 1, used | 1 << g_v):
                return True
        image[v] = -1
        return False

    if place(0, 0):
        return {v: image[v] for v in range(nt)}
    return None


def test_expansion_on_complete_graphs():
    # K_N: |N(X)| = N-1 for singletons, N otherwise; threshold sits at N = (d+1)(2t-2)
    ok, witness = expansion_condition_check(Graph.complete(12), 3, 2)
    assert ok and witness is None
    ok, witness = expansion_condition_check(Graph.complete(11), 3, 2)
    assert not ok
    assert witness == frozenset({0, 1, 2, 3})  # minimum-size violation


def test_expansion_star_witness():
    star = Graph(10, [(0, v) for v in range(1, 10)])
    ok, witness = expansion_condition_check(star, 2, 1)
    assert not ok
    assert witness == frozenset({1})  # a leaf sees only the centre


def test_expansion_witness_is_a_real_violation():
    rng = random.Random(23)
    adj_checked = 0
    for _ in range(30):
        n = rng.randint(4, 12)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        nt, d = rng.randint(2, 3), rng.randint(1, 3)
        ok, witness = expansion_condition_check(g, nt, d)
        if ok:
            assert witness is None
            continue
        hood = set()
        for v in witness:
            hood.update(neighbors(g, v))
        assert len(hood) < (d + 1) * len(witness)
        adj_checked += 1
    assert adj_checked >= 5


def test_expansion_monotone_in_requirements():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(5, 12)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
        if expansion_condition_check(g, 3, 2)[0]:
            assert expansion_condition_check(g, 2, 2)[0]
            assert expansion_condition_check(g, 3, 1)[0]


def test_expansion_validation():
    with pytest.raises(ValueError):
        expansion_condition_check(Graph.complete(4), 0, 1)


def check_embedding(graph: Graph, tree: RootedTree, image: dict[int, int]) -> None:
    assert len(set(image.values())) == tree.n  # injective
    for u, v in tree_edges(tree):
        assert has_edge(graph, image[u], image[v])


def test_embed_examples():
    tree = cons.build_leaf_tree(4)  # 7 vertices, max degree 3
    host = Graph.complete(7)
    image = embed_tree_backtracking(host, tree)
    assert image is not None
    check_embedding(host, tree, image)

    path5 = cons.build_connector_tree(1, 1, 5)  # path on 5 vertices
    image = embed_tree_backtracking(Graph.cycle(5), path5)
    assert image is not None
    check_embedding(Graph.cycle(5), path5, image)

    star = Graph(5, [(0, v) for v in range(1, 5)])
    assert embed_tree_backtracking(star, path5) is None  # path needs 3 mid-degrees

    assert embed_tree_backtracking(Graph.complete(3), tree) is None  # too small


def test_expansion_implies_embedding():
    """Hosts passing the expansion check embed every small bounded-degree tree."""
    p2 = RootedTree(np.array([-1, 0]), np.array([0, 1]))
    p3 = RootedTree(np.array([-1, 0, 1]), np.array([0, 1, 2]))
    cherry = RootedTree(np.array([-1, 0, 0]), np.array([0, 1, 1]))
    rng = random.Random(41)
    non_vacuous = 0
    for _ in range(100):
        n = rng.randint(6, 18)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.7])
        for nt, d, trees in [(2, 1, [p2]), (3, 2, [p2, p3, cherry])]:
            ok, _ = expansion_condition_check(g, nt, d)
            if not ok:
                continue
            non_vacuous += 1
            for tree in trees:
                image = embed_tree_backtracking(g, tree)
                assert image is not None
                check_embedding(g, tree, image)
    assert non_vacuous >= 30


# ── serialization ────────────────────────────────────────────────────────────


def test_edge_list_round_trip():
    g = Graph(6, [(5, 0), (1, 4), (2, 3)])
    text = cons.serialize_graph(g)
    assert text.splitlines()[0] == "6 3"
    back = cons.parse_edge_list(text)
    assert back.n == g.n and back.edges == g.edges

    tree = cons.build_leaf_tree(6)
    assert cons.parse_edge_list(cons.serialize_tree(tree)).edges == tuple(
        sorted(tree_edges(tree))
    )


def reference_edge_list(n: int, edges) -> str:
    """Loop formatter: sort the normalised pairs in Python, one f-string per line."""
    norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
    lines = [f"{n} {len(norm)}"]
    lines.extend(f"{u} {v}" for u, v in norm)
    return "\n".join(lines) + "\n"


def reference_tree_text(tree: RootedTree) -> str:
    return reference_edge_list(tree.n, [(int(tree.parent[v]), v) for v in range(1, tree.n)])


def _connector_cases(rng: random.Random) -> list[tuple[int, int, int]]:
    cases = [(1, 1, 2), (1, 1, 3), (1, 7, 5), (6, 1, 5), (4096, 4096, 26)]
    while len(cases) < 50:
        m1, m2 = rng.randint(1, 4096), rng.randint(1, 4096)
        lo = 2 + cons.ceil_log2(m1) + cons.ceil_log2(m2)  # joining path of length 1
        cases.append((m1, m2, lo + rng.choice([0, rng.randint(1, 400)])))
    return cases


def test_serialize_tree_matches_loop_formatter():
    rng = random.Random(2024)
    leaf_sizes = list(range(2, 301)) + [rng.randint(2, 10**4) for _ in range(50)]
    for n in leaf_sizes:
        tree = cons.build_leaf_tree(n)
        assert cons.serialize_tree(tree) == reference_tree_text(tree), n
    for m1, m2, n in _connector_cases(random.Random(2025)):
        tree = cons.build_connector_tree(m1, m2, n)
        assert cons.serialize_tree(tree) == reference_tree_text(tree), (m1, m2, n)


def test_serialize_graph_and_edge_list_match_loop_formatter():
    for g in (Graph(0, []), Graph(3, [])):
        assert cons.serialize_graph(g) == reference_edge_list(g.n, g.edges) == f"{g.n} 0\n"
        assert cons.serialize_edge_list(g.n, []) == f"{g.n} 0\n"
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 60)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.3])
        assert cons.serialize_graph(g) == reference_edge_list(n, g.edges)
        # reversed pairs and duplicates, as tuples and as an (m, 2) array
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        pairs += rng.choices(pairs, k=len(pairs) // 3)
        rng.shuffle(pairs)
        expected = reference_edge_list(n, pairs)
        assert cons.serialize_edge_list(n, pairs) == expected
        as_array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert cons.serialize_edge_list(n, as_array) == expected
    assert cons.serialize_edge_list(4, [(3, 1), (1, 3), (2, 0)]) == "4 3\n0 2\n1 3\n1 3\n"
    g = cons.build_complete_multipartite([3, 4, 5])
    assert cons.serialize_graph(g) == reference_edge_list(g.n, g.edges)


def test_serialize_edge_list_rejects_negative_ids():
    with pytest.raises(ValueError, match="nonnegative"):
        cons.serialize_edge_list(3, [(0, 1), (-1, 2)])
    with pytest.raises(ValueError, match="nonnegative"):
        cons.serialize_edge_list(3, np.array([[2, -5]], dtype=np.int64))


_DIGIT_BOUNDARIES = [0] + [10**k + d for k in range(1, 7) for d in (-1, 0)]
_ids = st.one_of(st.sampled_from(_DIGIT_BOUNDARIES), st.integers(0, 10**6),
                 st.integers(0, 2**63 - 1))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(n=st.sampled_from([0, 1, 10**6]), pairs=st.lists(st.tuples(_ids, _ids), max_size=30),
       again=st.integers(0, 30))
@example(n=0, pairs=[], again=0)
@example(n=10**6, pairs=[(10**6, 0), (9, 10), (99, 100), (0, 0)], again=4)
def test_serialize_edge_list_matches_reference_at_digit_boundaries(n, pairs, again):
    # the first `again` pairs come back reversed: duplicates in both orders
    pairs = pairs + [(v, u) for u, v in pairs[:again]]
    expected = reference_edge_list(n, pairs)
    assert cons.serialize_edge_list(n, pairs) == expected
    as_array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert cons.serialize_edge_list(n, as_array) == expected


def test_parse_edge_list_comments_and_errors():
    assert cons.parse_edge_list("# note\n3 1\n0 2\n").edges == ((0, 2),)
    with pytest.raises(ValueError, match="empty"):
        cons.parse_edge_list("# only a comment\n")
    with pytest.raises(ValueError, match="header"):
        cons.parse_edge_list("3\n")
    with pytest.raises(ValueError, match="promises"):
        cons.parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        cons.parse_edge_list("2 1\n0 5\n")  # edge out of range for header n
