"""Tests for the exhaustive edge-coloring arrow checker."""

from __future__ import annotations

import random
import time
from itertools import combinations, product

import pytest

import ramsey_lab.arrow_checker as ac
from ramsey_lab.arrow_checker import BicliqueTarget, CycleTarget, EdgeColoring
from ramsey_lab.constructions import Graph
from ramsey_lab.errors import CapExceededError

from conftest import has_edge, with_edge


def has_cycle(graph: Graph, length: int) -> bool:
    return ac.class_contains_target(graph.n, graph.edges, CycleTarget(length))


def has_biclique(graph: Graph, m1: int, m2: int, side=None) -> bool:
    return ac.class_contains_target(graph.n, graph.edges, BicliqueTarget(m1, m2), side)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


# ── target parsing ───────────────────────────────────────────────────────────


def test_parse_targets():
    assert ac.parse_targets("C3,C5") == (CycleTarget(3), CycleTarget(5))
    assert ac.parse_targets("K2x3") == (BicliqueTarget(2, 3),)
    assert ac.parse_targets(" c4 , k1X2 ") == (CycleTarget(4), BicliqueTarget(1, 2))
    assert str(CycleTarget(5)) == "C5"
    assert str(BicliqueTarget(2, 3)) == "K2x3"


def test_parse_targets_errors_carry_position():
    with pytest.raises(ValueError, match="position 2"):
        ac.parse_targets("C3,headline")
    with pytest.raises(ValueError, match="position 1"):
        ac.parse_targets("C2")  # cycles start at length 3
    with pytest.raises(ValueError, match="position 1"):
        ac.parse_targets("K0x2")
    with pytest.raises(ValueError):
        ac.parse_targets("")


def test_target_validation():
    with pytest.raises(ValueError):
        CycleTarget(2)
    with pytest.raises(ValueError):
        BicliqueTarget(0, 1)


# ── containment tests ────────────────────────────────────────────────────────


def test_has_cycle_length_basics():
    c5 = Graph.cycle(5)
    assert has_cycle(c5, 5)
    assert not has_cycle(c5, 3)
    assert not has_cycle(c5, 4)
    k4 = Graph.complete(4)
    assert has_cycle(k4, 3)
    assert has_cycle(k4, 4)
    assert not has_cycle(k4, 5)  # not enough vertices
    assert not has_cycle(Graph(6, []), 3)


def test_has_cycle_length_petersen():
    g = petersen()  # girth 5, no Hamilton cycle, 6-cycles exist
    assert not has_cycle(g, 3)
    assert not has_cycle(g, 4)
    assert has_cycle(g, 5)
    assert has_cycle(g, 6)
    assert has_cycle(g, 9)
    assert not has_cycle(g, 10)


def test_has_cycle_length_validation_and_cap():
    with pytest.raises(ValueError):
        has_cycle(Graph.complete(4), 2)
    with pytest.raises(CapExceededError):
        has_cycle(Graph(21, []), 3)
    assert not has_cycle(Graph(20, []), 3)


def brute_force_has_cycle(graph: Graph, length: int) -> bool:
    for verts in combinations(range(graph.n), length):
        rest = list(verts[1:])
        # fix the first vertex, permute the remainder
        def orders(prefix, remaining):
            if not remaining:
                yield prefix
                return
            for i, v in enumerate(remaining):
                yield from orders(prefix + [v], remaining[:i] + remaining[i + 1:])
        for cyc in orders([verts[0]], rest):
            if all(
                has_edge(graph, cyc[i], cyc[(i + 1) % length]) for i in range(length)
            ):
                return True
    return False


def test_has_cycle_length_matches_brute_force():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randint(3, 7)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        for length in range(3, n + 1):
            assert has_cycle(g, length) == brute_force_has_cycle(g, length)


def test_has_biclique_basics():
    c6 = Graph.cycle(6)
    assert has_biclique(c6, 1, 2)  # any path mid-vertex
    assert not has_biclique(c6, 2, 2)  # girth 6: no 4-cycle
    k33 = Graph.complete_bipartite(3, 3)
    assert has_biclique(k33, 2, 3)
    assert has_biclique(k33, 3, 3)
    assert not has_biclique(k33, 3, 4)
    assert has_biclique(Graph.complete(5), 2, 3)  # bicliques live in cliques too
    with pytest.raises(ValueError):
        has_biclique(c6, 0, 2)
    with pytest.raises(CapExceededError):
        has_biclique(Graph(21, []), 1, 1)


def test_has_biclique_respects_and_flips_orientation():
    star = Graph.complete_bipartite(1, 3)
    assert has_biclique(star, 1, 3, star.side)
    # asymmetric target also found with parts swapped across the classes
    assert has_biclique(star, 3, 1, star.side)
    assert not has_biclique(star, 2, 2, star.side)
    # without a labelling the parts may use any vertices
    assert has_biclique(Graph.complete(4), 2, 2)
    assert not has_biclique(Graph.complete(4), 2, 2, (0, 0, 0, 1))


def brute_force_has_biclique(graph: Graph, m1: int, m2: int) -> bool:
    verts = range(graph.n)
    for a_set in combinations(verts, m1):
        rest = [v for v in verts if v not in a_set]
        for b_set in combinations(rest, m2):
            if all(has_edge(graph, u, v) for u in a_set for v in b_set):
                return True
    return False


def test_has_biclique_matches_brute_force():
    rng = random.Random(9)
    for trial in range(40):
        n = rng.randint(2, 7)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        for m1, m2 in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            assert has_biclique(g, m1, m2) == brute_force_has_biclique(g, m1, m2)


def test_has_biclique_across_classes_matches_brute_force():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(2, 8)
        side = [rng.randint(0, 1) for _ in range(n)]
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6], side)
        cls = [[v for v in range(n) if side[v] == k] for k in (0, 1)]
        for m1, m2 in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
            want = any(
                all(has_edge(g, u, v) for u in a_set for v in b_set)
                for p, q in ((m1, m2), (m2, m1))
                for a_set in combinations(cls[0], p)
                for b_set in combinations(cls[1], q)
            )
            assert has_biclique(g, m1, m2, g.side) == want


def test_class_contains_target_checks_its_input():
    c3, k11 = CycleTarget(3), BicliqueTarget(1, 1)
    with pytest.raises(ValueError, match="loop"):
        ac.class_contains_target(3, ((1, 1),), c3)
    with pytest.raises(ValueError, match="out of range"):
        ac.class_contains_target(3, ((0, 3),), c3)
    for target in (c3, k11):  # cycles ignore the classes but still check them
        with pytest.raises(ValueError, match="side"):
            ac.class_contains_target(3, ((0, 1),), target, side=(0, 1))
    with pytest.raises(CapExceededError, match="capped at 20 vertices"):
        ac.class_contains_target(21, ((0, 1),), c3)
    with pytest.raises(CapExceededError, match="capped at 20 vertices"):
        ac.class_contains_target(21, ((0, 1),), k11)
    assert not ac.class_contains_target(20, ((0, 1),), c3)
    assert ac.class_contains_target(20, ((0, 1),), k11, side=[0, 1] * 10)


# ── colorings ────────────────────────────────────────────────────────────────


def test_edge_coloring_validation():
    g = Graph(3, [(0, 1), (1, 2)])
    col = EdgeColoring(g, (1, 2))
    assert col.color_class(1) == ((0, 1),)
    assert col.color_class(2) == ((1, 2),)
    assert col.color_class(3) == ()
    assert col.serialize() == "0 1 1\n1 2 2\n"
    with pytest.raises(ValueError):
        EdgeColoring(g, (1,))
    with pytest.raises(ValueError):
        EdgeColoring(g, (1, 0))


def test_verify_coloring_avoids_targets():
    k3 = Graph.complete(3)
    mono = EdgeColoring(k3, (1, 1, 1))
    split = EdgeColoring(k3, (1, 1, 2))
    t = (CycleTarget(3), CycleTarget(3))
    assert not ac.verify_coloring_avoids_targets(mono, t)
    assert ac.verify_coloring_avoids_targets(split, t)
    # respecting the classes needs a host that has them, whatever the targets
    for targets in (t, (BicliqueTarget(1, 1),) * 2):
        with pytest.raises(ValueError, match="2-class"):
            ac.verify_coloring_avoids_targets(split, targets, respect_bipartition=True)


# ── arrow decisions ──────────────────────────────────────────────────────────


def test_arrows_complete_hosts_diagonal_triangle():
    t = (CycleTarget(3), CycleTarget(3))
    r6 = ac.arrows(Graph.complete(6), t)
    assert r6.arrows and r6.witness is None
    assert r6.colorings_examined == 987  # deterministic search, frozen count

    r5 = ac.arrows(Graph.complete(5), t)
    assert not r5.arrows
    w = r5.witness
    assert ac.verify_coloring_avoids_targets(w, t)
    # the unique good coloring type on K5: each class a 5-cycle
    for color in (1, 2):
        cls = w.color_class(color)
        assert len(cls) == 5
        assert has_cycle(Graph(5, cls), 5)

    r4 = ac.arrows(Graph.complete(4), t)
    assert not r4.arrows and r4.colorings_examined == 14
    assert not ac.arrows(Graph.complete(3), t).arrows


def test_arrow_searches_build_no_graph(monkeypatch):
    """The search and its witness check read the colour classes as edge lists."""
    k5, k44 = Graph.complete(5), Graph.complete_bipartite(4, 4)
    monkeypatch.setattr(Graph, "__init__", lambda *_, **__: pytest.fail("built a Graph"))
    cycles, bicliques = (CycleTarget(3),) * 2, (BicliqueTarget(2, 2),) * 2
    r = ac.arrows(k5, cycles)
    assert not r.arrows and ac.verify_coloring_avoids_targets(r.witness, cycles)
    r = ac.bipartite_arrows(k44, bicliques)
    assert not r.arrows
    assert ac.verify_coloring_avoids_targets(r.witness, bicliques, respect_bipartition=True)


def test_arrows_off_diagonal_cycles():
    t = (CycleTarget(3), CycleTarget(4))
    assert ac.arrows(Graph.complete(7), t).arrows
    assert not ac.arrows(Graph.complete(6), t).arrows


def test_arrows_trivia():
    # an empty host is good-colorable vacuously; a single edge is not
    r = ac.arrows(Graph(4, []), (CycleTarget(3), CycleTarget(3)))
    assert not r.arrows and r.witness.colors == ()
    one = Graph(2, [(0, 1)])
    r = ac.arrows(one, (BicliqueTarget(1, 1), BicliqueTarget(1, 1)))
    assert r.arrows and r.colorings_examined == 1


def test_arrows_caps_and_validation(monkeypatch):
    # no edge cap: K8 (28 edges) is decided
    assert ac.arrows(Graph.complete(8), (CycleTarget(3), CycleTarget(3))).colorings_examined == 12015
    # the work cap: a search raises exactly when its count of steps would pass it.  A
    # triangle search spends one step per colouring; longer cycles add path-search nodes,
    # bicliques add orientations and candidate sets
    cases = [
        (ac.arrows, Graph.complete(8), (CycleTarget(3),) * 2, 12015),
        (ac.arrows, Graph.complete(5), (CycleTarget(3),) * 2, 71),  # witness
        (ac.arrows, Graph.complete(7), (CycleTarget(5),) * 2, 481),  # witness after 134 colourings
        # 30836 colourings, every branch closed, through the 3-edge and 4-edge path levels
        (ac.arrows, Graph.complete(7), (CycleTarget(4), CycleTarget(5)), 86749),
        # witness after 30 colourings; each C6 test recurses once above the 4-edge level
        (ac.arrows, Graph.complete(7), (CycleTarget(6),) * 2, 238),
        (ac.bipartite_arrows, Graph.complete_bipartite(4, 4), (BicliqueTarget(2, 2),) * 2,
         302),  # witness after 119 colourings
        (ac.bipartite_arrows, Graph.complete_bipartite(1, 5), (BicliqueTarget(1, 3),) * 2,
         57),  # 19 colourings
    ]
    for search, host, targets, steps in cases:
        monkeypatch.setattr(ac, "ARROW_WORK_CAP", steps)
        search(host, targets)
        monkeypatch.setattr(ac, "ARROW_WORK_CAP", steps - 1)
        with pytest.raises(CapExceededError, match=f"capped at {steps - 1} steps"):
            search(host, targets)
    # it stops near the cap, not after the whole search (1942 biclique candidate pools)
    monkeypatch.setattr(ac, "ARROW_WORK_CAP", 50)
    pools = []
    bits = ac._bits
    monkeypatch.setattr(ac, "_bits", lambda mask: pools.append(mask) or bits(mask))
    with pytest.raises(CapExceededError, match="steps"):
        ac.arrows(Graph.complete(6), (BicliqueTarget(2, 2),) * 2)
    assert 0 < len(pools) <= 50  # each pool follows at least one counted step
    # uncapped, the K13 triangle search takes seconds, and so can one Hamilton-path
    # search on K14
    monkeypatch.setattr(ac, "ARROW_WORK_CAP", 10_000)
    for n, length in ((13, 3), (14, 14)):
        t0 = time.perf_counter()
        with pytest.raises(CapExceededError, match="steps"):
            ac.arrows(Graph.complete(n), (CycleTarget(length),) * 2)
        assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ValueError):
        ac.arrows(Graph.complete(5), ())
    with pytest.raises(ValueError):
        ac.bipartite_arrows(Graph.complete(4), (BicliqueTarget(1, 1),))


def test_bipartite_arrows_small_grid():
    host = Graph.complete_bipartite(2, 2)
    r = ac.bipartite_arrows(host, (BicliqueTarget(1, 2), BicliqueTarget(1, 2)))
    assert not r.arrows  # two perfect matchings avoid both
    assert ac.verify_coloring_avoids_targets(
        r.witness, (BicliqueTarget(1, 2), BicliqueTarget(1, 2)),
        respect_bipartition=True,
    )
    r = ac.bipartite_arrows(host, (BicliqueTarget(1, 2), BicliqueTarget(1, 1)))
    assert r.arrows


def test_witness_duality():
    combos = [
        (Graph.complete(6), (CycleTarget(3), CycleTarget(3))),
        (Graph.complete(5), (CycleTarget(3), CycleTarget(3))),
        (Graph.cycle(6), (BicliqueTarget(1, 2), BicliqueTarget(1, 2))),
    ]
    for host, targets in combos:
        res = ac.arrows(host, targets)
        assert (res.witness is None) == res.arrows


def oracle_arrows(host: Graph, targets, respect_bipartition: bool = False) -> bool:
    """Plain enumeration of every coloring; no pruning, no cache."""
    k = len(targets)
    m = host.edge_count
    for assign in product(range(1, k + 1), repeat=m):
        col = EdgeColoring(host, assign)
        if ac.verify_coloring_avoids_targets(col, targets, respect_bipartition):
            return False
    return True


def test_arrows_matches_enumeration_oracle():
    rng = random.Random(77)
    hosts = [Graph.cycle(5), Graph.complete(4), Graph.complete_bipartite(2, 3)]
    for trial in range(6):
        n = rng.randint(4, 6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.55]
        if len(edges) <= 9:
            hosts.append(Graph(n, edges))
    target_sets = [
        (CycleTarget(3), CycleTarget(3)),
        (CycleTarget(3), CycleTarget(4)),
        (BicliqueTarget(1, 2), BicliqueTarget(1, 2)),
        (BicliqueTarget(1, 1), CycleTarget(3)),
    ]
    checked = 0
    for host in hosts:
        for targets in target_sets:
            assert ac.arrows(host, targets).arrows == oracle_arrows(host, targets)
            checked += 1

    # long cycles, mixed targets, isolated vertices (the last vertices of n)
    wheel = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    long_hosts = [
        with_edge(Graph.cycle(6), 0, 3),
        wheel,
        Graph(9, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2), (3, 5)]),
        Graph(8, [e for e in combinations(range(5), 2) if e != (0, 1)]),
        Graph.complete_bipartite(3, 3),
    ]
    for trial in range(4):
        edges = [e for e in combinations(range(6), 2) if rng.random() < 0.6][:10]
        long_hosts.append(Graph(8, edges))
    # K1x1 forces every edge into color 1; K1x2 leaves color 2 a matching
    long_sets = [
        (CycleTarget(5), BicliqueTarget(1, 1)),
        (BicliqueTarget(1, 1), CycleTarget(6)),
        (CycleTarget(6), BicliqueTarget(1, 2)),
        (BicliqueTarget(1, 2), CycleTarget(5)),
        (CycleTarget(5), BicliqueTarget(1, 3)),
        (CycleTarget(5), CycleTarget(3)),
        (CycleTarget(6), CycleTarget(4)),
        (BicliqueTarget(2, 2), CycleTarget(5)),
    ]
    for host in long_hosts:
        for targets in long_sets:
            assert ac.arrows(host, targets).arrows == oracle_arrows(host, targets)
            checked += 1

    # asymmetric bicliques across the classes, against a class-respecting oracle
    bip_hosts = [
        Graph.complete_bipartite(2, 3),
        Graph.complete_bipartite(1, 4),
        Graph.complete_bipartite(3, 2),
        Graph.complete_bipartite(3, 3),
    ]
    for trial in range(4):
        a, b = rng.randint(2, 3), rng.randint(2, 4)
        edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < 0.8]
        bip_hosts.append(Graph(a + b + 1, edges, side=[0] * a + [1] * (b + 1)))
    # edges inside a class are never cross edges of a class-respecting biclique
    bip_hosts.append(Graph(
        6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (0, 1), (3, 4), (4, 5)],
        side=[0, 0, 0, 1, 1, 1],
    ))
    bip_sets = [
        (BicliqueTarget(1, 2), BicliqueTarget(1, 2)),
        (BicliqueTarget(1, 3), BicliqueTarget(2, 1)),
        (BicliqueTarget(2, 1), BicliqueTarget(1, 2)),
        (BicliqueTarget(1, 2), BicliqueTarget(2, 2)),
        (BicliqueTarget(2, 3), BicliqueTarget(1, 1)),
        (BicliqueTarget(1, 2), CycleTarget(4)),
    ]
    for host in bip_hosts:
        for targets in bip_sets:
            assert ac.bipartite_arrows(host, targets).arrows == oracle_arrows(
                host, targets, respect_bipartition=True
            )
            checked += 1
    assert checked >= 12 + 9 * 8 + 9 * 6


def test_arrows_frozen_counts():
    """Answers and colorings_examined of the deterministic search, frozen."""
    cases = [
        (ac.arrows, Graph.complete(7), (CycleTarget(3), CycleTarget(4)), True, 14156),
        (ac.arrows, Graph.complete(6), (CycleTarget(4), CycleTarget(4)), True, 2083),
        (ac.arrows, Graph.complete(7), (CycleTarget(4), CycleTarget(5)), True, 30836),
        (ac.arrows, Graph.complete(7), (CycleTarget(5), CycleTarget(5)), False, 134),
        (ac.bipartite_arrows, Graph.complete_bipartite(4, 4),
         (BicliqueTarget(2, 2), BicliqueTarget(2, 2)), False, 119),
        (ac.bipartite_arrows, Graph.complete_bipartite(1, 5),
         (BicliqueTarget(1, 3), BicliqueTarget(1, 3)), True, 19),
        (ac.bipartite_arrows, Graph.complete_bipartite(3, 4),
         (BicliqueTarget(1, 2), BicliqueTarget(2, 1)), True, 10),
    ]
    for search, host, targets, answer, count in cases:
        r = search(host, targets)
        assert (r.arrows, r.colorings_examined) == (answer, count)


@pytest.mark.parametrize("n, length, answer, count", [
    (8, 5, False, 23001),
    (9, 5, True, 826529),
    (7, 6, False, 30),
    (8, 6, True, 763423),
], ids=["K8-C5", "K9-C5", "K7-C6", "K8-C6"])
def test_arrows_cycle_ramsey_numbers(n, length, answer, count):
    """R(C5, C5) = 9 and R(C6, C6) = 8 (Rosta 1973; Faudree-Schelp 1974), with frozen counts."""
    t = (CycleTarget(length), CycleTarget(length))
    t0 = time.perf_counter()
    r = ac.arrows(Graph.complete(n), t)
    assert time.perf_counter() - t0 < 10.0
    assert (r.arrows, r.colorings_examined) == (answer, count)


def test_arrows_vertex_cap_applies_to_hosts_with_edges():
    path = Graph(22, [(i, i + 1) for i in range(21)])
    with pytest.raises(CapExceededError, match="22"):
        ac.arrows(path, (CycleTarget(3), CycleTarget(3)))
    r = ac.arrows(Graph(25, []), (CycleTarget(3), CycleTarget(3)))
    assert not r.arrows and r.witness.colors == () and r.colorings_examined == 0


def test_search_rechecks_every_witness(monkeypatch):
    monkeypatch.setattr(ac, "verify_coloring_avoids_targets", lambda *a, **k: False)
    with pytest.raises(AssertionError, match="invalid witness"):
        ac.arrows(Graph.complete(5), (CycleTarget(3), CycleTarget(3)))
    # an arrowing host returns no witness, so there is nothing to re-check
    assert ac.arrows(Graph.complete(6), (CycleTarget(3), CycleTarget(3))).arrows


def test_arrows_monotone_under_edge_addition():
    rng = random.Random(13)
    t = (CycleTarget(3), CycleTarget(3))
    for trial in range(10):
        edges = [e for e in combinations(range(6), 2) if rng.random() < 0.75]
        g = Graph(6, edges)
        missing = [e for e in combinations(range(6), 2) if not has_edge(g, *e)]
        if not missing or not ac.arrows(g, t).arrows:
            continue
        bigger = with_edge(g, *rng.choice(missing))
        assert ac.arrows(bigger, t).arrows


def test_result_dict_shape():
    r = ac.arrows(Graph.complete(4), (CycleTarget(3), CycleTarget(3)))
    doc = r.as_dict()
    assert set(doc) == {"arrows", "witness", "colorings_examined"}
    assert doc["arrows"] is False
    assert isinstance(doc["witness"], str) and doc["witness"].count("\n") == 6
    r6 = ac.arrows(Graph.complete(6), (CycleTarget(3), CycleTarget(3)))
    assert r6.as_dict()["witness"] is None
