"""Exhaustive arrow checking for small hosts.

``H arrows (T_1, ..., T_k)`` means every k-coloring of H's edges yields,
for some i, a copy of target T_i whose edges all carry color i.  At desk
scale this is decidable by depth-first search over edge colorings: a
branch dies as soon as some color class already contains its target
(recoloring other edges cannot remove it), and a coloring that survives
to the end is a counterexample — a *good coloring*.  The colouring search is
one backtracking loop over the edge positions; only the path test of a
cycle on six or more vertices recurses.

Targets are exact-length cycles and bicliques.  The search keeps one
adjacency bitset list per color and tests only the newly colored edge:
the class was target-free before it, so a new target must use it (a
cycle closes through it, a biclique has it as a cross edge).  Every
returned good coloring is re-verified by one whole-graph containment
test, ``class_contains_target``, which shares no code with the
through-edge tests; a ``side`` labelling is its only class switch.  One
work budget, ARROW_WORK_CAP, bounds every search, whatever the host's
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from .constructions import Graph, _bits, _checked_side
from .errors import CapExceededError

#: most steps of work an arrow search takes before it gives up (see _search).
#: K9 -> (C5, C5) takes 3.18e6 steps and K8 -> (C6, C6) 5.84e6, the largest
#: decision kept in reach.  A step costs 0.3-0.45 us on a 2-vCPU machine, so a
#: search stopped by the cap (K1x19 -> 18 x K1x2, K14 -> (C14, C14)) ends in 2-4 s.
ARROW_WORK_CAP = 8 * 10**6
TARGET_VERTEX_CAP = 20


# ── targets ──────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class CycleTarget:
    """A simple cycle on exactly `length` vertices."""

    length: int

    def __post_init__(self):
        if self.length < 3:
            raise ValueError(f"cycle length must be >= 3, got {self.length}")

    def __str__(self) -> str:
        return f"C{self.length}"


@dataclass(frozen=True)
class BicliqueTarget:
    """A complete bipartite graph on disjoint sets of sizes m1 and m2."""

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("biclique part sizes must be >= 1")

    def __str__(self) -> str:
        return f"K{self.m1}x{self.m2}"


Target = Union[CycleTarget, BicliqueTarget]


def parse_targets(text: str) -> tuple[Target, ...]:
    """Parse "C3,C5" / "K2x3" style target lists; errors carry the position."""
    targets = []
    for pos, token in enumerate(t.strip() for t in text.split(",")):
        try:
            if token[:1] in ("C", "c") and token[1:].isdigit():
                targets.append(CycleTarget(int(token[1:])))
            elif token[:1] in ("K", "k") and ("x" in token or "X" in token):
                a, _, b = token[1:].replace("X", "x").partition("x")
                targets.append(BicliqueTarget(int(a), int(b)))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad target {token!r} at position {pos + 1}: "
                f"expected C<len> or K<m1>x<m2>"
            ) from None
    if not targets:
        raise ValueError("need at least one target")
    return tuple(targets)


# ── containment test ─────────────────────────────────────────────────────────


def class_contains_target(
    graph_n: int,
    class_edges: tuple[tuple[int, int], ...],
    target: Target,
    side=None,
) -> bool:
    """Whole-graph test: does the graph with these edges contain `target`?

    It checks the edges and ``side`` as ``Graph`` does.  A cycle is
    found by DFS from each start vertex (the cycle's minimum, so each cycle
    is searched in canonical position once) extending simple paths and
    closing back to the start at the right length; it ignores ``side``.  A
    biclique is found by enumerating candidate A-sets and checking their
    common neighbourhood.  Without ``side`` its parts may use any vertices;
    with it A lies in class 0 and B in class 1, in either orientation of an
    asymmetric biclique.
    """
    side = _checked_side(graph_n, side)
    if graph_n > TARGET_VERTEX_CAP:
        kind = "cycle" if isinstance(target, CycleTarget) else "biclique"
        raise CapExceededError(
            f"{kind} search capped at {TARGET_VERTEX_CAP} vertices, host has {graph_n}"
        )
    adj = [0] * graph_n
    for u, v in class_edges:
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed in a simple graph")
        if not (0 <= u < graph_n and 0 <= v < graph_n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={graph_n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if isinstance(target, CycleTarget):

        def extend(start: int, v: int, visited: int, remaining: int) -> bool:
            if remaining == 0:
                return bool(adj[v] >> start & 1)
            # only vertices above the start keep the cycle canonical
            options = adj[v] & ~visited & (-1 << start)
            while options:
                low = options & -options
                options ^= low
                u = low.bit_length() - 1
                if extend(start, u, visited | low, remaining - 1):
                    return True
            return False

        # a cycle's minimum leaves length - 1 vertices above it
        length = target.length
        starts = range(graph_n - length + 1)
        return any(extend(start, start, 1 << start, length - 1) for start in starts)
    m1, m2 = target.m1, target.m2
    a_pool = b_pool = (1 << graph_n) - 1
    sizes = {(m1, m2)}
    if side is not None:
        b_pool = sum(1 << v for v, c in enumerate(side) if c)
        a_pool ^= b_pool
        sizes.add((m2, m1))
    # without loops the common neighbourhood of A misses A
    for s1, s2 in sizes:
        for a_set in combinations(_bits(a_pool), s1):
            common = b_pool
            for v in a_set:
                common &= adj[v]
                if common.bit_count() < s2:
                    break
            else:
                return True
    return False


# ── colorings and results ────────────────────────────────────────────────────


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of host edges to colors 1..k."""

    host: Graph
    colors: tuple[int, ...]  # parallel to host.edges

    def __post_init__(self):
        if len(self.colors) != self.host.edge_count:
            raise ValueError("coloring must assign every edge")
        if any(c < 1 for c in self.colors):
            raise ValueError("colors are 1-based positive integers")

    def color_class(self, color: int) -> tuple[tuple[int, int], ...]:
        return tuple(
            e for e, c in zip(self.host.edges, self.colors) if c == color
        )

    def serialize(self) -> str:
        lines = [
            f"{u} {v} {c}" for (u, v), c in zip(self.host.edges, self.colors)
        ]
        return "\n".join(lines) + "\n"


@dataclass
class ArrowResult:
    arrows: bool
    witness: Optional[EdgeColoring]
    colorings_examined: int

    def as_dict(self) -> dict:
        return {
            "arrows": self.arrows,
            "witness": None if self.witness is None else self.witness.serialize(),
            "colorings_examined": self.colorings_examined,
        }


def verify_coloring_avoids_targets(
    coloring: EdgeColoring,
    targets: tuple[Target, ...],
    respect_bipartition: bool = False,
) -> bool:
    """Independent witness check: no color class i contains target i.

    With ``respect_bipartition`` bicliques respect the host's 2-class
    labelling, which it must carry.  An edgeless class holds no target, so
    it is not searched (and does not meet the vertex cap of the
    containment test).
    """
    host = coloring.host
    if respect_bipartition and host.side is None:
        raise ValueError("respect_bipartition needs a 2-class labelled host")
    side = host.side if respect_bipartition else None
    for i, target in enumerate(targets, start=1):
        class_edges = coloring.color_class(i)
        if class_edges and class_contains_target(host.n, class_edges, target, side):
            return False
    return True


# ── the search ───────────────────────────────────────────────────────────────


def _search(
    host: Graph,
    targets: tuple[Target, ...],
    respect_bipartition: bool,
) -> ArrowResult:
    """Decide the arrow relation, or raise CapExceededError past ARROW_WORK_CAP steps.

    One loop walks the edge positions; ``colors[i]`` is the colour edge i
    holds, 0 while it holds none.  A visit takes edge i out of its class and
    tries the next colours: the first whose class stays target-free sends
    the loop on to i + 1, and a position out of colours is cleared and sends
    it back to i - 1.

    A step is a colouring examined, a path-search node with two or more
    inner vertices left to place, or an orientation or candidate set tried
    by the biclique test.  The count is checked at every path-search node,
    when a position of the colouring loop has tried all its colours, and
    when the search ends, so the search raises exactly when its count would
    pass the cap.  A biclique test runs to its end: at most C(18, 9) candidate
    sets per orientation within the vertex cap.
    """
    if not targets:
        raise ValueError("need at least one target")
    k = len(targets)
    m = host.edge_count
    if m and host.n > TARGET_VERTEX_CAP:
        raise CapExceededError(
            f"target search capped at {TARGET_VERTEX_CAP} vertices, host has {host.n}"
        )
    cap, work = ARROW_WORK_CAP, 0
    capped = f"arrow search capped at {cap} steps"

    def path(adj: list[int], x: int, v: int, avoid: int, edges: int) -> bool:
        """A simple x-v path of exactly `edges` >= 2 edges whose inner vertices avoid `avoid`."""
        nonlocal work
        if edges == 2:
            return bool(adj[x] & adj[v] & ~avoid)
        work += 1
        if work > cap:
            raise CapExceededError(capped)
        ends = adj[v] & ~avoid  # with edges == 3, x-y-z-v needs some z in N(y) & ends
        options = adj[x] & ~avoid
        while options:
            low = options & -options
            options ^= low
            y = low.bit_length() - 1
            if edges == 3:
                if adj[y] & ends:
                    return True
            elif edges > 4:
                if path(adj, y, v, avoid | low, edges - 1):
                    return True
            else:  # x-y-w-z-v, one step per y as a 3-edge level from y would count
                work += 1
                if work > cap:
                    raise CapExceededError(capped)
                middles = adj[y] & ~avoid & ~low
                near = ends & ~low  # z is not y
                while middles:
                    w = middles & -middles
                    middles ^= w
                    if adj[w.bit_length() - 1] & near:
                        return True
        return False

    # with classes, A lies in class 0 and B in class 1
    side = host.side if respect_bipartition else None
    pool_a = pool_b = (1 << host.n) - 1
    if side is not None:
        pool_b = sum(1 << v for v, c in enumerate(side) if c)
        pool_a ^= pool_b

    def cross(adj: list[int], a: int, b: int, sizes: list[tuple[int, int]]) -> bool:
        """A biclique A (|A|=s1) within pool_a, B (|B|=s2) within pool_b, a in A, b in B.

        The rest of A lies in N(b); B is then any s2 vertices of the common
        neighbourhood of A, which holds b and, without loops, misses A.
        """
        nonlocal work
        if side is not None:
            if side[a] == side[b]:
                return False  # never a cross edge of a biclique across the classes
            if side[a]:
                a, b = b, a
        for s1, s2 in sizes:
            work += 1
            around_a = adj[a] & pool_b
            if around_a.bit_count() < s2:
                continue
            for rest in combinations(_bits(adj[b] & pool_a & ~(1 << a)), s1 - 1):
                work += 1
                common = around_a
                for x in rest:
                    common &= adj[x]
                    if common.bit_count() < s2:
                        break
                else:
                    return True
        return False

    # per colour: a cycle's path length in edges, or 0 and a biclique's (|A|, |B|) with
    # the class-0 endpoint (any endpoint without classes) on the m1 side or the m2 side
    lengths = [0] + [t.length - 1 if isinstance(t, CycleTarget) else 0 for t in targets]
    sizes = [None] + [None if isinstance(t, CycleTarget) else [(t.m1, t.m2)] if t.m1 == t.m2
                      else [(t.m1, t.m2), (t.m2, t.m1)] for t in targets]

    # color edges in descending endpoint-degree order: dense corners first
    deg = host.degrees()
    order = sorted(range(m), key=lambda i: (-(deg[host.edges[i][0]] + deg[host.edges[i][1]]), i))
    edges = [host.edges[i] for i in order]
    slots = [(u, v, 1 << u, 1 << v) for u, v in edges]
    # when all targets coincide, color permutations act trivially: fix edge 0
    tops = [k if i or len(set(targets)) > 1 else 1 for i in range(m)]

    # cadj[c][x]: neighbours of x in color class c; entry 0 is unused
    cadj = [[0] * host.n for _ in range(k + 1)]
    assignments = 0
    colors = [0] * m
    i = 0
    while 0 <= i < m:
        u, v, bu, bv = slots[i]
        c, top = colors[i], tops[i]
        if c:
            adj = cadj[c]
            adj[u] ^= bv
            adj[v] ^= bu
        while c < top:
            c += 1
            assignments += 1
            work += 1
            adj = cadj[c]
            adj[u] |= bv
            adj[v] |= bu
            # class c was target-free without uv, so a new target uses uv
            e = lengths[c]
            if not (path(adj, u, v, bu | bv, e) if e else cross(adj, u, v, sizes[c])):
                colors[i] = c
                i += 1
                break
            adj[u] ^= bv
            adj[v] ^= bu
        else:
            colors[i] = 0
            if work > cap:
                raise CapExceededError(capped)
            i -= 1
    if work > cap:
        raise CapExceededError(capped)
    if i < 0:
        return ArrowResult(True, None, assignments)
    # map colors back to the host's canonical edge order
    by_edge = dict(zip(edges, colors))
    witness = EdgeColoring(host, tuple(by_edge[e] for e in host.edges))
    if not verify_coloring_avoids_targets(
        witness, targets, respect_bipartition=respect_bipartition
    ):
        raise AssertionError("search returned an invalid witness")
    return ArrowResult(False, witness, assignments)


def arrows(
    host: Graph,
    targets: tuple[Target, ...],
) -> ArrowResult:
    """Decide host -> (targets) by exhaustive pruned coloring search."""
    return _search(host, tuple(targets), respect_bipartition=False)


def bipartite_arrows(
    host: Graph,
    targets: tuple[Target, ...],
) -> ArrowResult:
    """Arrow semantics on a 2-class host; biclique targets respect the classes."""
    if host.side is None:
        raise ValueError("bipartite arrow check needs a 2-class labelled host")
    return _search(host, tuple(targets), respect_bipartition=True)


__all__ = [
    "CycleTarget",
    "BicliqueTarget",
    "Target",
    "parse_targets",
    "class_contains_target",
    "EdgeColoring",
    "ArrowResult",
    "arrows",
    "bipartite_arrows",
    "verify_coloring_avoids_targets",
    "ARROW_WORK_CAP",
    "TARGET_VERTEX_CAP",
]
