"""Deterministic graph and tree constructions.

Two tree builders drive everything:

* ``build_leaf_tree(n)`` — a bounded-degree rooted tree with exactly n
  leaves, all at depth k = ceil(log2(n)), built level by level: level j
  holds ceil(n / 2**(k-j)) vertices and each vertex above the leaves has
  one or two children (a perfect binary tree when n is a power of two).
* ``build_connector_tree(m1, m2, n)`` — two leaf trees joined root-to-root
  by a path sized so that every (first-leaf-set, second-leaf-set) pair is
  at distance exactly n-1.

Also here: the multigraph and simple-graph types the random models and the
arrow checker share, complete multipartite hosts, and the plain-text edge-list
serialisation every command shares.  Every builder checks the size its
arguments ask for against ``BUILD_SIZE_CAP`` before it allocates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceededError

#: most vertices (trees) or vertices plus edges (multipartite hosts) a builder
#: allocates, and most vertex pairs or pairing points a random sampler draws
BUILD_SIZE_CAP = 10**6


def _check_size(what: str, size: int) -> None:
    if size > BUILD_SIZE_CAP:
        raise CapExceededError(f"{what}: {size} is over the build cap of {BUILD_SIZE_CAP}")


def ceil_log2(x: int | Fraction) -> int:
    """Smallest integer k with 2**k >= x, exact for positive ints and Fractions."""
    if not isinstance(x, (int, Fraction)) or x <= 0:
        raise ValueError(f"ceil_log2 needs a positive int or Fraction, got {x!r}")
    p, q = x.numerator, x.denominator
    if p > q:
        return (-(-p // q) - 1).bit_length()  # 2**k >= x iff 2**k >= ceil(x), for k >= 0
    return 1 - (q // p).bit_length()  # 2**-k <= 1/x iff 2**-k <= floor(1/x), for k <= 0


# ── graphs and multigraphs ──────────────────────────────────────────────────


def _lex_sorted(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows (lo, hi) in lexicographic order; one O(m) test spares rows already in order."""
    in_order = (lo[1:] > lo[:-1]) | (lo[1:] == lo[:-1]) & (hi[1:] >= hi[:-1])
    order = slice(None) if in_order.all() else np.lexsort((hi, lo))
    return lo[order], hi[order]


def _normalized(n: int, edges: Iterable, simple: bool) -> np.ndarray:
    """The canonical read-only (m, 2) int64 array of edges on vertices 0..n-1.

    ``edges`` is an (m, 2) integer array or an iterable of (u, v) pairs; the
    rows are (min, max), sorted, and rows already in order are not re-sorted.
    When ``simple``, loops are refused and repeats dropped.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if ends.size and (ends.shape[1:] != (2,) or ends.dtype.kind not in "iu" or ends.max() >= 2**63):
        raise ValueError(f"edges must be (u, v) pairs of int64 ids, not {ends.dtype} {ends.shape}")
    u, v = ends.reshape(-1, 2).astype(np.int64).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo < 0) | (hi >= n) | simple & (lo == hi)
    if bad.any():
        u, v = ends[bad.argmax()].tolist()
        if simple and u == v:
            raise ValueError(f"loop at vertex {u} not allowed in a simple graph")
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    lo, hi = _lex_sorted(lo, hi)
    keep = np.ones(len(lo), bool)
    if simple:
        keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    ends = np.column_stack((lo[keep], hi[keep]))
    ends.flags.writeable = False
    return ends


def _checked_side(n: int, side: Optional[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """``side`` as a tuple of ints, after checking that it gives each of n vertices 0 or 1."""
    if side is not None and (len(side) != n or any(s not in (0, 1) for s in side)):
        raise ValueError("side must assign 0 or 1 to every vertex")
    return None if side is None else tuple(map(int, side))


class Multigraph:
    """Immutable multigraph on vertices 0..n-1; a loop adds 2 to its vertex's degree.

    ``ends``, the array of ``_normalized``, is the one edge store; ``edges``
    holds its rows as a tuple of (u, v) pairs, built on first use.
    """

    __slots__ = ("n", "ends", "_edges")
    _simple = False

    def __init__(self, n: int, edges: Iterable):
        self.n, self.ends, self._edges = n, _normalized(n, edges, self._simple), None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(map(tuple, self.ends.tolist()))
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self.ends)

    def degrees(self) -> list[int]:
        return np.bincount(self.ends.ravel(), minlength=self.n).tolist()

    def support_graph(self) -> "Graph":
        """Simple graph on the same vertices: loops dropped, multiplicities collapsed."""
        return Graph(self.n, self.ends[self.ends[:, 0] != self.ends[:, 1]])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count})"


class Graph(Multigraph):
    """Immutable simple graph (loops refused, repeats dropped) with optional 2-class labels.

    ``side`` (when present) is a tuple giving each vertex its class, 0 or
    1; bipartite-aware code (crossing-hole search, class-respecting
    biclique containment) reads it as it is, everything else ignores it.
    """

    __slots__ = ("side",)
    _simple = True

    def __init__(self, n: int, edges: Iterable, side: Optional[Sequence[int]] = None):
        super().__init__(n, edges)
        self.side = _checked_side(n, side)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.ends, other.ends)
            and self.side == other.side
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.side))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, combinations(range(n), 2))

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return build_complete_multipartite([a, b])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        edges = [(i, (i + 1) % n) for i in range(n)]
        side = [i % 2 for i in range(n)] if n % 2 == 0 else None
        return cls(n, edges, side=side)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with the given class sizes.

    Vertices are numbered class by class; with exactly two classes the
    result carries the natural 2-class labelling.
    """
    sizes = list(sizes)
    if not sizes or any(not isinstance(s, int) or s < 1 for s in sizes):
        raise ValueError("class sizes must be positive integers")
    n = sum(sizes)
    _check_size("multipartite vertices plus edges", n + (n * n - sum(s * s for s in sizes)) // 2)
    # vertex u is joined to the `later[u]` vertices from `past[u]`, the first after its class
    past = np.repeat(np.cumsum(sizes), sizes)
    later = n - past
    us = np.repeat(np.arange(n), later)
    vs = np.arange(len(us)) + np.repeat(past - (np.cumsum(later) - later), later)
    side = np.repeat([0, 1], sizes) if len(sizes) == 2 else None
    return Graph(n, np.column_stack((us, vs)), side=side)


# ── rooted trees ─────────────────────────────────────────────────────────────


class RootedTree:
    """Rooted tree with vertex 0 as root, stored as parent/depth arrays.

    Ids are topological (parent[v] < v for v >= 1, parent[0] = -1), which
    keeps every check a single vectorised pass.  ``x_leaves``/``y_leaves``
    mark the two designated leaf sets of connector trees.
    """

    __slots__ = ("parent", "depth", "x_leaves", "y_leaves")

    def __init__(
        self,
        parent: np.ndarray,
        depth: np.ndarray,
        x_leaves: Optional[np.ndarray] = None,
        y_leaves: Optional[np.ndarray] = None,
    ):
        self.parent = np.asarray(parent, dtype=np.int64)
        self.depth = np.asarray(depth, dtype=np.int64)
        if self.parent.shape != self.depth.shape or self.parent.ndim != 1:
            raise ValueError("parent and depth must be equal-length 1-d arrays")
        if self.n == 0 or self.parent[0] != -1:
            raise ValueError("vertex 0 must be the root (parent -1)")
        self.x_leaves = None if x_leaves is None else np.asarray(x_leaves, dtype=np.int64)
        self.y_leaves = None if y_leaves is None else np.asarray(y_leaves, dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.parent)

    def children_counts(self) -> np.ndarray:
        return np.bincount(self.parent[1:], minlength=self.n)

    def max_degree(self) -> int:
        deg = self.children_counts()
        deg[1:] += 1
        return int(deg.max())


def _leaf_tree_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, depth) of the leaf tree for n >= 1 (n = 1: the root alone).

    With k = ceil(log2(n)), level j holds ceil(n / 2**(k-j)) ids, numbered
    level by level; the i-th id of level j+1 hangs below the (i // 2)-th of level j.
    """
    k = ceil_log2(n)
    widths = -(-n >> np.arange(k, -1, -1))
    start = np.cumsum(widths) - widths
    depth = np.repeat(np.arange(k + 1), widths)
    parent = start[depth - 1] + (np.arange(len(depth)) - start[depth]) // 2
    parent[0] = -1
    return parent, depth


def build_leaf_tree(n: int) -> RootedTree:
    """Rooted tree with exactly n leaves, all at depth ceil(log2(n)).

    Built level by level as in ``_leaf_tree_layout``: the leaves are the
    last n ids, and powers of two give the heap-layout perfect binary tree
    on 2n-1 vertices.  The vertex count is the sum of ceil(n / 2**j) over
    j = 0..ceil(log2(n)), never more than 2n + ceil(log2(n)) - 2; no degree
    exceeds 3 and the root has degree at most 2.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"leaf tree needs an integer n >= 2, got {n!r}")
    _check_size("leaf tree vertices", 2 * n + ceil_log2(n) - 2)
    return RootedTree(*_leaf_tree_layout(n))


@lru_cache(maxsize=8)
def _leaf_tree_parts(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (parent, depth) of the leaf tree for m; its leaves are the last m ids.

    Connector sweeps rebuild the same two leaf trees for every path length;
    keeping the last few, criterion 8's connector sweep took 11.5-13.0 s
    against 13.5-22.2 s without (three paired runs, 2-vCPU machine).  The
    arrays are frozen so no caller can alter the cached copy.
    """
    parts = _leaf_tree_layout(m)
    for arr in parts:
        arr.flags.writeable = False
    return parts


def build_connector_tree(m1: int, m2: int, n: int) -> RootedTree:
    """Tree whose m1 x-leaves and m2 y-leaves are pairwise at distance n-1.

    Joins the two leaf trees by a root-to-root path of length
    n - 1 - ceil(log2(m1)) - ceil(log2(m2)), which must be at least 1.
    At most n + 2*m1 + 2*m2 vertices; maximum degree 3.  For even n the
    two leaf sets land in different classes of the unique 2-colouring.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("leaf counts m1, m2 must be positive")
    l1, l2 = ceil_log2(m1), ceil_log2(m2)
    path_len = n - 1 - l1 - l2
    if path_len < 1:
        raise ValueError(
            f"n={n} is too small: need n >= {2 + l1 + l2} so the joining path "
            f"has positive length"
        )
    _check_size("connector tree vertices", n + 2 * m1 + 2 * m2)
    x_parent, x_depth = _leaf_tree_parts(m1)
    y_tree_parent, y_tree_depth = _leaf_tree_parts(m2)
    v1, base2 = len(x_parent), len(x_parent) + path_len - 1
    # the parents of the path internals v1 .. base2-1 and then of the y-tree root: the
    # first hangs below the x-tree root 0, each later one below the one before it
    hang = np.arange(v1 - 1, base2)
    hang[0] = 0
    y_parent = y_tree_parent + base2
    y_parent[0] = hang[-1]
    parent = np.concatenate([x_parent, hang[:-1], y_parent])
    depth = np.concatenate([x_depth, np.arange(1, path_len), y_tree_depth + path_len])
    return RootedTree(parent, depth, x_leaves=np.arange(v1 - m1, v1),
                      y_leaves=np.arange(len(parent) - m2, len(parent)))


# ── invariant reports for the tree builders ──────────────────────────────────


def _tree_structure_ok(tree: RootedTree) -> bool:
    """Root 0 at depth 0, and parent[v] < v with depth[v] = depth[parent[v]] + 1 for v >= 1."""
    p, d = tree.parent, tree.depth
    if p[0] != -1 or d[0] != 0:
        return False
    up = p[1:]
    # viewed unsigned, a negative parent is huge, so one comparison checks 0 <= parent[v] < v
    return bool((up.view(np.uint64) < np.arange(1, len(p), dtype=np.uint64)).all()
                and (d[up] + 1 == d[1:]).all())


def verify_leaf_tree(tree: RootedTree, n: int) -> dict:
    """Invariant report for build_leaf_tree output (ok-flag plus measurements)."""
    deg = tree.children_counts()
    leaves = np.flatnonzero(deg == 0)
    depths = tree.depth[leaves]
    deg[1:] += 1
    uniform = len(leaves) > 0 and int(depths.min()) == int(depths.max())
    report = {
        "n": n,
        "vertices": tree.n,
        "vertex_bound": 2 * n + ceil_log2(n) - 2,
        "leaves": int(len(leaves)),
        "leaf_depth": int(depths[0]) if uniform else None,
        "expected_depth": ceil_log2(n),
        "max_degree": int(deg.max()),
        "root_degree": int(deg[0]),
    }
    report["ok"] = (
        _tree_structure_ok(tree)
        and report["leaves"] == n
        and uniform
        and report["leaf_depth"] == report["expected_depth"]
        and report["vertices"] <= report["vertex_bound"]
        and report["max_degree"] <= 3
        and report["root_degree"] <= 2
    )
    return report


def _branch_below_root(parent: np.ndarray, height: int) -> np.ndarray:
    """The child-of-root ancestor of every vertex (0 for the root itself).

    Pointer jumping: root children point at themselves, every other vertex
    at its parent, and each round composes the pointers with themselves.
    After r rounds a vertex at depth k points at its ancestor at depth
    max(1, k - 2**r), so (height - 2).bit_length() rounds settle every
    vertex.  ``parent`` and ``height`` must come from a tree that passed
    ``_tree_structure_ok``: parent[v] < v and depth[v] = depth[parent[v]] + 1.
    """
    jump = np.where(parent > 0, parent, np.arange(len(parent)))
    for _ in range(max(height - 2, 0).bit_length()):
        jump = jump[jump]
    return jump


def verify_connector_tree(tree: RootedTree, m1: int, m2: int, n: int) -> dict:
    """Invariant report for build_connector_tree output.

    Pairwise x-y distances are verified through the rooted-tree identity
    dist(x, y) = depth(x) + depth(y) whenever x and y sit in different
    branches below the root; branch membership is recomputed from the
    parent array, not assumed from the construction.
    """
    x, y = tree.x_leaves, tree.y_leaves
    report = {
        "m1": m1,
        "m2": m2,
        "n": n,
        "vertices": tree.n,
        "vertex_bound": n + 2 * m1 + 2 * m2,
        "max_degree": tree.max_degree(),
        "distance": None,
        "parity_ok": None,
    }
    ok = (
        _tree_structure_ok(tree)
        and x is not None
        and y is not None
        and len(x) == m1
        and len(y) == m2
        and tree.n <= report["vertex_bound"]
        and report["max_degree"] <= 3
    )
    if ok:
        branch = _branch_below_root(tree.parent, int(tree.depth.max()))
        depth_x, depth_y = set(tree.depth[x].tolist()), set(tree.depth[y].tolist())
        disjoint = set(branch[x].tolist()).isdisjoint(branch[y].tolist())
        if disjoint and len(depth_x) == len(depth_y) == 1:
            (dx,), (dy,) = depth_x, depth_y
            report["distance"] = dx + dy
            ok = report["distance"] == n - 1
            if n % 2 == 0:
                report["parity_ok"] = (dx - dy) % 2 == 1
                ok = ok and report["parity_ok"]
        else:
            ok = False
    report["ok"] = bool(ok)
    return report


# ── edge-list serialisation ──────────────────────────────────────────────────


def serialize_edge_list(n: int, edges: Sequence[tuple[int, int]] | np.ndarray) -> str:
    """Shared plain-text format: header "n m", then sorted "u v" lines (u < v, duplicates kept).

    Ids must be nonnegative.  Row i of a uint8 array holds the i-th printed id's digits,
    right-aligned, and its space or newline; a bool mask drops the leading zeros.
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    m = len(pairs)
    if m and lo.min() < 0:
        raise ValueError(f"edge ids must be nonnegative, got {int(lo.min())}")
    lo, hi = _lex_sorted(lo, hi)
    top = int(hi.max()) if m else 0
    width = len(str(top))
    text = np.empty((2 * m, width + 1), dtype=np.uint8)
    keep = np.ones((2 * m, width + 1), dtype=bool)
    text[0::2, width], text[1::2, width] = ord(" "), ord("\n")
    q = np.empty(2 * m, dtype=np.min_scalar_type(top))  # narrow unsigned: fast // 10
    q[0::2], q[1::2] = lo, hi
    for k in range(width - 1, -1, -1):
        nq = q // 10
        text[:, k] = q - nq * 10 + ord("0")
        keep[:, k] = q != 0
        q = nq
    keep[:, width - 1] = True  # the last digit shows, a lone 0 too
    return f"{n} {m}\n" + text[keep].tobytes().decode()


def serialize_graph(graph: Graph) -> str:
    return serialize_edge_list(graph.n, graph.ends)


def serialize_tree(tree: RootedTree) -> str:
    return serialize_edge_list(tree.n, np.column_stack((tree.parent[1:], np.arange(1, tree.n))))


def parse_edge_list(text: str) -> Graph:
    """Inverse of serialize_graph (comment lines starting with '#' ignored)."""
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list document")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


__all__ = [
    "BUILD_SIZE_CAP",
    "Multigraph",
    "Graph",
    "RootedTree",
    "ceil_log2",
    "build_leaf_tree",
    "build_connector_tree",
    "verify_leaf_tree",
    "verify_connector_tree",
    "build_complete_multipartite",
    "serialize_edge_list",
    "serialize_graph",
    "serialize_tree",
    "parse_edge_list",
]
