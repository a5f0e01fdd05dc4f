"""Answer checks for the benchmark, written without calling ramsey_lab.

Every function here recomputes a quantity from its mathematical definition
(or brute force), so a defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import mpmath as mp

_DPS = 60


def _mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def _g(x: mp.mpf) -> mp.mpf:
    return x * mp.log(x) if x > 0 else mp.mpf(0)


def close(value: float, exact, rel: float) -> bool:
    """|value - exact| <= rel * |exact| (exact may be an mpf)."""
    return abs(mp.mpf(value) - exact) <= rel * abs(exact)


# ── density thresholds ───────────────────────────────────────────────────────


@lru_cache(maxsize=4096)
def regular_density(c: Fraction):
    """(a*, d_min) for the regular model at host constant c, or (a*, None).

    k1(a) = g(c-2) + g(c-1-a)/2 - g(a) - g(c-2-a) - g(1-a)/2 - g(c)/2 is
    strictly concave on (0, 1) with its maximiser a* the unique root of
    (c-2-a)^2 (1-a) = a^2 (c-1-a).  With k0 = g(c) - g(c-2) > 0 the minimum
    density is k0 / (-k1(a*)); when k1(a*) >= 0 no density works (None).
    Bisection runs in 60-digit arithmetic.
    """
    with mp.workdps(_DPS):
        cm = _mpf(Fraction(c))
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(210):
            mid = (lo + hi) / 2
            if (cm - 2 - mid) ** 2 * (1 - mid) > mid * mid * (cm - 1 - mid):
                lo = mid
            else:
                hi = mid
        a = (lo + hi) / 2
        k0 = _g(cm) - _g(cm - 2)
        k1 = (_g(cm - 2) + _g(cm - 1 - a) / 2 - _g(a) - _g(cm - 2 - a)
              - _g(1 - a) / 2 - _g(cm) / 2)
        return a, (k0 / (-k1) if k1 < 0 else None)


def gnp_density(c: Fraction) -> mp.mpf:
    """Binomial-host threshold at rho = 1/c: -((1-2r)ln(1-2r) + 2r ln r) / r^2."""
    with mp.workdps(_DPS):
        r = 1 / _mpf(Fraction(c))
        return -((1 - 2 * r) * mp.log(1 - 2 * r) + 2 * r * mp.log(r)) / (r * r)


def bipartite_density(c: Fraction) -> mp.mpf:
    """Bipartite-host threshold at rho = 1/c: -(2(1-r)ln(1-r) + 2r ln r) / r^2."""
    with mp.workdps(_DPS):
        r = 1 / _mpf(Fraction(c))
        return -(2 * (1 - r) * mp.log(1 - r) + 2 * r * mp.log(r)) / (r * r)


def gnp_coefficients(c: Fraction) -> tuple[mp.mpf, mp.mpf]:
    """(sharp, loose) edge coefficients c^2 (c ln c - (c-2) ln(c-2)) / 2 and (ln c + 1) c^2."""
    with mp.workdps(_DPS):
        cm = _mpf(Fraction(c))
        return cm * cm * (_g(cm) - _g(cm - 2)) / 2, (mp.log(cm) + 1) * cm * cm


def bipartite_coefficients(c: Fraction) -> tuple[mp.mpf, mp.mpf]:
    """(sharp, loose) 2c^2 (c ln c - (c-1) ln(c-1)) and 2c^2 (ln c + 1)."""
    with mp.workdps(_DPS):
        cm = _mpf(Fraction(c))
        return 2 * cm * cm * (_g(cm) - _g(cm - 1)), 2 * cm * cm * (mp.log(cm) + 1)


def host_constant(lengths) -> Fraction:
    """The paper's host constant: 82 * 35^(2^t_odd - 2) * 81^t_even, and for two
    cycles the smaller of that and 95412, the coefficient sum of the level-2
    linear form 38033 m1 + 57379 m2 - 1617."""
    t_odd = sum(1 for n in lengths if n % 2)
    t_even = len(lengths) - t_odd
    closed = Fraction(82) * Fraction(35) ** (2**t_odd - 2) * 81**t_even
    return min(closed, Fraction(95412)) if len(lengths) == 2 else closed


def ceil_log2(x: Fraction) -> int:
    k = 0
    while Fraction(2) ** k < x:
        k += 1
    while k > 0 and Fraction(2) ** (k - 1) >= x:
        k -= 1
    return k


def wilson(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval, clipped to [0, 1]."""
    z = 1.959963984540054
    ph = successes / trials
    den = 1 + z * z / trials
    mid = ph + z * z / (2 * trials)
    rad = z * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials))
    return max(0.0, (mid - rad) / den), min(1.0, (mid + rad) / den)


# ── holes ────────────────────────────────────────────────────────────────────


def hole_ok(n: int, edges, left, right, s: int) -> bool:
    """Bitset re-check: disjoint s-sets inside 0..n-1 with no edge between them."""
    left, right = set(left), set(right)
    if len(left) != s or len(right) != s or left & right:
        return False
    if not all(0 <= v < n for v in left | right):
        return False
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    rmask = sum(1 << v for v in right)
    return all(adj[u] & rmask == 0 for u in left)


# ── monochromatic targets (brute force) ──────────────────────────────────────


def has_cycle(edges, k: int) -> bool:
    """Brute force over vertex k-subsets and their cyclic orders."""
    es = {frozenset(e) for e in edges}
    verts = sorted({v for e in edges for v in e})
    for sub in combinations(verts, k):
        first = sub[0]
        for rest in permutations(sub[1:]):
            if rest[0] > rest[-1]:
                continue  # each cycle once per direction
            ring = (first,) + rest
            if all(frozenset((ring[i], ring[(i + 1) % k])) in es for i in range(k)):
                return True
    return False


def has_biclique(edges, side, m1: int, m2: int) -> bool:
    """K_{m1,m2} with one part in each class of `side` (either orientation)."""
    es = {frozenset(e) for e in edges}
    cls = [[v for v in range(len(side)) if side[v] == s] for s in (0, 1)]
    for a, b in {(m1, m2), (m2, m1)}:
        for A in combinations(cls[0], a):
            for B in combinations(cls[1], b):
                if all(frozenset((u, v)) in es for u in A for v in B):
                    return True
    return False


# ── trees from their edge-list text ──────────────────────────────────────────


def _tree(body: str):
    """Adjacency lists of an "n m" + "u v" edge list, or None if not a tree."""
    lines = body.splitlines()
    n, m = map(int, lines[0].split())
    if m != n - 1 or len(lines) != m + 1:
        return None
    adj = [[] for _ in range(n)]
    for ln in lines[1:]:
        u, v = map(int, ln.split())
        adj[u].append(v)
        adj[v].append(u)
    if len(bfs(adj, 0)) != n:
        return None
    return adj


def bfs(adj, src: int) -> dict:
    dist = {src: 0}
    todo = deque([src])
    while todo:
        u = todo.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                todo.append(w)
    return dist


def leaf_tree_ok(body: str, n: int) -> bool:
    """n leaves, all at depth ceil(log2 n) below root 0; degree <= 3, root <= 2,
    at most 2n + ceil(log2 n) - 2 vertices."""
    adj = _tree(body)
    if adj is None:
        return False
    depth = bfs(adj, 0)
    leaves = [v for v in range(1, len(adj)) if len(adj[v]) == 1]
    h = ceil_log2(Fraction(n))
    return (
        len(leaves) == n
        and all(depth[v] == h for v in leaves)
        and max(len(a) for a in adj) <= 3
        and len(adj[0]) <= 2
        and len(adj) <= 2 * n + h - 2
    )


def connector_ok(body: str, m1: int, m2: int, n: int) -> bool:
    """Leaves split into sets of sizes {m1, m2} pairwise at distance n - 1.

    If some edge (p, c) cuts the leaves into sides of sizes {m1, m2}, every
    leaf on c's side is at one distance a from c and every leaf on p's side
    at one distance b from p, then each cross pair is at distance a + 1 + b,
    and that must be n - 1.  Conversely every edge on a valid connector's
    joining path has this form.  All edges are tried in one rerooting pass.
    """
    adj = _tree(body)
    if adj is None or len(adj) > n + 2 * m1 + 2 * m2 or max(len(a) for a in adj) > 3:
        return False
    nv, big = len(adj), 1 << 60
    parent, order = [-1] * nv, [0]
    for u in order:
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    leaf = [len(a) == 1 for a in adj]
    children = [[w for w in adj[u] if w != parent[u]] for u in range(nv)]
    # leaf count and min/max leaf distance inside each rooted subtree
    cnt, lo, hi = [0] * nv, [big] * nv, [-big] * nv
    for u in reversed(order):
        if leaf[u]:
            cnt[u], lo[u], hi[u] = 1, 0, 0
        for w in children[u]:
            cnt[u] += cnt[w]
            lo[u], hi[u] = min(lo[u], lo[w] + 1), max(hi[u], hi[w] + 1)
    # min/max distance from u to the leaves outside its subtree
    up_lo, up_hi = [big] * nv, [-big] * nv
    for u in order:
        for w in children[u]:
            a, b = up_lo[u] + 1, up_hi[u] + 1
            if leaf[u]:
                a, b = min(a, 1), max(b, 1)
            for s in children[u]:
                if s != w:
                    a, b = min(a, lo[s] + 2), max(b, hi[s] + 2)
            up_lo[w], up_hi[w] = a, b
    total, want = cnt[0], sorted((m1, m2))
    return any(
        sorted((cnt[w], total - cnt[w])) == want
        and lo[w] == hi[w] and up_lo[w] == up_hi[w] and lo[w] + up_lo[w] == n - 1
        for w in range(1, nv)
    )
