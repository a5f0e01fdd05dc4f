"""Seeded random-graph samplers and crossing-hole detection.

Three models: the binomial random graph, its bipartite variant, and the
random regular multigraph sampled by pairing d labelled points per vertex
and projecting a uniform perfect matching of the points.

A *hole* is a pair of disjoint equal-size vertex sets with no edge between
them (for 2-class hosts, one set per class).  Graphs dense enough to have
no hole of a given size are exactly the hosts the long-cycle machinery
needs, so this module estimates hole probabilities by seeded Monte Carlo:
exhaustive branch-and-bound search at small scale, a verified greedy
heuristic above it.

Randomness policy: one generator family (PCG64) behind numpy's Generator,
and trial i of any experiment draws from the child sequence
SeedSequence(seed, spawn_key=(i, ...)), so each trial is reproducible on
its own.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import __version__
from .errors import CapExceededError
from .constructions import Graph, Multigraph, _bits, _check_size

SeedLike = Union[int, np.random.SeedSequence]

HOLE_EXACT_VERTEX_CAP = 60  # at most 64: the exact search packs pools in a uint64
HOLE_EXACT_SIZE_CAP = 8
#: most frontier nodes the exact hole search expands in one numpy step
_EXACT_BLOCK = 1024
#: live-test thresholds: [s, last + 1, j] is s for j > last, else 255, beyond any popcount
_NEED_AT = np.where(np.triu(np.ones((HOLE_EXACT_VERTEX_CAP + 1, HOLE_EXACT_VERTEX_CAP), bool)),
                    np.arange(HOLE_EXACT_SIZE_CAP + 1, dtype=np.uint8)[:, None, None], np.uint8(255))
#: most expected rejection attempts a simple pairing draw may need
PAIRING_ATTEMPTS_CAP = 100_000
#: most hole searches (trials times heuristic restarts) or simple pairing
#: draws one Monte Carlo runs; the CLI default is 100 x 2000
MONTE_CARLO_CAP = 10**6

#: restarts the heuristic hole search advances in lockstep after restart 0,
#: which runs alone; its largest array holds 8 bitsets per restart
_HEURISTIC_BLOCK = 512


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def child_seed(seed: int, *path: int) -> np.random.SeedSequence:
    """The documented stream-split rule: subtask `path` of experiment `seed`."""
    return np.random.SeedSequence(seed, spawn_key=tuple(path))


# ── samplers ─────────────────────────────────────────────────────────────────


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    return p


def sample_gnp(n: int, p: float, seed: SeedLike) -> Graph:
    """Binomial random graph: each pair independently an edge with probability p.

    Uniform j of one ``rng.random`` draw decides the j-th pair (u < v) in
    row-major upper-triangle order; row u starts at pair u*(2n-u-1)/2.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    p = _check_probability(p)
    _check_size("gnp vertex pairs", n * (n - 1) // 2)
    rng = _rng(seed)
    k = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
    start = np.arange(n) * np.arange(2 * n - 1, n - 1, -1) // 2  # u * (2n - u - 1) / 2
    row = np.searchsorted(start, k, "right") - 1
    return Graph(n, np.column_stack((row, k - start.take(row) + row + 1)))


def sample_bipartite(n1: int, n2: int, p: float, seed: SeedLike) -> Graph:
    """Bipartite binomial random graph on classes of sizes n1 and n2."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both classes need at least one vertex")
    p = _check_probability(p)
    _check_size("bipartite vertex pairs", n1 * n2)
    rng = _rng(seed)
    mask = rng.random(n1 * n2) < p
    us, vs = np.divmod(np.flatnonzero(mask), n2)
    return Graph(n1 + n2, np.column_stack((us, n1 + vs)), side=[0] * n1 + [1] * n2)


def sample_pairing(
    n: int,
    d: int,
    seed: SeedLike,
    simple_only: bool = False,
):
    """d-regular random multigraph via the pairing (configuration) model.

    n*d labelled points, d per vertex, are matched uniformly at random and
    the matching is projected to vertices.  Every vertex gets degree
    exactly d, loops counting twice.  With ``simple_only`` the draw is
    rejection-resampled until simple and the result is ``(Graph,
    attempts)``; otherwise a single ``Multigraph`` is returned.

    A draw is simple with probability about exp(-(d*d - 1)/4)
    (Bender-Canfield), so ``simple_only`` raises CapExceededError up front
    when the expected number of attempts exceeds PAIRING_ATTEMPTS_CAP.
    That estimate is asymptotic in n and far too low for small n, so the
    attempts actually made are capped at PAIRING_ATTEMPTS_CAP as well.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if (n * d) % 2:
        raise ValueError(f"n*d = {n * d} is odd: no perfect matching of the points")
    _check_size("pairing points", n * d)
    if simple_only and d >= n:
        raise ValueError(
            f"no simple {d}-regular graph on {n} vertices exists; rejection "
            "sampling would never terminate"
        )
    if simple_only and d * d - 1 > 4 * math.log(PAIRING_ATTEMPTS_CAP):
        raise CapExceededError(
            f"a simple {d}-regular pairing draw takes about exp((d*d - 1)/4) "
            f"attempts, over the cap of {PAIRING_ATTEMPTS_CAP}"
        )
    rng = _rng(seed)
    attempts = 0
    while True:
        if attempts == PAIRING_ATTEMPTS_CAP:
            raise CapExceededError(
                f"no simple {d}-regular pairing draw on {n} vertices in "
                f"{PAIRING_ATTEMPTS_CAP} attempts"
            )
        attempts += 1
        # points 2i and 2i + 1 of a uniform permutation are matched; point x lies at vertex x // d
        pairs = (rng.permutation(n * d) // d).reshape(-1, 2)
        deg = np.bincount(pairs.ravel(), minlength=n)
        if not np.all(deg == d):
            raise AssertionError("pairing projection broke the degree invariant")
        if not simple_only:
            return Multigraph(n, pairs)
        if (pairs[:, 0] != pairs[:, 1]).all():  # no loop; then simple if Graph drops no repeat
            graph = Graph(n, pairs)
            if graph.edge_count == len(pairs):
                return graph, attempts


# ── hole witnesses ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class HoleWitness:
    """Two disjoint equal-size vertex sets with no edge between them."""

    left: frozenset
    right: frozenset


def verify_hole(graph: Graph, witness: HoleWitness, size: Optional[int] = None) -> bool:
    """Independent re-check of every HoleWitness invariant, on the edge array itself."""
    left, right = witness.left, witness.right
    if left & right or len(left) != len(right) or not left:
        return False
    if size is not None and len(left) != size:
        return False
    if not all(0 <= v < graph.n for v in left | right):
        return False
    if graph.side is not None:
        sides_l = {graph.side[v] for v in left}
        sides_r = {graph.side[v] for v in right}
        if len(sides_l) != 1 or len(sides_r) != 1 or sides_l == sides_r:
            return False
    # left reads 1 and right 2, so a crossing edge sums to 3; ends past the witness read the last 0
    label = np.zeros(max(left | right) + 2, np.int8)
    label[list(left)], label[list(right)] = 1, 2
    at_u, at_v = label.take(graph.ends, mode="clip").T
    return not (at_u + at_v == 3).any()


def _host_words(n: int) -> int:
    """Words per row of the hole searches' host table, whose n rows must fit the build cap."""
    words = -(-n // 64)
    _check_size("hole search bitset words", n * words)
    return words


def _check_exact_caps(n: int, s: int) -> None:
    if n > HOLE_EXACT_VERTEX_CAP:
        raise CapExceededError(
            f"exact hole search capped at {HOLE_EXACT_VERTEX_CAP} vertices, host has {n}"
        )
    if s > HOLE_EXACT_SIZE_CAP:
        raise CapExceededError(f"exact hole search capped at size {HOLE_EXACT_SIZE_CAP}, got {s}")


def _host_rows(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hole searches' host table, read from the edge array and class labels.

    uint64 rows with v at bit v % 64 of word v // 64: ``sides[k]`` holds
    the vertices side k of a hole may use (class k of a 2-class host, else
    all), ``clear[v]`` all but v, ``drop[v]`` all but v and its neighbours.
    """
    n, words = graph.n, _host_words(graph.n)
    member = np.zeros((2, 64 * words), bool)
    member[:, :n] = True if graph.side is None else np.array(graph.side) == [[0], [1]]
    sides = np.packbits(member, axis=1, bitorder="little").view("<u8")
    # 2n rows, the complements of drop and then of clear: bit b of row a is set for (a, b) =
    # (lo, hi), (hi, lo), (v, v) and (n + v, v), summed per 32-bit half word.  Graph is
    # simple, so these bits are distinct and each (exact, float64) sum is their OR.
    v = np.arange(n)
    a = np.concatenate((graph.ends.ravel(), v, n + v))
    b = np.concatenate((graph.ends[:, ::-1].ravel(), v, v))
    halves = np.bincount(a * (2 * words) + (b >> 5), np.left_shift(1, b & 31), 4 * n * words)
    drop, clear = ~halves.astype("<u4").view("<u8").reshape(2, n, words)
    return sides, clear, drop


def find_hole_exact(graph: Graph, s: int) -> Optional[HoleWitness]:
    """Exhaustive hole search; None is a proof that no hole of size s exists.

    Branch-and-bound over the left set in increasing vertex order, keeping as
    a uint64 pool the right vertices compatible with every chosen left vertex.
    A candidate is live if it follows the node's last index and its child's
    pool holds s vertices: its popcount reaches row last + 1 of ``_NEED_AT``,
    s after last and 255 (out of reach) elsewhere.  It is kept when need - 1
    more live ones follow it in its row (need: left vertices still to choose),
    counted on the ``flatnonzero`` list of live cells; pools
    only shrink, so no hole is lost.  The depth-first frontier is a stack of
    frames of same-depth nodes in lexicographic order.  A step expands the top
    frame's first rows against every later candidate at once and pushes their
    children, row by row and so again in order.  Every node before the block
    is exhausted by then, so the first depth-s child is the
    lexicographically-first left set, returned with the s smallest vertices of
    its pool.  The block starts at one row, for hosts with an early hole, and
    doubles per step up to ``_EXACT_BLOCK`` = 1024 rows: the stack holds at
    most s frames of ``_EXACT_BLOCK`` times |left| nodes of 24 bytes, 11.8 MB
    at the caps.

    The left set ranges over ``sides[0]`` of the ``_host_rows`` table and
    the pools over ``sides[1]`` (classes 0 and 1 of a 2-class host).  With
    no classes a witness swap symmetry lets the first left vertex's pool
    start above it; that mask narrows the first vertex's own pool only,
    never the live test of the candidates after it.
    """
    _check_exact_caps(graph.n, s)
    if s < 1:
        raise ValueError("hole size must be at least 1")
    if 2 * s > graph.n:
        return None
    sides, _, drop = _host_rows(graph)
    left, pool0 = _bits(int(sides[0, 0])), sides[1, 0]
    cand = pool0 & drop[left, 0]
    above = pool0 & -np.left_shift(np.uint64(2), np.array(left, np.uint64))  # bits above v
    bit = np.left_shift(np.uint64(1), np.arange(len(left)).astype(np.uint64))
    need_at = _NEED_AT[s, :, : len(left)]
    # a frame: depth; per node the pool, chosen left indices as bits, last index
    stack = [(0, np.array([pool0], dtype=np.uint64), np.zeros(1, np.uint64), np.full(1, -1))]
    # every step's q lives here: a new array of up to 1024 rows would be a fresh mmap,
    # paged in again at each step (about 450 page faults per G(60, 0.47) host); the rank's
    # arange stays per step at the live list's size: a 480 KB one per search mmaps (0.72x)
    buf = np.empty(_EXACT_BLOCK * len(left), np.uint64)
    width = 1
    while stack:
        depth, pools, chosen, last = stack.pop()
        if len(pools) > width:
            stack.append((depth, pools[width:], chosen[width:], last[width:]))
            pools, chosen, last = pools[:width], chosen[:width], last[:width]
        width, need = min(2 * width, _EXACT_BLOCK), s - depth
        lo = int(last.min()) + 1
        span = len(left) - lo
        q = buf[: len(pools) * span].reshape(len(pools), span)
        np.bitwise_and(pools[:, None], cand[lo:], out=q)
        live = np.bitwise_count(q) >= need_at[:, lo:].take(last + 1, 0)
        flat = np.flatnonzero(live)
        rows = flat // span
        ends = np.bincount(rows).cumsum()  # each live row's end in flat
        keep = np.arange(need - 1, len(flat) + need - 1) < ends.take(rows)  # need - 1 more follow
        if not depth and graph.side is None:
            q &= above  # swap symmetry: the hole's minimum vertex is on the left
            keep &= np.bitwise_count(q.ravel().take(flat)) >= s
        flat, rows = flat[keep], rows[keep]
        js = flat - rows * span + lo
        if len(rows) and need == 1:
            lefts = [left[i] for i in _bits(int(chosen[rows[0]] | bit[js[0]]))]
            return HoleWitness(frozenset(lefts), frozenset(_bits(int(q.ravel()[flat[0]]))[:s]))
        if len(rows):
            stack.append((depth + 1, q.ravel()[flat], chosen[rows] | bit[js], js))
    return None


def find_hole_heuristic(
    graph: Graph,
    s: int,
    iters: int = 2000,
    seed: SeedLike = 0,
) -> Optional[HoleWitness]:
    """Randomized greedy hole search: one-sided (a miss proves nothing).

    Each restart grows the two sets together, one vertex a step.  The
    smaller side grows, and a coin picks it when the sides are equal.  40%
    of the time the new vertex is a uniform vertex of its side's pool;
    otherwise it is whichever of 8 uniform pool vertices (drawn with
    repetition) leaves the other side's pool largest.  Pure greedy gets
    systematically stuck (e.g. it splits isolated vertices evenly across
    the sides even when the only hole needs them together), hence the
    randomness.  A restart dies as soon as a pool holds fewer vertices than
    its side still needs; a dead restart still counts as one of the
    ``iters``.

    The restarts run in blocks that advance in lockstep: the first block is
    restart 0 alone, for hosts where holes are common, and every later block
    holds ``_HEURISTIC_BLOCK`` restarts (fewer in the last).  A block keeps
    both pools of each live restart as rows of uint64 bitsets, read from the
    ``_host_rows`` table, and a candidate's effect is a popcount of its
    ``drop`` row against the other pool.  Each step of a block takes a
    (block size, 10) array of uniforms from the one generator seeded by
    ``seed``, and the block's restart j reads line j.  The lines up to the
    last live restart are drawn and the generator is advanced past the
    rest, which it does not read (PCG64 spends one output per double), so
    after each step it stands where the full draw would leave it, even when
    the block is the shorter last one or some of its restarts have died.
    So restart r depends on (seed, r) alone: a search that finds a hole with
    ``iters=a`` returns the same witness for every larger ``iters``.  A find
    is re-verified by ``verify_hole`` before it is returned, and the
    lowest-index complete restart that passes is the result.
    """
    if s < 1:
        raise ValueError("hole size must be at least 1")
    if 2 * s > graph.n or graph.side and min(graph.side.count(0), graph.side.count(1)) < s:
        return None
    base, clear, drop = _host_rows(graph)
    words = base.shape[1]
    ones = np.ones(words, np.intp)  # row sums of popcounts as a matmul: faster than sum(2)
    rng = _rng(seed)
    iters, done = max(1, iters), 0
    while done < iters:
        width = _HEURISTIC_BLOCK if done else 1
        ids = np.arange(min(width, iters - done))  # the block's live restarts
        pools = np.tile(base, (len(ids), 1))  # rows 2j and 2j + 1: live restart j's pools
        picks = np.empty((len(ids), 2 * s), np.intp)
        grew = np.empty((len(ids), 2 * s), bool)  # whether each pick joined the right side
        for t in range(2 * s):
            if not t or len(live) != len(ids):
                live = np.arange(len(ids))
                row_bit0, even, row8 = 64 * words * live[:, None], 2 * live, 8 * live
            # PCG64 spends one output per double: skipping the rows past the last live
            # restart leaves the generator where drawing all `width` rows would
            top = int(ids[-1]) + 1
            u = rng.random((top, 10)).take(ids, 0)
            rng.bit_generator.advance(10 * (width - top))
            # the sides are equal before an even step, else the side not grown last is smaller
            right = u[:, 0] < 0.5 if t % 2 == 0 else ~right
            own = even + right
            other = own ^ 1
            own_pool = pools.take(own, 0)
            unpacked = np.unpackbits(own_pool.view(np.uint8), bitorder="little")
            (bits,) = unpacked.view(bool).nonzero()  # bool, for nonzero's fast path
            m = (np.bitwise_count(own_pool) @ ones)[:, None]
            cands = bits.take(m.cumsum(0) - m + (u[:, 2:] * m).astype(np.intp)) - row_bit0
            after = pools.take(other, 0)[:, None] & drop.take(cands, 0)
            kept = np.bitwise_count(after) @ ones
            pick = row8 + np.where(u[:, 1] < 0.4, 0, kept.argmax(1))  # flat (row, candidate)
            v = cands.take(pick)
            pools[own] = own_pool & clear.take(v, 0)
            pools[other] = after.reshape(-1, words).take(pick, 0)
            picks[:, t], grew[:, t] = v, right
            # the own pool lost just v, as its side's need did; the other side needs s - (t+1)//2
            alive = kept.take(pick) >= s - (t + 1) // 2
            if not alive.all():
                ids, right, picks, grew = ids[alive], right[alive], picks[alive], grew[alive]
                pools = pools.reshape(-1, 2, words)[alive].reshape(-1, words)
                if not len(ids):
                    break
        for vs, sides in zip(picks.tolist(), grew.tolist()):
            left = frozenset(v for v, r in zip(vs, sides) if not r)
            witness = HoleWitness(left, frozenset(vs) - left)
            if graph.side is None and min(witness.right) < min(witness.left):
                witness = HoleWitness(witness.right, witness.left)
            if verify_hole(graph, witness, s):
                return witness
        done += width
    return None


# ── Monte Carlo estimation ───────────────────────────────────────────────────


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials with trials >= 1")
    z = 1.959963984540054  # central 95% normal quantile
    ph = successes / trials
    denom = 1.0 + z * z / trials
    center = ph + z * z / (2 * trials)
    radius = z * (ph * (1.0 - ph) / trials + z * z / (4.0 * trials * trials)) ** 0.5
    low = max(0.0, (center - radius) / denom)
    high = min(1.0, (center + radius) / denom)
    # the extreme endpoints are exactly 0 and 1; don't let rounding blur them
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return low, high


@dataclass
class TrialReport:
    """Outcome of a seeded hole-frequency experiment."""

    model: str
    params: dict
    trials: int
    holes: int
    freq: Fraction
    ci_low: float
    ci_high: float
    mode: str
    seed: int
    version: str = field(default=__version__)

    def as_dict(self) -> dict:
        return {**asdict(self), "freq": str(self.freq)}


def estimate_hole_probability(
    model: str,
    n: int,
    s: int,
    trials: int,
    seed: int,
    *,
    p: Optional[float] = None,
    d: Optional[int] = None,
    mode: str = "auto",
    iters: int = 2000,
) -> TrialReport:
    """Seeded Monte Carlo estimate of P(sample contains a size-s hole).

    ``model`` is "gnp" (needs p), "bipartite" (classes of size n each,
    needs p), or "pairing" (needs integer degree d; the search runs on the
    simple support of the multigraph, which has the same holes).  ``mode``
    is "exact", "heuristic", or "auto" (exact whenever the caps allow).
    Trial i samples its host from child_seed(seed, i, 0) and seeds the
    heuristic from child_seed(seed, i, 1); the trials run one after another
    in this process, and the heuristic advances each trial's restarts in
    lockstep blocks (see ``find_hole_heuristic``).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if s < 1 or n < 1:
        raise ValueError("need n >= 1 and s >= 1")
    if model in ("gnp", "bipartite"):
        if p is None:
            raise ValueError(f"model {model!r} needs an edge probability p")
        p = _check_probability(p)
        if d is not None:
            raise ValueError(f"model {model!r} takes p, not d")
        params: dict = {"n": n, "s": s, "p": p}
        if model == "gnp" and 2 * s > n:
            raise ValueError("two disjoint s-sets need 2*s <= n")
        if model == "bipartite" and s > n:
            raise ValueError("each class holds only n vertices, need s <= n")
    elif model == "pairing":
        if d is None or p is not None:
            raise ValueError("model 'pairing' needs a degree d (and no p)")
        if d < 1 or (n * d) % 2:
            raise ValueError("pairing model needs d >= 1 with n*d even")
        if 2 * s > n:
            raise ValueError("two disjoint s-sets need 2*s <= n")
        params = {"n": n, "s": s, "d": d}
    else:
        raise ValueError(f"unknown model {model!r}")

    host_vertices = 2 * n if model == "bipartite" else n
    if mode == "auto":
        mode = (
            "exact"
            if host_vertices <= HOLE_EXACT_VERTEX_CAP and s <= HOLE_EXACT_SIZE_CAP
            else "heuristic"
        )
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown search mode {mode!r}")
    searches = trials * (max(1, iters) if mode == "heuristic" else 1)
    if searches > MONTE_CARLO_CAP:
        raise CapExceededError(
            f"hole searches: {searches} is over the Monte Carlo cap of {MONTE_CARLO_CAP}"
        )
    # the chosen search's own size checks, on the host's vertex count, before any host is drawn
    if mode == "exact":
        _check_exact_caps(host_vertices, s)
    else:
        _host_words(host_vertices)

    def host(i: int):
        sample_seed = child_seed(seed, i, 0)
        if model == "gnp":
            return sample_gnp(n, p, sample_seed)
        if model == "bipartite":
            return sample_bipartite(n, n, p, sample_seed)
        return sample_pairing(n, d, sample_seed).support_graph()

    def run_trial(i: int) -> bool:
        g = host(i)
        if mode == "exact":
            return find_hole_exact(g, s) is not None
        return find_hole_heuristic(g, s, iters=iters, seed=child_seed(seed, i, 1)) is not None

    holes = sum(run_trial(i) for i in range(trials))
    ci_low, ci_high = wilson_interval(holes, trials)
    return TrialReport(
        model=model,
        params=params,
        trials=trials,
        holes=holes,
        freq=Fraction(holes, trials),
        ci_low=ci_low,
        ci_high=ci_high,
        mode=mode,
        seed=seed,
    )


__all__ = [
    "HoleWitness",
    "TrialReport",
    "child_seed",
    "sample_gnp",
    "sample_bipartite",
    "sample_pairing",
    "find_hole_exact",
    "find_hole_heuristic",
    "verify_hole",
    "estimate_hole_probability",
    "wilson_interval",
    "HOLE_EXACT_VERTEX_CAP",
    "HOLE_EXACT_SIZE_CAP",
    "PAIRING_ATTEMPTS_CAP",
    "MONTE_CARLO_CAP",
]
