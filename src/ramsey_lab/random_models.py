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
its own.  That lets a costly heuristic Monte Carlo spread its trials over
forked worker processes, one per usable CPU, with results identical to a
serial loop.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import __version__
from .bounds import format_rational
from .errors import CapExceededError
from .constructions import Graph, _bits, _check_size

SeedLike = Union[int, np.random.SeedSequence]

HOLE_EXACT_VERTEX_CAP = 60  # at most 64: the exact search packs pools in a uint64
HOLE_EXACT_SIZE_CAP = 8
#: most frontier nodes the exact hole search expands in one numpy step
_EXACT_BLOCK = 256
#: most expected rejection attempts a simple pairing draw may need
PAIRING_ATTEMPTS_CAP = 100_000
#: most hole searches (trials times heuristic restarts) or simple pairing
#: draws one Monte Carlo runs; the CLI default is 100 x 2000
MONTE_CARLO_CAP = 10**6

#: restarts of trial 0 that a heuristic Monte Carlo times in its own
#: process before it decides whether to fork trial workers
_PROBE_RESTARTS = 8
#: projected serial time (s) from which the trials run in forked workers;
#: forking, copy-on-write faults and reaping cost 5-40 ms per call
_FORK_MIN_SECONDS = 0.1

#: z for a central 95% normal interval
_Z95 = 1.959963984540054


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def child_seed(seed: int, *path: int) -> np.random.SeedSequence:
    """The documented stream-split rule: subtask `path` of experiment `seed`."""
    return np.random.SeedSequence(seed, spawn_key=tuple(path))


# ── multigraphs (pairing-model output) ───────────────────────────────────────


class Multigraph:
    """Undirected multigraph: loops and parallel edges allowed.

    Edges are a sorted multiset of (u, v) with u <= v; a loop contributes
    2 to its endpoint's degree.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        self.n = n
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.append((u, v) if u <= v else (v, u))
        self.edges = tuple(sorted(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def support_graph(self) -> Graph:
        """Simple graph on the same vertices: loops dropped, multiplicities collapsed."""
        return Graph(self.n, {(u, v) for u, v in self.edges if u != v})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Multigraph(n={self.n}, edges={self.edge_count})"


# ── samplers ─────────────────────────────────────────────────────────────────


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    return p


def sample_gnp(n: int, p: float, seed: SeedLike) -> Graph:
    """Binomial random graph: each pair independently an edge with probability p."""
    if n < 1:
        raise ValueError("need at least one vertex")
    p = _check_probability(p)
    _check_size("gnp vertex pairs", n * (n - 1) // 2)
    rng = _rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return Graph(n, zip(iu[mask].tolist(), iv[mask].tolist()))


def sample_bipartite(n1: int, n2: int, p: float, seed: SeedLike) -> Graph:
    """Bipartite binomial random graph on classes of sizes n1 and n2."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both classes need at least one vertex")
    p = _check_probability(p)
    _check_size("bipartite vertex pairs", n1 * n2)
    rng = _rng(seed)
    mask = rng.random(n1 * n2) < p
    us, vs = np.divmod(np.flatnonzero(mask), n2)
    edges = zip(us.tolist(), (n1 + vs).tolist())
    return Graph(n1 + n2, edges, side=[0] * n1 + [1] * n2)


def _pairing_edges(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """One pairing-model draw: (n*d//2, 2) array of bucket pairs, u <= v."""
    points = rng.permutation(n * d)
    buckets = points // d
    pairs = buckets.reshape(-1, 2)
    pairs.sort(axis=1)
    return pairs


def _pairs_simple(pairs: np.ndarray, n: int) -> bool:
    if np.any(pairs[:, 0] == pairs[:, 1]):
        return False
    codes = pairs[:, 0] * n + pairs[:, 1]
    return np.unique(codes).shape[0] == codes.shape[0]


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
        pairs = _pairing_edges(n, d, rng)
        deg = np.bincount(pairs.ravel(), minlength=n)
        if not np.all(deg == d):
            raise AssertionError("pairing projection broke the degree invariant")
        if not simple_only:
            return Multigraph(n, map(tuple, pairs.tolist()))
        if _pairs_simple(pairs, n):
            return Graph(n, map(tuple, pairs.tolist())), attempts


# ── hole witnesses ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class HoleWitness:
    """Two disjoint equal-size vertex sets with no edge between them."""

    left: frozenset
    right: frozenset


def verify_hole(graph: Graph, witness: HoleWitness, size: Optional[int] = None) -> bool:
    """Independent re-check of every HoleWitness invariant."""
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
    adj = graph.adjacency_bitsets()
    right_mask = 0
    for v in right:
        right_mask |= 1 << v
    return all(adj[u] & right_mask == 0 for u in left)


def find_hole_exact(graph: Graph, s: int) -> Optional[HoleWitness]:
    """Exhaustive hole search; None is a proof that no hole of size s exists.

    Branch-and-bound over the left set in increasing vertex order, keeping
    as a uint64 pool the right vertices compatible with every chosen left
    vertex.  A child is kept only if its pool holds s vertices and enough
    such candidates remain from it on to fill the left set; pools only
    shrink, so no hole is lost.  The depth-first frontier is a stack of
    frames of same-depth nodes in lexicographic order.  A step expands the
    top frame's first rows against every later candidate at once and
    pushes their children, row by row and so again in order.  Every node
    before the block is exhausted by then, so the first depth-s child is
    the lexicographically-first left set, returned with the s smallest
    vertices of its pool.  The block starts at one row, for hosts with an
    early hole, and doubles per step up to ``_EXACT_BLOCK`` rows: the stack
    holds at most s frames of ``_EXACT_BLOCK`` times |left| nodes.

    For 2-class hosts the left set ranges over class 0 and the right pool
    over class 1.  Otherwise a witness swap symmetry lets the first left
    vertex's pool start above it; that mask narrows the first vertex's own
    pool only, never the live test of the candidates after it.
    """
    if graph.n > HOLE_EXACT_VERTEX_CAP:
        raise CapExceededError(
            f"exact hole search capped at {HOLE_EXACT_VERTEX_CAP} vertices, host has {graph.n}"
        )
    if s > HOLE_EXACT_SIZE_CAP:
        raise CapExceededError(f"exact hole search capped at size {HOLE_EXACT_SIZE_CAP}, got {s}")
    if s < 1:
        raise ValueError("hole size must be at least 1")
    adj = graph.adjacency_bitsets()
    if graph.side is not None:
        left, pool0 = graph.side_vertices(0), graph.side_mask(1)
    else:
        left, pool0 = list(range(graph.n)), (1 << graph.n) - 1
    cand = np.array([pool0 & ~(adj[v] | 1 << v) for v in left], dtype=np.uint64)
    above = np.array([pool0 & -1 << (v + 1) for v in left], dtype=np.uint64)
    col = np.arange(len(left))
    bit = np.left_shift(np.uint64(1), col.astype(np.uint64))
    # a frame: depth; per node the pool, chosen left indices as bits, last index
    stack = [(0, np.array([pool0], dtype=np.uint64), np.zeros(1, np.uint64), np.full(1, -1))]
    width = 1
    while stack:
        depth, pools, chosen, last = stack.pop()
        if len(pools) > width:
            stack.append((depth, pools[width:], chosen[width:], last[width:]))
            pools, chosen, last = pools[:width], chosen[:width], last[:width]
        width, need = min(2 * width, _EXACT_BLOCK), s - depth
        lo = int(last.min()) + 1
        q = pools[:, None] & cand[lo:]
        live = (np.bitwise_count(q) >= s) & (col[lo:] > last[:, None])
        rank = np.cumsum(live, axis=1, dtype=np.uint8)  # live candidates up to j
        keep = live & (rank + (need - 1) <= rank[:, -1:])
        if not depth and graph.side is None:
            q &= above  # swap symmetry: the hole's minimum vertex is on the left
            keep &= np.bitwise_count(q) >= s
        flat = np.flatnonzero(keep)
        rows, js = np.divmod(flat, len(left) - lo)
        js += lo
        if len(rows) and need == 1:
            lefts = [left[i] for i in _bits(int(chosen[rows[0]] | bit[js[0]]))]
            return HoleWitness(frozenset(lefts), frozenset(_bits(int(q.ravel()[flat[0]]))[:s]))
        if len(rows):
            stack.append((depth + 1, q.ravel()[flat], chosen[rows] | bit[js], js))
    return None


def _uniforms(rng: np.random.Generator, block: int):
    """Endless stream of uniforms on [0, 1), drawn from ``rng`` a block at a time."""
    while True:
        yield from rng.random(block).tolist()


def _draw_bits(pool: int, among: list[int], k: int, draws) -> list[int]:
    """k distinct uniformly random set bits of ``pool``, in draw order.

    ``among`` lists a superset of the pool's bits; draws from the uniform
    stream ``draws`` pick from it and are rejected outside the pool.  The
    pool must hold at least k bits.
    """
    out: list[int] = []
    size = len(among)
    for x in draws:
        v = among[int(x * size)]
        if pool >> v & 1 and v not in out:
            out.append(v)
            if len(out) == k:
                break
    return out


def find_hole_heuristic(
    graph: Graph,
    s: int,
    iters: int = 2000,
    seed: SeedLike = 0,
) -> Optional[HoleWitness]:
    """Randomized greedy hole search: one-sided (a miss proves nothing).

    Each restart grows the two sets together, usually extending the
    currently smaller side with whichever of 8 sampled candidates
    eliminates the fewest options for the other side.  Pure greedy gets
    systematically stuck (e.g. it splits isolated vertices evenly across
    the sides even when the only hole needs them together), so side order
    and candidate choice are each randomized part of the time.

    The two candidate pools are int bitsets over ``graph.adjacency_bitsets()``
    and a candidate's damage is a popcount.  A restart ends as soon as a
    pool holds fewer vertices than its side still needs, since it can no
    longer finish; such a cut-short restart still counts as one of the
    ``iters``.  Each restart takes a fresh block of uniforms from the one
    generator seeded by ``seed``.  Any find is re-verified against the
    invariants before being returned, and the first verified find in
    restart order is the result.
    """
    if s < 1:
        raise ValueError("hole size must be at least 1")
    n = graph.n
    if 2 * s > n:
        return None
    rng = _rng(seed)
    adj = graph.adjacency_bitsets()
    # clearing v from the pool v joins, and v with its neighbours from the other
    drop_self = [~(1 << v) for v in range(n)]
    drop_nbrs = [~(a | 1 << v) for v, a in enumerate(adj)]

    if graph.side is not None:
        base_left, base_right = graph.side_mask(0), graph.side_mask(1)
        if base_left.bit_count() < s or base_right.bit_count() < s:
            return None
    else:
        base_left = base_right = (1 << n) - 1

    base_left_bits, base_right_bits = _bits(base_left), _bits(base_right)
    # a restart uses about 10 uniforms per vertex it adds; it draws more if need be
    block = 16 * s + 32
    for _ in range(max(1, iters)):
        draws = _uniforms(rng, block)
        ok_left, ok_right = base_left, base_right
        # candidates are drawn uniformly from a list holding each pool and
        # rejected outside it; a list is re-enumerated once its pool holds
        # less than a third of it, so at least a third of the draws hit
        among_left, among_right = base_left_bits, base_right_bits
        left: list[int] = []
        right: list[int] = []
        while len(left) < s or len(right) < s:
            m_left, m_right = ok_left.bit_count(), ok_right.bit_count()
            if m_left < s - len(left) or m_right < s - len(right):
                break
            if len(left) == s:
                grow_left = False
            elif len(right) == s:
                grow_left = True
            elif len(left) != len(right):
                grow_left = len(left) < len(right)
            else:
                grow_left = next(draws) < 0.5
            if grow_left:
                if 3 * m_left < len(among_left):
                    among_left = _bits(ok_left)
                pool, m, among, ok_other = ok_left, m_left, among_left, ok_right
            else:
                if 3 * m_right < len(among_right):
                    among_right = _bits(ok_right)
                pool, m, among, ok_other = ok_right, m_right, among_right, ok_left
            if next(draws) < 0.4:
                (v,) = _draw_bits(pool, among, 1, draws)
            else:
                cands = _bits(pool) if m <= 8 else _draw_bits(pool, among, 8, draws)
                v, least = -1, n + 1
                for c in cands:
                    damage = (adj[c] & ok_other).bit_count()
                    if damage < least:
                        v, least = c, damage
            if grow_left:
                left.append(v)
                ok_left &= drop_self[v]
                ok_right &= drop_nbrs[v]
            else:
                right.append(v)
                ok_right &= drop_self[v]
                ok_left &= drop_nbrs[v]
        if len(left) == s and len(right) == s:
            witness = HoleWitness(frozenset(left), frozenset(right))
            if graph.side is None and min(witness.right) < min(witness.left):
                witness = HoleWitness(witness.right, witness.left)
            if verify_hole(graph, witness, s):
                return witness
    return None


# ── Monte Carlo estimation ───────────────────────────────────────────────────


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trial_worker(run_trial, first: int, step: int, trials: int, fd: int) -> None:
    """Forked child: run trials first, first + step, ... and pickle each outcome to fd.

    An outcome is (True, result) or (False, exception, traceback text); the
    first failure ends the worker, since no later trial of it can matter.
    """
    with os.fdopen(fd, "wb") as out:
        for i in range(first, trials, step):
            try:
                outcome = (True, run_trial(i))
            except Exception as exc:
                import traceback

                outcome = (False, exc, traceback.format_exc())
            out.write(pickle.dumps(outcome))
            out.flush()
            if not outcome[0]:
                return


def _map_trials(run_trial, trials: int) -> list:
    """``[run_trial(i) for i in range(trials)]`` with the trials spread over forked workers.

    With W = min(trials, usable CPUs), this process runs the trials i with
    i % W == 0 and forks W - 1 workers; worker w runs the trials with
    i % W == w in increasing order and pickles each result back over its
    own pipe.  After its own share, this process reads the workers' results
    in trial order, so the list, and any output made from it, is the same
    for every W.  If a trial raises, the exception of the lowest-index
    failing trial is raised here, as the serial loop would; the workers are
    then killed.  Every worker is reaped before the call returns or raises.

    The loop runs in this process alone when W is 1, ``os.fork`` is
    missing, other Python threads run (fork is unsafe then), or the system
    refuses a pipe or a process (OSError).  Python 3.12 and later also
    count native threads, such as the BLAS pool numpy may start, and then
    warn (DeprecationWarning) at each fork.
    """
    workers = min(trials, _usable_cpus())
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        pids: list[int] = []
        readers = []
        complete = False
        try:
            try:
                for w in range(1, workers):
                    r, wfd = os.pipe()
                    try:
                        pid = os.fork()
                    except OSError:
                        os.close(r)
                        os.close(wfd)
                        raise
                    if pid == 0:
                        try:
                            os.close(r)
                            _trial_worker(run_trial, w, workers, trials, wfd)
                        finally:
                            # never return into the caller's stack, flush its buffers or run its atexit
                            os._exit(0)
                    os.close(wfd)
                    pids.append(pid)
                    readers.append(os.fdopen(r, "rb"))
            except OSError:
                pass  # out of processes or memory: the loop below runs the trials here
            else:
                own = []  # this process's share, up to its first failure
                for i in range(0, trials, workers):
                    try:
                        own.append(run_trial(i))
                    except Exception as exc:
                        failure = exc
                        break
                results = []
                for i in range(trials):
                    w = i % workers
                    if w == 0:
                        if i // workers == len(own):
                            raise failure
                        results.append(own[i // workers])
                        continue
                    try:
                        outcome = pickle.load(readers[w - 1])
                    except EOFError:
                        # the worker died, or could not pickle the outcome
                        raise RuntimeError(f"a trial worker ended without reporting trial {i}") from None
                    if not outcome[0]:
                        exc, text = outcome[1], outcome[2]
                        raise exc from RuntimeError(f"trial {i}, in a worker process:\n{text}")
                    results.append(outcome[1])
                complete = True
                return results
        finally:
            for f in readers:
                f.close()
            if not complete:
                import signal

                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
    return [run_trial(i) for i in range(trials)]


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials with trials >= 1")
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
        return {**asdict(self), "freq": format_rational(self.freq)}


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
    heuristic from child_seed(seed, i, 1).  Exact trials, and heuristic
    ones with fewer than 4 * ``_PROBE_RESTARTS`` restarts, run one after
    another in this process.  Before other heuristic runs, this process
    times trial 0's host and its first ``_PROBE_RESTARTS`` restarts.  If
    they find a hole, holes are common and trials cheap, so the trials run
    here.  Otherwise, if all the trials are projected to take
    ``_FORK_MIN_SECONDS`` or more, they run in forked workers, one per
    usable CPU (see ``_map_trials``).  The report is the same either way.
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

    def host(i: int):
        sample_seed = child_seed(seed, i, 0)
        if model == "gnp":
            return sample_gnp(n, p, sample_seed)
        if model == "bipartite":
            return sample_bipartite(n, n, p, sample_seed)
        return sample_pairing(n, d, sample_seed).support_graph()

    def search(g, i: int, restarts: int) -> bool:
        if mode == "exact":
            return find_hole_exact(g, s) is not None
        return find_hole_heuristic(g, s, iters=restarts, seed=child_seed(seed, i, 1)) is not None

    probed = {}  # trial 0's host, once the probe below has drawn it

    def run_trial(i: int) -> bool:
        return search(probed.pop(i) if i in probed else host(i), i, iters)

    # a probe longer than a quarter of a trial's restarts would cost more than it can tell
    if mode == "exact" or trials == 1 or iters < 4 * _PROBE_RESTARTS:
        holes = sum(run_trial(i) for i in range(trials))
    else:
        t0 = time.perf_counter()
        g = probed[0] = host(0)
        t1 = time.perf_counter()
        if search(g, 0, _PROBE_RESTARTS):
            # restarts are a prefix of the full run's, which therefore finds a hole too
            holes = 1 + sum(run_trial(i) for i in range(1, trials))
        else:
            restarts_s = (time.perf_counter() - t1) * iters / _PROBE_RESTARTS
            if trials * (t1 - t0 + restarts_s) >= _FORK_MIN_SECONDS:
                holes = sum(_map_trials(run_trial, trials))
            else:
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
        version=__version__,
    )


__all__ = [
    "Multigraph",
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
