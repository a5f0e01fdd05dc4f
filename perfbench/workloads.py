"""The four benchmark workloads.

Each workload derives op i's inputs from (seed, i) alone, so any process
can rebuild and replay any op.  `prepare(i)` makes the inputs (untimed),
`execute(args)` is the timed call into ramsey_lab, and `check` compares the
answer with an oracle from `oracles.py` and returns a fingerprint that must
repeat exactly whenever the same op runs again.

The library is reached through module attributes (``rm.find_hole_exact``,
``cli.main``) so that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import numpy as np

import oracles


@dataclass
class Outcome:
    reason: Optional[str] = None  # failure label, None when the answer checks out
    known: bool = False  # the failure is a documented defect (see CliMix)
    fingerprint: Any = None  # JSON value that must repeat for the same (seed, i)


def _rng(seed: int, *key: int) -> random.Random:
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(2)
    return random.Random(int(state[0]) << 32 | int(state[1]))


class HoleHeuristic:
    """Acceptance criterion 10's inputs: G(400, p) at the 1/10-hole threshold.

    Nearly every trial misses, so all restarts run to the end: the
    heuristic's most expensive path.  Ops carry two trials so that a change
    to how trials are executed (threads, processes) can show.
    """

    name, unit, replay_block = "hole_heuristic", "trials", 1

    def __init__(self, seed: int, smoke: bool):
        from ramsey_lab import random_models, threshold_solver

        self.rm = random_models
        self.seed = seed
        self.n, self.s, self.iters = (128, 12, 10) if smoke else (400, 40, 300)
        self.trials = 2
        self.p = threshold_solver.gnp_min_density(Fraction(1, 10)) / self.n

    def warm_up(self) -> None:
        self.rm.estimate_hole_probability("gnp", 128, 12, trials=1, seed=self.seed,
                                          p=0.5, mode="heuristic", iters=2)

    def prepare(self, i: int):
        op_seed = int(np.random.SeedSequence(self.seed, spawn_key=(i,)).generate_state(1)[0])
        return self.trials, op_seed

    def execute(self, op_seed: int):
        return self.rm.estimate_hole_probability(
            "gnp", self.n, self.s, trials=self.trials, seed=op_seed, p=self.p,
            mode="heuristic", iters=self.iters,
        )

    def check(self, op_seed: int, rep) -> Outcome:
        holes = rep.holes
        out = Outcome(fingerprint=holes)
        low, high = oracles.wilson(holes, self.trials) if 0 <= holes <= self.trials else (-1, -1)
        if not (
            rep.trials == self.trials and rep.mode == "heuristic" and rep.seed == op_seed
            and rep.params == {"n": self.n, "s": self.s, "p": self.p}
            and rep.freq == Fraction(holes, self.trials)
            and abs(rep.ci_low - low) <= 1e-12 and abs(rep.ci_high - high) <= 1e-12
        ):
            out.reason = "report_mismatch"
        return out


class HoleExact:
    """One G(60, 0.47) host per op: exact search, heuristic search, witness re-check.

    At p = 0.45 half the hosts hold a hole; a found hole ends the
    search early (~20 ms) while a proof of absence takes ~150 ms, so the op
    median jumped between the two modes from seed to seed.  At p = 0.47
    about a third of the hosts hold one, which keeps the median inside the
    proof-of-absence mode and leaves holes for the heuristic to miss.
    """

    name, unit, replay_block = "hole_exact", "hosts", 4
    recall_hosts = 100  # hole_recall is taken over ops 0..99, so it repeats per seed

    def __init__(self, seed: int, smoke: bool):
        from ramsey_lab import random_models

        self.rm = random_models
        self.seed = seed
        self.n, self.p, self.s, self.iters = (30, 0.4, 5, 20) if smoke else (60, 0.47, 8, 100)

    def warm_up(self) -> None:
        g = self.rm.sample_gnp(20, 0.3, self.seed)
        self.rm.find_hole_exact(g, 3)
        self.rm.find_hole_heuristic(g, 3, iters=2, seed=self.seed)

    def prepare(self, i: int):
        ss = [np.random.SeedSequence(self.seed, spawn_key=(i, j)) for j in (0, 1)]
        return 1, ss

    def execute(self, ss):
        rm = self.rm
        g = rm.sample_gnp(self.n, self.p, ss[0])
        exact = rm.find_hole_exact(g, self.s)
        heur = rm.find_hole_heuristic(g, self.s, iters=self.iters, seed=ss[1])
        verified = [rm.verify_hole(g, w, self.s) for w in (exact, heur) if w is not None]
        return g, exact, heur, verified

    def check(self, ss, raw) -> Outcome:
        g, exact, heur, verified = raw
        out = Outcome(fingerprint=[exact is not None, heur is not None])
        if not all(verified):
            out.reason = "verify_hole_rejected"
        elif any(w is not None and not oracles.hole_ok(g.n, g.edges, w.left, w.right, self.s)
                 for w in (exact, heur)):
            out.reason = "bad_hole_witness"
        elif heur is not None and exact is None:
            out.reason = "one_sided_violation"
        return out

    def summary(self, fingerprints: dict) -> dict:
        first = [fingerprints[i] for i in range(self.recall_hosts) if i in fingerprints]
        holes = sum(1 for e, _ in first if e)
        finds = sum(1 for e, h in first if e and h)
        return {"hole_recall": finds / holes if holes else 0.0,
                "hole_recall_base": f"{finds}/{holes} over the first {len(first)} hosts"}


def _complete(n: int) -> list:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _biclique(a: int, b: int) -> tuple[list, list]:
    return [(u, a + v) for u in range(a) for v in range(b)], [0] * a + [1] * b


class Arrow:
    """Exhaustive arrow decisions whose answers follow from known Ramsey numbers.

    R(C3,C3) = R(C4,C4) = 6, R(C3,C4) = R(C4,C5) = 7, R(C3,C5) = R(C5,C5) = 9:
    K_R and its supergraphs arrow the pair, K_{R-1} and its subgraphs do not
    (a good colouring restricts).  Bipartite: K_{4,4} has a 2-colouring with
    no monochromatic K_{2,2} (b(2,2) = 5), and every 2-colouring of the star
    K_{1,5} has three same-coloured edges.  The 21-edge search cap rules out
    the R = 9 "yes" hosts, so R = 9 uses K_7 and K_6 as "no" hosts.

    Every round runs the 19 kinds once each, in a seeded order, on randomly
    relabelled hosts (bipartite hosts keep their classes): the answer is
    fixed while the search path varies with the seed.  Relabelling leaves
    K_n and K_{a,b} unchanged, so only the random sub- and supergraphs vary
    in cost; with 19 kinds the median op is the tenth cheapest, one of the
    fixed 1-2 ms decisions on K_7 and K_{4,4}, and does not move with the seed.
    """

    name, unit, replay_block = "arrow", "decisions", 19

    # (a, b, host, n): decide host(n) -> (C_a, C_b); "K+" adds edges to K_n,
    # "sub" deletes some.  ("bip", m, k): K_{m,k} -> (target, target).
    KINDS = [
        (3, 3, "K", 6), (3, 3, "K+", 6), (4, 4, "K", 6), (4, 4, "K+", 6),
        (3, 4, "K", 7), (4, 5, "K", 7),
        (3, 3, "K", 5), (3, 3, "sub", 5), (4, 4, "K", 5), (4, 4, "sub", 5),
        (3, 4, "K", 6), (3, 4, "sub", 6), (4, 5, "K", 6), (4, 5, "sub", 6),
        (3, 5, "K", 7), (5, 5, "K", 7), (5, 5, "K", 6),
        ("bip", 4, 4), ("bip", 1, 5),
    ]
    SMOKE_KINDS = [(3, 3, "K", 5), (3, 3, "sub", 5), ("bip", 1, 5)]
    RAMSEY = {(3, 3): 6, (4, 4): 6, (3, 4): 7, (4, 5): 7, (3, 5): 9, (5, 5): 9}

    def __init__(self, seed: int, smoke: bool):
        from ramsey_lab import arrow_checker, constructions

        self.ac, self.Graph = arrow_checker, constructions.Graph
        self.seed = seed
        self.kinds = self.SMOKE_KINDS if smoke else self.KINDS

    def warm_up(self) -> None:
        self.ac.arrows(self.Graph.complete(5), (self.ac.CycleTarget(3),) * 2)

    def prepare(self, i: int):
        ac = self.ac
        rnd, pos = divmod(i, len(self.kinds))
        order = list(range(len(self.kinds)))
        _rng(self.seed, rnd).shuffle(order)
        kind = self.kinds[order[pos]]
        rng = _rng(self.seed, rnd, pos, 1)
        side = None
        if kind[0] == "bip":
            _, m, k = kind
            edges, side = _biclique(m, k)
            t = ac.BicliqueTarget(2, 2) if m == 4 else ac.BicliqueTarget(1, 3)
            targets, expected = (t, t), m == 1  # b(2,2) = 5; pigeonhole on 5 edges
        else:
            a, b, host, r = kind
            edges = _complete(r)
            if host == "K+":  # up to 21 - C(r,2) more edges at up to 3 new vertices
                extra = [(u, v) for v in range(r, r + 3) for u in range(v)]
                edges += rng.sample(extra, rng.randint(1, 21 - len(edges)))
            elif host == "sub":
                edges = rng.sample(edges, len(edges) - rng.randint(1, 4))
            targets = (ac.CycleTarget(a), ac.CycleTarget(b))
            expected = host != "sub" and r >= self.RAMSEY[(a, b)]
        n = max(max(e) for e in edges) + 1
        perm = list(range(n))
        rng.shuffle(perm)
        if side is not None:  # relabel inside each class
            perm = sorted(range(n), key=lambda v: (side[v], perm[v]))
            perm = [perm.index(v) for v in range(n)]
        relabelled = [(perm[u], perm[v]) for u, v in edges]
        return 1, (self.Graph(n, relabelled, side=side), targets, expected)

    def execute(self, args):
        host, targets, _ = args
        search = self.ac.arrows if host.side is None else self.ac.bipartite_arrows
        return search(host, targets)

    def check(self, args, res) -> Outcome:
        host, targets, expected = args
        out = Outcome(fingerprint=[bool(res.arrows), res.colorings_examined])
        if res.arrows != expected:
            out.reason = "wrong_answer"
        elif res.arrows and res.witness is not None:
            out.reason = "bad_witness"
        elif not res.arrows and not self._witness_ok(host, targets, res.witness):
            out.reason = "bad_witness"
        return out

    def _witness_ok(self, host, targets, witness) -> bool:
        if witness is None or len(witness.colors) != len(host.edges):
            return False
        if set(witness.host.edges) != set(host.edges):
            return False
        for color, t in enumerate(targets, start=1):
            cls = [e for e, c in zip(witness.host.edges, witness.colors) if c == color]
            if isinstance(t, self.ac.CycleTarget):
                if oracles.has_cycle(cls, t.length):
                    return False
            elif oracles.has_biclique(cls, host.side, t.m1, t.m2):
                return False
        return set(witness.colors) <= set(range(1, len(targets) + 1))


class CliMix:
    """In-process ``cli.main(argv)`` calls: the interactive path.

    Every round runs this mix in a seeded order: 1 reproduce, 4 bounds
    with two cycle lengths, 8 regular solves (one c per eighth of log10 c
    in [log10 4, 7]), 2 gnp and 2 bipartite solves (c log-uniform in
    [4, 10^12]), 6 connector trees (m1, m2 uniform in 1..4096) and 6 leaf
    trees (n uniform in 2..10^4).  The weights give the threshold solver
    and the tree constructions each a large share of the time.

    The timed mix holds no op that fails: the benchmark contract wants
    workloads on which every op succeeds.  ``full=True`` is the mix that
    reaches the known defects, for ``run.py --defects``: two of the bounds
    take three cycle lengths (host constant 538002 and above) and the
    regular solves go up to c = 10^12.  There, by failure label and the
    host constant c above which it appears: the regular-model solver
    returns too small a density, which `bounds` then refuses to certify
    (exit 2); and the sharp gnp edge coefficient
    c^2 (c ln c - (c-2) ln(c-2)) / 2 is evaluated in binary64, where the
    difference cancels to about 1e-5 relative at c = 1.5e11.  Those ops
    fail their oracle and count as failed; `known` marks them so they are
    not mistaken for a new defect.
    """

    name, unit = "cli", "commands"
    KNOWN_DEFECTS = {"regular_density": 2e5, "exit_2": 2e5, "gnp_coefficient": 1e6}
    KINDS = (["reproduce"] + ["bounds2"] * 4
             + [("regular", j) for j in range(8)] + ["gnp"] * 2 + ["bipartite"] * 2
             + ["connector"] * 6 + ["leaf"] * 6)
    FULL_KINDS = (["reproduce"] + ["bounds2"] * 2 + ["bounds3"] * 2
                  + [("regular", j) for j in range(8)] + ["gnp"] * 2 + ["bipartite"] * 2
                  + ["connector"] * 6 + ["leaf"] * 6)
    SMOKE_KINDS = ["bounds2", ("regular", 0), ("regular", 1), "gnp", "bipartite",
                   "connector", "leaf"]
    replay_block = len(KINDS)

    def __init__(self, seed: int, smoke: bool, full: bool = False):
        from ramsey_lab import cli

        self.cli = cli
        self.seed = seed
        self.smoke = smoke
        self.kinds = self.SMOKE_KINDS if smoke else self.FULL_KINDS if full else self.KINDS
        self.regular_hi = 3 if smoke else 12 if full else 7  # log10 of the largest regular c

    def warm_up(self) -> None:
        self._run(["solve", "--model", "gnp", "--c", "10"])
        self._run(["construct", "--leaf-tree", "5"])

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, out.getvalue(), err.getvalue()

    def prepare(self, i: int):
        rnd, pos = divmod(i, len(self.kinds))
        order = list(range(len(self.kinds)))
        _rng(self.seed, rnd).shuffle(order)
        kind = self.kinds[order[pos]]
        rng = _rng(self.seed, rnd, pos, 1)
        big = 2 if self.smoke else 12  # log2 of the largest leaf count m

        def log_uniform(lo: float, hi: float) -> str:
            return "%.6g" % 10 ** rng.uniform(math.log10(lo), math.log10(hi))

        if kind == "reproduce":
            argv = ["reproduce"]
        elif kind in ("bounds2", "bounds3"):
            lengths = [rng.randint(3, 40) for _ in range(2 if kind == "bounds2" else 3)]
            argv = ["bounds", "--cycles", ",".join(map(str, lengths)), "--format", "json"]
        elif kind in ("gnp", "bipartite"):
            argv = ["solve", "--model", kind, "--c", log_uniform(4, 1e12)]
        elif isinstance(kind, tuple):
            lo, hi = math.log10(4), self.regular_hi
            w = (hi - lo) / 8
            c = "%.6g" % 10 ** rng.uniform(lo + kind[1] * w, lo + (kind[1] + 1) * w)
            argv = ["solve", "--model", "regular", "--c", c]
        elif kind == "connector":
            m1, m2 = (rng.randint(1, 2**big) for _ in range(2))
            n = 2 + oracles.ceil_log2(Fraction(m1)) + oracles.ceil_log2(Fraction(m2))
            argv = ["construct", "--connector", f"{m1},{m2},{n + rng.randint(0, 400)}"]
        else:
            argv = ["construct", "--leaf-tree", str(rng.randint(2, 16 if self.smoke else 10**4))]
        return 1, argv

    def execute(self, argv):
        return self._run(argv)

    def check(self, argv, raw) -> Outcome:
        rc, out, _ = raw
        res = Outcome(fingerprint=[rc, hashlib.sha256(out.encode()).hexdigest()])
        expected, host_c = 0, None
        cmd = argv[0]
        if cmd == "solve" and argv[2] == "regular":
            host_c = Fraction(argv[4])
            if oracles.regular_density(host_c)[1] is None:
                expected = 4
        elif cmd == "bounds":
            host_c = oracles.host_constant([int(x) for x in argv[2].split(",")])
        if rc != expected:
            res.reason = f"exit_{rc}"
        elif rc == 0:
            try:
                res.reason = getattr(self, "_check_" + cmd)(argv, out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                res.reason = "unparsable_output:" + type(exc).__name__
        res.known = (res.reason in self.KNOWN_DEFECTS and host_c is not None
                     and host_c >= self.KNOWN_DEFECTS[res.reason])
        return res

    # each _check_* returns None or a failure label

    def _check_solve(self, argv, out: str):
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        model, c, d = argv[2], Fraction(argv[4]), float(fields["d_min"])
        if model == "regular":
            exact = oracles.regular_density(c)[1]
        else:
            exact = (oracles.gnp_density if model == "gnp" else oracles.bipartite_density)(c)
        if not oracles.close(d, exact, 1e-9):
            return f"{model}_density"
        return None

    def _check_bounds(self, argv, out: str):
        lengths = [int(x) for x in argv[2].split(",")]
        doc = json.loads(out)
        rows = {r["model"]: r for r in doc["bounds"]}
        all_even = all(n % 2 == 0 for n in lengths)
        if sorted(rows) != sorted(["gnp", "regular"] + (["bipartite"] if all_even else [])):
            return "bounds_rows"
        c = oracles.host_constant(lengths)
        for model, row in rows.items():
            cm = Fraction(81) ** len(lengths) if model == "bipartite" else c
            if Fraction(row["c"]) != cm:
                return "host_constant"
            cut = 2 * oracles.ceil_log2(cm * max(lengths)) + 2
            if row["constraint_ok"] != all(n >= cut for n in lengths):
                return "constraint_flags"
            if model == "regular":
                if not oracles.close(row["d"], oracles.regular_density(cm)[1], 1e-9):
                    return "regular_density"
                if Fraction(row["coefficient_exact"]) != cm * Fraction(row["d"]) / 2:
                    return "regular_coefficient"
                continue
            density = oracles.gnp_density if model == "gnp" else oracles.bipartite_density
            coeffs = oracles.gnp_coefficients if model == "gnp" else oracles.bipartite_coefficients
            if not oracles.close(row["d"], density(cm), 1e-9):
                return f"{model}_density"
            sharp, loose = coeffs(cm)
            if not (oracles.close(row["coefficient"], sharp, 1e-9)
                    and oracles.close(row["coefficient_loose"], loose, 1e-9)):
                return f"{model}_coefficient"
        return None

    def _check_reproduce(self, argv, out: str):
        lines = out.splitlines()
        rows = {f[0]: f[1:] for f in (re.split(r"\s{2,}", ln) for ln in lines[:-1])}
        expect = {
            "linear-form-base": "(33, 49, 0)",
            "linear-form-step2": "(38033, 57379, -1617)",
            "host-constant-two-odd": "95412",
            "host-constant-two-even": "538002/35",
        }
        if len(rows) != 9 or lines[-1] != "all checks: PASS":
            return "reproduce_rows"
        if any(rows[k][0] != v or rows[k][-1] != "PASS" for k, v in expect.items()):
            return "reproduce_rows"
        for parity, c in (("odd", Fraction(95412)), ("even", Fraction(538002, 35))):
            m = re.fullmatch(r"d_min=(\S+) coefficient=(\S+)", rows[f"regular-two-{parity}"][0])
            if not oracles.close(float(m[1]), oracles.regular_density(c)[1], 1e-9):
                return "regular_density"
        for name, c, coeffs in (
            ("gnp-coefficient-two-odd", Fraction(95412), oracles.gnp_coefficients),
            ("gnp-coefficient-two-even", Fraction(538002, 35), oracles.gnp_coefficients),
            ("bipartite-coefficient-two-even", Fraction(81) ** 2, oracles.bipartite_coefficients),
        ):
            if not oracles.close(float(rows[name][0]), coeffs(c)[1], 1e-9):
                return "coefficient"
        return None

    def _check_construct(self, argv, out: str):
        head, _, body = out.partition("\n")
        report = json.loads(head[2:])
        if argv[1] == "--leaf-tree":
            ok = oracles.leaf_tree_ok(body, int(argv[2]))
        else:
            ok = oracles.connector_ok(body, *map(int, argv[2].split(",")))
        return None if ok and report["ok"] else "tree_invariant"


WORKLOADS = {w.name: w for w in (HoleHeuristic, HoleExact, Arrow, CliMix)}
