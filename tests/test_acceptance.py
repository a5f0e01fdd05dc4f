"""Acceptance gate: the headline guarantees, one test per criterion.

Each test re-derives its expected values through the public API, checks
them at the stated tolerance, and asserts its own wall-clock budget.
Criterion 10 is a seeded Monte Carlo and dominates the runtime (a few
minutes); everything else finishes in seconds.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import ramsey_lab.bounds as bounds
import ramsey_lab.threshold_solver as ts
from ramsey_lab.arrow_checker import (
    BicliqueTarget,
    CycleTarget,
    EdgeColoring,
    arrows,
    class_contains_target,
    verify_coloring_avoids_targets,
)
from ramsey_lab.bounds import CycleSpec
from ramsey_lab.constructions import (
    Graph,
    build_connector_tree,
    build_leaf_tree,
    ceil_log2,
    verify_connector_tree,
    verify_leaf_tree,
)
from ramsey_lab.random_models import estimate_hole_probability, sample_pairing

from conftest import display_exponent, ln_fraction, xlogx


def test_criterion_01_level_two_form_exact():
    """Level-2 linear form is (38033, 57379, -1617); diagonal = 95412*m - 1617."""
    t0 = time.perf_counter()
    assert bounds.ramsey_linear_form(2).as_tuple() == (38033, 57379, -1617)
    for m in range(1, 1001):
        assert bounds.eval_ramsey_form(2, m, m) == 95412 * m - 1617
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_recursion_equals_coefficients():
    """Literal recursion and closed coefficients agree exactly through level 6."""
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    for _ in range(100):
        t = rng.randint(1, 6)
        m1 = rng.randint(1, 10**6)
        m2 = rng.randint(1, 10**6)
        form = bounds.ramsey_linear_form(t)
        assert bounds.eval_ramsey_form(t, m1, m2) == form.a * m1 + form.b * m2 + form.c
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_envelope_bound():
    """Recursion values stay under 35**(2**t - 2) * (32*m1 + 49*m2) for t in 2..6."""
    t0 = time.perf_counter()
    rng = random.Random(31415)
    for _ in range(100):
        t = rng.randint(2, 6)
        m1 = rng.randint(1, 10**6)
        m2 = rng.randint(1, 10**6)
        value = bounds.eval_ramsey_form(t, m1, m2)
        envelope = 35 ** (2**t - 2) * (32 * m1 + 49 * m2)
        assert value <= envelope
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_headline_constants():
    """Displayed edge-count coefficients match the published per-10^6 units."""
    t0 = time.perf_counter()
    unit = 10**6

    odd = CycleSpec.of(5, 5)
    even = CycleSpec.of(8, 8)

    gnp_odd = bounds.size_ramsey_gnp(odd)
    assert abs(gnp_odd.coefficient_loose / unit - 113484) <= 1.0

    gnp_even = bounds.size_ramsey_gnp(even)
    assert abs(gnp_even.coefficient_loose / unit - 2515) <= 1.0

    d_odd = math.ceil(ts.regular_min_density(Fraction(95412)).d_min)
    reg_odd = bounds.size_ramsey_regular(odd, d_odd, verify=False)
    assert d_odd == 2378778
    assert abs(reg_odd.coefficient / unit - 113482) <= 1.0

    d_even = math.ceil(ts.regular_min_density(Fraction(538002, 35)).d_min)
    reg_even = bounds.size_ramsey_regular(even, d_even, verify=False)
    assert d_even == 327091
    assert abs(reg_even.coefficient / unit - 2514) <= 1.0

    bip = bounds.size_ramsey_bipartite(even)
    assert abs(bip.coefficient_loose / unit - 843) <= 1.0

    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_regular_certificates():
    """Interval certificates hold at the published densities; solver agrees."""
    t0 = time.perf_counter()
    odd = ts.check_density_certificate(95412, 2378778)
    assert odd.ok and odd.max_exponent <= 0
    even = ts.check_density_certificate(Fraction(538002, 35), 327091)
    assert even.ok and even.max_exponent <= 0
    assert ts.regular_min_density(Fraction(95412)).d_min <= 2378778
    assert ts.regular_min_density(Fraction(538002, 35)).d_min <= 327091
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_exponent_affine_in_density():
    """The nine-term f(a, c, d) equals the solver's k0(c) + k1(a, c) * d to 1e-8 relative."""
    t0 = time.perf_counter()
    rng = random.Random(271828)
    for _ in range(1000):
        a = rng.random()
        c = 3.0 + rng.random() * 97.0
        d = rng.random() * 100.0
        f = display_exponent(a, c, d)
        k0, k1 = ts._coefficients(a, c, xlogx)
        assert abs(f - (k0 + k1 * d)) <= 1e-8 * max(1.0, abs(f))
    assert time.perf_counter() - t0 < 5.0


def test_criterion_07_first_moment_convergence():
    """Normalized log of the exact count approaches the exponent, 15% by m=80."""
    t0 = time.perf_counter()
    f_lim = display_exponent(0.5, 6, 4)
    errs = []
    for m in (10, 20, 40, 80):
        x = ts.exact_first_moment(m, 6, 4, Fraction(1, 2))
        errs.append(abs(ln_fraction(x) / m - f_lim) / abs(f_lim))
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] <= 0.15
    assert time.perf_counter() - t0 < 10.0


def test_criterion_08_tree_invariant_sweeps():
    """Every buildable tree in the stated ranges passes its invariant report."""
    t0 = time.perf_counter()
    for n in range(2, 10_001):
        rep = verify_leaf_tree(build_leaf_tree(n), n)
        assert rep["ok"], (n, rep)
    for m1 in range(1, 33):
        for m2 in range(1, 33):
            lo = 2 + ceil_log2(m1) + ceil_log2(m2)
            for n in range(lo, 201):
                rep = verify_connector_tree(build_connector_tree(m1, m2, n), m1, m2, n)
                assert rep["ok"], (m1, m2, n, rep)
    assert time.perf_counter() - t0 < 60.0


def _unpruned_arrows(host: Graph, targets) -> bool:
    k, m = len(targets), host.edge_count
    for assign in product(range(1, k + 1), repeat=m):
        if verify_coloring_avoids_targets(EdgeColoring(host, assign), targets):
            return False
    return True


def test_criterion_09_arrow_ground_truth_and_oracle():
    """K6 forces a monochromatic triangle, K5 does not; pruning changes nothing."""
    t0 = time.perf_counter()
    diag = (CycleTarget(3), CycleTarget(3))

    assert arrows(Graph.complete(6), diag).arrows

    r5 = arrows(Graph.complete(5), diag)
    assert not r5.arrows
    assert verify_coloring_avoids_targets(r5.witness, diag)
    for color in (1, 2):
        cls = r5.witness.color_class(color)
        assert len(cls) == 5 and class_contains_target(5, cls, CycleTarget(5))

    # pruned search vs plain enumeration on every 5-vertex host (all have
    # <= 10 edges) and on larger-support hosts at the 10-edge limit
    target_sets = [diag, (BicliqueTarget(1, 2), BicliqueTarget(1, 2))]
    all_pairs = list(combinations(range(5), 2))
    for bits in range(1 << 10):
        host = Graph(5, [all_pairs[i] for i in range(10) if bits >> i & 1])
        for targets in target_sets:
            assert arrows(host, targets).arrows == _unpruned_arrows(host, targets)
    wide_hosts = [
        Graph.cycle(6), Graph.cycle(10),
        Graph(11, [(i, i + 1) for i in range(10)]),      # path
        Graph(11, [(0, v) for v in range(1, 11)]),       # star
        Graph.complete_bipartite(3, 3),
        Graph.complete_bipartite(2, 4),
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        Graph(20, [(2 * i, 2 * i + 1) for i in range(10)]),  # matching
    ]
    for host in wide_hosts:
        for targets in target_sets:
            assert arrows(host, targets).arrows == _unpruned_arrows(host, targets)

    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_hole_monte_carlo():
    """At the threshold density, size-N/10 holes are rare and do not grow with N."""
    t0 = time.perf_counter()
    d = ts.gnp_min_density(Fraction(1, 10))
    freqs = {}
    for n_host in (400, 800):
        rep = estimate_hole_probability(
            "gnp", n_host, n_host // 10, 200, 20260814,
            p=d / n_host, mode="heuristic", iters=300,
        )
        freqs[n_host] = rep.freq
    assert freqs[400] <= Fraction(1, 4)
    assert freqs[800] <= freqs[400]
    assert time.perf_counter() - t0 < 600.0


def test_criterion_11_pairing_sampler():
    """Pairing draws are exactly regular; d=3 simple-acceptance near exp(-2)."""
    t0 = time.perf_counter()
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randrange(10, 101, 2)
        d = rng.randint(1, 6)
        assert sample_pairing(n, d, rng.randint(0, 2**31)).degrees() == [d] * n
    assert sample_pairing(1000, 3, 0).degrees() == [3] * 1000

    accepted = attempts = 0
    seed = 0
    while attempts < 2000:
        graph, tries = sample_pairing(1000, 3, seed, simple_only=True)
        assert graph.degrees() == [3] * 1000
        attempts += tries
        accepted += 1
        seed += 1
    rate = accepted / attempts
    assert 0.09 <= rate <= 0.19
    assert time.perf_counter() - t0 < 120.0
