"""Density-threshold solver checks: closed forms, the affine coefficients,
certified minima, and the exact first-moment formula."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from ramsey_lab.errors import InfeasibleDensityError
from ramsey_lab import threshold_solver as ts

from conftest import display_exponent, xlogx


# ── closed-form thresholds ───────────────────────────────────────────────────


def test_gnp_min_density_frozen():
    assert ts.gnp_min_density(Fraction(1, 10)) == pytest.approx(
        63.903185965017684, rel=1e-14
    )


def test_gnp_min_density_matches_high_precision_recomputation():
    for num, den in ((1, 10), (1, 4), (1, 3), (2, 5), (1, 100)):
        rho = Fraction(num, den)
        with mpmath.workdps(50):
            r = mpmath.mpf(num) / den
            want = -((1 - 2 * r) * mpmath.log(1 - 2 * r) + 2 * r * mpmath.log(r)) / r**2
            assert ts.gnp_min_density(rho) == pytest.approx(float(want), rel=1e-13)


def test_gnp_min_density_domain():
    with pytest.raises(ValueError):
        ts.gnp_min_density(Fraction(1, 2))
    with pytest.raises(ValueError):
        ts.gnp_min_density(Fraction(0))


def test_bipartite_min_density_half_is_8_ln_2():
    assert ts.bipartite_min_density(Fraction(1, 2)) == pytest.approx(
        8 * math.log(2), rel=1e-15
    )


def test_bipartite_min_density_monotone_decreasing_in_rho():
    rhos = [Fraction(k, 100) for k in range(1, 100, 7)]
    vals = [ts.bipartite_min_density(r) for r in rhos]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ── the regular-model exponent ───────────────────────────────────────────────


def test_regular_exponent_frozen_value():
    k0, k1 = ts._coefficients(0.5, 6, xlogx)
    assert k0 + 4 * k1 == pytest.approx(3.9624320718015085, rel=1e-14)
    assert display_exponent(0.5, 6, 4) == pytest.approx(3.9624320718015085, rel=1e-14)


def test_exponent_slope_negative_on_domain():
    rng = random.Random(29)
    for _ in range(300):
        a = rng.random()
        c = 3.0 + rng.random() * 10**5
        _, k1 = ts._coefficients(a, c, xlogx)
        assert k1 < 0


# ── the solver and certificates ──────────────────────────────────────────────


def _bisect_min_density_oracle(c: float, grid: int = 20001) -> float:
    """Independent threshold: bisection on d over a dense a-grid of the display form.

    The display form is affine in d, so k0 = f(a, c, 0) and k1 = f(a, c, 1) - k0.
    """
    a = np.linspace(0.0, 1.0, grid)

    def worst_exponent(d: float) -> float:
        return max(display_exponent(float(x), c, d) for x in a[:: max(1, grid // 801)])

    k0 = np.array([display_exponent(float(x), c, 0.0) for x in a])
    k1 = np.array([display_exponent(float(x), c, 1.0) for x in a]) - k0

    def feasible(d: float) -> bool:
        return float(np.max(k0 + k1 * d)) <= 0.0

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        hi *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    assert worst_exponent(hi) <= 1e-9
    return hi


def test_solver_matches_bisection_oracle_small_c():
    res = ts.regular_min_density(Fraction(10))
    oracle = _bisect_min_density_oracle(10.0)
    assert res.d_min == pytest.approx(oracle, rel=1e-6)
    assert res.d_min == pytest.approx(57.788626418072205, rel=1e-10)
    assert res.worst_a == pytest.approx(0.8768943743829177, abs=1e-4)
    assert res.max_exponent <= 0.0


def test_solver_headline_densities_frozen():
    odd = ts.regular_min_density(Fraction(95412))
    assert odd.d_min == pytest.approx(2378777.349695631, rel=1e-9)
    assert odd.d_min <= 2378778
    assert odd.worst_a == pytest.approx(0.9999895189180942, abs=1e-6)
    assert odd.max_exponent <= 0.0
    even = ts.regular_min_density(Fraction(538002, 35))
    assert even.d_min == pytest.approx(327090.2210466902, rel=1e-9)
    assert even.d_min <= 327091


def test_certificates_pass_at_published_densities_and_fail_below():
    ok_odd = ts.check_density_certificate(Fraction(95412), 2378778)
    assert ok_odd.ok and ok_odd.max_exponent < 0
    bad_odd = ts.check_density_certificate(Fraction(95412), 2378776)
    assert not bad_odd.ok and bad_odd.max_exponent > 0
    ok_even = ts.check_density_certificate(Fraction(538002, 35), 327091)
    assert ok_even.ok
    bad_even = ts.check_density_certificate(Fraction(538002, 35), 327090)
    assert not bad_even.ok


def test_solver_result_serialization_roundtrip():
    res = ts.regular_min_density(Fraction(10))
    doc = res.as_dict()
    assert list(doc) == ["model", "c", "d_min", "worst_a", "max_exponent"]
    assert doc["model"] == "regular"
    assert doc["c"] == "10"
    assert doc["d_min"] == res.d_min
    assert doc["max_exponent"] <= 0.0


def _quarters(lo: float, hi: float):
    """[lo, hi] in the enclosure's interval type, for multiples lo <= hi of 1/4."""
    return ts._interval_type()(Fraction(lo), Fraction(hi), 53)


def test_solver_infeasible_branch(monkeypatch):
    # a slope enclosure that does not lie below 0 (positive, or straddling
    # 0) certifies no density
    for slope in ((0.5, 0.5), (-0.5, 0.5)):
        monkeypatch.setattr(
            ts, "_enclosure", lambda c, s=slope: (Fraction(1, 2), _quarters(1, 1), _quarters(*s))
        )
        with pytest.raises(InfeasibleDensityError) as err:
            ts.regular_min_density(Fraction(10))
        assert err.value.a is not None


def test_solver_and_certificate_take_the_safe_end_of_the_enclosure(monkeypatch):
    # k0 = 1 and k1 in [-0.75, -0.5]: only d >= 1 / 0.5 is certified
    monkeypatch.setattr(
        ts, "_enclosure", lambda c: (Fraction(1, 2), _quarters(1, 1), _quarters(-0.75, -0.5))
    )
    assert ts.regular_min_density(Fraction(10)).d_min == 2.0
    assert ts.check_density_certificate(Fraction(10), 2).ok
    assert not ts.check_density_certificate(Fraction(10), Fraction(3, 2)).ok


def test_solver_refuses_a_density_it_cannot_certify(monkeypatch):
    # a d_min shrunk 1e-9 below the enclosure's upper end leaves the exponent above 0
    round_up = ts._round_up
    monkeypatch.setattr(ts, "_round_up", lambda x: round_up(x) * (1 - 1e-9))
    for c in (Fraction(10), Fraction(95412), Fraction(538002, 35)):
        with pytest.raises(ValueError, match="is not certified for c="):
            ts.regular_min_density(c)


REGRESSION_C = [
    Fraction(4), Fraction(10), Fraction(95412), Fraction(538002, 35), Fraction(1_250_000),
    Fraction(10**7), Fraction(150737781250), Fraction(10**100), Fraction(10**300),
]


@pytest.mark.parametrize("c", REGRESSION_C, ids=lambda c: f"{float(c):.6g}")
def test_solver_matches_cubic_oracle_and_certifies(c, regular_density_oracle):
    res = ts.regular_min_density(c)
    want = regular_density_oracle(c)
    assert mpmath.mpf(res.d_min) >= want
    assert abs(mpmath.mpf(res.d_min) - want) <= 1e-12 * want
    assert res.max_exponent <= 0.0
    assert ts.check_density_certificate(c, res.d_min).ok
    below = ts.check_density_certificate(c, res.d_min * (1 - 1e-9))
    assert not below.ok and below.max_exponent > 0


def test_certificate_rejects_grid_solver_density_at_three_triangles():
    # c = 150737781250 is the host constant of (C3, C3, C3); the exact
    # threshold is 8.0611e12, and a grid-located maximiser gave 5.374e12
    check = ts.check_density_certificate(Fraction(150737781250), 5374064711056)
    assert not check.ok and check.max_exponent > 0


def test_regular_solver_domain():
    with pytest.raises(ValueError, match="c > 3"):
        ts.regular_min_density(3)
    with pytest.raises(ValueError, match="binary64"):
        ts.regular_min_density(Fraction(10**400))
    with pytest.raises(ValueError, match="binary64"):
        ts.regular_min_density(Fraction(17 * 10**307))


# ── exact first moment ───────────────────────────────────────────────────────


def test_matching_count():
    assert [ts.matching_count(i) for i in (0, 2, 4, 6, 8)] == [1, 1, 3, 15, 105]
    with pytest.raises(ValueError):
        ts.matching_count(3)
    with pytest.raises(ValueError):
        ts.matching_count(-2)


def test_first_moment_hand_values():
    assert ts.exact_first_moment(2, 4, 2, Fraction(1, 2)) == Fraction(9408, 143)
    assert ts.exact_first_moment(2, 4, 2, 1) == Fraction(15680, 429)


def test_first_moment_matches_factorial_oracle():
    def oracle(m, c, d, a):
        # pure-factorial spelling: choose the two sets, wire the crossing
        # edges as a partial pairing, close both remainders by matchings
        n_big = c * m
        md = m * d
        amd_f = Fraction(a) * md
        assert amd_f.denominator == 1
        amd = int(amd_f)
        half = lambda i: math.factorial(i) // (
            math.factorial(i // 2) * 2 ** (i // 2)
        )
        num = (
            Fraction(math.factorial(n_big), math.factorial(m) ** 2 * math.factorial(n_big - 2 * m))
            * Fraction(math.factorial(n_big * d - 2 * md), math.factorial(amd) * math.factorial(n_big * d - 2 * md - amd))
            * Fraction(math.factorial(md), math.factorial(amd) * math.factorial(md - amd))
            * math.factorial(amd)
            * half(md - amd)
            * half(n_big * d - md - amd)
        )
        return num / half(n_big * d)

    rng = random.Random(31)
    compared = 0
    for _ in range(60):
        c = rng.randint(2, 6)
        d = rng.choice([2, 4])
        m = rng.randint(1, 6)
        # a*d*m integral and both leftovers even
        choices = [
            Fraction(k, d * m) for k in range(0, d * m + 1) if (m * d - k) % 2 == 0
        ]
        a = rng.choice(choices)
        amd = int(a * d * m)
        if (c * m * d) % 2 or (c * m * d - m * d - amd) % 2:
            continue
        if amd > c * m * d - 2 * m * d:
            # more crossing edges demanded than stubs outside the two sets:
            # the count is zero and the factorial spelling is undefined
            assert ts.exact_first_moment(m, c, d, a) == 0
            continue
        assert ts.exact_first_moment(m, c, d, a) == oracle(m, c, d, a)
        compared += 1
    assert compared >= 20


def test_first_moment_input_validation():
    with pytest.raises(ValueError, match="not an integer"):
        ts.exact_first_moment(3, 4, 2, Fraction(1, 5))
    with pytest.raises(ValueError, match="first leftover"):
        ts.exact_first_moment(1, 4, 3, 0)
    with pytest.raises(ValueError, match="second leftover"):
        ts.exact_first_moment(1, 3, 3, Fraction(1, 3))
    with pytest.raises(ValueError):  # N*d = 3 is odd, so a leftover stub count is odd
        ts.exact_first_moment(1, 3, 1, 0)
    with pytest.raises(ValueError):
        ts.exact_first_moment(0, 4, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        ts.exact_first_moment(2, 1, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        ts.exact_first_moment(2, 4, 2, Fraction(3, 2))


def _iv_enclosure(c: Fraction, d: Fraction | None = None):
    """(a*, k0, k1 endpoints) as ``mpmath.iv`` evaluates ``_coefficients``.

    The same bracket and precision as ``ts._enclosure``, with iv's own
    conversions and its global precision, set and restored here.  Given a
    density d, the exponent k0 + k1*d instead, as an iv interval.
    """
    log2c = max(1, c.numerator.bit_length() - c.denominator.bit_length() + 1)
    bits = 64 + 2 * log2c
    m = ts._bracket(c, bits)
    saved = iv.prec
    iv.prec = 64 + 3 * log2c
    try:
        a = (m + iv.mpf([0, 1])) / 2**bits
        cm = iv.mpf(c.numerator) / c.denominator
        k0, k1 = ts._coefficients(a, cm, lambda x: x * iv.log(x))
        if d is not None:
            return k0 + k1 * (iv.mpf(d.numerator) / d.denominator)
        return Fraction(2 * m + 1, 2 ** (bits + 1)), k0._mpi_, k1._mpi_
    finally:
        iv.prec = saved


# numerators wider than the enclosure's precision: 128 bits at prec 70, 160 at 118
WIDE_C = [Fraction("3.00000000000000000000000000000000000001"), 95412 + Fraction(1, 10**43)]


def _decimal_cs(seed: int, count: int) -> list[Fraction]:
    """Seeded 40-significant-digit decimals c > 3, as the CLI parses ``--c`` text."""
    rng = random.Random(seed)
    cs = []
    while len(cs) < count:
        c = Fraction(f"{rng.randrange(10**39, 10**40)}e{rng.randint(-39, 60)}")
        if c > 3:
            cs.append(c)
    return cs


def test_enclosure_endpoints_equal_mpmath_iv():
    """The libmp interval type gives every endpoint mpmath.iv gives, bit for bit."""
    rng = random.Random(2503)
    cs = []
    while len(cs) < 200:  # log-uniform in (3, 1e300]
        c = Fraction(math.exp(rng.uniform(math.log(3), math.log(1e300))))
        if c > 3:
            cs.append(c)
    for c in cs + REGRESSION_C + WIDE_C + _decimal_cs(2701, 50):
        a, k0, k1 = ts._enclosure(c)
        assert (a, k0.ends, k1.ends) == _iv_enclosure(c), c


def test_certificate_equals_mpmath_iv_exponent_at_rational_densities():
    """ok and max_exponent are the upper end of iv's k0 + k1*(p/q), at every kind of d."""
    d_odd = 2378778
    cases = [(Fraction(95412), d) for d in (
        d_odd, Fraction(7130000, 3), Fraction(d_odd * 10**40 + 1, 10**40), Fraction(2376666),
    )]
    cases += [(Fraction(538002, 35), d) for d in (327091, Fraction(327090))]
    for c in [Fraction(95412)] + WIDE_C + _decimal_cs(2702, 6):
        d_min = Fraction(ts.regular_min_density(c).d_min)
        # below d_min by 1e-9, and a numerator wider than the precision
        for d in (d_min, d_min * (1 - Fraction(1, 10**9)), d_min + Fraction(1, 10**60)):
            cases.append((c, d))
    oks = set()
    for c, d in cases:
        check, top = ts.check_density_certificate(c, d), _iv_enclosure(c, Fraction(d))
        assert (check.ok, check.max_exponent) == (top.b <= 0, float(top.b)), (c, d)
        oks.add(check.ok)
    assert oks == {True, False}


def _exact(end) -> Fraction:
    """A finite libmp value (sign, mantissa, exponent, bits) as an exact Fraction."""
    sign, man, exp, _ = end
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


_wide_ints = st.integers(-(2**300), 2**300)
_rationals = _wide_ints | st.builds(
    Fraction, _wide_ints, st.integers(1, 2**200).map(lambda k: 3 * (2 * k + 1) * 2 ** (k % 7))
)


@given(x=_rationals, prec=st.sampled_from([53, 70, 118, 200]))
@example(x=WIDE_C[0], prec=70)
@example(x=WIDE_C[1], prec=118)
@example(x=Fraction(-(10**50) - 1, 7), prec=53)
@settings(max_examples=400, deadline=None, database=None, derandomize=True)
def test_interval_takes_ints_and_fractions_as_iv_does(x, prec):
    """Both ways in enclose x, and give iv's ends: iv.mpf(p) rounded outward, then / q."""
    interval = ts._interval_type()
    saved = iv.prec
    iv.prec = prec
    try:
        want = (iv.mpf(x.numerator) / x.denominator)._mpi_
    finally:
        iv.prec = saved
    for y in (interval(x, x, prec), interval(1, 1, prec) * x):
        lo, hi = y.ends
        assert _exact(lo) <= x <= _exact(hi)
        assert y.ends == want


def _bisect_bracket(c: Fraction, bits: int) -> int:
    """The bracket by exact bisection on the sign of (c-2-a)**2 (1-a) - a**2 (c-1-a)."""
    p, q = c.numerator, c.denominator
    m = 0
    for k in range(1, bits + 1):
        one, x = 1 << k, 2 * m + 1
        left = ((p - 2 * q) * one - q * x) ** 2 * (one - x) > q * x * x * ((p - q) * one - q * x)
        m = 2 * m + left
    return m


def test_bracket_matches_exact_bisection():
    # at c = 7/2 and 23/4 the root a* = 1/2, 3/4 is dyadic: it is the bracket's upper end
    rng = random.Random(2504)
    cs = [Fraction(3 + 10 ** rng.uniform(-12, 300)) for _ in range(100)]
    cs += [Fraction(rng.randint(3 * 10**6 + 1, 10**9), 10**6) for _ in range(100)]
    for c in cs + REGRESSION_C + [Fraction(7, 2), Fraction(23, 4), Fraction(10**30 + 7, 10**29)]:
        widest = 64 + 2 * max(1, c.numerator.bit_length() - c.denominator.bit_length() + 1)
        for bits in (3, 66, widest):
            assert ts._bracket(c, bits) == _bisect_bracket(c, bits), (c, bits)
    assert ts._bracket(Fraction(7, 2), 70) == 2**69 - 1
    assert ts._bracket(Fraction(23, 4), 70) == 3 * 2**68 - 1
