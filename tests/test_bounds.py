"""Exact-arithmetic checks for the linear-form recursion and host bounds."""

from fractions import Fraction

import mpmath
import pytest
import random

from ramsey_lab.bounds import (
    BoundReport,
    CycleSpec,
    LinearForm,
    eval_ramsey_form,
    host_constant,
    multicycle_host_size,
    ramsey_linear_form,
    size_ramsey_bipartite,
    size_ramsey_gnp,
    size_ramsey_regular,
    validate_length_constraints,
)
from ramsey_lab.constructions import ceil_log2
from ramsey_lab.random_models import TrialReport


# ── the linear-form recursion ────────────────────────────────────────────────


def test_base_form():
    assert ramsey_linear_form(1).as_tuple() == (33, 49, 0)
    form = ramsey_linear_form(1)
    assert form.a * 2 + form.b * 1 + form.c == 115


def test_step2_coefficients_frozen():
    assert ramsey_linear_form(2).as_tuple() == (38033, 57379, -1617)


def test_step2_diagonal_closed_form():
    form = ramsey_linear_form(2)
    for m in range(1, 1001):
        assert form.a * m + form.b * m + form.c == 95412 * m - 1617


def test_literal_recursion_matches_coefficients():
    rng = random.Random(5)
    for t in range(1, 7):
        form = ramsey_linear_form(t)
        for _ in range(25):
            m1, m2 = rng.randint(1, 60), rng.randint(1, 60)
            assert eval_ramsey_form(t, m1, m2) == form.a * m1 + form.b * m2 + form.c


def test_single_evaluation_frozen():
    assert eval_ramsey_form(2, 1, 1) == 93795


def test_depth_cap():
    with pytest.raises(ValueError):
        ramsey_linear_form(9)
    with pytest.raises(ValueError):
        eval_ramsey_form(9, 1, 1)
    assert isinstance(ramsey_linear_form(8), LinearForm)


# ── host sizes and constants ─────────────────────────────────────────────────


def test_host_size_frozen_values():
    assert multicycle_host_size(CycleSpec.of(5, 5), 1) == 100450
    assert multicycle_host_size(CycleSpec.of(6, 6), 1) == Fraction(538002, 35)
    assert multicycle_host_size(CycleSpec.of(5, 6), 1) == 6642
    assert multicycle_host_size(CycleSpec.of(5, 5), 7) == 7 * 100450


def test_host_size_scaling_is_linear():
    spec = CycleSpec.of(7, 9, 12)
    unit = multicycle_host_size(spec, 1)
    for m in (2, 3, 10, 1000):
        assert multicycle_host_size(spec, m) == m * unit


def test_host_constants():
    assert host_constant(CycleSpec.of(5, 5)) == 95412
    assert host_constant(CycleSpec.of(6, 6)) == Fraction(538002, 35)
    assert host_constant(CycleSpec.of(5, 6)) == 6642
    # beyond two cycles the closed form takes over
    assert host_constant(CycleSpec.of(5, 5, 5)) == 82 * 35 ** (2**3 - 2)


def test_cycle_spec_validation():
    with pytest.raises(ValueError):
        CycleSpec.of()
    with pytest.raises(ValueError):
        CycleSpec.of(2)
    spec = CycleSpec.of(4, 5, 6)
    assert (spec.t, spec.t_even, spec.t_odd, spec.n_max) == (3, 2, 1, 6)


def test_ceil_log2_fraction_exact():
    cases = [
        (Fraction(1), 0),
        (Fraction(2), 1),
        (Fraction(3), 2),
        (Fraction(1024), 10),
        (Fraction(1025), 11),
        (Fraction(538002, 35), 14),  # 15371.49 < 2**14 = 16384
        (Fraction(1, 8), -3),
        (Fraction(3, 2), 1),
    ]
    for x, want in cases:
        k = ceil_log2(x)
        assert k == want
        assert Fraction(2) ** k >= x
        if x > 0:
            assert Fraction(2) ** (k - 1) < x


def test_ceil_log2_fraction_matches_bit_length_on_integers():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 10**12)
        assert ceil_log2(Fraction(n)) == (n - 1).bit_length()


def test_length_constraint_flags():
    spec = CycleSpec.of(5, 5)
    host = multicycle_host_size(spec, 5)
    flags = validate_length_constraints(spec, host)
    assert flags == [False, False]  # length 5 is far below 2*ceil(log2(host)) + 2
    long_spec = CycleSpec.of(10**6 + 1, 10**6 + 1)
    host = multicycle_host_size(long_spec, 10**6 + 1)
    assert validate_length_constraints(long_spec, host) == [True, True]


# ── model reports ────────────────────────────────────────────────────────────


def test_gnp_report_frozen():
    odd = size_ramsey_gnp(CycleSpec.of(5, 5))
    assert odd.c == 95412
    assert odd.d == pytest.approx(2378802.2815068355, rel=1e-12)
    assert odd.coefficient == pytest.approx(113483141641.56509, rel=1e-12)
    assert odd.coefficient_loose == pytest.approx(113483237054.23177, rel=1e-12)
    even = size_ramsey_gnp(CycleSpec.of(6, 6))
    assert even.coefficient_loose == pytest.approx(2514110254.4064865, rel=1e-12)


def test_gnp_tight_below_loose():
    rng = random.Random(17)
    for _ in range(20):
        lengths = [rng.randint(3, 30) for _ in range(rng.randint(1, 3))]
        rep = size_ramsey_gnp(CycleSpec.of(*lengths))
        assert rep.coefficient <= rep.coefficient_loose


def test_bipartite_report_frozen():
    rep = size_ramsey_bipartite(CycleSpec.of(6, 6))
    assert rep.c == 6561
    assert rep.coefficient == pytest.approx(842753387.5063326, rel=1e-12)
    assert rep.coefficient_loose == pytest.approx(842759948.8394814, rel=1e-12)


def _sharp_reference(c: Fraction, gap: int) -> float:
    """c*ln(c) - (c-gap)*ln(c-gap) at 60 digits, the bracket of both sharp forms."""
    with mpmath.workdps(60):
        x = mpmath.mpf(c.numerator) / c.denominator
        return float(x * mpmath.log(x) - (x - gap) * mpmath.log(x - gap))


@pytest.mark.parametrize("lengths", [(5, 5), (3, 3, 3)])
def test_gnp_sharp_coefficient_high_precision(lengths):
    """At c = 95412 and c = 150737781250 the binary64 value is within 1e-14.

    The direct form c*ln(c) - (c-2)*ln(c-2) cancels: it was 5e-12 off at
    c = 95412 and 8.6e-6 off at c = 1.5e11.
    """
    rep = size_ramsey_gnp(CycleSpec.of(*lengths))
    c = Fraction(rep.c)
    expected = float(c) ** 2 * _sharp_reference(c, 2) / 2
    assert rep.coefficient == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("lengths", [(4, 4, 4), (4, 4, 4, 4)])
def test_bipartite_sharp_coefficient_high_precision(lengths):
    """At c = 81**3 and 81**4 the binary64 value is within 1e-14 (was 1.5e-11 off at 81**3)."""
    rep = size_ramsey_bipartite(CycleSpec.of(*lengths))
    c = Fraction(rep.c)
    expected = 2 * float(c) ** 2 * _sharp_reference(c, 1)
    assert rep.coefficient == pytest.approx(expected, rel=1e-14)


def test_bipartite_requires_all_even():
    with pytest.raises(ValueError):
        size_ramsey_bipartite(CycleSpec.of(5, 6))


def test_regular_report_uses_given_density():
    spec = CycleSpec.of(5, 5)
    rep = size_ramsey_regular(spec, 2378778, verify=False)
    assert rep.coefficient_exact == Fraction(95412) * 2378778 / 2
    assert rep.coefficient_exact == 113481983268
    # the certificate-backed path accepts the published density
    verified = size_ramsey_regular(spec, 2378778)
    assert verified.coefficient == rep.coefficient


def test_regular_report_rejects_uncertified_density():
    spec = CycleSpec.of(5, 5)
    with pytest.raises(ValueError):
        size_ramsey_regular(spec, 2378776)
    with pytest.raises(ValueError):
        size_ramsey_regular(spec, 0)
    assert size_ramsey_regular(spec, 0, verify=False).coefficient == 0.0


def test_format_rational():
    """Reports render their exact rationals as p/q, and whole numbers without /1."""
    assert size_ramsey_gnp(CycleSpec.of(4, 4)).as_dict()["c"] == "538002/35"
    whole = BoundReport("regular", Fraction(8, 2), 3.0, 6.0, None, True, Fraction(6))
    assert (whole.as_dict()["c"], whole.as_dict()["coefficient_exact"]) == ("4", "6")
    trial = TrialReport("gnp", {}, 4, 2, Fraction(2, 4), 0.1, 0.9, "exact", 0)
    assert trial.as_dict()["freq"] == "1/2"
