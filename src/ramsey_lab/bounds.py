"""Exact arithmetic for linear size-Ramsey upper bounds on cycle families.

Everything integer-valued is computed with Python ints, everything
rational-valued with ``fractions.Fraction``; only logarithm-based
coefficients fall back to binary64.  The central objects are

* a family of linear forms ``a*m1 + b*m2 + c`` produced by a quadratic
  coefficient recursion, bounding Ramsey numbers of cycle tuples against
  a complete bipartite graph,
* closed-form host sizes ``82 * 35**(2**t_odd - 2) * 81**t_even * m`` for
  multicolour cycle Ramsey numbers, and
* per-model size-Ramsey coefficient reports (binomial random host,
  random regular host, bipartite random host) built on the density
  thresholds from :mod:`ramsey_lab.threshold_solver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import threshold_solver
from .constructions import ceil_log2

Rational = Union[int, Fraction]

#: Hard ceiling on the recursion level (and on the odd cycle count of a host
#: size); the coefficients grow doubly exponentially (roughly 35**(2**t)),
#: so anything beyond this is almost certainly a caller bug.
DEFAULT_T_CAP = 8


# ── basic types ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class CycleSpec:
    """An ordered tuple of target cycle lengths, each at least 3."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("need at least one cycle length")
        for n in self.lengths:
            if not isinstance(n, int) or n < 3:
                raise ValueError(f"cycle length must be an integer >= 3, got {n!r}")

    @classmethod
    def of(cls, *lengths: int) -> "CycleSpec":
        return cls(tuple(lengths))

    @property
    def t(self) -> int:
        return len(self.lengths)

    @property
    def t_even(self) -> int:
        return sum(1 for n in self.lengths if n % 2 == 0)

    @property
    def t_odd(self) -> int:
        return sum(1 for n in self.lengths if n % 2 == 1)

    @property
    def n_max(self) -> int:
        return max(self.lengths)


@dataclass(frozen=True)
class LinearForm:
    """The exact linear form ``a*m1 + b*m2 + c`` with integer coefficients."""

    a: int
    b: int
    c: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass
class BoundReport:
    """One size-Ramsey upper bound: total ~ coefficient * n.

    ``c`` is the exact host-size constant (host has c*n vertices),
    ``d`` the certified edge density, ``coefficient`` the sharp
    n-coefficient of the expected edge count and ``coefficient_loose``
    the weaker closed form (when one exists).  ``coefficient_exact`` is
    populated when the coefficient is exactly rational (regular model
    with integer density).  ``constraint_ok`` records whether every
    requested cycle length clears the minimum-length requirement
    ``n_i >= 2*ceil(log2(c * n_max)) + 2``.
    """

    model: str
    c: Fraction
    d: float
    coefficient: float
    coefficient_loose: Optional[float]
    constraint_ok: bool
    coefficient_exact: Optional[Fraction] = None

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "c": str(self.c),
            "c_float": float(self.c),
            "d": self.d,
            "coefficient": self.coefficient,
            "coefficient_loose": self.coefficient_loose,
            "coefficient_exact": (
                None
                if self.coefficient_exact is None
                else str(self.coefficient_exact)
            ),
            "constraint_ok": self.constraint_ok,
        }


# ── the linear-form recursion ────────────────────────────────────────────────


def _check_level(t: int) -> None:
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"level t must be an integer >= 1, got {t!r}")
    if t > DEFAULT_T_CAP:
        raise ValueError(
            f"level t={t} exceeds the cap {DEFAULT_T_CAP}; coefficients grow like 35**(2**t)"
        )


def ramsey_linear_form(t: int) -> LinearForm:
    """Coefficients (a_t, b_t, c_t) of the level-t linear form.

    Level 1 is the base form 33*m1 + 49*m2; quadratic recursion from level t-1:

        a_t = 32*a**2 + a*b + 32*b
        b_t = 49*a**2 + a*b + 49*b
        c_t = -a*b + a*c + c
    """
    _check_level(t)
    a, b, c = 33, 49, 0
    for _ in range(t - 1):
        a, b, c = (
            32 * a * a + a * b + 32 * b,
            49 * a * a + a * b + 49 * b,
            -a * b + a * c + c,
        )
    return LinearForm(a, b, c)


def eval_ramsey_form(t: int, m1: int, m2: int) -> int:
    """Evaluate the level-t form by the literal two-fold recursion.

    Level 1 is the base form; level t plugs a level-(t-1) value back into
    level t-1:

        F_t(m1, m2) = F_{t-1}(F_{t-1}(32*m1 + 49*m2, m1 + m2 - 1),
                              32*m1 + 49*m2)

    This is intentionally *not* the coefficient route, so the two can be
    cross-checked against each other.
    """
    _check_level(t)
    if m1 < 1 or m2 < 1:
        raise ValueError("arguments m1, m2 must be positive integers")
    if t == 1:
        return 33 * m1 + 49 * m2
    outer = 32 * m1 + 49 * m2
    inner = eval_ramsey_form(t - 1, outer, m1 + m2 - 1)
    return eval_ramsey_form(t - 1, inner, outer)


# ── closed-form host sizes ───────────────────────────────────────────────────


def multicycle_host_size(spec: CycleSpec, m: int) -> Fraction:
    """Host size ``82 * 35**(2**t_odd - 2) * 81**t_even * m`` as an exact rational.

    With no odd cycles the exponent is -1 and the value is a genuine
    fraction (denominator 35); callers that need an integer host size
    should take the ceiling themselves.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if spec.t_odd > DEFAULT_T_CAP:
        raise ValueError(f"t_odd={spec.t_odd} exceeds cap {DEFAULT_T_CAP}")
    return Fraction(82) * Fraction(35) ** (2**spec.t_odd - 2) * 81**spec.t_even * m


# ── length constraints ───────────────────────────────────────────────────────


def validate_length_constraints(spec: CycleSpec, host_size: Rational) -> list[bool]:
    """Per-cycle flags for ``n_i >= 2*ceil(log2(host_size)) + 2``.

    The cutoff is reported, not enforced: short cycles simply come back
    flagged False so callers can surface the violation.
    """
    cutoff = 2 * ceil_log2(host_size) + 2
    return [n >= cutoff for n in spec.lengths]


# ── size-Ramsey coefficient reports ──────────────────────────────────────────


def host_constant(spec: CycleSpec) -> Fraction:
    """The c with host size N = c*n used by the random-host bounds.

    For exactly two cycles the linear-form route (coefficient sum of the
    level-2 form) competes with the closed-form host size; the smaller
    constant wins.  For any other count only the closed form applies.
    """
    closed = multicycle_host_size(spec, 1)
    if spec.t == 2:
        form = ramsey_linear_form(2)
        return min(Fraction(form.a + form.b), closed)
    return closed


def _constraint_ok(spec: CycleSpec, c: Fraction) -> bool:
    return all(validate_length_constraints(spec, c * spec.n_max))


def _check_finite(tight: float, loose: float, model: str, cf: float) -> None:
    if not (math.isfinite(tight) and math.isfinite(loose)):
        raise ValueError(f"{model} coefficient at c = {cf:.6g} overflows binary64")


def size_ramsey_gnp(spec: CycleSpec) -> BoundReport:
    """Edge-count coefficient for the binomial random host G(c*n, d/N).

    Sharp coefficient c*d/2 at the critical density d (which equals
    c**2 * (c*ln(c) - (c-2)*ln(c-2)) / 2); loose closed form
    (ln(c) + 1) * c**2.
    """
    c = host_constant(spec)
    cf = threshold_solver._binary64(c, "host constant c")
    d = threshold_solver.gnp_min_density(1 / c)
    tight = cf * d / 2.0
    loose = (math.log(cf) + 1.0) * cf * cf
    _check_finite(tight, loose, "gnp", cf)
    return BoundReport(
        model="gnp",
        c=c,
        d=d,
        coefficient=tight,
        coefficient_loose=loose,
        constraint_ok=_constraint_ok(spec, c),
    )


def size_ramsey_regular(
    spec: CycleSpec,
    d: Rational,
    verify: bool = True,
) -> BoundReport:
    """Edge-count coefficient c*d/2 for the random d-regular host on c*n vertices.

    ``d`` must be a density certified nonpositive-exponent for this spec's
    host constant; with ``verify=True`` (the default) the certificate is
    re-checked via the threshold solver.  ``verify=False`` skips the check
    and also admits the degenerate d=0 used by unit tests.
    """
    c = host_constant(spec)
    d = Fraction(d)
    if d < 0:
        raise ValueError("density d must be nonnegative")
    if verify:
        check = threshold_solver.check_density_certificate(c, d)
        if not check.ok:
            raise ValueError(
                f"d={d} is not certified for c={c}: exponent "
                f"{check.max_exponent:+.6e} > 0 at a={check.worst_a!r}"
            )
    exact = Fraction(c) * d / 2
    return BoundReport(
        model="regular",
        c=c,
        d=float(d),
        coefficient=float(exact),
        coefficient_loose=None,
        constraint_ok=_constraint_ok(spec, c),
        coefficient_exact=exact,
    )


def size_ramsey_bipartite(spec: CycleSpec) -> BoundReport:
    """Edge-count coefficient for the bipartite random host, all-even specs only.

    Host is G(N, N, d/N) with N = 81**t * n; sharp coefficient c*d at the
    critical density d with c = 81**t (which equals
    2*c**2*(c*ln(c) - (c-1)*ln(c-1))); loose form 2*c**2*(ln(c) + 1).
    """
    if spec.t_odd:
        raise ValueError("bipartite bound requires every cycle length to be even")
    c = Fraction(81) ** spec.t
    cf = threshold_solver._binary64(c, "host constant c")
    d = threshold_solver.bipartite_min_density(1 / c)
    tight = cf * d
    loose = 2.0 * cf * cf * (math.log(cf) + 1.0)
    _check_finite(tight, loose, "bipartite", cf)
    return BoundReport(
        model="bipartite",
        c=c,
        d=d,
        coefficient=tight,
        coefficient_loose=loose,
        constraint_ok=_constraint_ok(spec, c),
    )


__all__ = [
    "DEFAULT_T_CAP",
    "CycleSpec",
    "LinearForm",
    "BoundReport",
    "ramsey_linear_form",
    "eval_ramsey_form",
    "multicycle_host_size",
    "validate_length_constraints",
    "host_constant",
    "size_ramsey_gnp",
    "size_ramsey_regular",
    "size_ramsey_bipartite",
]
