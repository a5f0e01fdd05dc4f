"""Edge-density thresholds that kill large holes in random hosts.

A *hole* is a pair of disjoint vertex sets with no edge between them.
For each random host model this module computes the smallest edge
density d at which the first-moment exponent of holes of linear size
becomes nonpositive:

* binomial host: closed form from
  ``(1-2*rho)*ln(1-2*rho) + 2*rho*ln(rho) + rho**2 * d >= 0``,
* bipartite host: closed form from
  ``2*(1-rho)*ln(1-rho) + 2*rho*ln(rho) + rho**2 * d >= 0``,
* random regular host: with g(x) = x*ln(x), holes of fraction 1/c in
  the pairing model have per-vertex exponent, for a nuisance a in [0, 1],

      f(a,c,d) = g(c) + g(d) + g((c-2)*d) + g((c-1-a)*d)/2
               - g(c-2) - g(a*d) - g((c-2-a)*d) - g((1-a)*d)/2 - g(c*d)/2.

  Its d*ln(d) terms cancel, so f = k0(c) + k1(a, c)*d, and
  ``_coefficients`` is the one library spelling of k0 and k1.

The threshold is k0 / -k1(a*) at the maximiser a* of the strictly concave
slope k1, a quadratic's root that an integer square root brackets exactly.
k0 and k1 are evaluated once over the bracket with ``mpmath.libmp``'s
outward-rounded ``mpi_*`` interval calls, at an explicit precision that grows
with log2(c) because the terms of k1 (~c*ln(c)) cancel down to ~ln(c)/c.
The solved density and the certificate read off that one rigorous enclosure.

Also here: the exact first moment of holes in the pairing model, as a
``fractions.Fraction``; ROADMAP item 3 gives it a library caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import comb, factorial
from typing import Union

from .errors import InfeasibleDensityError

Rational = Union[int, Fraction]


# ── scalar helpers ───────────────────────────────────────────────────────────


def _binary64(x: Rational, what: str) -> float:
    """float(x) for a positive rational, or ValueError beyond the binary64 range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(
            f"{what} has {len(str(int(x)))} digits, beyond the binary64 range "
            "(about 1.8e308)"
        ) from None


def _regular_c(c: Rational) -> tuple[Fraction, float]:
    """(c, float(c)) for a regular-model constant, or ValueError unless 3 < c < 1.8e308."""
    c = Fraction(c)
    cf = _binary64(c, "regular model c")
    if c <= 3:
        raise ValueError(f"regular model needs c > 3, got {cf:.6g}")
    return c, cf


def _check_rho_squared(r: float, model: str) -> None:
    # the thresholds divide by rho**2, which must not underflow
    if r * r < sys.float_info.min:
        raise ValueError(
            f"{model} density needs rho**2 inside the binary64 range, got rho = {r:.6g}"
        )


# ── result records ───────────────────────────────────────────────────────────


@dataclass
class DensitySolveResult:
    """Output of the regular-model minimax solve.

    ``d_min`` is the smallest certified density (the upper end of an
    enclosure of the exact threshold, rounded up to binary64), ``worst_a``
    the maximising nuisance parameter and ``max_exponent`` an upper bound
    on the exponent at (worst_a, d_min), which is nonpositive.
    """

    c: Fraction
    d_min: float
    worst_a: float
    max_exponent: float

    def as_dict(self) -> dict:
        return {
            "model": "regular",
            "c": str(self.c),
            "d_min": self.d_min,
            "worst_a": self.worst_a,
            "max_exponent": self.max_exponent,
        }


@dataclass
class CertificateCheck:
    """Result of re-verifying that a given density d keeps the exponent <= 0."""

    ok: bool
    max_exponent: float
    worst_a: float


# ── closed-form thresholds ───────────────────────────────────────────────────


def gnp_min_density(rho: Union[Rational, float]) -> float:
    """Critical density for the binomial host at hole fraction rho in (0, 1/2).

    Root in d of (1-2*rho)*ln(1-2*rho) + 2*rho*ln(rho) + rho**2 * d = 0,
    i.e. d = -((1-2*rho)*ln(1-2*rho) + 2*rho*ln(rho)) / rho**2.
    """
    r = _binary64(rho, "gnp hole fraction rho")
    if not 0.0 < r < 0.5:
        raise ValueError(f"gnp density needs 0 < rho < 1/2 in binary64, got {r:.6g}")
    _check_rho_squared(r, "gnp")
    # log1p keeps precision when rho is tiny (1 - 2*rho close to 1).
    return -((1.0 - 2.0 * r) * math.log1p(-2.0 * r) + 2.0 * r * math.log(r)) / (r * r)


def bipartite_min_density(rho: Union[Rational, float]) -> float:
    """Critical density for the bipartite host at hole fraction rho in (0, 1).

    Root in d of 2*(1-rho)*ln(1-rho) + 2*rho*ln(rho) + rho**2 * d = 0.
    """
    r = _binary64(rho, "bipartite hole fraction rho")
    if not 0.0 < r < 1.0:
        raise ValueError(f"bipartite density needs 0 < rho < 1 in binary64, got {r:.6g}")
    _check_rho_squared(r, "bipartite")
    return -(2.0 * (1.0 - r) * math.log1p(-r) + 2.0 * r * math.log(r)) / (r * r)


# ── regular-model exponent ───────────────────────────────────────────────────


def _coefficients(a, c, g):
    """(k0, k1) at (a, c) for any number type that g, x*ln(x), accepts."""
    gc, gc2 = g(c), g(c - 2)
    return gc - gc2, gc2 + g(c - 1 - a) / 2 - g(a) - g(c - 2 - a) - g(1 - a) / 2 - gc / 2


def _bracket(c: Fraction, bits: int) -> int:
    """m with m / 2**bits < a* <= (m + 1) / 2**bits, for the maximiser a* of k1.

    k1 is strictly concave on (0, 1) with
    k1'(a) = ln((c-2-a) * sqrt(1-a) / (a * sqrt(c-1-a))), so a* is the one
    root in (0, 1) of (c-2-a)**2 * (1-a) - a**2 * (c-1-a) = (c-2) * (a**2 - c*a + c-2),
    a* = (c - sqrt(c**2 - 4*c + 8)) / 2, and the quadratic is positive left of it.
    An integer square root, with a = x / 2**bits and c = p / q cleared of
    denominators, gives m or up to 2 more; the exact sign test steps it down.
    """
    p, q = c.numerator, c.denominator
    one = 1 << bits
    m = (p * one - math.isqrt((p * p - 4 * p * q + 8 * q * q) << 2 * bits)) // (2 * q)
    while q * m * m - p * m * one + (p - 2 * q) * one * one <= 0:
        m -= 1
    return m


@cache
def _interval_type():
    """The enclosure's interval type, binding ``mpmath.libmp`` on first use.

    Interval(lo, hi, prec) is [lo, hi] for ints and Fractions p/q, which convert
    as iv.mpf(p) / q in mpmath.iv: p rounded outward to prec bits, then / q.
    +, -, * and / by an Interval, int or Fraction, int - Interval, unary minus
    and .log() round outward at prec bits.  .b is the upper end, an mpmath.mpf,
    and float() is that end rounded toward 0, as iv's float() of a point interval.
    """
    from mpmath import mp
    from mpmath.libmp import from_int, mpi_add, mpi_div, mpi_log, mpi_mul, mpi_neg, mpi_sub
    from mpmath.libmp import round_ceiling, round_floor, to_float

    def point(x, prec):
        p, q = x.numerator, x.denominator
        ends = from_int(p, prec, round_floor), from_int(p, prec, round_ceiling)
        return ends if q == 1 else mpi_div(ends, point(q, prec), prec)

    def new(ends, prec):
        x = object.__new__(Interval)
        x.ends, x.prec = ends, prec
        return x

    def binary(f):
        def op(s, t):
            t = t.ends if type(t) is Interval else point(t, s.prec)
            return new(f(s.ends, t, s.prec), s.prec)
        return op

    def unary(f):
        return lambda s: new(f(s.ends, s.prec), s.prec)

    class Interval:
        __slots__ = ("ends", "prec")
        __add__, __sub__, __mul__, __truediv__ = map(binary, (mpi_add, mpi_sub, mpi_mul, mpi_div))
        __rsub__ = binary(lambda s, t, prec: mpi_sub(t, s, prec))
        __neg__, log = unary(mpi_neg), unary(mpi_log)
        b = property(lambda s: mp.make_mpf(s.ends[1]))

        def __init__(self, lo: int, hi: int, prec: int):
            self.ends, self.prec = (point(lo, prec)[0], point(hi, prec)[1]), prec

        def __float__(self):
            return to_float(self.ends[1])

    return Interval


def _enclosure(c: Fraction):
    """(a*, k0, k1): the midpoint of a bracket of a*, and interval enclosures.

    k1 is evaluated over the whole bracket, so it encloses k1(a*) = max over a
    of k1(a), with libmp's mpi_add, mpi_sub, mpi_mul, mpi_div, mpi_neg and
    mpi_log at the explicit precision 64 + 3*log2 c bits.  The bracket is
    2**-(64 + 2*log2 c) wide: the terms of k1 are ~c*ln(c) and cancel to
    ~ln(c)/c, which these widths resolve to ~1e-18 relative for every binary64 c.
    """
    log2c = max(1, c.numerator.bit_length() - c.denominator.bit_length() + 1)
    bits, prec = 64 + 2 * log2c, 64 + 3 * log2c
    m = _bracket(c, bits)
    interval = _interval_type()
    a = interval(m, m + 1, prec) / 2**bits
    cm = interval(c, c, prec)
    return Fraction(2 * m + 1, 2 ** (bits + 1)), *_coefficients(a, cm, lambda x: x * x.log())


def _round_up(x) -> float:
    """The least binary64 value >= x, an ``mpmath.mpf``."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


def regular_min_density(c: Rational) -> DensitySolveResult:
    """Smallest density d with max over a in [0,1] of f(a, c, d) <= 0.

    ``d_min`` is the upper end of an interval enclosure of k0 / -k1(a*),
    rounded up to binary64, so it is certified, and it exceeds the exact
    threshold by ~1e-16 relative.

    Raises InfeasibleDensityError if the enclosure of k1(a*) does not lie
    below 0 (the exponent may then stay positive for every d), and
    ValueError if c <= 3, if c or d_min lies beyond the binary64 range, or
    if the enclosure of the exponent at d_min does not lie at or below 0.
    """
    c, cf = _regular_c(c)
    a, k0, k1 = _enclosure(c)
    if not k1.b < 0:
        raise InfeasibleDensityError(
            f"exponent slope k1 <= {float(k1):+.3e} is not certifiably negative "
            f"at a={float(a)}: no finite density is certifiable for c={cf:.6g}",
            a=float(a),
        )
    d_min = _round_up((k0 / -k1).b)
    if math.isinf(d_min):
        raise ValueError(f"regular density at c = {cf:.6g} is beyond the binary64 range")
    top = k0 + k1 * Fraction(d_min)
    if not top.b <= 0:
        raise ValueError(
            f"d={d_min!r} is not certified for c={c}: exponent "
            f"{float(top):+.6e} > 0 at a={float(a)!r}"
        )
    return DensitySolveResult(c=c, d_min=d_min, worst_a=float(a), max_exponent=float(top))


def check_density_certificate(c: Rational, d: Rational) -> CertificateCheck:
    """Verify max over a in [0,1] of f(a, c, d) <= 0.

    The maximum is k0 + k1(a*)*d; the check passes iff the upper end of
    its interval enclosure is <= 0, so a passing check is rigorous.
    """
    c, _ = _regular_c(c)
    d = Fraction(d)
    if d <= 0:
        raise ValueError("density certificate needs d > 0")
    a, k0, k1 = _enclosure(c)
    top = k0 + k1 * d
    return CertificateCheck(ok=bool(top.b <= 0), max_exponent=float(top), worst_a=float(a))


# ── exact first moment in the pairing model ──────────────────────────────────


def matching_count(i: int) -> int:
    """Number of perfect matchings of i labelled points: i! / ((i/2)! * 2**(i/2))."""
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"matching_count needs a nonnegative integer, got {i!r}")
    if i % 2:
        raise ValueError(f"matching_count needs an even argument, got {i}")
    return factorial(i) // (factorial(i // 2) * 2 ** (i // 2))


def exact_first_moment(m: int, c: int, d: int, a: Rational) -> Fraction:
    """Expected number of (m, m) hole pairs with cross-degree split a.

    Exact rational count for the pairing model on N = c*m vertices of
    degree d: choose the two m-sets, route a*d*m points of the first set's
    stubs to the second set's stubs, pair the leftovers internally, and
    divide by the total matching count.  Every integrality and parity
    requirement is validated with its own message.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not isinstance(c, int) or c < 2:
        raise ValueError(f"c must be an integer >= 2 so both m-sets fit, got {c!r}")
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    a = Fraction(a)
    if not 0 <= a <= 1:
        raise ValueError(f"a must be a rational in [0, 1], got {a}")

    N = c * m
    md = m * d
    amd_frac = a * md
    if amd_frac.denominator != 1:
        raise ValueError(f"a*d*m = {amd_frac} is not an integer")
    amd = amd_frac.numerator
    if (md - amd) % 2:
        raise ValueError(f"m*d - a*d*m = {md - amd} is odd (first leftover stub count)")
    if (N * d - md - amd) % 2:
        raise ValueError(
            f"N*d - m*d - a*d*m = {N * d - md - amd} is odd (second leftover stub count)"
        )

    count = (
        comb(N, m)
        * comb(N - m, m)
        * comb(N * d - 2 * md, amd)
        * comb(md, amd)
        * factorial(amd)
        * matching_count(md - amd)
        * matching_count(N * d - md - amd)
    )
    return Fraction(count, matching_count(N * d))


__all__ = [
    "DensitySolveResult",
    "CertificateCheck",
    "gnp_min_density",
    "bipartite_min_density",
    "regular_min_density",
    "check_density_certificate",
    "matching_count",
    "exact_first_moment",
]
