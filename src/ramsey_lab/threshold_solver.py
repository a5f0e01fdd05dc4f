"""Edge-density thresholds that kill large holes in random hosts.

A *hole* is a pair of disjoint vertex sets with no edge between them.
For each random host model this module computes the smallest edge
density d at which the first-moment exponent of holes of linear size
becomes nonpositive:

* binomial host: closed form from
  ``(1-2*rho)*ln(1-2*rho) + 2*rho*ln(rho) + rho**2 * d >= 0``,
* bipartite host: closed form from
  ``2*(1-rho)*ln(1-rho) + 2*rho*ln(rho) + rho**2 * d >= 0``,
* random regular host: minimax over a nuisance parameter ``a`` of a
  nine-term entropy expression ``f(a, c, d)`` which happens to be exactly
  affine in d, so the per-a threshold is a ratio of the two affine
  coefficients and the solve is a one-dimensional maximisation.

Floating binary64 is good enough everywhere except near the optimum of
the regular-model exponent at headline sizes (c ~ 1e5), where the terms
cancel down from ~1e6 to ~1e-5; those few points are re-verified with
mpmath at 40 significant digits before anything is certified.

Also here: the exact (big-integer) first moment of holes in the pairing
model, kept in ``fractions.Fraction`` so tests can compare two spellings
of the same count bit-for-bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Optional, Union

import mpmath as mp
import numpy as np

from .errors import InfeasibleDensityError

Rational = Union[int, Fraction]

_MP_DPS = 40  # working precision (decimal digits) for the verification stage


# ── scalar helpers ───────────────────────────────────────────────────────────


def g(x: float) -> float:
    """x*ln(x) extended continuously by g(0) = 0."""
    if x < 0:
        raise ValueError(f"g(x)=x*ln(x) needs x >= 0, got {x}")
    return 0.0 if x == 0 else x * math.log(x)


def _g_np(x: np.ndarray) -> np.ndarray:
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


def _g_mp(x) -> mp.mpf:
    return x * mp.log(x) if x > 0 else mp.mpf(0)


def ln_fraction(x: Fraction) -> float:
    """Natural log of a positive rational with big-integer support."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln_fraction requires a positive rational")
    return math.log(x.numerator) - math.log(x.denominator)


def _binary64(x: Rational, what: str) -> float:
    """float(x) for a positive rational, or ValueError beyond the binary64 range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(
            f"{what} has {len(str(int(x)))} digits, beyond the binary64 range "
            "(about 1.8e308)"
        ) from None


def _check_rho_squared(r: float, model: str) -> None:
    # the thresholds divide by rho**2, which must not underflow
    if r * r < sys.float_info.min:
        raise ValueError(
            f"{model} density needs rho**2 inside the binary64 range, got rho = {r:.6g}"
        )


# ── problem / result records ─────────────────────────────────────────────────


@dataclass(frozen=True)
class DensityProblem:
    """A (model, hole fraction) pair; c = 1/rho is the host-size constant."""

    model: str
    rho: Fraction
    c: Fraction

    _MODELS = ("gnp", "regular", "bipartite")

    def __post_init__(self):
        if self.model not in self._MODELS:
            raise ValueError(f"model must be one of {self._MODELS}, got {self.model!r}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.rho * self.c != 1:
            raise ValueError("rho and c must satisfy rho * c = 1")
        if self.model == "gnp" and self.rho >= Fraction(1, 2):
            raise ValueError("gnp model needs rho < 1/2")
        if self.model == "bipartite" and self.rho >= 1:
            raise ValueError("bipartite model needs rho < 1")
        if self.model == "regular" and self.c <= 3:
            raise ValueError("regular model needs c > 3")

    @classmethod
    def from_rho(cls, model: str, rho: Rational) -> "DensityProblem":
        rho = Fraction(rho)
        return cls(model, rho, 1 / rho)

    @classmethod
    def from_c(cls, model: str, c: Rational) -> "DensityProblem":
        c = Fraction(c)
        if c <= 0:
            raise ValueError("c must be positive")
        return cls(model, 1 / c, c)


@dataclass
class DensitySolveResult:
    """Output of the regular-model minimax solve.

    ``d_min`` is the smallest certified density (rounded up one ulp so
    the exponent at d_min is guaranteed nonpositive), ``worst_a`` the
    maximising nuisance parameter, ``max_exponent`` the exponent value at
    (worst_a, d_min) and ``certificate_margin`` the strictly positive
    exponent at (1 - tolerance) * d_min witnessing minimality.
    """

    c: Fraction
    d_min: float
    worst_a: float
    max_exponent: float
    grid_points: int
    tolerance: float
    certificate_margin: float

    def as_dict(self) -> dict:
        return {
            "model": "regular",
            "c": str(self.c),
            "d_min": self.d_min,
            "worst_a": self.worst_a,
            "max_exponent": self.max_exponent,
            "grid_points": self.grid_points,
            "tolerance": self.tolerance,
            "certificate_margin": self.certificate_margin,
        }


@dataclass
class CertificateCheck:
    """Result of re-verifying that a given density d keeps the exponent <= 0."""

    ok: bool
    max_exponent: float
    worst_a: float
    grid_points: int


# ── closed-form thresholds ───────────────────────────────────────────────────


def gnp_min_density(rho: Union[Rational, float]) -> float:
    """Critical density for the binomial host at hole fraction rho in (0, 1/2).

    Root in d of (1-2*rho)*ln(1-2*rho) + 2*rho*ln(rho) + rho**2 * d = 0,
    i.e. d = -((1-2*rho)*ln(1-2*rho) + 2*rho*ln(rho)) / rho**2.
    """
    r = float(rho)
    if not 0.0 < r < 0.5:
        raise ValueError(f"gnp density needs 0 < rho < 1/2, got {rho}")
    _check_rho_squared(r, "gnp")
    # log1p keeps precision when rho is tiny (1 - 2*rho close to 1).
    return -((1.0 - 2.0 * r) * math.log1p(-2.0 * r) + 2.0 * r * math.log(r)) / (r * r)


def bipartite_min_density(rho: Union[Rational, float]) -> float:
    """Critical density for the bipartite host at hole fraction rho in (0, 1).

    Root in d of 2*(1-rho)*ln(1-rho) + 2*rho*ln(rho) + rho**2 * d = 0.
    """
    r = float(rho)
    if not 0.0 < r < 1.0:
        raise ValueError(f"bipartite density needs 0 < rho < 1, got {rho}")
    _check_rho_squared(r, "bipartite")
    return -(2.0 * (1.0 - r) * math.log1p(-r) + 2.0 * r * math.log(r)) / (r * r)


# ── regular-model exponent ───────────────────────────────────────────────────


def _validate_acd(a: float, c: float, d: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    if c <= 3.0:
        raise ValueError(f"c must exceed 3, got {c}")
    if d < 0.0:
        raise ValueError(f"d must be nonnegative, got {d}")


def regular_exponent(a: float, c: float, d: float) -> float:
    """Per-vertex exponent of the expected hole count in the pairing model.

    Nine-term display form, g(x) = x*ln(x):

        f(a,c,d) = g(c) + g(d) + g((c-2)*d) + g((c-1-a)*d)/2
                 - g(c-2) - g(a*d) - g((c-2-a)*d) - g((1-a)*d)/2 - g(c*d)/2

    Holes of fraction 1/c die out iff max over a in [0,1] is <= 0.
    """
    a, c, d = float(a), float(c), float(d)
    _validate_acd(a, c, d)
    return (
        g(c)
        + g(d)
        + g((c - 2.0) * d)
        + 0.5 * g((c - 1.0 - a) * d)
        - g(c - 2.0)
        - g(a * d)
        - g((c - 2.0 - a) * d)
        - 0.5 * g((1.0 - a) * d)
        - 0.5 * g(c * d)
    )


def regular_exponent_decompose(a: float, c: float) -> tuple[float, float]:
    """Coefficients (k0, k1) with regular_exponent(a, c, d) = k0 + k1*d for all d.

    The d*ln(d) contributions cancel identically, leaving

        k0 = g(c) - g(c-2)
        k1 = g(c-2) + g(c-1-a)/2 - g(a) - g(c-2-a) - g(1-a)/2 - g(c)/2.
    """
    a, c = float(a), float(c)
    _validate_acd(a, c, 1.0)
    k0 = g(c) - g(c - 2.0)
    k1 = (
        g(c - 2.0)
        + 0.5 * g(c - 1.0 - a)
        - g(a)
        - g(c - 2.0 - a)
        - 0.5 * g(1.0 - a)
        - 0.5 * g(c)
    )
    return k0, k1


def _k1_grid(c: float, a: np.ndarray) -> np.ndarray:
    """Vectorised k1 over an a-grid (binary64; locating, not certifying)."""
    const = g(c - 2.0) - 0.5 * g(c)
    return (
        const
        + 0.5 * _g_np(c - 1.0 - a)
        - _g_np(a)
        - _g_np(c - 2.0 - a)
        - 0.5 * _g_np(1.0 - a)
    )


def _k_mp(c: Fraction) -> tuple[mp.mpf, Callable[[mp.mpf], mp.mpf]]:
    """High-precision k0 and a-callable k1 for exact rational c."""
    cm = mp.mpf(c.numerator) / c.denominator
    k0 = _g_mp(cm) - _g_mp(cm - 2)
    const = _g_mp(cm - 2) - _g_mp(cm) / 2

    def k1(a: mp.mpf) -> mp.mpf:
        return (
            const
            + _g_mp(cm - 1 - a) / 2
            - _g_mp(a)
            - _g_mp(cm - 2 - a)
            - _g_mp(1 - a) / 2
        )

    return k0, k1


def _golden_max(fn: Callable, lo, hi, iters: int) -> tuple[mp.mpf, mp.mpf]:
    """Golden-section maximisation of fn on [lo, hi]; returns (argmax, max)."""
    inv_phi = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(lo), mp.mpf(hi)
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
    best = [(f1, x1), (f2, x2), (fn(a), a), (fn(b), b)]
    fbest, xbest = max(best, key=lambda p: p[0])
    return xbest, fbest


def _candidate_windows(values: np.ndarray, slack: float) -> list[tuple[int, int]]:
    """Index windows (inclusive) around every grid point within slack of the max."""
    top = values.max()
    idx = np.flatnonzero(values >= top - slack)
    windows: list[tuple[int, int]] = []
    start = prev = int(idx[0])
    for i in idx[1:]:
        i = int(i)
        if i == prev + 1:
            prev = i
            continue
        windows.append((start, prev))
        start = prev = i
    windows.append((start, prev))
    return windows


def regular_min_density(
    c: Rational,
    grid_points: int = 100_000,
    tolerance: float = 1e-9,
    refine_iters: int = 30,
) -> DensitySolveResult:
    """Smallest density d with max over a in [0,1] of regular_exponent <= 0.

    Because the exponent is affine in d with negative slope k1(a) at
    feasible points, the answer is max over a of k0 / (-k1(a)).  A
    binary64 grid locates the maximiser; candidates near the top are
    refined by golden section in 40-digit arithmetic, which matters at
    headline sizes where -k1 at the optimum is ~1e-5.

    Raises InfeasibleDensityError if some a has k1(a) >= 0 (the exponent
    then stays positive for every d).
    """
    c = Fraction(c)
    if c <= 3:
        raise ValueError(f"regular model needs c > 3, got {c}")
    if grid_points < 1_000:
        raise ValueError("grid_points must be at least 1000")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")

    cf = _binary64(c, "regular model c")
    grid = np.linspace(0.0, 1.0, grid_points + 1)
    k1_vals = _k1_grid(cf, grid)

    # Per-point rounding budget: terms have magnitude ~g(c); anything within
    # this slack of the float max gets the high-precision treatment.
    slack = max(1e-12, 64 * np.finfo(float).eps * abs(g(cf)))
    step = 1.0 / grid_points

    with mp.workdps(_MP_DPS):
        k0_mp, k1_mp = _k_mp(c)
        best_a = mp.mpf(0)
        best_k1 = mp.mpf("-inf")
        for i_lo, i_hi in _candidate_windows(k1_vals, slack):
            lo = max(0.0, grid[i_lo] - 2 * step)
            hi = min(1.0, grid[i_hi] + 2 * step)
            x, fx = _golden_max(k1_mp, lo, hi, refine_iters)
            if fx > best_k1:
                best_k1, best_a = fx, x
        if best_k1 >= 0:
            raise InfeasibleDensityError(
                f"exponent slope k1={float(best_k1):+.3e} >= 0 at a={float(best_a)}: "
                f"no finite density is certifiable for c={c}",
                a=float(best_a),
            )
        d_mp = k0_mp / (-best_k1)
        # Round up one ulp so the returned float is on the certified side.
        d_min = math.nextafter(float(d_mp), math.inf)
        max_exponent = float(k0_mp + best_k1 * mp.mpf(d_min))
        margin = float(k0_mp + best_k1 * ((1 - mp.mpf(tolerance)) * mp.mpf(d_min)))

    return DensitySolveResult(
        c=c,
        d_min=d_min,
        worst_a=float(best_a),
        max_exponent=max_exponent,
        grid_points=grid_points,
        tolerance=tolerance,
        certificate_margin=margin,
    )


def check_density_certificate(
    c: Rational,
    d: Rational,
    grid_points: int = 1_000_000,
    refine_iters: int = 60,
) -> CertificateCheck:
    """Verify max over a in [0,1] of regular_exponent(a, c, d) <= 0.

    Two stages: a vectorised binary64 sweep over the grid flags every
    point whose exponent is within a conservative noise band of 0, then
    mpmath re-evaluates the flagged points exactly, plus a golden-section
    refinement around the grid maximiser so the continuous maximum (not
    just the sampled one) is checked.
    """
    c = Fraction(c)
    d = Fraction(d)
    if c <= 3:
        raise ValueError(f"regular model needs c > 3, got {c}")
    if d <= 0:
        raise ValueError("density certificate needs d > 0")

    cf, df = _binary64(c, "regular model c"), _binary64(d, "density d")
    grid = np.linspace(0.0, 1.0, grid_points + 1)
    k0f = g(cf) - g(cf - 2.0)
    f_vals = k0f + _k1_grid(cf, grid) * df

    # Anything that a float sweep cannot put safely below zero gets the
    # high-precision pass: k1 noise ~64*eps*g(c) amplified by d.
    band = max(1e-9, 64 * np.finfo(float).eps * abs(g(cf)) * df)
    suspicious = np.flatnonzero(f_vals > -band)
    i_top = int(np.argmax(f_vals))
    step = 1.0 / grid_points

    ok = True
    with mp.workdps(_MP_DPS):
        k0_mp, k1_mp = _k_mp(c)
        d_mp = mp.mpf(d.numerator) / d.denominator

        def f_mp(a: mp.mpf) -> mp.mpf:
            return k0_mp + k1_mp(a) * d_mp

        worst_a, worst_f = _golden_max(
            f_mp,
            max(0.0, grid[i_top] - 2 * step),
            min(1.0, grid[i_top] + 2 * step),
            refine_iters,
        )
        for i in suspicious:
            fa = f_mp(mp.mpf(grid[int(i)]))
            if fa > worst_f:
                worst_f, worst_a = fa, mp.mpf(grid[int(i)])
        ok = worst_f <= 0
        max_exponent = float(worst_f)
        worst_a_f = float(worst_a)

    return CertificateCheck(
        ok=bool(ok),
        max_exponent=max_exponent,
        worst_a=worst_a_f,
        grid_points=grid_points,
    )


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
    if (N * d) % 2:
        raise ValueError(f"N*d = {N * d} is odd (total stub count)")

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
    "DensityProblem",
    "DensitySolveResult",
    "CertificateCheck",
    "g",
    "ln_fraction",
    "gnp_min_density",
    "bipartite_min_density",
    "regular_exponent",
    "regular_exponent_decompose",
    "regular_min_density",
    "check_density_certificate",
    "matching_count",
    "exact_first_moment",
]
