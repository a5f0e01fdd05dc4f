"""Shared pytest wiring: a PASS/FAIL summary line per acceptance criterion,
and an independent high-precision oracle for the regular-model density."""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath
import pytest

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    status: dict[int, str] = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                num = int(match.group(1))
                if label == "FAIL" or num not in status:
                    status[num] = label
    if status:
        terminalreporter.write_line("")
        for num in sorted(status):
            terminalreporter.write_line(f"ACCEPTANCE criterion {num}: {status[num]}")


def _regular_density_oracle(c) -> mpmath.mpf:
    """d_min = k0 / -k1(a*) for the regular model, without ramsey_lab.

    a* is the root in (0, 1) of (c-2-a)**2 (1-a) = a**2 (c-1-a), found by
    plain bisection.  The terms of k1 (~c ln c) cancel to ~ln(c)/c, so the
    working precision grows with the digits of c: 60 digits plus three per
    digit of c.
    """
    c = Fraction(c)
    digits = 60 + 3 * len(str(c.numerator // c.denominator))
    with mpmath.workdps(digits):
        cm = mpmath.mpf(c.numerator) / c.denominator
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(int(3.4 * digits)):
            mid = (lo + hi) / 2
            if (cm - 2 - mid) ** 2 * (1 - mid) > mid * mid * (cm - 1 - mid):
                lo = mid
            else:
                hi = mid
        a = (lo + hi) / 2

        def g(x):
            return x * mpmath.log(x)

        k0 = g(cm) - g(cm - 2)
        k1 = g(cm - 2) + g(cm - 1 - a) / 2 - g(a) - g(cm - 2 - a) - g(1 - a) / 2 - g(cm) / 2
        return k0 / -k1


@pytest.fixture
def regular_density_oracle():
    return _regular_density_oracle
