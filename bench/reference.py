"""Reference values the benchmark checks the program against.

Written here from the paper's statements, not imported from the package,
so that no reference is produced by the code under test:

* f(n), the number of length-n factors of class AB, is 2*A006165(n-1) for
  n >= 2 and equals the paper's piecewise closed form;
* g(n), the number of length-n factors of class ABBA, is A060973(n-1) for
  n >= 1 and equals its closed form for n >= 3;
* single symbols are Thue-Morse coded, so f(1) = g(1) = 0.
"""

from __future__ import annotations


class Recurrences:
    """A006165 and A060973 by their bisection recurrences, memoized per
    instance so that each set-up pays for its own table."""

    def __init__(self):
        self._a6 = {1: 1}
        self._a9 = {0: 0, 1: 0}

    def a006165(self, n: int) -> int:
        if n not in self._a6:
            half = n // 2
            if n % 2 == 0:
                self._a6[n] = 2 * self.a006165(half) - (half == 1)
            else:
                self._a6[n] = self.a006165(half + 1) + self.a006165(half)
        return self._a6[n]

    def a060973(self, n: int) -> int:
        if n not in self._a9:
            half = n // 2
            if n % 2 == 0:
                self._a9[n] = 2 * self.a060973(half) + (half == 1)
            else:
                self._a9[n] = self.a060973(half + 1) + self.a060973(half)
        return self._a9[n]

    def f(self, n: int) -> int:
        return 0 if n == 1 else 2 * self.a006165(n - 1)

    def g(self, n: int) -> int:
        return self.a060973(n - 1)


def f_closed(n: int) -> int:
    """AB-class count for n >= 2: with 2^m + 1 < n <= 2^(m+1) + 1 it is
    2n - 2^m - 2 up to 3*2^(m-1), and 2^(m+1) above."""
    if n == 2:
        return 2
    m = (n - 2).bit_length() - 1
    if 2 * n <= 3 << m:
        return 2 * n - (1 << m) - 2
    return 2 << m


def g_closed(n: int) -> int:
    """ABBA-class count for n >= 3: with 2^m + 1 < n <= 2^(m+1) + 1 it is
    2^(m-1) up to 3*2^(m-1) + 1, and n - 2^m - 1 above."""
    m = (n - 2).bit_length() - 1
    if 2 * n <= (3 << m) + 2:
        return 1 << (m - 1)
    return n - (1 << m) - 1


def expected_counts(n: int, rec: Recurrences) -> tuple[int, int]:
    """(f(n), g(n)); raises ValueError where recurrence and closed form
    disagree, which would make the reference itself unusable."""
    f, g = rec.f(n), rec.g(n)
    if n >= 2 and f != f_closed(n):
        raise ValueError(f"f({n}): recurrence {f} != closed form {f_closed(n)}")
    if n >= 3 and g != g_closed(n):
        raise ValueError(f"g({n}): recurrence {g} != closed form {g_closed(n)}")
    return f, g
