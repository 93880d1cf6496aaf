"""Reference valuation of linear representations for the tests.

``digits_of`` gives the canonical binary digits of an integer in the order
a representation feeds them, and ``dense_value`` values a digit word one
digit at a time with every term of every product summed, exactly (as
``int`` while every term is one, else as ``Fraction``); neither shares
code with ``tmprover.linrep``.
"""


def digits_of(n: int, msd_first: bool) -> list[int]:
    """Canonical binary digits of n >= 0 (no redundant zeros; empty for 0)."""
    out = []
    while n:
        out.append(n & 1)
        n >>= 1
    if msd_first:
        out.reverse()
    return out


def times(x, matrix):
    """Row vector ``x`` times ``matrix``, every product term summed."""
    return [sum(x[i] * matrix[i][j] for i in range(len(x)))
            for j in range(len(x))]


def dense_value(v, gamma, w, word):
    """v . gamma(d1) ... gamma(dl) . w, every product term summed."""
    x = list(v)
    for d in word:
        x = times(x, gamma[d])
    return sum(a * b for a, b in zip(x, w))
