"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Sets the interpreter's int-string digit limit to its default, 4300,
    for one test, and yields it; skips where the interpreter has none."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("interpreter has no int-string digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
