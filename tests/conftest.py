"""Fixtures shared by the test modules."""

import sys

import pytest

from tmprover import automata as au


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


@pytest.fixture
def corrupt_sequence_machine(monkeypatch):
    """A function that, once called, replaces the sequence machine for the
    rest of the test with a faulty one: a sticky 1, which reads 1 at every
    k >= 1 instead of at odd parity."""
    def seq_const(u, bit):
        return au.minimize(au.MultiTrackAutomaton(
            (u,), ((0, 1), (1, 1)), 0, {bit}))

    return lambda: monkeypatch.setattr(au, "seq_const", seq_const)
