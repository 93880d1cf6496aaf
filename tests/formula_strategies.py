"""Hypothesis strategies for random formulas over two free variables.

Terms mix sums (x+x among them) and numerals, calls of $lt get duplicated
and compound arguments, and every quantifier is guarded below QUANT_BOUND,
so ``brute_logic.holds`` with that bound evaluates the formulas exactly.
"""

from hypothesis import strategies as st

from tmprover.logic import (
    And, Call, Compare, Const, Exists, Forall, Iff, Implies, Not, Or,
    SeqCompare, Sum, Var,
)

QUANT_BOUND = 4
BOUND_VARS = ("z", "w")


def terms(names):
    leaf = st.one_of(st.sampled_from(names).map(Var),
                     st.integers(0, 3).map(Const))
    return st.one_of(
        leaf,
        st.sampled_from(names).map(lambda v: Sum(Var(v), Var(v))),
        st.builds(Sum, leaf, st.builds(Sum, leaf, leaf) | leaf))


def atoms(names):
    term = terms(names)
    return st.one_of(
        st.builds(Compare, term, st.sampled_from(["=", "!=", "<", "<=", ">",
                                                  ">="]), term),
        st.builds(SeqCompare, term, st.sampled_from(["=", "!="]),
                  term | st.sampled_from([0, 1])),
        st.builds(lambda a, b: Call("lt", (a, b)), term, term),
        term.map(lambda t: Call("lt", (t, t))))


def formulas(names, depth):
    """Formulas over the two free ``names``, nested ``depth`` deep."""
    atom = atoms(names)
    if depth == 0:
        return atom
    sub = formulas(names, depth - 1)
    z = BOUND_VARS[len(names) - 2]
    scoped = formulas(names + (z,), depth - 1)
    guard = st.integers(0, QUANT_BOUND).map(
        lambda c: Compare(Var(z), "<", Const(c)))
    return st.one_of(
        atom, st.builds(Not, sub),
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([And, Or, Implies, Iff]), sub, sub),
        st.builds(lambda g, body: Exists(z, And(g, body)), guard, scoped),
        st.builds(lambda g, body: Forall(z, Implies(g, body)), guard, scoped))
