"""Hypothesis strategies for random formulas and whole scripts.

Terms mix sums (x+x among them) and numerals, calls get duplicated and
compound arguments, and every quantifier is guarded below QUANT_BOUND, so
``brute_logic.holds`` with that bound evaluates the formulas exactly.
"""

import functools

from hypothesis import strategies as st

from brute_logic import free_vars
from tmprover.logic import (
    And, Call, Compare, Const, Exists, Forall, Iff, Implies, Not, Or,
    SeqCompare, Sum, Var,
)

QUANT_BOUND = 4
BOUND_VARS = ("z", "w")
SCRIPT_VARS = ("i", "j", "k", "n")
RELOPS = ("=", "!=", "<", "<=", ">", ">=")
_CONNECTIVES = {And: "&", Or: "|", Implies: "=>", Iff: "<=>"}


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
        st.builds(Compare, term, st.sampled_from(RELOPS), term),
        st.builds(SeqCompare, term, st.sampled_from(["=", "!="]),
                  term | st.sampled_from([0, 1])),
        st.builds(lambda a, b: Call("lt", (a, b)), term, term),
        term.map(lambda t: Call("lt", (t, t))))


def _guarded(z, body, exists):
    """``Ez (z<c & body)`` or ``Az (z<c => body)``, with c <= QUANT_BOUND."""
    guard = st.integers(0, QUANT_BOUND).map(
        lambda c: Compare(Var(z), "<", Const(c)))
    if exists:
        return st.builds(lambda g, b: Exists(z, And(g, b)), guard, body)
    return st.builds(lambda g, b: Forall(z, Implies(g, b)), guard, body)


def formulas(names, depth):
    """Formulas over the two free ``names``, nested ``depth`` deep."""
    atom = atoms(names)
    if depth == 0:
        return atom
    sub = formulas(names, depth - 1)
    z = BOUND_VARS[len(names) - 2]
    scoped = formulas(names + (z,), depth - 1)
    return st.one_of(
        atom, st.builds(Not, sub),
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([And, Or, Implies, Iff]), sub, sub),
        _guarded(z, scoped, True), _guarded(z, scoped, False))


def source(f) -> str:
    """Script text of formula or term ``f``, parenthesized so that
    ``parse_formula`` reads ``f`` back.  The grammar reads ``a+b+c`` as
    ``a+(b+c)``, so a sum's left operand must not be a sum."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return str(f.value)
    if isinstance(f, Sum):
        assert not isinstance(f.left, Sum), f
        return f"{source(f.left)}+{source(f.right)}"
    if isinstance(f, Compare):
        return f"{source(f.left)}{f.op}{source(f.right)}"
    if isinstance(f, SeqCompare):
        right = (f.right if isinstance(f.right, int)
                 else f"T[{source(f.right)}]")
        return f"T[{source(f.left)}]{f.op}{right}"
    if isinstance(f, Call):
        return f"${f.name}({','.join(map(source, f.args))})"
    if isinstance(f, Not):
        return f"~({source(f.body)})"
    if isinstance(f, (Exists, Forall)):
        return f"({'E' if isinstance(f, Exists) else 'A'}{f.var} " \
               f"{source(f.body)})"
    return f"({source(f.left)}){_CONNECTIVES[type(f)]}({source(f.right)})"


@functools.lru_cache(maxsize=None)
def script_formulas(names, defs, depth):
    """Formulas over ``names`` that may call the predicates of ``defs``, a
    tuple of (name, arity) pairs, with permuted, repeated or ``x+1``
    arguments; nested ``depth`` deep.  Cached: building a strategy costs
    more than drawing from it."""
    arg = st.sampled_from(
        [Var(v) for v in names] + [Sum(Var(v), Const(1)) for v in names])
    term = terms(names)
    atom = st.one_of(
        st.builds(Compare, term, st.sampled_from(RELOPS), term),
        st.builds(SeqCompare, term, st.sampled_from(["=", "!="]),
                  term | st.sampled_from([0, 1])),
        *[st.tuples(*[arg] * arity).map(
            lambda args, name=name: Call(name, args))
          for name, arity in defs])
    if depth == 0:
        return atom
    sub = script_formulas(names, defs, depth - 1)
    z = BOUND_VARS[depth - 1]
    scoped = script_formulas(names + (z,), defs, depth - 1)
    return st.one_of(
        atom, st.builds(Not, sub),
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from(list(_CONNECTIVES)), sub, sub),
        _guarded(z, scoped, True), _guarded(z, scoped, False))


@st.composite
def def_chain_scripts(draw):
    """Script text: 2-4 ``def``s over 2-4 of SCRIPT_VARS, each body able
    to call the earlier ones, then a closed and a counting ``eval`` that
    call them too.  Half the defs join two formulas by a connective, and
    the def after such a one may restate its operands under another
    connective, so that equal operands meet different connectives."""
    defs, lines, body = (), [], None
    for d in range(draw(st.integers(2, 4))):
        names = tuple(sorted(draw(st.sets(st.sampled_from(SCRIPT_VARS),
                                          min_size=2, max_size=4))))
        if type(body) in _CONNECTIVES and draw(st.booleans()):
            other = draw(st.sampled_from([c for c in _CONNECTIVES
                                          if c is not type(body)]))
            body = other(body.left, body.right)
        elif draw(st.booleans()):
            sub = script_formulas(names, defs, 1)
            body = draw(st.sampled_from(list(_CONNECTIVES)))(draw(sub),
                                                             draw(sub))
        else:
            body = draw(script_formulas(names, defs, 2))
        lines.append(f'def p{d} "{source(body)}":')
        defs += ((f"p{d}", len(free_vars(body))),)
    closed = draw(_guarded("i", _guarded(
        "j", script_formulas(("i", "j"), defs, 1), draw(st.booleans())),
        draw(st.booleans())))
    lines.append(f'eval closed "{source(closed)}":')
    counted = draw(script_formulas(("i", "n"), defs, 1))
    lines.append(f'eval counted n "i<=n & ({source(counted)})":')
    return "\n".join(lines) + "\n"
