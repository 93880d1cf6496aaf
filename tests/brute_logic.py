"""Window-scanning implementations of the script predicates.

Each function computes the documented meaning of the correspondingly named
predicate by direct string operations on an explicit prefix: the
independent oracle the compiled automata are checked against.  Quantified
positions are bounded by the window, which is ample for the argument
ranges exercised in the tests.
"""

import operator

from tmprover import logic
from tmprover.core import generate_prefix, tm_bit

WINDOW = 1 << 10
PREFIX = generate_prefix(WINDOW)
_COMP = str.maketrans("01", "10")


def feq(i, j, n):
    return PREFIX[i:i + n] == PREFIX[j:j + n]


def feqc(i, j, n):
    return PREFIX[i:i + n] == PREFIX[j:j + n].translate(_COMP)


def either(i, j, n):
    return feq(i, j, n) or feqc(i, j, n)


def consec(i, j, k, n):
    return (j < k and either(i, j, n) and either(i, k, n)
            and all(not either(i, p, n) for p in range(j + 1, k)))


def ab(i, j, k, n):
    return feq(i, j, n) and feqc(i, k, n)


def abb(i, j, k, l, n):
    return feq(i, j, n) and feqc(i, k, n) and feqc(i, l, n)


def bba(i, j, k, l, n):
    return feqc(i, j, n) and feqc(i, k, n) and feq(i, l, n)


def baa(i, j, k, l, n):
    return feqc(i, j, n) and feq(i, k, n) and feq(i, l, n)


def aab(i, j, k, l, n):
    return feq(i, j, n) and feq(i, k, n) and feqc(i, l, n)


def first(i, j, n):
    return feq(i, j, n) and all(not feq(i, p, n) for p in range(j))


def firstc(i, j, n):
    return feqc(i, j, n) and all(not feqc(i, p, n) for p in range(j))


def first_pos(i, n):
    return next(p for p in range(WINDOW - n + 1) if feq(i, p, n))


def firstc_pos(i, n):
    return next(p for p in range(WINDOW - n + 1) if feqc(i, p, n))


def afirst(i, n):
    return first_pos(i, n) < firstc_pos(i, n)


def abfirst(i, n):
    fa, fc = first_pos(i, n), firstc_pos(i, n)
    return fa < fc and all(not either(i, p, n) for p in range(fa + 1, fc))


def firstocc(i, n):
    return all(not feq(i, p, n) for p in range(i))


def _labels(i, n, limit=64):
    out = []
    for p in range(WINDOW - n + 1):
        if feq(i, p, n):
            out.append("A")
        elif feqc(i, p, n):
            out.append("B")
        if len(out) >= limit:
            break
    return "".join(out)


def abpat(i, n):
    if n < 1:
        return False
    labels = _labels(i, n)
    alternating = all(x != y for x, y in zip(labels, labels[1:]))
    return afirst(i, n) and alternating


def bapat(i, n):
    if n < 1:
        return False
    labels = _labels(i, n)
    alternating = all(x != y for x, y in zip(labels, labels[1:]))
    return (not afirst(i, n)) and alternating


def _triples_ok(labels):
    allowed = {"ABB", "BBA", "BAA", "AAB"}
    return all(labels[t:t + 3] in allowed for t in range(len(labels) - 2))


def abbapat(i, n):
    if n < 1:
        return False
    return abfirst(i, n) and _triples_ok(_labels(i, n))


def baabpat(i, n):
    if n < 1:
        return False
    return (not abfirst(i, n)) and _triples_ok(_labels(i, n))


# ---------------------------------------------------------------------------
# Direct evaluation of formula syntax trees


_RELATIONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def term_value(term, values):
    if isinstance(term, logic.Var):
        return values[term.name]
    if isinstance(term, logic.Const):
        return term.value
    return term_value(term.left, values) + term_value(term.right, values)


def term_vars(term) -> set[str]:
    if isinstance(term, logic.Var):
        return {term.name}
    if isinstance(term, logic.Const):
        return set()
    return term_vars(term.left) | term_vars(term.right)


def free_vars(f) -> set[str]:
    """The free variables of formula ``f``, read off its syntax tree."""
    if isinstance(f, logic.Compare):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, logic.SeqCompare):
        right = set() if isinstance(f.right, int) else term_vars(f.right)
        return term_vars(f.left) | right
    if isinstance(f, logic.Not):
        return free_vars(f.body)
    if isinstance(f, (logic.And, logic.Or, logic.Implies, logic.Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (logic.Forall, logic.Exists)):
        return free_vars(f.body) - {f.var}
    if isinstance(f, logic.Call):
        return set().union(*map(term_vars, f.args))
    raise TypeError(f"not a formula: {f!r}")


def holds(f, values, predicates, bound):
    """Truth of formula ``f`` with its free variables set by ``values``.

    ``predicates`` maps a called name to a Python function of its argument
    values.  Quantified variables range over [0, bound), which is exact when
    every quantifier body confines its variable below ``bound``, as in
    ``Ez (z<c & ...)`` and ``Az (z<c => ...)`` with c <= bound.
    """
    if isinstance(f, logic.Compare):
        return _RELATIONS[f.op](term_value(f.left, values),
                                term_value(f.right, values))
    if isinstance(f, logic.SeqCompare):
        left = tm_bit(term_value(f.left, values))
        right = (f.right if isinstance(f.right, int)
                 else tm_bit(term_value(f.right, values)))
        return _RELATIONS[f.op](left, right)
    if isinstance(f, logic.Call):
        return predicates[f.name](*(term_value(t, values) for t in f.args))
    if isinstance(f, logic.Not):
        return not holds(f.body, values, predicates, bound)
    if isinstance(f, (logic.And, logic.Or, logic.Implies, logic.Iff)):
        left = holds(f.left, values, predicates, bound)
        right = holds(f.right, values, predicates, bound)
        if isinstance(f, logic.And):
            return left and right
        if isinstance(f, logic.Or):
            return left or right
        if isinstance(f, logic.Implies):
            return not left or right
        return left == right
    if isinstance(f, (logic.Exists, logic.Forall)):
        witnesses = (holds(f.body, {**values, f.var: v}, predicates, bound)
                     for v in range(bound))
        return any(witnesses) if isinstance(f, logic.Exists) else all(witnesses)
    raise TypeError(f"not a formula: {f!r}")
