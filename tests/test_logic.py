"""Tests for the script parser and the formula-to-automaton compiler."""

import functools
import importlib.resources
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_logic as brute
from formula_strategies import QUANT_BOUND, atoms, formulas
from tmprover import automata as au
from tmprover import logic
from tmprover.core import tm_bit
from tmprover.logic import (
    And, Call, Compare, CompileError, Const, Exists, Forall, Iff, Implies,
    Not, Or, ParseError, ScriptError, SeqCompare, Sum, Var,
    compile_formula, decide, parse_formula, parse_script, run_script,
)

FIXTURES = importlib.resources.files("tmprover") / "fixtures"
THM1 = (FIXTURES / "paper_thm1.wal").read_text()


# ---------------------------------------------------------------------------
# Parsing


def test_parse_forall_implication_scope():
    f = parse_formula("Ak (k<n) => T[i+k]=T[j+k]")
    assert f == Forall("k", Implies(
        Compare(Var("k"), "<", Var("n")),
        SeqCompare(Sum(Var("i"), Var("k")), "=", Sum(Var("j"), Var("k")))))


def test_parse_call_disjunction():
    f = parse_formula("$feq(i,j,n)|$feqc(i,j,n)")
    assert f == Or(Call("feq", (Var("i"), Var("j"), Var("n"))),
                   Call("feqc", (Var("i"), Var("j"), Var("n"))))


def test_parse_trivial_comparison():
    assert parse_formula("x=x") == Compare(Var("x"), "=", Var("x"))


def test_quantifier_scope_inside_conjunction():
    # The quantifier grabs the implication to its right; it must end up as
    # the final conjunct, not wrap the whole formula.
    f = parse_formula("j<k & $e(i,j,n) & Al (j<l & l<k) => ~$e(i,l,n)")
    assert isinstance(f, And)
    assert isinstance(f.right, Forall)
    assert isinstance(f.right.body, Implies)
    assert isinstance(f.right.body.right, Not)


def test_quantifier_scope_stops_at_parenthesis():
    f = parse_formula("(Ak k<n) => x=y")
    assert isinstance(f, Implies)
    assert isinstance(f.left, Forall)


def test_multi_variable_quantifier_desugars():
    f = parse_formula("Aj,k j<k")
    assert f == Forall("j", Forall("k", Compare(Var("j"), "<", Var("k"))))


def test_operator_precedence():
    f = parse_formula("a=0 & b=0 | c=0 => d=0 <=> e=0")
    #  ((a & b) | c) => d, then <=> e, left-assoc at the lowest level
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)
    assert isinstance(f.left.left.left, And)


def test_sequence_comparisons():
    assert parse_formula("T[i]=1") == SeqCompare(Var("i"), "=", 1)
    assert parse_formula("T[i]!=T[j]") == SeqCompare(Var("i"), "!=", Var("j"))
    with pytest.raises(ParseError):
        parse_formula("T[i]<T[j]")
    with pytest.raises(ParseError):
        parse_formula("T[i]=2")
    with pytest.raises(ParseError):
        parse_formula("x=T[i]")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_formula("x =\n* y")
    assert err.value.line == 2
    assert err.value.col == 1


@pytest.mark.parametrize("text, want", [
    ("x\t<\ty", [("NAME", 1, 1), ("LT", 1, 3), ("NAME", 1, 5), ("EOF", 1, 6)]),
    ("x<y\r\n&z", [("NAME", 1, 1), ("LT", 1, 2), ("NAME", 1, 3),
                    ("AND", 2, 1), ("NAME", 2, 2), ("EOF", 2, 3)]),
    ("x=1\n# end", [("NAME", 1, 1), ("EQ", 1, 2), ("INT", 1, 3),
                    ("EOF", 2, 6)]),
    ("a<=>b<=c=>d", [("NAME", 1, 1), ("IFF", 1, 2), ("NAME", 1, 5),
                     ("LE", 1, 6), ("NAME", 1, 8), ("IMPLIES", 1, 9),
                     ("NAME", 1, 11), ("EOF", 1, 12)]),
    ("a<==>b", [("NAME", 1, 1), ("LE", 1, 2), ("IMPLIES", 1, 4),
                ("NAME", 1, 6), ("EOF", 1, 7)]),
    ("aT[x_1]", [("NAME", 1, 1), ("T", 1, 2), ("LBRACK", 1, 3),
                 ("NAME", 1, 4), ("RBRACK", 1, 7), ("EOF", 1, 8)]),
    ("xE 12ab", [("NAME", 1, 1), ("E", 1, 2), ("INT", 1, 4), ("NAME", 1, 6),
                 ("EOF", 1, 8)]),
], ids=["tabs", "crlf", "comment-at-end", "iff-le-implies", "le-then-implies",
        "name-then-T", "name-then-E"])
def test_token_positions(text, want):
    assert [(t.kind, t.line, t.col) for t in logic.tokenize(text)] == want


@pytest.mark.parametrize("text, col", [("x=\u00b2", 5), ("\u00e9=1", 3),
                                       ("x=\u0663", 5)],
                         ids=["superscript-two", "e-acute", "arabic-three"])
def test_names_and_numerals_are_ascii(text, col):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_formula("0=0 &\n  " + text)
    assert (err.value.line, err.value.col) == (2, col)


def test_sums_right_nested():
    assert parse_formula("i+j+k=n").left == Sum(Var("i"), Sum(Var("j"), Var("k")))


def test_parse_script_forms():
    cmds = parse_script(
        '# comment\n'
        'def feq "Ak (k<n) => T[i+k]=T[j+k]":\n'
        'eval gap n "$feq(i,i,n) &\n   i<n":\n'
        'eval truth "0=0":\n')
    assert [c.kind for c in cmds] == ["def", "eval_count", "eval"]
    assert cmds[1].count_var == "n"
    assert cmds[1].formula == parse_formula("$feq(i,i,n) & i<n")


# Reference reading of a script: each command starts a line, and its
# formula is the quoted body with whitespace collapsed.
_COMMAND = re.compile(r'^(def|eval)[ \t]+(\w+)[ \t]*(\w*)[ \t]*"([^"]*)"[ \t]*:',
                      re.MULTILINE)


@pytest.mark.parametrize("name", ["paper_thm1.wal", "paper_thm2.wal",
                                  "paper_count.wal"])
def test_parse_script_matches_fixture_commands(name):
    source = (FIXTURES / name).read_text()
    want = []
    for m in _COMMAND.finditer(source):
        keyword, cmd, var, body = m.groups()
        want.append(("eval_count" if var else keyword, cmd, var or None,
                     source.count("\n", 0, m.start()) + 1,
                     parse_formula(" ".join(body.split()))))
    got = [(c.kind, c.name, c.count_var, c.line, c.formula)
           for c in parse_script(source)]
    assert want and got == want


def test_script_error_reports_file_position():
    source = ('# header\n'
              '\n'
              'def bad "Ak (k<n) =>\n'
              '   T[i+k]=T[j+k] & j<n * 2":\n')
    with pytest.raises(ParseError) as err:
        parse_script(source)
    assert (err.value.line, err.value.col) == (4, 24)
    with pytest.raises(ScriptError, match=r"\(line 4, column 24\)"):
        run_script(source)


def test_comment_line_inside_formula():
    cmds = parse_script('def p "x<y &\n# why\n  y<z":  # trailing\n')
    assert cmds[0].formula == parse_formula("x<y & y<z")


def test_command_name_follows_identifier_rule():
    with pytest.raises(ParseError) as err:
        parse_script('eval Bad "0=0":')
    assert err.value.line == 1


@pytest.mark.parametrize("source", [
    'eval a "0=0":\neval a "0=1":\n',
    'def a "x=0":\neval a "0=0":\n',
], ids=["eval-eval", "def-eval"])
def test_parse_script_rejects_reused_command_name(source):
    with pytest.raises(ParseError, match="'a' is already used") as err:
        parse_script(source)
    assert (err.value.line, err.value.col) == (2, 6)


def test_parse_script_errors():
    with pytest.raises(ParseError):
        parse_script('define x "y=0":')
    with pytest.raises(ParseError):
        parse_script('def x "y=0"')     # missing colon
    with pytest.raises(ParseError):
        parse_script('def x y=0:')      # missing quotes


# ---------------------------------------------------------------------------
# Compilation


def test_compile_feq_examples():
    feq = compile_formula("Ak (k<n) => T[i+k]=T[j+k]")
    assert feq.tracks == ("i", "j", "n")
    assert not au.accepts(feq, [0, 3, 3])
    assert au.accepts(feq, [0, 6, 2])


def test_compile_contradiction_empty():
    machine = compile_formula("x<y & y<x")
    assert au.is_empty(machine)


def test_compile_complement_factor_instance():
    feqc = compile_formula("Ak (k<n) => T[i+k]!=T[j+k]")
    # t[2..4] = 101 and t[3..5] = 010 are complementary; t[5..7] = 001 is not.
    assert au.accepts(feqc, [2, 3, 3])
    assert not au.accepts(feqc, [2, 5, 3])


def test_decide_basics():
    assert decide("Ax x+0=x") is True
    assert decide("Ex x<0") is False
    assert decide("Ax,y x+y=y+x") is True
    assert decide("Ax,y (x<y | x=y | y<x)") is True


def test_decide_rejects_free_variables():
    with pytest.raises(CompileError):
        decide("x=0")


def test_decide_invariant_under_bound_renaming():
    for a, b in (("Ax x+0=x", "Aq q+0=q"),
                 ("Ex,y x<y & T[x]=T[y]", "Ea,b a<b & T[a]=T[b]")):
        assert decide(a) == decide(b)


@pytest.mark.parametrize("formula,tracks,holds", [
    ("T[u]=T[v]", ("u", "v"), lambda u, v: tm_bit(u) == tm_bit(v)),
    ("T[u]!=T[v]", ("u", "v"), lambda u, v: tm_bit(u) != tm_bit(v)),
    ("T[u]=0", ("u",), lambda u, v: tm_bit(u) == 0),
    ("T[u]!=1", ("u",), lambda u, v: tm_bit(u) != 1),
    ("T[u]=T[u]", ("u",), lambda u, v: True),
    ("T[u+1]=T[v]", ("u", "v"), lambda u, v: tm_bit(u + 1) == tm_bit(v)),
], ids=["eq", "ne", "eq0", "ne1", "self", "shifted"])
def test_sequence_comparison_semantics(formula, tracks, holds):
    m = compile_formula(formula)
    assert m.tracks == tracks
    for u in range(64):
        for v in range(64):
            values = {"u": u, "v": v}
            assert au.accepts(m, [values[t] for t in tracks]) == holds(u, v)


def test_trivial_equality_keeps_track():
    m = compile_formula("x=x")
    assert m.tracks == ("x",)
    assert au.is_empty(au.complement(m))


def test_unused_quantified_variable():
    assert decide("Ax 0=0") is True
    assert decide("Ex 1=0") is False


QUANTIFIER_BODIES = ["x<y", "x=y", "T[x]=T[y]", "x+x=y", "T[x]!=T[y] & x<y"]


@pytest.mark.parametrize("body", QUANTIFIER_BODIES)
def test_quantifier_duality(body):
    lhs = compile_formula(f"Ax {body}")
    rhs = au.complement(compile_formula(f"Ex ~({body})"))
    assert au.equivalent(lhs, rhs)


def test_call_with_sum_argument():
    env = logic.PredicateEnv()
    env.bind("less", ("x", "y"), au.comparison("x", "y", "<"))
    machine = compile_formula("$less(i+1, j)", env=env)
    for i in range(20):
        for j in range(20):
            assert au.accepts(machine, [i, j]) == (i + 1 < j)


def test_call_with_permuted_arguments_is_canonical():
    # The renamed machine must be byte-identical to the directly compiled
    # one, not merely equivalent.
    report = run_script('def f "x<y & y+1=z":\neval r "$f(x,z,y)":')
    assert au.to_compact_text(report.result("r").automaton) \
        == au.to_compact_text(compile_formula("x<z & z+1=y"))


def test_call_with_constant_arguments():
    env = logic.PredicateEnv()
    env.bind("less", ("x", "y"), au.comparison("x", "y", "<"))
    assert decide("$less(2, 3)", env=env) is True
    assert decide("$less(3, 3)", env=env) is False


def test_call_with_duplicated_argument():
    env = logic.PredicateEnv()
    env.bind("less", ("x", "y"), au.comparison("x", "y", "<"))
    machine = compile_formula("$less(i, i)", env=env)
    assert machine.tracks == ("i",)
    assert au.is_empty(machine)


def test_call_arity_checked():
    env = logic.PredicateEnv()
    env.bind("less", ("x", "y"), au.comparison("x", "y", "<"))
    with pytest.raises(CompileError):
        compile_formula("$less(i)", env=env)
    with pytest.raises(CompileError):
        compile_formula("$nope(i)", env=env)


@given(st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=50)
def test_compile_arithmetic_atoms(x, y):
    machine = compile_formula("x+3=y")
    assert au.accepts(machine, [x, y]) == (x + 3 == y)


# Random formulas over x, y against direct evaluation.

@given(formulas(("x", "y"), 2))
@settings(max_examples=200, deadline=None)
def test_compiled_formula_matches_direct_evaluation(f):
    env = logic.PredicateEnv()
    env.bind("lt", ("x", "y"), au.comparison("x", "y", "<"))
    machine = compile_formula(f, env)
    assert machine.tracks == tuple(sorted(logic.free_vars(f)))
    for x in range(8):
        for y in range(8):
            values = {"x": x, "y": y}
            want = brute.holds(f, values, {"lt": lambda a, b: a < b},
                               QUANT_BOUND)
            got = au.accepts(machine, [values[t] for t in machine.tracks])
            assert got == want, (f, values)


# Random formulas with nested E and A scopes against direct evaluation.
# An E body is a chain of conjuncts, some with the bound variable and some
# without, so the compiler narrows it; a conjunct may itself be a
# disjunction or a further scope.  Every scope is guarded below
# QUANT_BOUND, so direct evaluation over [0, QUANT_BOUND) is exact.

SCOPE_VARS = ("z", "w", "u")


def _scoped_formulas(names, depth):
    atom = atoms(names)
    if depth == 0:
        return atom
    sub = _scoped_formulas(names, depth - 1)
    z = SCOPE_VARS[len(names) - 2]
    inner = _scoped_formulas(names + (z,), depth - 1)
    guard = st.integers(0, QUANT_BOUND).map(
        lambda c: Compare(Var(z), "<", Const(c)))
    chain = st.lists(inner | sub, min_size=1, max_size=4).map(
        lambda cs: functools.reduce(And, cs))
    return st.one_of(
        atom, st.builds(Not, sub),
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([And, Or, Implies, Iff]), sub, sub),
        st.builds(lambda g, body: Exists(z, And(g, body)), guard, chain),
        st.builds(lambda g, body: Forall(z, Implies(g, body)), guard, inner))


@given(_scoped_formulas(("x", "y"), 3))
@settings(max_examples=300, deadline=None)
def test_narrowed_scopes_match_direct_evaluation(f):
    # A conjunct that reads the bound variable but is kept outside its
    # scope, or a scope whose variable is never projected, leaves that
    # variable's track on the machine.
    env = logic.PredicateEnv()
    env.bind("lt", ("x", "y"), au.comparison("x", "y", "<"))
    machine = compile_formula(f, env)
    assert machine.tracks == tuple(sorted(logic.free_vars(f)))
    lt = {"lt": lambda a, b: a < b}
    for x in range(8):
        for y in range(8):
            values = {"x": x, "y": y}
            want = brute.holds(f, values, lt, QUANT_BOUND)
            got = au.accepts(machine, [values[t] for t in machine.tracks])
            assert got == want, (f, values)


def test_chain_sentences_fit_a_small_cap():
    # Narrowed one variable at a time, a k-variable chain never needs more
    # than three tracks at once; built over all k tracks, the product passes
    # 64 states from k = 10 on.
    names = [f"v{i}" for i in range(24)]
    prefix = "E" + ",".join(names) + " "
    chain = " & ".join(f"{a}<{b}" for a, b in zip(names, names[1:]))
    assert decide(prefix + chain, state_cap=64) is True
    assert decide(prefix + chain + " & v23<v0", state_cap=64) is False


# ---------------------------------------------------------------------------
# Oracle agreement for the full predicate chain


@pytest.fixture(scope="module")
def env_machines():
    report = run_script(THM1)
    return {c.name: c.automaton for c in report.commands if c.kind == "def"}


def grid(*ranges):
    if len(ranges) == 1:
        return [(a,) for a in ranges[0]]
    return [(a, *rest) for a in ranges[0] for rest in grid(*ranges[1:])]


@pytest.mark.parametrize("name,arity", [
    ("feq", 3), ("feqc", 3), ("either", 3), ("first", 3), ("firstc", 3),
])
def test_three_place_predicates_match_brute(env_machines, name, arity):
    machine = env_machines[name]
    oracle = getattr(brute, name)
    for i in range(0, 33, 3):
        for j in range(33):
            for n in range(13):
                assert au.accepts(machine, [i, j, n]) == oracle(i, j, n), \
                    (name, i, j, n)


@pytest.mark.parametrize("name", ["afirst", "abfirst", "abpat", "bapat",
                                  "abbapat", "baabpat"])
def test_two_place_predicates_match_brute(env_machines, name):
    machine = env_machines[name]
    oracle = getattr(brute, name)
    for i in range(33):
        for n in range(13):
            assert au.accepts(machine, [i, n]) == oracle(i, n), (name, i, n)


def test_consec_matches_brute(env_machines):
    machine = env_machines["consec"]
    rng = random.Random(1)
    for _ in range(4000):
        i, j, k = rng.randrange(33), rng.randrange(33), rng.randrange(33)
        n = rng.randrange(13)
        assert au.accepts(machine, [i, j, k, n]) == brute.consec(i, j, k, n)


def test_ab_and_triples_match_brute(env_machines):
    rng = random.Random(2)
    for _ in range(3000):
        i, j, k, l = (rng.randrange(33) for _ in range(4))
        n = rng.randrange(13)
        assert au.accepts(env_machines["ab"], [i, j, k, n]) == brute.ab(i, j, k, n)
        for name in ("abb", "bba", "baa", "aab"):
            assert au.accepts(env_machines[name], [i, j, k, l, n]) == \
                getattr(brute, name)(i, j, k, l, n), (name, i, j, k, l, n)


def test_substitution_soundness(env_machines):
    # Inlining a predicate's body must give the same language as calling it.
    env = logic.PredicateEnv()
    env.bind("feq", ("i", "j", "n"), env_machines["feq"])
    env.bind("feqc", ("i", "j", "n"), env_machines["feqc"])
    either_call = compile_formula("$feq(i,j,n)|$feqc(i,j,n)", env=env)
    assert au.equivalent(either_call, env_machines["either"])

    inlined_consec = compile_formula(
        "j<k & ($feq(i,j,n)|$feqc(i,j,n)) & ($feq(i,k,n)|$feqc(i,k,n)) "
        "& Al (j<l & l<k) => ~($feq(i,l,n)|$feqc(i,l,n))", env=env)
    assert au.equivalent(inlined_consec, env_machines["consec"])


def test_consec_first_argument_variant(env_machines):
    # The shipped abbapat chains consec(i,j,k,n) with consec(j,k,l,n); the
    # variant anchored at i instead of j defines the same predicate.
    env = logic.PredicateEnv()
    for name in ("feq", "feqc", "either", "consec", "first", "firstc",
                 "abfirst", "abb", "bba", "baa", "aab"):
        machine = env_machines[name]
        env.bind(name, machine.tracks, machine)
    variant = compile_formula(
        '(n>0) & $abfirst(i,n) & Aj,k,l ($consec(i,j,k,n) & $consec(i,k,l,n))'
        ' => ($abb(i,j,k,l,n) | $bba(i,j,k,l,n) | $baa(i,j,k,l,n) |'
        ' $aab(i,j,k,l,n))', env=env)
    assert au.equivalent(variant, env_machines["abbapat"])


# ---------------------------------------------------------------------------
# Script execution


def test_run_script_proof_fixture():
    report = run_script(THM1)
    assert report.verdicts() == {"alloccur": "TRUE", "checkeach": "TRUE"}


def test_run_script_trivial():
    report = run_script('def id "x=x":')
    assert len(report.commands) == 1
    assert report.commands[0].kind == "def"
    assert report.verdicts() == {}


def test_run_script_false_sentence():
    report = run_script('eval bogus "Ex x<0":')
    assert report.verdicts() == {"bogus": "FALSE"}


def test_run_script_rebinding_rejected():
    with pytest.raises(ScriptError):
        run_script('def p "x=x":\ndef p "x<x":')


def test_run_script_unknown_predicate():
    with pytest.raises(ScriptError):
        run_script('eval q "$mystery(x)":')


def test_run_script_counting_needs_free_parameter():
    with pytest.raises(ScriptError):
        run_script('eval c z "x<y":')
    with pytest.raises(ScriptError):
        run_script('eval c x "x<y & y<z":')


def test_run_script_records_sizes_and_timing():
    report = run_script('def p "x<y":\neval q "Ex,y x<y":')
    assert all(c.states >= 1 for c in report.commands)
    assert all(c.elapsed_ms >= 0 for c in report.commands)


def test_corrupted_sequence_machine_changes_verdicts():
    # A sequence machine with broken transitions (here: sticky 1, i.e. the
    # indicator of k >= 1) must change the compiled predicates and flip the
    # proof verdicts.  Note an output *flip* would be invisible: the chain
    # only ever compares sequence values with each other.
    bad_dfao = au.Dfao(((0, 1), (1, 1)), 0, (0, 1))
    good = run_script(THM1)
    bad = run_script(THM1, dfao=bad_dfao)
    assert not au.equivalent(good.result("feq").automaton,
                             bad.result("feq").automaton)
    assert bad.verdicts() == {"alloccur": "FALSE", "checkeach": "FALSE"}
