"""Tests for the exact-rational counting representations."""

import functools
import importlib.resources
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_logic as brute
from dense_rep import dense_value, digits_of, times
from formula_strategies import QUANT_BOUND, formulas
from random_machines import empty, zero_close
from tmprover import automata as au
from tmprover import core, linrep, logic
from tmprover.logic import And, Compare, Const, Or, Sum, Var, compile_formula
from tmprover.linrep import (
    CHUNK, LinearRepresentation, NoncountableError, counting_query,
    equal_reps, evaluate, extract_counting, from_recurrence_a006165,
    from_recurrence_a060973, load_representation, minimize_rep,
    reference_count_ab, reference_count_abba, reverse_rep, scale, subtract,
)

FIXTURES = importlib.resources.files("tmprover") / "fixtures"
COUNT_SCRIPT = (FIXTURES / "paper_count.wal").read_text()
LR_FIXTURES = ("count_ab.lr", "count_abba.lr", "seq_a006165.lr",
               "seq_a060973.lr")

F_TABLE = [0, 2, 2, 4, 4, 6, 8, 8, 8, 10, 12, 14, 16, 16, 16]
G_TABLE = [0, 0, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6]


def a006165_from_zero(n):
    # The even-index recurrence forces a(0) = 1; the public accessor starts
    # at the OEIS offset 1.
    return 1 if n == 0 else core.a006165(n)


@pytest.fixture(scope="module")
def extracted():
    report = logic.run_script(COUNT_SCRIPT)
    out = {}
    for name in ("mab", "mabba"):
        machine = report.result(name).automaton
        out[name] = extract_counting(counting_query(machine, "i", "n"))
    return out


def random_rep(rng, dim=3) -> LinearRepresentation:
    def num():
        return Fraction(rng.randint(-2, 2))
    return LinearRepresentation(
        tuple(num() for _ in range(dim)),
        tuple(tuple(tuple(num() for _ in range(dim)) for _ in range(dim))
              for _ in (0, 1)),
        tuple(num() for _ in range(dim)))


def test_digits_of():
    assert digits_of(0, True) == []
    assert digits_of(6, True) == [1, 1, 0]
    assert digits_of(6, False) == [0, 1, 1]
    with pytest.raises(ValueError,
                       match="representation arguments are nonnegative"):
        evaluate(from_recurrence_a006165(), -1)


def test_fixture_matrices_as_displayed():
    r2 = from_recurrence_a006165()
    assert r2.msd_first
    assert r2.v == (1, 1, 1, 0)
    assert r2.w == (1, 0, 0, 0)
    r4 = from_recurrence_a060973()
    assert r4.gamma[0][0] == (2, 1, 0, 0)
    assert r4.v == (0, 0, 1, 0)
    r1 = reference_count_ab()
    assert r1.v == (1, 0, 0, 0)
    assert r1.w == (0, 1, 1, 0)
    r3 = reference_count_abba()
    assert r3.dim == 6
    assert r3.w == (0, 0, 0, 0, 1, 1)


def test_recurrence_fixtures_match_sequences():
    r2 = from_recurrence_a006165()
    r4 = from_recurrence_a060973()
    assert evaluate(r2, 7) == 4
    assert evaluate(r4, 4) == 2
    for n in range(513):
        assert evaluate(r2, n) == a006165_from_zero(n), n
        assert evaluate(r4, n) == core.a060973(n), n


def test_empty_word_value_is_v_dot_w():
    r = random_rep(random.Random(5))
    assert evaluate(r, 0) == sum(a * b for a, b in zip(r.v, r.w))


def test_load_rejects_malformed():
    with pytest.raises(ValueError):
        load_representation("dim 2\norder msd\n1 2")
    with pytest.raises(ValueError):
        load_representation("order msd\ndim 2\n1 2 3")


@pytest.mark.parametrize("text,message", [
    ("order lsd\ndim -1\n", "dim must be nonnegative"),
    ("order foo\ndim 1\n1\n1\n1\n1\n", "order must be"),
    ("order lsd\ndim 1\n1/0\n1\n1\n1\n", "zero denominator"),
], ids=["negative-dim", "unknown-order", "zero-denominator"])
def test_load_rejects_bad_values(text, message):
    with pytest.raises(ValueError, match=message):
        load_representation(text)


def test_extraction_matches_tables(extracted):
    for n in range(15):
        assert evaluate(extracted["mab"], n) == F_TABLE[n], n
        assert evaluate(extracted["mabba"], n) == G_TABLE[n], n


def test_extraction_matches_brute_counts_to_512(extracted):
    for n, classes in enumerate(core.classify_lengths(513, window=1 << 15)):
        counts = Counter(classes.values())
        assert evaluate(extracted["mab"], n) == counts[core.PatternClass.AB], n
        if n <= 256:
            assert evaluate(extracted["mabba"], n) == \
                counts[core.PatternClass.ABBA], n


def test_counting_rep_spot_values(extracted):
    assert evaluate(extracted["mab"], 6) == 8
    assert evaluate(extracted["mabba"], 8) == 4


def test_stabilization_certificate(extracted):
    # The gamma(0) limit absorbed into v must be a genuine fixed point.
    for rep in extracted.values():
        dim = rep.dim
        image = tuple(sum(rep.v[i] * rep.gamma[0][i][j] for i in range(dim))
                      for j in range(dim))
        assert image == rep.v
        assert rep.msd_first


def test_extraction_of_empty_automaton():
    machine = empty(("i", "n"))
    rep = extract_counting(counting_query(machine, "i", "n"))
    assert rep.dim == 0
    assert all(evaluate(rep, n) == 0 for n in range(20))


def test_noncountable_detected():
    # i unconstrained for every n: infinitely many counted values.
    machine = au.complement(empty(("i", "n")))
    with pytest.raises(NoncountableError,
                       match="infinitely many 'i' for some 'n'"):
        extract_counting(counting_query(machine, "i", "n"))
    lt = au.rename_tracks(au.comparison("x", "y", "<"),
                          {"x": "n", "y": "i"})  # n < i
    with pytest.raises(NoncountableError):
        extract_counting(counting_query(lt, "i", "n"))


def test_counting_bounded_relation():
    # i <= n has exactly n + 1 solutions.
    le = au.product(au.comparison("x", "y", "="),
                    au.comparison("x", "y", "<"), "or")
    le = au.rename_tracks(le, {"x": "i", "y": "n"})
    rep = extract_counting(counting_query(le, "i", "n"))
    for n in range(200):
        assert evaluate(rep, n) == n + 1


def test_counting_query_validation():
    with pytest.raises(ValueError, match="'n' is not free"):
        counting_query(au.complement(empty(("i",))), "i", "n")
    with pytest.raises(ValueError, match="'m' is not free"):
        counting_query(au.complement(empty(("i", "n"))), "i", "m")
    with pytest.raises(ValueError, match="exactly two free variables"):
        counting_query(au.complement(empty(("n",))), "i", "n")
    for counted in ("n", "x"):
        with pytest.raises(ValueError, match="not the other free variable"):
            counting_query(au.complement(empty(("i", "n"))), counted, "n")


def test_subtract_and_scale():
    r2 = from_recurrence_a006165()
    double = scale(r2, 2)
    diff = subtract(double, r2)
    for n in range(64):
        assert evaluate(double, n) == 2 * evaluate(r2, n)
        assert evaluate(diff, n) == evaluate(r2, n)


def test_subtract_aligns_digit_orders():
    # The second operand is reversed into the first one's digit order.
    r2, r4 = from_recurrence_a006165(), from_recurrence_a060973()
    for a, b in ((r2, reverse_rep(r4)), (reverse_rep(r2), r4)):
        diff = subtract(a, b)
        assert diff.msd_first == a.msd_first
        for n in range(64):
            assert evaluate(diff, n) == evaluate(r2, n) - evaluate(r4, n), n


def test_reverse_rep_reverses_words():
    rng = random.Random(3)
    rep = random_rep(rng)
    rev = reverse_rep(rep)
    for word in ([], [1], [0, 1], [1, 1, 0], [0, 0, 1, 1]):
        assert dense_value(rep.v, rep.gamma, rep.w, word) == \
            dense_value(rev.v, rev.gamma, rev.w, word[::-1])
    assert rev.msd_first != rep.msd_first


def test_minimize_self_difference_rank_zero():
    rng = random.Random(17)
    for _ in range(20):
        r = random_rep(rng)
        assert minimize_rep(subtract(r, r)).dim == 0


def test_minimize_preserves_values():
    rng = random.Random(23)
    for _ in range(100):
        r = random_rep(rng, dim=rng.randint(1, 4))
        m = minimize_rep(r)
        assert m.dim <= r.dim
        for n in range(513):
            assert evaluate(m, n) == evaluate(r, n)


def test_rank_invariant_under_zero_padding():
    rng = random.Random(29)
    for _ in range(20):
        r = random_rep(rng)
        zero = LinearRepresentation(
            (Fraction(0),) * 2,
            (((Fraction(0),) * 2,) * 2, ((Fraction(0),) * 2,) * 2),
            (Fraction(0),) * 2, r.msd_first)
        assert minimize_rep(subtract(r, zero)).dim == minimize_rep(r).dim


def test_equal_reps_reflexive_and_decides():
    r2 = from_recurrence_a006165()
    assert equal_reps(r2, r2)
    assert not equal_reps(r2, scale(r2, 2))


def test_equal_reps_matches_word_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        a = random_rep(rng, dim=2)
        b = random_rep(rng, dim=2)
        words = [[]]
        for _ in range(a.dim + b.dim):
            words = words + [w + [d] for w in words for d in (0, 1)]
        brute_equal = all(dense_value(a.v, a.gamma, a.w, w)
                          == dense_value(b.v, b.gamma, b.w, w) for w in words)
        assert equal_reps(a, b) == brute_equal


def test_counting_identities(extracted):
    mab, mabba = extracted["mab"], extracted["mabba"]
    # The shipped counting matrices agree with the extracted machines.
    assert equal_reps(mab, reference_count_ab())
    assert equal_reps(mabba, reference_count_abba())
    # g(n+1) = A060973(n) everywhere; f(n+1) = 2 A006165(n) fails only at 0.
    assert equal_reps(mabba, from_recurrence_a060973())
    assert not equal_reps(mab, scale(from_recurrence_a006165(), 2))


def test_rank_one_defect_at_zero(extracted):
    lsd_a006165 = reverse_rep(scale(from_recurrence_a006165(), 2))
    diff = minimize_rep(subtract(extracted["mab"], lsd_a006165))
    assert diff.dim == 1
    assert evaluate(diff, 0) == -2
    assert all(evaluate(diff, n) == 0 for n in range(1, 513))


def test_rank_zero_identity(extracted):
    lsd_a060973 = reverse_rep(from_recurrence_a060973())
    diff = minimize_rep(subtract(extracted["mabba"], lsd_a060973))
    assert diff.dim == 0


def test_counting_reps_read_msd_first(extracted):
    # Counting representations read MSD first, like the automata and the
    # shipped fixtures, so a fixture subtracts from them as it is.
    report = logic.run_script(COUNT_SCRIPT)
    for name, rep in extracted.items():
        assert rep.msd_first is True
        assert report.result(name).rep == rep
    r2 = scale(from_recurrence_a006165(), 2)
    assert minimize_rep(subtract(extracted["mab"], r2)).dim == 1


def test_integer_reduction_stays_exact_with_rational_entries(extracted):
    r2 = from_recurrence_a006165()
    third = scale(r2, Fraction(1, 3))
    assert equal_reps(third, scale(r2, Fraction(2, 6)))
    # One entry moved by 1/3, in w and in gamma(1): the series differ.
    w = (third.w[0] + Fraction(1, 3),) + third.w[1:]
    gamma1 = ((third.gamma[1][0][0] + Fraction(1, 3),)
              + third.gamma[1][0][1:],) + third.gamma[1][1:]
    for changed in (LinearRepresentation(third.v, third.gamma, w, True),
                    LinearRepresentation(third.v, (third.gamma[0], gamma1),
                                         third.w, True)):
        assert any(evaluate(changed, n) != evaluate(third, n)
                   for n in range(64))
        assert not equal_reps(third, changed)
        assert not equal_reps(changed, third)
    # A third of the rank-1 difference still reduces from 8 (mab's 4 plus
    # A006165's 4) to 1.
    diff = subtract(scale(extracted["mab"], Fraction(1, 3)),
                    reverse_rep(scale(r2, Fraction(2, 3))))
    rank1 = minimize_rep(diff)
    assert (diff.dim, rank1.dim) == (8, 1)
    assert evaluate(rank1, 0) == Fraction(-2, 3)
    for n in range(513):
        assert evaluate(rank1, n) == evaluate(diff, n), n


# ---------------------------------------------------------------------------
# The sparse integer kernel against a dense Fraction product


@st.composite
def fraction_entries(draw):
    """(v, gamma, w, msd_first) with Fraction entries, some non-integral,
    dims 0-5 and some all-zero matrix rows."""
    dim = draw(st.integers(0, 5))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-3, 3),
                                st.integers(1, 3)))
    vector = st.lists(entry, min_size=dim, max_size=dim).map(tuple)

    def matrix():
        rows = draw(st.lists(vector, min_size=dim, max_size=dim))
        zero = draw(st.sets(st.integers(0, max(dim - 1, 0)), max_size=dim))
        return tuple((Fraction(0),) * dim if i in zero else row
                     for i, row in enumerate(rows))

    return (draw(vector), (matrix(), matrix()), draw(vector),
            draw(st.booleans()))


@given(fraction_entries())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_dense_fraction_product(entries):
    v, gamma, w, msd = entries
    rep = LinearRepresentation(v, gamma, w, msd)
    # Integral entries are held as int, the rest as Fraction; either way
    # the representation equals, and hashes as, its all-Fraction entries.
    for x in rep.v + rep.w + sum(rep.gamma[0] + rep.gamma[1], ()):
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
    assert (rep.v, rep.gamma, rep.w) == (v, gamma, w)
    assert hash(rep) == hash((v, gamma, w, msd))
    mixed = LinearRepresentation(
        tuple(int(x) if x.denominator == 1 else x for x in v), gamma, w, msd)
    assert mixed == rep and hash(mixed) == hash(rep)
    # v . gamma(word) for the digits of every n < 256: each word extends
    # a shorter one by one vector-matrix product.
    prefix = {(): list(v)}

    def row(word):
        if word not in prefix:
            prefix[word] = times(row(word[:-1]), gamma[word[-1]])
        return prefix[word]

    for n in range(256):
        x = row(tuple(digits_of(n, msd)))
        assert evaluate(rep, n) == sum((a * b for a, b in zip(x, w)),
                                       Fraction(0)), n


def _chunk_test_reps(extracted):
    """Every fixture, the extracted machines and a representation with
    non-integral entries, each also reversed."""
    rng = random.Random(37)

    def num():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    rational = LinearRepresentation(
        tuple(num() for _ in range(3)),
        tuple(tuple(tuple(num() for _ in range(3)) for _ in range(3))
              for _ in (0, 1)),
        tuple(num() for _ in range(3)))
    assert any(type(x) is Fraction for row in rational.gamma[1] for x in row)
    reps = dict(extracted, rational=rational)
    for name in LR_FIXTURES:
        reps[name] = load_representation((FIXTURES / name).read_text())
    return reps | {name + " reversed": reverse_rep(rep)
                   for name, rep in reps.items()}


def test_chunk_boundaries_match_dense_products(extracted):
    """Values across the edges of CHUNK-digit chunks, in both digit
    orders, against the dense product of the canonical digits."""
    rng = random.Random(41)
    edges = [0, 1] + [(1 << (CHUNK * j)) + e for j in (1, 2, 3)
                      for e in (-1, 0, 1)]
    ns = edges + [rng.randrange(1 << 70) for _ in range(200)]
    for name, rep in _chunk_test_reps(extracted).items():
        for n in ns:
            want = dense_value(rep.v, rep.gamma, rep.w,
                               digits_of(n, rep.msd_first))
            assert evaluate(rep, n) == want, (name, n)


def test_chunk_table_is_bounded_and_invisible(extracted):
    rng = random.Random(43)
    for source in (extracted["mab"], from_recurrence_a060973()):
        rep, fresh = (LinearRepresentation(source.v, source.gamma, source.w,
                                           source.msd_first)
                      for _ in range(2))
        for _ in range(5000):
            evaluate(rep, rng.randrange(1 << 200))
        assert all(0 < len(kind) <= 2 ** (CHUNK + 1) for kind in rep.chunks)
        assert fresh.chunks == ({}, {})
        assert rep == fresh and hash(rep) == hash(fresh)
        assert repr(rep) == repr(fresh)


@pytest.mark.parametrize("name", LR_FIXTURES)
def test_fixture_dump_is_the_file_body(name):
    """The loaded representation holds exactly the file body: the order
    and dim header, then every entry of v, gamma(0), gamma(1) and w in
    file order."""
    text = (FIXTURES / name).read_text()
    tokens = " ".join(line for line in text.splitlines()
                      if not line.startswith("#")).split()
    rep = load_representation(text)
    assert tokens[:4] == ["order", "msd" if rep.msd_first else "lsd",
                          "dim", str(rep.dim)]
    entries = [*rep.v, *(x for d in (0, 1) for row in rep.gamma[d]
                         for x in row), *rep.w]
    assert entries == [Fraction(t) for t in tokens[4:]]


# ---------------------------------------------------------------------------
# Counting representations of generated formulas against direct counts


def _counting_query(f):
    env = {"lt": au.comparison("x", "y", "<")}
    return counting_query(compile_formula(f, env), "i", "n")


@given(st.integers(0, 3), formulas(("i", "n"), 2))
@settings(max_examples=100, deadline=None)
def test_counting_matches_direct_counts(c, phi):
    # i < n + c bounds the counted variable, so every count is finite.
    f = And(Compare(Var("i"), "<", Sum(Var("n"), Const(c))), phi)
    rep = extract_counting(_counting_query(f))
    lt = {"lt": lambda a, b: a < b}
    for n in range(64):
        want = sum(brute.holds(f, {"i": i, "n": n}, lt, QUANT_BOUND)
                   for i in range(n + c))
        assert evaluate(rep, n) == want, (f, n)


@given(st.integers(0, 3), formulas(("i", "n"), 2))
@settings(max_examples=40, deadline=None)
def test_unbounded_counted_variable_is_noncountable(c, phi):
    # Every i > n + c satisfies f, whatever phi says.
    f = Or(Compare(Var("i"), ">", Sum(Var("n"), Const(c))), phi)
    with pytest.raises(NoncountableError):
        extract_counting(_counting_query(f))


# ---------------------------------------------------------------------------
# The gamma(0) limit as the only guard against infinite counts


def _pumps_counted_values(a, counted_pos) -> bool:
    """Reference: a live state on a cycle of zero parameter digits, reached
    by such digits from the initial state after a counted 1.  The machine
    reads MSD first, so these digits are leading zeros of the parameter,
    and pumping the cycle after that 1 gives one parameter infinitely many
    counted values."""
    zero_syms = [b << counted_pos for b in (0, 1)]

    def closure(starts, symbols):
        """States reached from ``starts`` in zero or more steps."""
        seen = set(starts)
        stack = list(seen)
        while stack:
            row = a.transitions[stack.pop()]
            for s in symbols:
                if row[s] not in seen:
                    seen.add(row[s])
                    stack.append(row[s])
        return seen

    one = a.transitions[a.initial][1 << counted_pos]
    for q in closure({one}, zero_syms):
        row = a.transitions[q]
        if (q in closure({row[s] for s in zero_syms}, zero_syms)
                and closure({q}, range(4)) & a.accepting):
            return True
    return False


@functools.lru_cache(maxsize=None)
def _bound(counted, parameter, c):
    return compile_formula(f"{counted} <= {parameter} + {c}")


@st.composite
def zero_closed_queries(draw):
    """A random two-track machine made zero-closed, with its counted and
    parameter tracks.  Half the time it is conjoined with counted <=
    parameter + c, so that many counts are finite and need several gamma(0)
    steps to settle."""
    n = draw(st.integers(1, 6))
    trans = [[draw(st.integers(0, n - 1)) for _ in range(4)]
             for _ in range(n)]
    accepting = {q for q in range(n) if draw(st.booleans())}
    machine = zero_close(au.MultiTrackAutomaton(("i", "n"), trans, 0,
                                                   accepting))
    counted, parameter = draw(st.sampled_from([("i", "n"), ("n", "i")]))
    c = draw(st.none() | st.integers(0, 40))
    if c is not None:
        machine = au.product(machine, _bound(counted, parameter, c), "and")
    return counting_query(machine, counted, parameter)


@given(zero_closed_queries())
@settings(max_examples=300, deadline=None)
def test_limit_loop_rejects_exactly_the_pumping_cycles(query):
    try:
        extract_counting(query)
        raised = False
    except NoncountableError:
        raised = True
    a = query.automaton
    assert raised == _pumps_counted_values(a, a.track_index(query.counted))


def test_counting_query_rejects_machines_not_zero_closed():
    # Accepts only the encodings of (0, 0) with an odd number of digits.
    odd = au.MultiTrackAutomaton(("i", "n"), [[1, 2, 2, 2], [0, 2, 2, 2],
                                              [2, 2, 2, 2]], 0, {1})
    assert not au.is_zero_closed(odd)
    with pytest.raises(ValueError, match="zero-closed"):
        counting_query(odd, "i", "n")


def test_span_closure_check_raises_internal_error(monkeypatch):
    """With a span that misses a vector, the forward reduction stops with
    ``InternalError``, an explicit check that ``python -O`` keeps."""
    span = linrep._span
    monkeypatch.setattr(linrep, "_span", lambda rep: span(rep)[:-1])
    with pytest.raises(core.InternalError, match="closure failure"):
        minimize_rep(reference_count_abba())
