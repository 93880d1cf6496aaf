"""Tests for the multi-track automaton algebra."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_automata as ref
from random_machines import empty, random_machine, zero_close
from tmprover import automata as au
from tmprover import core, logic
from tmprover.core import tm_bit


def test_base_add_accepts_sums():
    add = au.adder("x", "y", "z")
    assert au.accepts(add, [3, 5, 8])
    assert au.accepts(add, [5, 6, 11])
    assert au.accepts(add, [0, 0, 0])
    assert not au.accepts(add, [3, 5, 9])


def test_base_lt_irreflexive():
    lt = au.comparison("x", "y", "<")
    assert not au.accepts(lt, [2, 2])
    assert au.accepts(lt, [2, 3])
    assert not au.accepts(lt, [3, 2])


def test_eq_and_lt_disjoint():
    both = au.product(au.comparison("x", "y", "="),
                      au.comparison("x", "y", "<"), "and")
    assert au.is_empty(both)


def test_le_from_union():
    le = au.product(au.comparison("x", "y", "="),
                    au.comparison("x", "y", "<"), "or")
    direct = au.comparison("x", "y", "<=")
    assert au.equivalent(le, direct)


@given(st.integers(0, 400), st.integers(0, 400))
@settings(max_examples=80)
def test_comparisons_pointwise(x, y):
    for op, expect in (("=", x == y), ("!=", x != y), ("<", x < y),
                       ("<=", x <= y), (">", x > y), (">=", x >= y)):
        assert au.accepts(au.comparison("x", "y", op), [x, y]) == expect


@given(st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=60)
def test_adder_pointwise(x, y):
    add = au.adder("x", "y", "z")
    assert au.accepts(add, [x, y, x + y])
    assert not au.accepts(add, [x, y, x + y + 1])


def test_constant_machine():
    five = au.constant(5, "x")
    assert au.accepts(five, [5])
    assert all(not au.accepts(five, [k]) for k in range(20) if k != 5)
    zero = au.constant(0, "x")
    assert au.accepts(zero, [0])
    assert not au.accepts(zero, [1])


def test_seq_const_matches_tm_bit():
    one = au.seq_const("k", 1)
    assert not au.accepts(one, [0])
    assert not au.accepts(one, [6])
    assert all(au.accepts(one, [k]) == tm_bit(k) for k in range(1 << 16))


def _reads(m, values, width):
    """Acceptance of the ``width``-digit encoding of ``values``, read MSD
    first; ``accepts`` reads only as many digits as the longest value."""
    q = m.initial
    for k in reversed(range(width)):
        q = m.transitions[q][sum((v >> k & 1) << i
                                 for i, v in enumerate(values))]
    return q in m.accepting


def _agrees_padded(m, relation):
    """Every tuple of values below 32, padded with 0-3 leading zero
    digits, is accepted exactly when it satisfies ``relation``."""
    for values in itertools.product(range(32), repeat=m.arity):
        width = max(v.bit_length() for v in values)
        want = relation(*values)
        for pad in range(4):
            assert _reads(m, values, width + pad) == want, (values, pad)


@pytest.mark.parametrize("op,relation", [
    ("=", lambda x, y: x == y), ("!=", lambda x, y: x != y),
    ("<", lambda x, y: x < y), ("<=", lambda x, y: x <= y),
    (">", lambda x, y: x > y), (">=", lambda x, y: x >= y)])
def test_comparison_brute_force(op, relation):
    _agrees_padded(au.comparison("x", "y", op), relation)


def test_adder_brute_force():
    _agrees_padded(au.adder("x", "y", "z"), lambda x, y, z: x + y == z)


@pytest.mark.parametrize("value", [0, 5] + [1 << k for k in range(5)])
def test_constant_brute_force(value):
    _agrees_padded(au.constant(value, "x"), lambda x: x == value)


@pytest.mark.parametrize("bit", [0, 1])
def test_seq_const_brute_force(bit):
    _agrees_padded(au.seq_const("u", bit), lambda u: tm_bit(u) == bit)


def test_adder_minimal_size():
    # Carry machine: two live states plus the completion sink.
    add = au.adder("x", "y", "z")
    assert add.num_states == 3


def test_product_idempotent_and_contradiction():
    lt = au.comparison("x", "y", "<")
    assert au.equivalent(au.product(lt, lt, "and"), lt)
    assert au.is_empty(au.product(lt, au.complement(lt), "and"))


def test_complement_involution_and_lt():
    lt = au.comparison("x", "y", "<")
    assert au.equivalent(au.complement(au.complement(lt)), lt)
    ge = au.complement(lt)
    for x in range(32):
        for y in range(32):
            assert au.accepts(ge, [x, y]) == (x >= y)


def test_complement_of_empty_is_universal():
    assert au.is_empty(au.complement(au.complement(empty(("x",)))))


def test_project_equality_gives_universal():
    eq = au.comparison("x", "y", "=")
    assert au.is_empty(au.complement(au.project(eq, "x")))


def test_project_adder_totality():
    assert au.is_empty(au.complement(au.project(au.adder("x", "y", "z"), "z")))


def test_project_smaller_side():
    # exists y: y < x  <=>  x >= 1
    some_below = au.project(au.comparison("y", "x", "<"), "y")
    for x in range(1 << 10):
        assert au.accepts(some_below, [x]) == (x >= 1)


def test_project_saturation_needed():
    # exists x: y < x  is universal; the witness may need one digit more
    # than y, which only the leading-zero closure of the initial set sees.
    some_above = au.project(au.comparison("y", "x", "<"), "x")
    assert au.is_empty(au.complement(some_above))


def test_projection_soundness_on_base_relations():
    lt = au.comparison("x", "y", "<")
    eq = au.comparison("x", "y", "=")
    slice_xz = au.project(au.adder("x", "y", "z"), "y")  # x <= z
    for rel, witness_ok in ((lt, lambda x: x + 1), (eq, lambda x: x),
                            (slice_xz, lambda x: x)):
        tracks = rel.tracks
        projected = au.project(rel, tracks[1])
        for x in range(1 << 8):
            direct = any(au.accepts(rel, [x, y]) for y in range(1 << 10))
            assert au.accepts(projected, [x]) == direct
            if direct:
                assert au.accepts(rel, [x, witness_ok(x)])


def test_widen_then_project_roundtrip():
    lt = au.comparison("x", "y", "<")
    widened = au.product(lt, au.complement(empty(("z",))), "and")
    assert widened.tracks == ("x", "y", "z")
    assert au.equivalent(au.project(widened, "z"), lt)


def test_product_over_differing_tracks_pointwise():
    rng = random.Random(2351)
    for _ in range(40):
        a = random_machine(rng, ("x", "y"), max_states=4)
        b = random_machine(rng, ("y", "z"), max_states=4)
        both = au.product(a, b, "and")
        either = au.product(a, b, "or")
        assert both.tracks == either.tracks == ("x", "y", "z")
        for x, y, z in itertools.product(range(6), repeat=3):
            in_a, in_b = au.accepts(a, [x, y]), au.accepts(b, [y, z])
            assert au.accepts(both, [x, y, z]) == (in_a and in_b)
            assert au.accepts(either, [x, y, z]) == (in_a or in_b)


def test_rename_merging_tracks_pointwise():
    rng = random.Random(2312)
    for _ in range(60):
        m = random_machine(rng, ("x", "y", "z"))
        merged = au.rename_tracks(m, {"y": "x"})
        assert merged.tracks == ("x", "z")
        for x, z in itertools.product(range(12), repeat=2):
            assert au.accepts(merged, [x, z]) == au.accepts(m, [x, x, z])


@pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
def test_comparison_on_one_track(op):
    reflexive = op in ("=", "<=", ">=")
    want = empty(("x",))
    if reflexive:
        want = au.complement(want)
    assert au.to_compact_text(au.comparison("x", "x", op)) == \
        au.to_compact_text(want)


def test_adder_with_repeated_summand():
    double = au.adder("x", "x", "z")
    assert double.tracks == ("x", "z")
    for x in range(32):
        for z in range(70):
            assert au.accepts(double, [x, z]) == (z == 2 * x)


def test_rename_swapping_tracks():
    lt = au.comparison("x", "y", "<")
    swapped = au.rename_tracks(lt, {"x": "y", "y": "x"})
    for x in range(16):
        for y in range(16):
            assert au.accepts(swapped, [x, y]) == (y < x)


@pytest.mark.parametrize("construct", [
    lambda: au.product(au.comparison("x", "y", "="),
                       au.comparison("x", "y", "<"), "and", state_cap=1),
    lambda: au.project(au.comparison("y", "x", "<"), "y", state_cap=1),
], ids=["product", "project"])
def test_state_cap_enforced(construct):
    with pytest.raises(au.StateLimitError):
        construct()


def test_project_caps_each_reversal_not_the_forward_subsets():
    # The forward subset construction passes 5000 subsets on this machine;
    # each of the two constructions of the double reversal stays under 200.
    m = random_machine(random.Random(0), ("x", "y", "z"), max_states=8)
    assert m.num_states == 64
    assert au.project(m, "y", state_cap=200).num_states == 11


def test_accepts_arity_checked():
    with pytest.raises(au.TrackMismatchError):
        au.accepts(au.comparison("x", "y", "<"), [1])


def test_accepts_rejects_negative_values():
    with pytest.raises(ValueError, match="nonnegative"):
        au.accepts(au.comparison("x", "y", "<"), [1, -2])


def test_zero_closed_everywhere():
    lt, add = au.comparison("x", "y", "<"), au.adder("x", "y", "z")
    for m in (au.comparison("x", "y", "="), lt, add, au.project(add, "z"),
              au.complement(lt)):
        assert au.is_zero_closed(m)


def test_seq_const_semantics():
    m0 = au.seq_const("u", 0)
    for u in range(256):
        assert au.accepts(m0, [u]) == (tm_bit(u) == 0)
    with pytest.raises(ValueError, match="binary"):
        au.seq_const("u", 2)


def test_product_rejects_unknown_operator():
    lt = au.comparison("x", "y", "<")
    with pytest.raises(ValueError, match="'nand'"):
        au.product(lt, lt, "nand")


def test_export_dot_shapes():
    dot = au.export_dot(au.complement(empty(("x",))))
    assert dot.startswith("digraph {")
    assert "doublecircle" in dot
    assert dot.count("->") == 2  # init arrow plus single self-loop edge


def test_compact_text_deterministic():
    text1 = au.to_compact_text(au.adder("x", "y", "z"))
    text2 = au.to_compact_text(au.adder("x", "y", "z"))
    assert text1 == text2
    assert text1.splitlines()[0] == "tracks x y z"


def test_de_morgan_randomized():
    rng = random.Random(20240817)
    for _ in range(120):
        a = random_machine(rng, ("x", "y"))
        b = random_machine(rng, ("x", "y"))
        lhs = au.complement(au.product(a, b, "and"))
        rhs = au.product(au.complement(a), au.complement(b), "or")
        assert au.equivalent(lhs, rhs)


def test_double_complement_randomized():
    rng = random.Random(7)
    for _ in range(120):
        a = random_machine(rng, ("x",))
        assert au.equivalent(au.complement(au.complement(a)), a)


def test_minimization_canonicity_randomized():
    rng = random.Random(99)
    for _ in range(120):
        a = random_machine(rng, ("x", "y"), max_states=4)
        b = random_machine(rng, ("x", "y"), max_states=4)
        same = au.equivalent(a, b)
        identical = (a.transitions == b.transitions
                     and a.accepting == b.accepting)
        assert same == identical
        # A state-shuffled clone must canonicalize to the identical machine,
        # also when it carries unreachable states: a copy of a reachable
        # state, and an accepting state whose zero symbol leads to a
        # rejecting sink (a language no reachable state need have).
        n = a.num_states
        copied = rng.randrange(n)
        copy, fresh, sink = n, n + 1, n + 2
        trans = [list(row) for row in a.transitions]
        trans.append(list(a.transitions[copied]))
        trans.append([sink] + [fresh] * (a.num_symbols - 1))
        trans.append([sink] * a.num_symbols)
        accepting = set(a.accepting) | {fresh}
        if copied in a.accepting:
            accepting.add(copy)
        perm = list(range(n + 3))
        rng.shuffle(perm)
        shuffled_trans = [None] * (n + 3)
        for q in range(n + 3):
            shuffled_trans[perm[q]] = [perm[t] for t in trans[q]]
        clone = au.minimize(au.MultiTrackAutomaton(
            a.tracks, shuffled_trans, perm[a.initial],
            {perm[q] for q in accepting}))
        assert clone.transitions == a.transitions
        assert clone.accepting == a.accepting


def _assert_canonical(m):
    assert au.to_compact_text(m) == au.to_compact_text(au.minimize(m))


def test_base_machines_are_canonical():
    # The compiler's computed table is keyed by exact bytes, so the base
    # machines must be canonical too, repeated track names included.
    machines = [au.comparison(left, right, op)
                for op in ("=", "!=", "<", "<=", ">", ">=")
                for left, right in (("x", "y"), ("y", "x"), ("x", "x"))]
    machines += [au.adder(*names) for names in (
        ("x", "y", "z"), ("x", "x", "y"), ("x", "y", "x"), ("x", "x", "x"))]
    machines += [au.constant(v, "x") for v in range(41)]
    machines += [au.seq_const("u", b) for b in (0, 1)]
    assert len(machines) == 65
    for m in machines:
        _assert_canonical(m)
        assert au.is_zero_closed(m)


def test_rename_tracks_returns_canonical_machines():
    rng = random.Random(1603)
    tracks = ("x", "y", "z")
    for _ in range(100):
        m = random_machine(rng, tracks)
        for perm in itertools.permutations(tracks):
            _assert_canonical(au.rename_tracks(m, dict(zip(tracks, perm))))


def test_operations_return_canonical_machines():
    rng = random.Random(6641)
    tracks = ("x", "y", "z")
    for _ in range(60):
        a = random_machine(rng, tracks)
        b = random_machine(rng, tracks)
        c = random_machine(rng, ("w", "y"))
        for op in ("and", "or", "xor", "iff", "implies"):
            _assert_canonical(au.product(a, b, op))
            _assert_canonical(au.product(a, c, op))
        for mapping in ({"y": "x"}, {"x": "z", "y": "z"}, {"x": "a", "y": "a"},
                        {"x": "y", "z": "y"}):
            _assert_canonical(au.rename_tracks(a, mapping))
        for track in tracks:
            _assert_canonical(au.project(a, track))
        _assert_canonical(au.complement(a))
        _assert_canonical(zero_close(a))


def test_projection_respects_membership_randomized():
    rng = random.Random(4242)
    for _ in range(60):
        a = random_machine(rng, ("x", "y"), max_states=4)
        proj = au.project(a, "y")
        for x in range(16):
            direct = any(au.accepts(a, [x, y]) for y in range(64))
            assert au.accepts(proj, [x]) == direct


def test_reference_route_agrees_on_random_machines():
    rng = random.Random(3135)
    names = ("w", "x", "y", "z")
    for _ in range(40):
        tracks = names[:rng.randint(1, 4)]
        a = random_machine(rng, tracks, max_states=4)
        for track in tracks:
            assert au.to_compact_text(au.project(a, track)) == \
                au.to_compact_text(ref.project(a, track))
        b = random_machine(rng, names[rng.randrange(4):], max_states=3)
        for op in ("and", "or", "xor", "iff", "implies"):
            assert au.to_compact_text(au.product(a, b, op)) == \
                au.to_compact_text(ref.product(a, b, op))
        # Not numbered breadth first, its initial state anywhere, and
        # possibly with unreachable states.
        n = rng.randint(1, 8)
        raw = au.MultiTrackAutomaton(
            tracks, [[rng.randrange(n) for _ in range(1 << len(tracks))]
                     for _ in range(n)],
            rng.randrange(n), {q for q in range(n) if rng.random() < 0.5})
        assert au.to_compact_text(au.minimize(raw)) == \
            au.to_compact_text(ref.minimize(raw))


def test_reference_route_agrees_on_the_fixture_operations(monkeypatch):
    made = []
    for name in ("product", "project"):
        def recorded(*args, _name=name, _original=getattr(au, name)):
            result = _original(*args)
            made.append((_name, args, result))
            return result

        monkeypatch.setattr(au, name, recorded)
    for script in ("paper_thm1.wal", "paper_thm2.wal", "paper_count.wal"):
        logic.run_script(core.fixture_text(script))
    assert {name for name, _, _ in made} == {"product", "project"}
    for name, args, result in made:
        want = (ref.project(*args[:2]) if name == "project"
                else ref.product(*args[:3]))
        assert au.to_compact_text(result) == au.to_compact_text(want)
