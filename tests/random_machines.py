"""Random and hand-made canonical machines for the tests.

``random_machine`` draws a small random automaton and makes it zero-closed
with ``zero_close``, so the result is canonical and can be fed to every
operation of ``tmprover.automata``; ``empty`` is the one-state machine
that accepts nothing.
"""

from tmprover import automata as au


def zero_close(a: au.MultiTrackAutomaton) -> au.MultiTrackAutomaton:
    """Closure of the language under the value semantics: accepts a word
    iff some encoding of the same value tuple was accepted.

    State (cur, anchor) pairs the running state with the state reached
    after the last nonzero symbol; it accepts iff the anchor can reach
    acceptance by all-zero symbols alone.  The table holds all n * n pairs
    and ``minimize`` keeps the reachable classes, canonically numbered.
    """
    n = a.num_states
    zero_accepting = set(a.accepting)
    while True:
        more = {q for q, row in enumerate(a.transitions)
                if row[0] in zero_accepting} - zero_accepting
        if not more:
            break
        zero_accepting |= more
    trans = []
    for cur in range(n):
        row = a.transitions[cur]
        for anchor in range(n):
            trans.append([row[0] * n + anchor]
                         + [t * n + t for t in row[1:]])
    accepting = {cur * n + anchor for cur in range(n)
                 for anchor in zero_accepting}
    result = au.minimize(au.MultiTrackAutomaton(
        a.tracks, trans, a.initial * n + a.initial, accepting))
    assert au.is_zero_closed(result)
    return result


def empty(tracks=()) -> au.MultiTrackAutomaton:
    names = tuple(sorted(tracks))
    n_sym = 1 << len(names)
    return au.MultiTrackAutomaton(names, [tuple([0] * n_sym)], 0, set())


def random_machine(rng, tracks=("x",), max_states=5):
    """Random zero-closed automaton over the given tracks."""
    n = rng.randint(1, max_states)
    n_sym = 1 << len(tracks)
    trans = [[rng.randrange(n) for _ in range(n_sym)] for _ in range(n)]
    accepting = {q for q in range(n) if rng.random() < 0.4}
    return zero_close(au.MultiTrackAutomaton(tuple(sorted(tracks)), trans, 0,
                                             accepting))
