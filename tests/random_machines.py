"""Random and hand-made canonical machines for the tests.

``random_machine`` draws a small random automaton and makes it zero-closed
with ``zero_close``, so the result is canonical and can be fed to every
operation of ``tmprover.automata``; ``empty`` is the one-state machine
that accepts nothing.
"""

from tmprover import automata as au


def zero_close(a: au.MultiTrackAutomaton) -> au.MultiTrackAutomaton:
    """Closure of the language under the value semantics: accepts a word
    iff some encoding of the same value tuple was accepted, that is iff
    some state of the zero orbit (the states all-zero symbols reach from
    the initial one) accepts the word less its leading zeros.

    Key None reads the leading zeros; the first nonzero symbol moves to the
    set of states it reaches from the orbit, and the sets move on as in a
    subset construction.  ``minimize`` numbers the result canonically.
    """
    orbit = []
    q = a.initial
    while q not in orbit:
        orbit.append(q)
        q = a.transitions[q][0]
    ids = {None: 0}
    keys = [None]
    trans = []
    for key in keys:  # a FIFO worklist
        states = orbit if key is None else key
        row = []
        for sym in range(a.num_symbols):
            nxt = (None if key is None and sym == 0 else
                   frozenset(a.transitions[s][sym] for s in states))
            if nxt not in ids:
                ids[nxt] = len(keys)
                keys.append(nxt)
            row.append(ids[nxt])
        trans.append(row)
    accepting = {i for i, key in enumerate(keys)
                 if not a.accepting.isdisjoint(orbit if key is None else key)}
    result = au.minimize(au.MultiTrackAutomaton(a.tracks, trans, 0,
                                                accepting))
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
