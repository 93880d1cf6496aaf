"""A textbook compiler from formulas to automata: a second route to the
canonical machines that ``tmprover.logic.Compiler`` builds.

One ``product`` per binary connective, one ``project`` per quantifier
(none when the body does not read the variable), ``Av p`` as ``~Ev ~p``,
and every atom built straight from the ``automata`` base machines: each
sum or numeral gets a fresh track and its defining machine, and the atom
conjoins them all before it projects the fresh tracks away.  There is no
scope narrowing, no elimination order and no computed table, so the
route shares only the parser and ``automata`` with the engine.  Minimal
machines are canonical, so equal languages give equal bytes.
"""

from tmprover import automata as au
from tmprover.logic import (
    And, Compare, Const, Exists, Forall, Iff, Implies, Not, Or, SeqCompare,
    Var, parse_script,
)

_CONNECTIVES = {And: "and", Or: "or", Implies: "implies", Iff: "iff"}


def compile_formula(f, env, cap=au.DEFAULT_STATE_CAP,
                    ) -> au.MultiTrackAutomaton:
    """Machine of ``f`` on its free variables; ``env`` maps each defined
    predicate to its machine, and no construction may pass ``cap``
    states."""
    if isinstance(f, Not):
        return au.complement(compile_formula(f.body, env, cap))
    if type(f) in _CONNECTIVES:
        return au.product(compile_formula(f.left, env, cap),
                          compile_formula(f.right, env, cap),
                          _CONNECTIVES[type(f)], cap)
    if isinstance(f, Forall):
        return au.complement(compile_formula(Exists(f.var, Not(f.body)),
                                             env, cap))
    if isinstance(f, Exists):
        body = compile_formula(f.body, env, cap)
        return au.project(body, f.var, cap) if f.var in body.tracks else body
    defs = []
    machine = _atom(f, env, defs)
    for _, definition in defs:
        machine = au.product(machine, definition, "and", cap)
    for track, _ in defs:
        machine = au.project(machine, track, cap)
    return machine


def _track(term, defs) -> str:
    """The track holding ``term``; a numeral or a sum gets a fresh one,
    appended to ``defs`` with the machine that defines it."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        track = f"_r{len(defs)}"
        defs.append((track, au.constant(term.value, track)))
        return track
    left, right = _track(term.left, defs), _track(term.right, defs)
    track = f"_r{len(defs)}"
    defs.append((track, au.adder(left, right, track)))
    return track


def _atom(f, env, defs) -> au.MultiTrackAutomaton:
    if isinstance(f, Compare):
        return au.comparison(_track(f.left, defs), _track(f.right, defs),
                             f.op)
    if isinstance(f, SeqCompare):
        u = _track(f.left, defs)
        if isinstance(f.right, int):
            return au.seq_const(u, f.right if f.op == "=" else 1 - f.right)
        return au.product(au.seq_const(u, 1),
                          au.seq_const(_track(f.right, defs), 1),
                          "iff" if f.op == "=" else "xor")
    stored = env[f.name]
    return au.rename_tracks(stored, {param: _track(arg, defs)
                                     for param, arg in zip(stored.tracks,
                                                           f.args)})


def run_script(source: str, cap=au.DEFAULT_STATE_CAP,
               ) -> dict[str, au.MultiTrackAutomaton]:
    """Every command's machine, by name; each ``def`` extends the
    environment of the commands after it."""
    env, machines = {}, {}
    for cmd in parse_script(source):
        machines[cmd.name] = compile_formula(cmd.formula, env, cap)
        if cmd.kind == "def":
            env[cmd.name] = machines[cmd.name]
    return machines
