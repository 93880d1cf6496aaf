"""Parser and compiler for the first-order script language.

The surface language is the little scripting dialect used to define and
decide predicates over natural numbers with Thue-Morse indexing:

    def NAME "FORMULA":
    eval NAME "FORMULA":
    eval NAME VAR "FORMULA":      (counting form: VAR is the parameter)
    # comment, to end of line, anywhere

Command names and VAR follow the identifier rule: an ASCII lowercase
letter, then ASCII lowercase letters, digits or ``_``.  Numerals are ASCII
digits.  No two commands of a script share a name.

Formulas:  quantifiers ``A``/``E`` with comma-separated variables, the
connectives ``~ & | => <=>``, comparisons ``= != < <= > >=``, addition,
decimal constants, sequence indexing ``T[term]`` compared with ``=``/``!=``
against another ``T[term]`` or a binary constant, and ``$name(args)`` calls
of previously defined predicates.

Scope rule: a quantifier extends maximally, to the end of the enclosing
parenthesis or formula.  ``Ak (k<n) => p`` therefore means
``forall k ((k<n) => p)``, never ``(forall k (k<n)) => p``.

Predicates are stored on their free variables in alphabetical order, and
``$name(...)`` binds arguments positionally to that order.

A compiled machine's tracks are exactly its formula's free variables, so
the compiler narrows each ``E`` scope by reading the tracks of its
body's compiled conjuncts, and compiles ``Av p`` as ``~Ev ~p``.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass, field

from tmprover import automata as au

DEFAULT_STATE_CAP = au.DEFAULT_STATE_CAP

_FRESH_PREFIX = "_t"


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class CompileError(Exception):
    pass


class ScriptError(Exception):
    pass


# ---------------------------------------------------------------------------
# Terms and formulas


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Compare:
    left: object
    op: str
    right: object


@dataclass(frozen=True)
class SeqCompare:
    """T[left] op right, where right is a term (T-indexed) or a 0/1 int."""

    left: object
    op: str
    right: object


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Iff:
    left: object
    right: object


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


def term_vars(term) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Const):
        return set()
    return term_vars(term.left) | term_vars(term.right)


def free_vars(f) -> set[str]:
    if isinstance(f, Compare):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, SeqCompare):
        right = term_vars(f.right) if not isinstance(f.right, int) else set()
        return term_vars(f.left) | right
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    if isinstance(f, Call):
        out = set()
        for t in f.args:
            out |= term_vars(t)
        return out
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Lexer


_OPS = {"<=>": "IFF", "=>": "IMPLIES", "<=": "LE", ">=": "GE", "!=": "NE",
        "&": "AND", "|": "OR", "~": "NOT", "=": "EQ", "<": "LT", ">": "GT",
        "+": "PLUS", "(": "LPAREN", ")": "RPAREN", "[": "LBRACK",
        "]": "RBRACK", ",": "COMMA", "$": "DOLLAR", '"': "QUOTE",
        ":": "COLON", "A": "A", "E": "E", "T": "T"}

# Alternatives are tried in order: operators longest first, so "<=>" is
# never read as "<=" then ">".  [^\S\n] is the set of str.isspace less "\n".
_TOKEN = re.compile(
    r"(?P<SKIP>[^\S\n]+|#[^\n]*)|(?P<NEWLINE>\n)"
    r"|(?P<OP>" + "|".join(map(re.escape, sorted(_OPS, key=len, reverse=True)))
    + r")|(?P<INT>[0-9]+)|(?P<NAME>[a-z][a-z0-9_]*)|(?P<EOF>\Z)|(?P<BAD>.)")


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Tokens of ``text``, ending with ``EOF``.  Names and numerals are
    ASCII; ``#`` starts a comment to end of line."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "BAD":
            raise ParseError(f"unexpected character {value!r}", line, col)
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind != "SKIP":
            tokens.append(Token(_OPS[value] if kind == "OP" else kind, value,
                                line, col))
    return tokens


# ---------------------------------------------------------------------------
# Formula parser (recursive descent)


_RELOPS = {"EQ": "=", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.value!r}",
                             tok.line, tok.col)
        return self.next()

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_formula(self):
        f = self.parse_or()
        while self.peek().kind in ("IMPLIES", "IFF"):
            op = self.next().kind
            rhs = self.parse_or()
            f = Implies(f, rhs) if op == "IMPLIES" else Iff(f, rhs)
        return f

    def parse_or(self):
        f = self.parse_and()
        while self.peek().kind == "OR":
            self.next()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self):
        f = self.parse_unary()
        while self.peek().kind == "AND":
            self.next()
            f = And(f, self.parse_unary())
        return f

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "NOT":
            self.next()
            return Not(self.parse_unary())
        if tok.kind in ("A", "E"):
            self.next()
            names = [self.expect("NAME").value]
            while self.peek().kind == "COMMA":
                self.next()
                names.append(self.expect("NAME").value)
            body = self.parse_formula()  # maximal scope
            node = Forall if tok.kind == "A" else Exists
            for name in reversed(names):
                body = node(name, body)
            return body
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            f = self.parse_formula()
            self.expect("RPAREN")
            return f
        if tok.kind == "DOLLAR":
            self.next()
            name = self.expect("NAME").value
            self.expect("LPAREN")
            args = [self.parse_term()]
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_term())
            self.expect("RPAREN")
            return Call(name, tuple(args))
        return self.parse_comparison()

    def parse_comparison(self):
        if self.peek().kind == "T":
            left = self.parse_seq_index()
            op = self.parse_relop()
            if op not in ("=", "!="):
                self.fail("sequence comparison supports = and != only")
            if self.peek().kind == "T":
                return SeqCompare(left, op, self.parse_seq_index())
            tok = self.expect("INT")
            if tok.value not in ("0", "1"):
                raise ParseError("sequence values are 0 or 1",
                                 tok.line, tok.col)
            return SeqCompare(left, op, int(tok.value))
        left = self.parse_term()
        op = self.parse_relop()
        if self.peek().kind == "T":
            self.fail("sequence term cannot appear on the right of an "
                      "arithmetic comparison")
        return Compare(left, op, self.parse_term())

    def parse_relop(self) -> str:
        tok = self.peek()
        if tok.kind not in _RELOPS:
            self.fail(f"expected a relational operator, found {tok.value!r}")
        self.next()
        return _RELOPS[tok.kind]

    def parse_seq_index(self):
        self.expect("T")
        self.expect("LBRACK")
        term = self.parse_term()
        self.expect("RBRACK")
        return term

    def parse_term(self):
        left = self.parse_primary()
        if self.peek().kind == "PLUS":
            self.next()
            return Sum(left, self.parse_term())  # right-nested
        return left

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "NAME":
            if tok.value.startswith(_FRESH_PREFIX):
                self.fail(f"identifiers may not start with {_FRESH_PREFIX!r}")
            self.next()
            return Var(tok.value)
        if tok.kind == "INT":
            self.next()
            return Const(int(tok.value))
        self.fail(f"expected a variable or constant, found {tok.value!r}")


def parse_formula(text: str):
    parser = _Parser(tokenize(text))
    f = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return f


# ---------------------------------------------------------------------------
# Script parser


@dataclass(frozen=True)
class Command:
    kind: str  # "def" | "eval" | "eval_count"
    name: str
    formula: object
    count_var: str | None = None
    line: int = 0


def parse_script(source: str) -> list[Command]:
    """Commands ``def|eval NAME [VAR] "FORMULA":``, read by the formula
    lexer and parser in one pass; ``#`` comments run to end of line, and
    error positions are the script's own lines and columns.  Each command
    has its own name: reports and expectations are keyed by it."""
    parser = _Parser(tokenize(source))
    commands = []
    while parser.peek().kind != "EOF":
        keyword = parser.peek()
        if keyword.kind != "NAME" or keyword.value not in ("def", "eval"):
            parser.fail(f"expected 'def' or 'eval', found {keyword.value!r}")
        parser.next()
        name_tok = parser.expect("NAME")
        name = name_tok.value
        if any(c.name == name for c in commands):
            raise ParseError(f"command name {name!r} is already used",
                             name_tok.line, name_tok.col)
        count_var = None
        if keyword.value == "eval" and parser.peek().kind == "NAME":
            count_var = parser.next().value
        parser.expect("QUOTE")
        try:
            formula = parser.parse_formula()
        except RecursionError:
            raise ParseError(f"{keyword.value} {name}: formula nests too "
                             f"deeply", keyword.line, keyword.col) from None
        parser.expect("QUOTE")
        parser.expect("COLON")
        kind = "eval_count" if count_var else keyword.value
        commands.append(Command(kind, name, formula, count_var, keyword.line))
    return commands


# ---------------------------------------------------------------------------
# Compiler


class PredicateEnv:
    """Named predicates: free variables in alphabetical order + automaton."""

    def __init__(self):
        self._defs: dict[str, tuple[tuple[str, ...], au.MultiTrackAutomaton]] = {}

    def bind(self, name, params, machine):
        if name in self._defs:
            raise CompileError(f"predicate {name!r} is already defined")
        self._defs[name] = (tuple(params), machine)

    def lookup(self, name):
        if name not in self._defs:
            raise CompileError(f"unknown predicate {name!r}")
        return self._defs[name]


class Compiler:
    def __init__(self, env: PredicateEnv | None = None, dfao: au.Dfao | None = None,
                 state_cap: int = DEFAULT_STATE_CAP):
        self.env = env if env is not None else PredicateEnv()
        self.dfao = dfao if dfao is not None else au.tm_dfao()
        self.state_cap = state_cap
        self._fresh_counter = 0

    def _fresh(self) -> str:
        self._fresh_counter += 1
        return f"{_FRESH_PREFIX}{self._fresh_counter}"

    def _name(self, term, defs) -> str:
        """The track holding ``term``.  A sum or a numeral gets a fresh
        track, appended to ``defs`` with the machine that defines it."""
        if isinstance(term, Var):
            return term.name
        if isinstance(term, Const):
            v = self._fresh()
            defs.append((v, au.constant(term.value, v)))
            return v
        if isinstance(term, Sum):
            a = self._name(term.left, defs)
            b = self._name(term.right, defs)
            out = self._fresh()
            defs.append((out, au.adder(a, b, out)))
            return out
        raise CompileError(f"not a term: {term!r}")

    def _bind(self, machine, defs):
        """Conjoin each definition and project its fresh track at once,
        latest first.  Exact: each fresh track is defined by one machine
        and used only by entries created after it."""
        for track, definition in reversed(defs):
            machine = au.project(
                au.product(machine, definition, "and", self.state_cap),
                track, self.state_cap)
        return machine

    def compile(self, f) -> au.MultiTrackAutomaton:
        """Compile ``f`` to a canonical automaton on its free variables
        (tracks sorted by name)."""
        if isinstance(f, Compare):
            defs = []
            a = self._name(f.left, defs)
            b = self._name(f.right, defs)
            return self._bind(au.comparison(a, b, f.op), defs)
        if isinstance(f, SeqCompare):
            defs = []
            u = self._name(f.left, defs)
            if isinstance(f.right, int):
                bit = f.right if f.op == "=" else 1 - f.right
                core = au.seq_const(self.dfao, u, bit)
            else:
                v = self._name(f.right, defs)
                core = au.product(au.seq_const(self.dfao, u, 1),
                                  au.seq_const(self.dfao, v, 1),
                                  "iff" if f.op == "=" else "xor",
                                  self.state_cap)
            return self._bind(core, defs)
        if isinstance(f, Not):
            return au.complement(self.compile(f.body))
        if isinstance(f, (And, Exists)):
            return self._conjoin(self._conjuncts(f))
        if isinstance(f, Forall):
            return au.complement(self.compile(Exists(f.var, Not(f.body))))
        if isinstance(f, (Or, Implies, Iff)):
            op = {Or: "or", Implies: "implies", Iff: "iff"}[type(f)]
            return au.product(self.compile(f.left), self.compile(f.right),
                              op, self.state_cap)
        if isinstance(f, Call):
            return self._compile_call(f)
        raise CompileError(f"not a formula: {f!r}")

    def _conjuncts(self, f) -> list[au.MultiTrackAutomaton]:
        """The compiled conjuncts of ``f``, in order.  ``Ev body`` keeps the
        body's conjuncts whose machine lacks track ``v`` outside, in their
        order, and appends the projection of the others' conjunction: each
        existential's product spans only the tracks its own conjuncts use
        (early quantification), and an ``E`` whose variable is unused
        projects nothing."""
        if isinstance(f, And):
            return self._conjuncts(f.left) + self._conjuncts(f.right)
        if isinstance(f, Exists):
            inside, outside = [], []
            for m in self._conjuncts(f.body):
                (inside if f.var in m.tracks else outside).append(m)
            if inside:
                outside.append(au.project(self._conjoin(inside), f.var,
                                          self.state_cap))
            return outside
        return [self.compile(f)]

    def _conjoin(self, machines) -> au.MultiTrackAutomaton:
        return functools.reduce(
            lambda a, b: au.product(a, b, "and", self.state_cap), machines)

    def _compile_call(self, call: Call) -> au.MultiTrackAutomaton:
        params, stored = self.env.lookup(call.name)
        if len(call.args) != len(params):
            raise CompileError(
                f"{call.name!r} takes {len(params)} arguments "
                f"({', '.join(params)}), got {len(call.args)}")
        # A variable passed twice merges the tracks of its parameters.
        defs = []
        mapping = {param: self._name(arg, defs)
                   for param, arg in zip(params, call.args)}
        return self._bind(au.rename_tracks(stored, mapping), defs)


def compile_formula(f, env=None, dfao=None,
                    state_cap=DEFAULT_STATE_CAP) -> au.MultiTrackAutomaton:
    """Canonical automaton of ``f`` on exactly its free variables (tracks
    sorted by name)."""
    if isinstance(f, str):
        f = parse_formula(f)
    return Compiler(env, dfao, state_cap).compile(f)


def decide(f, env=None, dfao=None, state_cap=DEFAULT_STATE_CAP) -> bool:
    """Truth value of a sentence (a formula with no free variables)."""
    if isinstance(f, str):
        f = parse_formula(f)
    unbound = free_vars(f)
    if unbound:
        raise CompileError(f"sentence has free variables: {sorted(unbound)}")
    return not au.is_empty(compile_formula(f, env, dfao, state_cap))


# ---------------------------------------------------------------------------
# Script execution


@dataclass
class CommandResult:
    kind: str
    name: str
    verdict: str  # "TRUE" | "FALSE" | "n/a"
    states: int
    elapsed_ms: float
    automaton: au.MultiTrackAutomaton | None = None


@dataclass
class ProofReport:
    commands: list[CommandResult] = field(default_factory=list)

    def verdicts(self) -> dict[str, str]:
        return {c.name: c.verdict for c in self.commands if c.kind != "def"}

    def result(self, name: str) -> CommandResult:
        for c in self.commands:
            if c.name == name:
                return c
        raise KeyError(name)


def run_script(source: str, dfao=None,
               state_cap: int = DEFAULT_STATE_CAP) -> ProofReport:
    """Execute a script: defs populate the environment in order, evals are
    decided (or compiled, for the counting/free-variable forms)."""
    env = PredicateEnv()
    report = ProofReport()
    try:
        commands = parse_script(source)
    except ParseError as exc:
        raise ScriptError(str(exc)) from exc
    for cmd in commands:
        start = time.perf_counter()
        try:
            machine = compile_formula(cmd.formula, env, dfao, state_cap)
            params = machine.tracks
            if cmd.kind == "def":
                env.bind(cmd.name, params, machine)
                verdict = "n/a"
            elif cmd.kind == "eval_count":
                if cmd.count_var not in params:
                    raise CompileError(
                        f"counting variable {cmd.count_var!r} is not free in "
                        f"{cmd.name!r} (free: {params})")
                if len(params) != 2:
                    raise CompileError(
                        "counting eval needs exactly two free variables, "
                        f"got {params}")
                verdict = "n/a"
            elif params:
                verdict = "n/a"
            else:
                verdict = "TRUE" if not au.is_empty(machine) else "FALSE"
        except RecursionError:
            raise ScriptError(f"{cmd.kind} {cmd.name} (line {cmd.line}): "
                              f"formula nests too deeply") from None
        except (CompileError, au.StateLimitError,
                au.TrackMismatchError) as exc:
            raise ScriptError(
                f"{cmd.kind} {cmd.name} (line {cmd.line}): {exc}") from exc
        elapsed = (time.perf_counter() - start) * 1000.0
        report.commands.append(CommandResult(
            kind=cmd.kind, name=cmd.name, verdict=verdict,
            states=machine.num_states, elapsed_ms=elapsed, automaton=machine))
    return report
