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

The predicate environment is a dict from each defined name to its
compiled machine, whose tracks are the predicate's free variables in
alphabetical order; ``$name(...)`` binds arguments positionally to them.

A compiled machine's tracks are exactly its formula's free variables, so
the compiler narrows each ``E`` scope by reading the tracks of its
body's compiled conjuncts, compiles ``Av p`` as ``~Ev ~p``, and
``decide`` reads a formula's free variables off its machine.

Every atom is one base machine; ``T[a] = T[b]`` is the ``iff`` (``!=``:
``xor``) of the atoms ``T[a] = 1`` and ``T[b] = 1``.  A sum or numeral gets
a fresh track named by its place in its own atom, so equal atoms compile to
equal machines wherever they occur; the atom eliminates its fresh tracks
with the routine that narrows ``E`` scopes.  One ``Compiler`` serves a
whole ``run_script`` call and keeps one computed table of ``product`` and
``project`` results keyed by the operator and the exact operands; machines
are canonical, so a table hit returns the bytes a rebuild would.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass, field

from tmprover import automata as au
from tmprover import linrep

# A NAME token starts with a letter, so no variable can take a fresh name.
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

# Binary connectives, loosest level first; each level is left-associative.
_BINARY = ({"IMPLIES": Implies, "IFF": Iff}, {"OR": Or}, {"AND": And})


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

    def parse_formula(self, level=0):
        """Connectives of ``_BINARY[level:]`` over unary formulas.  The
        tightest level calls ``parse_unary`` itself, so a parenthesis
        costs no extra frame of the recursion limit."""
        last = level == len(_BINARY) - 1
        f = self.parse_unary() if last else self.parse_formula(level + 1)
        while self.peek().kind in _BINARY[level]:
            node = _BINARY[level][self.next().kind]
            f = node(f, self.parse_unary() if last
                     else self.parse_formula(level + 1))
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
            args = []
            if self.peek().kind != "RPAREN":
                args.append(self.parse_term())
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
            self.next()
            return Var(tok.value)
        if tok.kind == "INT":
            try:
                value = int(tok.value)
            except ValueError:  # past the interpreter's int-string limit
                self.fail(f"numeral of {len(tok.value)} digits is too long")
            self.next()
            return Const(value)
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


def _key(a: au.MultiTrackAutomaton) -> tuple:
    """A machine's exact bytes, as a computed-table key."""
    return (a.tracks, a.transitions, a.initial, a.accepting)


class Compiler:
    """Compiles formulas over one predicate environment, which a caller may
    extend between calls.  ``product`` and ``project`` results are kept in a
    computed table keyed by the operator and the operands: canonical
    machines make each result a function of its operands' bytes, so a hit
    is exact.  The table lives as long as the compiler, one ``run_script``
    or ``compile_formula`` call."""

    def __init__(self, env: dict | None = None,
                 state_cap: int = au.DEFAULT_STATE_CAP):
        self.env = env if env is not None else {}
        self.state_cap = state_cap
        self._table = {}

    def _apply(self, op, a, b) -> au.MultiTrackAutomaton:
        """``project(a, b)`` if ``op`` is ``"project"``, else ``product(a, b,
        op)``, from the table; keyed by ``op`` and the operands' bytes."""
        key = (op, _key(a), b if op == "project" else _key(b))
        result = self._table.get(key)
        if result is None:
            result = self._table[key] = (
                au.project(a, b, self.state_cap) if op == "project"
                else au.product(a, b, op, self.state_cap))
        return result

    def _name(self, term, defs) -> str:
        """The track holding ``term``.  A sum or a numeral gets a fresh
        track, appended to ``defs`` with the machine that defines it.  Fresh
        names only need to differ within one atom, which eliminates them
        all, so equal atoms build equal machines."""
        if isinstance(term, Var):
            return term.name
        if isinstance(term, Const):
            v = f"{_FRESH_PREFIX}{len(defs)}"
            defs.append((v, au.constant(term.value, v)))
            return v
        if isinstance(term, Sum):
            a = self._name(term.left, defs)
            b = self._name(term.right, defs)
            out = f"{_FRESH_PREFIX}{len(defs)}"
            defs.append((out, au.adder(a, b, out)))
            return out
        raise CompileError(f"not a term: {term!r}")

    def _eliminate(self, var, machines) -> list[au.MultiTrackAutomaton]:
        """A conjunction of ``machines`` with ``var`` quantified, as a list:
        the machines that read track ``var`` are conjoined and ``var``
        projected, after the others, which keep their order.  Each product
        spans only the tracks its own operands use (early quantification),
        and a ``var`` no machine reads projects nothing."""
        inside, outside = [], []
        for m in machines:
            (inside if var in m.tracks else outside).append(m)
        if inside:
            outside.append(self._apply("project", self._conjoin(inside), var))
        return outside

    def compile(self, f) -> au.MultiTrackAutomaton:
        """Compile ``f`` to a canonical automaton on its free variables
        (tracks sorted by name)."""
        if isinstance(f, Not):
            return au.complement(self.compile(f.body))
        if isinstance(f, (And, Exists)):
            return self._conjoin(self._conjuncts(f))
        if isinstance(f, Forall):
            return au.complement(self.compile(Exists(f.var, Not(f.body))))
        if isinstance(f, (Or, Implies, Iff)):
            op = {Or: "or", Implies: "implies", Iff: "iff"}[type(f)]
            return self._apply(op, self.compile(f.left), self.compile(f.right))
        if isinstance(f, SeqCompare) and not isinstance(f.right, int):
            return self._apply("iff" if f.op == "=" else "xor",
                               self.compile(SeqCompare(f.left, "=", 1)),
                               self.compile(SeqCompare(f.right, "=", 1)))
        defs = []
        machines = [self._atom(f, defs)]
        # Latest first: a fresh track is read only by the atom's machine and
        # by the definitions made after its own, which are conjoined by then.
        for track, definition in reversed(defs):
            machines = self._eliminate(track, machines + [definition])
        return self._conjoin(machines)

    def _atom(self, f, defs) -> au.MultiTrackAutomaton:
        """The machine of atom ``f`` on its variables and on the fresh
        tracks of its terms, whose definitions go to ``defs``."""
        if isinstance(f, Compare):
            return au.comparison(self._name(f.left, defs),
                                 self._name(f.right, defs), f.op)
        if isinstance(f, SeqCompare):
            return au.seq_const(self._name(f.left, defs),
                                f.right if f.op == "=" else 1 - f.right)
        if not isinstance(f, Call):
            raise CompileError(f"not a formula: {f!r}")
        stored = self.env.get(f.name)
        if stored is None:
            raise CompileError(f"unknown predicate {f.name!r}")
        params = stored.tracks
        if len(f.args) != len(params):
            raise CompileError(
                f"{f.name!r} takes {len(params)} arguments "
                f"({', '.join(params)}), got {len(f.args)}")
        # A variable passed twice merges the tracks of its parameters.
        mapping = {param: self._name(arg, defs)
                   for param, arg in zip(params, f.args)}
        return au.rename_tracks(stored, mapping)

    def _conjuncts(self, f) -> list[au.MultiTrackAutomaton]:
        """The compiled conjuncts of ``f``, in order; ``Ev body`` eliminates
        ``v`` from the body's conjuncts."""
        if isinstance(f, And):
            return self._conjuncts(f.left) + self._conjuncts(f.right)
        if isinstance(f, Exists):
            return self._eliminate(f.var, self._conjuncts(f.body))
        return [self.compile(f)]

    def _conjoin(self, machines) -> au.MultiTrackAutomaton:
        return functools.reduce(
            lambda a, b: self._apply("and", a, b), machines)


def compile_formula(f, env=None,
                    state_cap=au.DEFAULT_STATE_CAP) -> au.MultiTrackAutomaton:
    """Canonical automaton of ``f`` on exactly its free variables (tracks
    sorted by name), from a fresh ``Compiler``: no computed-table entry
    outlives the call."""
    if isinstance(f, str):
        f = parse_formula(f)
    return Compiler(env, state_cap).compile(f)


def decide(f, env=None, state_cap=au.DEFAULT_STATE_CAP) -> bool:
    """Truth value of a sentence (a formula with no free variables): its
    machine has no tracks."""
    machine = compile_formula(f, env, state_cap)
    if machine.tracks:
        raise CompileError(
            f"sentence has free variables: {list(machine.tracks)}")
    return not au.is_empty(machine)


# ---------------------------------------------------------------------------
# Script execution


@dataclass
class CommandResult:
    kind: str
    name: str
    verdict: str  # "TRUE" | "FALSE" | "n/a"
    elapsed_ms: float
    automaton: au.MultiTrackAutomaton
    rep: linrep.LinearRepresentation | None  # eval NAME VAR only


@dataclass
class ProofReport:
    commands: list[CommandResult] = field(default_factory=list)

    def result(self, name: str) -> CommandResult:
        for c in self.commands:
            if c.name == name:
                return c
        raise KeyError(name)


def run_script(source: str,
               state_cap: int = au.DEFAULT_STATE_CAP) -> ProofReport:
    """Execute a script: defs populate the environment in order, evals are
    decided, or compiled if they have free variables, and each ``eval NAME
    VAR`` yields the linear representation that counts, per value of VAR,
    the values of its formula's other free variable.  Every
    command compiles through one ``Compiler``, so a ``product`` or
    ``project`` that an earlier command already made is looked up, not
    rebuilt, and its time counts only in that earlier command."""
    env = {}
    report = ProofReport()
    try:
        commands = parse_script(source)
    except ParseError as exc:
        raise ScriptError(str(exc)) from exc
    compiler = Compiler(env, state_cap)
    for cmd in commands:
        start = time.perf_counter()
        try:
            machine = compiler.compile(cmd.formula)
            verdict, rep = "n/a", None
            if cmd.kind == "def":
                env[cmd.name] = machine
            elif cmd.kind == "eval_count":
                counted = next((t for t in machine.tracks
                                if t != cmd.count_var), None)
                try:
                    query = linrep.counting_query(machine, counted,
                                                  cmd.count_var)
                except ValueError as exc:
                    raise CompileError(str(exc)) from exc
                rep = linrep.extract_counting(query)
            elif not machine.tracks:
                verdict = "TRUE" if not au.is_empty(machine) else "FALSE"
        except RecursionError:
            raise ScriptError(f"{cmd.kind} {cmd.name} (line {cmd.line}): "
                              f"formula nests too deeply") from None
        except (CompileError, linrep.NoncountableError, au.StateLimitError,
                au.TrackMismatchError) as exc:
            raise ScriptError(
                f"{cmd.kind} {cmd.name} (line {cmd.line}): {exc}") from exc
        elapsed = (time.perf_counter() - start) * 1000.0
        report.commands.append(CommandResult(
            kind=cmd.kind, name=cmd.name, verdict=verdict,
            elapsed_ms=elapsed, automaton=machine, rep=rep))
    return report
