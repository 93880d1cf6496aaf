"""Batch command-line front end.

Subcommands:

* ``prove SCRIPT --expected FILE``  replay a proof script and compare the
  eval verdicts against the expectation file (``name=TRUE|FALSE|n/a`` lines).
* ``classify I N``                  intertwining class of t[I..I+N-1], by
  brute-force scan and by automaton membership, cross-checked.
* ``count NMAX``                    factor-count table via four independent
  routes, cross-checked row by row.
* ``export PATTERN``                DOT rendering of a pattern automaton.
* ``selftest``                      desk-scale oracle-vs-automata and
  counting invariant suites.

Each command computes its whole report and returns it to ``main``, which
writes the ``--out`` file first and then stdout and stderr, so after any
error stdout is empty.  Exit codes: 0 success / all checks pass, 1 check
failure or verdict mismatch, 2 usage, script or resource error (commands
raise; ``main`` prints ``error: ...`` and returns 2).  A failed internal
consistency check is a failed check too: ``main`` prints ``internal
error: ...`` and returns 1.  Machine-readable output is line oriented
``key=value``, sorted by key, and never contains timings, so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import sys
from collections import Counter

from tmprover import automata as au
from tmprover import core, linrep, logic

PATTERN_NAMES = ("abpat", "bapat", "abbapat", "baabpat")

# selftest classifies every factor of length 2..SELFTEST_MAX_LENGTH.
SELFTEST_MAX_LENGTH = 6

# -2[n=0]: the AB-class count minus twice A006165, a series of rank 1.
_AB_DEFECT = linrep.LinearRepresentation((1,), (((1,),), ((0,),)), (-2,))

_PATTERN_TO_CLASS = {
    "abpat": core.PatternClass.AB,
    "bapat": core.PatternClass.BA,
    "abbapat": core.PatternClass.ABBA,
    "baabpat": core.PatternClass.BAAB,
}


def fixture_text(name: str) -> str:
    return (importlib.resources.files("tmprover") / "fixtures" / name
            ).read_text()


def _block(pairs, ok: bool) -> str:
    """The sorted ``key=value`` block, ``overall`` included."""
    pairs["overall"] = "pass" if ok else "fail"
    return "".join(f"{key}={value}\n" for key, value in sorted(pairs.items()))


def _load_expectations(path: str) -> dict[str, str]:
    expectations = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, eq, verdict = (part.strip() for part in line.partition("="))
            if (not eq or not name or name in expectations
                    or verdict not in ("TRUE", "FALSE", "n/a")):
                raise ValueError(f"bad expectation line: {raw.rstrip()}")
            expectations[name] = verdict
    return expectations


def _pattern_machines(state_cap: int) -> dict[str, object]:
    report = logic.run_script(fixture_text("paper_thm1.wal"), state_cap)
    return {c.name: c.automaton for c in report.commands if c.kind == "def"}


def _automaton_route(machines, start: int, length: int):
    """The pattern machines accepting (start, length), and their class if
    exactly one does (else None)."""
    hits = [name for name in PATTERN_NAMES
            if au.accepts(machines[name], [start, length])]
    return hits, _PATTERN_TO_CLASS[hits[0]] if len(hits) == 1 else None


def _counting_reps(state_cap: int):
    report = logic.run_script(fixture_text("paper_count.wal"), state_cap)
    return {name: report.result(name).rep for name in ("mab", "mabba")}


# ---------------------------------------------------------------------------
# prove


def cmd_prove(args):
    with open(args.script) as fh:
        script = fh.read()
    expectations = _load_expectations(args.expected)
    report = logic.run_script(script, state_cap=args.state_cap)
    lines, pairs = [], {}
    ok = True
    for cmd in report.commands:
        states = cmd.automaton.num_states
        lines.append(f"{cmd.kind:10s} {cmd.name:12s} verdict={cmd.verdict:5s} "
                     f"states={states:6d} elapsed={cmd.elapsed_ms:9.1f} ms")
        pairs[f"cmd.{cmd.name}.kind"] = cmd.kind
        pairs[f"cmd.{cmd.name}.states"] = states
        if cmd.kind != "def":
            pairs[f"cmd.{cmd.name}.verdict"] = cmd.verdict
    for name, want in expectations.items():
        have = next((c.verdict for c in report.commands if c.name == name),
                    "missing")
        pairs[f"expected.{name}"] = want
        if have != want:
            ok = False
            lines.append(f"MISMATCH {name}: expected {want}, got {have}")
    lines.append(f"overall: {'pass' if ok else 'fail'}")
    return lines, [], _block(pairs, ok), ok


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args):
    word = core.generate_prefix(args.window)
    entries = core.scan_occurrences(word, args.start, args.length)
    oracle = core.classify_pattern(entries, args.length, args.min_occ)
    first_a = next((p for p, lab in entries if lab == "A"), None)
    first_b = next((p for p, lab in entries if lab == "B"), None)
    lines = [f"factor t[{args.start}..{args.start + args.length - 1}] = "
             f"{word[args.start:args.start + args.length]}",
             f"oracle class: {oracle.value}",
             f"first occurrence (factor): {first_a}",
             f"first occurrence (complement): {first_b}"]
    pairs = {"oracle.class": oracle.value,
             "factor.start": args.start, "factor.length": args.length,
             "first.factor": first_a, "first.complement": first_b}
    if oracle == core.PatternClass.INSUFFICIENT:
        errors = ["error: window too small for classification"]
        return lines, errors, _block(pairs, False), False
    if args.length < 2:
        lines.append("automaton route: n < 2 unsupported (single symbols are "
                     "Thue-Morse coded)")
        pairs["automaton.class"] = "unsupported"
        return lines, [], _block(pairs, True), True
    hits, automaton_class = _automaton_route(
        _pattern_machines(args.state_cap), args.start, args.length)
    if automaton_class is None:
        errors = [f"error: automaton route matched {hits!r}"]
        return lines, errors, _block(pairs, False), False
    lines.append(f"automaton class: {automaton_class.value}")
    pairs["automaton.class"] = automaton_class.value
    ok = automaton_class == oracle
    errors = [] if ok else ["error: oracle and automaton disagree"]
    return lines, errors, _block(pairs, ok), ok


# ---------------------------------------------------------------------------
# count


def _agree(routes) -> bool:
    return len(set(routes.values())) == 1


def _show(routes) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(routes.items()))


def _count_rows(reps, n_max: int, window: int, min_occ: int):
    """For n = 1..n_max: the class counts of the length-n factors, then the
    f and g routes (brute force, linear representation, recurrence and,
    where defined, closed form), each a dict from route to value."""
    lengths = core.classify_lengths(n_max, window, min_occ)
    for n, classes in enumerate(lengths, 1):
        counts = Counter(classes.values())
        f_routes = {"brute": counts[core.PatternClass.AB],
                    "linrep": linrep.evaluate(reps["mab"], n - 1)}
        g_routes = {"brute": counts[core.PatternClass.ABBA],
                    "linrep": linrep.evaluate(reps["mabba"], n - 1),
                    "recurrence": core.a060973(n - 1)}
        if n >= 2:
            f_routes["recurrence"] = 2 * core.a006165(n - 1)
            f_routes["closed"] = core.f_closed(n)
        if n >= 3:
            g_routes["closed"] = core.g_closed(n)
        yield counts, f_routes, g_routes


def cmd_count(args):
    if args.n_max < 2:
        raise ValueError("need n_max >= 2")
    if args.n_max > 4096:
        raise core.ResourceLimitError("n_max exceeds the resource cap (4096)")
    if args.window < args.n_max:
        raise ValueError(f"--window {args.window} is shorter than the longest "
                         f"factor, n_max={args.n_max}")
    rows = _count_rows(_counting_reps(args.state_cap), args.n_max,
                       args.window, args.min_occ)
    pairs, errors = {}, []
    ok = True
    lines = [f"{'n':>4s} {'f(n)':>6s} {'g(n)':>6s}  routes"]
    for n, (counts, f_routes, g_routes) in enumerate(rows, 1):
        flag = "" if _agree(f_routes) and _agree(g_routes) else "  MISMATCH"
        ok = ok and not flag
        short = counts[core.PatternClass.INSUFFICIENT]
        if flag and short:
            errors.append(f"row {n}: {short} factors occur, with their "
                          f"complements, fewer than --min-occ {args.min_occ} "
                          f"times in --window {args.window}; the brute-force "
                          f"route counts none of them")
        lines.append(f"{n:4d} {f_routes['brute']:6d} {g_routes['brute']:6d}"
                     f"  f[{_show(f_routes)}] g[{_show(g_routes)}]{flag}")
        for key, val in f_routes.items():
            pairs[f"row.{n}.f.{key}"] = val
        for key, val in g_routes.items():
            pairs[f"row.{n}.g.{key}"] = val
        pairs[f"row.{n}.agree"] = "yes" if not flag else "no"
    lines.append(f"overall: {'pass' if ok else 'fail'}")
    return lines, errors, _block(pairs, ok), ok


# ---------------------------------------------------------------------------
# export


def cmd_export(args):
    machines = _pattern_machines(args.state_cap)
    return [], [], au.export_dot(machines[args.pattern]), True


# ---------------------------------------------------------------------------
# selftest


def _selftest_sequence() -> list[str]:
    failures = []
    machine = au.seq_const("k", 1)
    if any(au.accepts(machine, [k]) != core.tm_bit(k)
           for k in range(1 << 12)):
        failures.append("sequence machine disagrees with bit parity")
    differs = logic.compile_formula("T[k]!=1")
    if any(au.accepts(differs, [k]) == core.tm_bit(k)
           for k in range(1 << 12)):
        failures.append("T[k]!=1 disagrees with bit parity")
    return failures


def _selftest_algebra(machines) -> list[str]:
    failures = []
    for name, a in machines.items():
        b = au.complement(a)
        if not au.is_empty(au.product(a, b, "and")):
            failures.append(f"algebra {name}: a & ~a nonempty")
        if not au.equivalent(au.complement(b), a):
            failures.append(f"algebra {name}: double complement")
    # The conjunct that does not read x survives its elimination.
    free = logic.compile_formula("Ex (x<y & z=1)")
    if free.tracks != ("y", "z") or any(
            au.accepts(free, [y, z]) != (y >= 1 and z == 1)
            for y in range(16) for z in range(16)):
        failures.append("Ex (x<y & z=1) is not y>=1 & z=1")
    return failures


def _selftest_classification(machines, window, min_occ) -> list[str]:
    failures = []
    word = core.generate_prefix(window)
    lengths = core.classify_lengths(SELFTEST_MAX_LENGTH, window, min_occ)
    for n in range(1, SELFTEST_MAX_LENGTH + 1):
        # A pass that raised is finished: the first classification error
        # is the suite's last failure.
        try:
            classes = next(lengths)
        except core.ClassificationError as exc:
            failures.append(f"n={n}: {exc}")
            break
        if n == 1:
            continue
        firsts = {}
        for i in range(min(256, window - n)):
            text = word[i:i + n]
            if text not in firsts:
                firsts[text] = i
        for text, i in firsts.items():
            want = classes[text]
            if want == core.PatternClass.INSUFFICIENT:
                failures.append(f"n={n} i={i}: window too small (INSUFFICIENT)")
                continue
            hits, got = _automaton_route(machines, i, n)
            if got != want:
                failures.append(
                    f"n={n} i={i}: oracle {want.value} vs automata {hits}")
    return failures


def _selftest_counting(state_cap) -> list[str]:
    failures = []
    reps = _counting_reps(state_cap)
    rows = _count_rows(reps, 32, 1 << 14, core.DEFAULT_MIN_OCCURRENCES)
    for n, (_, *f_and_g) in enumerate(rows, 1):
        for name, routes in zip("fg", f_and_g):
            if not _agree(routes):
                failures.append(f"row {n}: {name} routes disagree "
                                f"[{_show(routes)}]")
    r2 = linrep.from_recurrence_a006165()
    r4 = linrep.from_recurrence_a060973()
    if any(linrep.evaluate(r2, n) != core.a006165(n) for n in range(1, 65)):
        failures.append("a006165 fixture breaks its recurrence values")
    if any(linrep.evaluate(r4, n) != core.a060973(n) for n in range(65)):
        failures.append("a060973 fixture breaks its recurrence values")
    identities = (
        (linrep.subtract(reps["mab"], linrep.scale(r2, 2)),
         _AB_DEFECT, "counting identity defect is not -2[n=0] of rank 1"),
        (reps["mabba"], r4,
         "counting identity for the ABBA class is not rank 0"),
        (reps["mab"], linrep.reference_count_ab(),
         "mab differs from the shipped count_ab.lr"),
        (reps["mabba"], linrep.reference_count_abba(),
         "mabba differs from the shipped count_abba.lr"))
    failures += [message for a, b, message in identities
                 if not linrep.equal_reps(a, b)]
    if linrep.equal_reps(reps["mabba"], linrep.scale(r4, 2)):
        failures.append("mabba equals twice A060973")
    return failures


def cmd_selftest(args):
    if args.out:
        raise ValueError("selftest writes no --out block")
    if args.window < SELFTEST_MAX_LENGTH:
        raise ValueError(f"--window {args.window} is shorter than the longest "
                         f"factor selftest classifies ({SELFTEST_MAX_LENGTH})")
    machines = _pattern_machines(args.state_cap)
    results = {
        "sequence": _selftest_sequence(),
        "algebra": _selftest_algebra(machines),
        "classification": _selftest_classification(
            machines, args.window, args.min_occ),
        "counting": _selftest_counting(args.state_cap),
    }
    lines = []
    for name, failures in results.items():
        lines.append(f"selftest.{name}: {'FAIL' if failures else 'pass'}")
        lines.extend(f"  - {message}" for message in failures[:8])
    ok = not any(results.values())
    lines.append(f"overall: {'pass' if ok else 'fail'}")
    return lines, [], None, ok


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process serves every call of ``main``
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmprover",
        description="Decision engine for first-order statements about the "
                    "Thue-Morse word")
    parser.add_argument("--state-cap", type=int, default=au.DEFAULT_STATE_CAP,
                        help="automaton construction size guard")
    parser.add_argument("--window", type=int, default=core.DEFAULT_WINDOW,
                        help="prefix length scanned by the brute-force oracle")
    parser.add_argument("--min-occ", type=int,
                        default=core.DEFAULT_MIN_OCCURRENCES,
                        help="occurrences required before classifying")
    parser.add_argument("--out", help="write machine-readable output here "
                        "instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="replay a proof script")
    p.add_argument("script")
    p.add_argument("--expected", required=True)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("classify", help="classify one factor")
    p.add_argument("start", type=int)
    p.add_argument("length", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count", help="factor-count table with cross-checks")
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("export", help="DOT rendering of a pattern automaton")
    p.add_argument("pattern", choices=PATTERN_NAMES)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("selftest", help="oracle-vs-automata invariant suites")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.min_occ < 4:
        parser.error("--min-occ must be at least 4")
    try:
        for flag, value in (("--window", args.window),
                            ("--state-cap", args.state_cap)):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1, got {value}")
        lines, errors, block, ok = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(block)
    except (OSError, ValueError, logic.ScriptError, core.ClassificationError,
            core.ResourceLimitError, au.StateLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except core.InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for line in errors:
        print(line, file=sys.stderr)
    if block and not args.out:
        sys.stdout.write(block)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
