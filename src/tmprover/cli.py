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

Exit codes: 0 success / all checks pass, 1 check failure or verdict
mismatch, 2 usage, script or resource error (commands raise; ``main`` prints
``error: ...`` and returns 2).  Machine-readable output is line
oriented ``key=value``, sorted by key, and never contains timings, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import importlib.resources
import random
import sys

from tmprover import automata as au
from tmprover import core, linrep, logic

PATTERN_NAMES = ("abpat", "bapat", "abbapat", "baabpat")

# selftest classifies every factor of length 2..SELFTEST_MAX_LENGTH.
SELFTEST_MAX_LENGTH = 6

_PATTERN_TO_CLASS = {
    "abpat": core.PatternClass.AB,
    "bapat": core.PatternClass.BA,
    "abbapat": core.PatternClass.ABBA,
    "baabpat": core.PatternClass.BAAB,
}


def fixture_text(name: str) -> str:
    return (importlib.resources.files("tmprover") / "fixtures" / name
            ).read_text()


def _finish(pairs, ok: bool, out=None) -> int:
    """Write the sorted ``key=value`` block, ``overall`` included; the exit
    code is 0 if every check passed, else 1."""
    pairs["overall"] = "pass" if ok else "fail"
    lines = [f"{key}={value}" for key, value in sorted(pairs.items())]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


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


def _pattern_machines(state_cap: int, dfao=None) -> dict[str, object]:
    report = logic.run_script(fixture_text("paper_thm1.wal"), dfao=dfao,
                              state_cap=state_cap)
    return {c.name: c.automaton for c in report.commands if c.kind == "def"}


def _automaton_route(machines, start: int, length: int):
    """The pattern machines accepting (start, length), and their class if
    exactly one does (else None)."""
    hits = [name for name in PATTERN_NAMES
            if au.accepts(machines[name], [start, length])]
    return hits, _PATTERN_TO_CLASS[hits[0]] if len(hits) == 1 else None


def _counting_reps(state_cap: int, dfao=None):
    report = logic.run_script(fixture_text("paper_count.wal"), dfao=dfao,
                              state_cap=state_cap)
    out = {}
    for name in ("mab", "mabba"):
        machine = report.result(name).automaton
        out[name] = linrep.extract_counting(
            linrep.counting_query(machine, "i", "n"))
    return out


# ---------------------------------------------------------------------------
# prove


def cmd_prove(args) -> int:
    with open(args.script) as fh:
        script = fh.read()
    expectations = _load_expectations(args.expected)
    report = logic.run_script(script, state_cap=args.state_cap)
    pairs = {}
    ok = True
    for cmd in report.commands:
        print(f"{cmd.kind:10s} {cmd.name:12s} verdict={cmd.verdict:5s} "
              f"states={cmd.states:6d} elapsed={cmd.elapsed_ms:9.1f} ms")
        pairs[f"cmd.{cmd.name}.kind"] = cmd.kind
        pairs[f"cmd.{cmd.name}.states"] = cmd.states
        if cmd.kind != "def":
            pairs[f"cmd.{cmd.name}.verdict"] = cmd.verdict
    for name, want in expectations.items():
        have = next((c.verdict for c in report.commands if c.name == name),
                    "missing")
        pairs[f"expected.{name}"] = want
        if have != want:
            ok = False
            print(f"MISMATCH {name}: expected {want}, got {have}")
    print(f"overall: {'pass' if ok else 'fail'}")
    return _finish(pairs, ok, args.out)


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    prefix = core.generate_prefix(args.window)
    occ = core.scan_occurrences(prefix, core.FactorRef(args.start, args.length))
    oracle = core.classify_pattern(occ, args.min_occ)
    # The pattern machines are built before anything is printed, so a
    # resource error leaves stdout empty.
    routed = oracle != core.PatternClass.INSUFFICIENT and args.length >= 2
    machines = _pattern_machines(args.state_cap) if routed else None
    pairs = {"oracle.class": oracle.value,
             "factor.start": args.start, "factor.length": args.length}
    first_a = next((p for p, lab in occ.entries if lab == "A"), None)
    first_b = next((p for p, lab in occ.entries if lab == "B"), None)
    print(f"factor t[{args.start}..{args.start + args.length - 1}] = "
          f"{prefix.factor(args.start, args.length)}")
    print(f"oracle class: {oracle.value}")
    print(f"first occurrence (factor): {first_a}")
    print(f"first occurrence (complement): {first_b}")
    pairs["first.factor"] = first_a
    pairs["first.complement"] = first_b
    if oracle == core.PatternClass.INSUFFICIENT:
        print("error: window too small for classification", file=sys.stderr)
        return _finish(pairs, False, args.out)
    if args.length < 2:
        print("automaton route: n < 2 unsupported (single symbols are "
              "Thue-Morse coded)")
        pairs["automaton.class"] = "unsupported"
        return _finish(pairs, True, args.out)
    hits, automaton_class = _automaton_route(machines, args.start,
                                             args.length)
    if automaton_class is None:
        print(f"error: automaton route matched {hits!r}", file=sys.stderr)
        return _finish(pairs, False, args.out)
    print(f"automaton class: {automaton_class.value}")
    pairs["automaton.class"] = automaton_class.value
    ok = automaton_class == oracle
    if not ok:
        print("error: oracle and automaton disagree", file=sys.stderr)
    return _finish(pairs, ok, args.out)


# ---------------------------------------------------------------------------
# count


def _route_values(n: int, reps, window: int, min_occ: int):
    counts = core.count_by_class(n, window, min_occ)
    f_routes = {"brute": counts.get(core.PatternClass.AB, 0)}
    g_routes = {"brute": counts.get(core.PatternClass.ABBA, 0)}
    f_routes["linrep"] = linrep.evaluate(reps["mab"], n - 1)
    g_routes["linrep"] = linrep.evaluate(reps["mabba"], n - 1)
    if n >= 2:
        f_routes["recurrence"] = 2 * core.a006165(n - 1)
        f_routes["closed"] = core.f_closed(n)
    g_routes["recurrence"] = core.a060973(n - 1)
    if n >= 3:
        g_routes["closed"] = core.g_closed(n)
    return f_routes, g_routes


def cmd_count(args) -> int:
    if args.n_max < 2:
        raise ValueError("need n_max >= 2")
    if args.n_max > 4096:
        raise core.ResourceLimitError("n_max exceeds the resource cap (4096)")
    if args.window < args.n_max:
        raise ValueError(f"--window {args.window} is shorter than the longest "
                         f"factor, n_max={args.n_max}")
    reps = _counting_reps(args.state_cap)
    pairs = {}
    ok = True
    # The table is printed once every row is computed, so an error on a
    # later row (a window above the prefix cap) leaves stdout empty.
    table = [f"{'n':>4s} {'f(n)':>6s} {'g(n)':>6s}  routes"]
    for n in range(1, args.n_max + 1):
        f_routes, g_routes = _route_values(n, reps, args.window, args.min_occ)
        f_vals, g_vals = set(f_routes.values()), set(g_routes.values())
        flag = "" if len(f_vals) == 1 and len(g_vals) == 1 else "  MISMATCH"
        if flag:
            ok = False
        f_show = ",".join(f"{k}={v}" for k, v in sorted(f_routes.items()))
        g_show = ",".join(f"{k}={v}" for k, v in sorted(g_routes.items()))
        table.append(f"{n:4d} {f_routes['brute']:6d} {g_routes['brute']:6d}"
                     f"  f[{f_show}] g[{g_show}]{flag}")
        for key, val in f_routes.items():
            pairs[f"row.{n}.f.{key}"] = val
        for key, val in g_routes.items():
            pairs[f"row.{n}.g.{key}"] = val
        pairs[f"row.{n}.agree"] = "yes" if not flag else "no"
    print("\n".join(table))
    print(f"overall: {'pass' if ok else 'fail'}")
    return _finish(pairs, ok, args.out)


# ---------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    machines = _pattern_machines(args.state_cap)
    dot = au.export_dot(machines[args.pattern], args.digit_order)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_sequence(dfao) -> list[str]:
    failures = []
    if any(dfao.value(k) != core.tm_bit(k) for k in range(1 << 12)):
        failures.append("sequence machine disagrees with bit parity")
    return failures


def _selftest_algebra(rng) -> list[str]:
    failures = []
    for trial in range(40):
        n = rng.randint(1, 4)
        trans = [[rng.randrange(n) for _ in range(4)] for _ in range(n)]
        accepting = {q for q in range(n) if rng.random() < 0.4}
        a = au.zero_close(au.MultiTrackAutomaton(
            ("x", "y"), trans, 0, accepting))
        b = au.complement(a)
        if not au.is_empty(au.product(a, b, "and")):
            failures.append(f"algebra trial {trial}: a & ~a nonempty")
        if not au.equivalent(au.complement(b), a):
            failures.append(f"algebra trial {trial}: double complement")
    return failures


def _selftest_classification(window, min_occ, state_cap, dfao) -> list[str]:
    failures = []
    machines = _pattern_machines(state_cap, dfao)
    prefix = core.generate_prefix(window)
    for n in range(2, SELFTEST_MAX_LENGTH + 1):
        try:
            classes = core.classify_all_factors(n, window, min_occ)
        except core.ClassificationError as exc:
            failures.append(f"n={n}: {exc}")
            continue
        firsts = {}
        for i in range(min(256, window - n)):
            text = prefix.factor(i, n)
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


def _selftest_counting(state_cap, dfao) -> list[str]:
    failures = []
    reps = _counting_reps(state_cap, dfao)
    for n in range(1, 33):
        counts = core.count_by_class(n, 1 << 14)
        for name, cls in (("mab", core.PatternClass.AB),
                          ("mabba", core.PatternClass.ABBA)):
            if linrep.evaluate(reps[name], n - 1) != counts.get(cls, 0):
                failures.append(
                    f"{name} value differs from brute force at n={n}")
    r2 = linrep.from_recurrence_a006165()
    r4 = linrep.from_recurrence_a060973()
    if any(linrep.evaluate(r2, n) != core.a006165(n) for n in range(1, 65)):
        failures.append("a006165 fixture breaks its recurrence values")
    if any(linrep.evaluate(r4, n) != core.a060973(n) for n in range(65)):
        failures.append("a060973 fixture breaks its recurrence values")
    diff = linrep.minimize_rep(linrep.subtract(
        reps["mab"], linrep.reverse_rep(linrep.scale(r2, 2))))
    if diff.dim != 1 or linrep.evaluate(diff, 0) != -2:
        failures.append("counting identity defect is not -2[n=0] of rank 1")
    if linrep.minimize_rep(linrep.subtract(
            reps["mabba"], linrep.reverse_rep(r4))).dim != 0:
        failures.append("counting identity for the ABBA class is not rank 0")
    return failures


def cmd_selftest(args) -> int:
    if args.window < SELFTEST_MAX_LENGTH:
        raise ValueError(f"--window {args.window} is shorter than the longest "
                         f"factor selftest classifies ({SELFTEST_MAX_LENGTH})")
    dfao = au.tm_dfao()
    if args.corrupt_dfao:
        dfao = au.Dfao(((0, 1), (1, 1)), 0, (0, 1))  # deliberate fault hook
    rng = random.Random(20250808)
    suites = (
        ("sequence", lambda: _selftest_sequence(dfao)),
        ("algebra", lambda: _selftest_algebra(rng)),
        ("classification", lambda: _selftest_classification(
            args.window, args.min_occ, args.state_cap, dfao)),
        ("counting", lambda: _selftest_counting(args.state_cap, dfao)),
    )
    # Every suite runs before anything is printed, so a usage or resource
    # error raised by a later suite leaves stdout empty.
    results = [(name, run()) for name, run in suites]
    for name, failures in results:
        print(f"selftest.{name}: {'FAIL' if failures else 'pass'}")
        for message in failures[:8]:
            print(f"  - {message}")
    overall_ok = not any(failures for _, failures in results)
    print(f"overall: {'pass' if overall_ok else 'fail'}")
    return 0 if overall_ok else 1


# ---------------------------------------------------------------------------


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
    p.add_argument("--digit-order", choices=("lsd", "msd"), default="msd")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("selftest", help="oracle-vs-automata invariant suites")
    p.add_argument("--corrupt-dfao", action="store_true",
                   help=argparse.SUPPRESS)  # fault-injection test hook
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.min_occ < 4:
        parser.error("--min-occ must be at least 4")
    try:
        if args.window < 1:
            raise ValueError(f"--window must be at least 1, got {args.window}")
        return args.func(args)
    except (OSError, ValueError, logic.ScriptError, core.ClassificationError,
            core.ResourceLimitError, linrep.NoncountableError,
            au.StateLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
