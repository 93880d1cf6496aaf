"""The four workloads: seeded input generation, one item, and its check.

Every workload is a closed loop over a seeded schedule of items, one item
at a time.  The schedule is built from rounds; each round holds a fixed
multiset of items in a seed-chosen order, so every seed does the same
amount of work per round and the seed changes inputs, not cost.

Each item raises ``ItemFailure`` (or any other exception) when an output
disagrees with its reference.  References come from the fixture
expectations, from construction, or from ``reference.py``; none is
produced by the code under test.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path

from reference import Recurrences, expected_counts

_KEY_VALUE = re.compile(r"([\w.]+)=(\S*)")


class ItemFailure(Exception):
    """An item's output disagrees with its reference."""


def run_cli(cli, argv):
    """Run the command line in-process and return its ``key=value`` lines.
    A non-zero exit code or an overall result other than pass fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    pairs = {}
    for line in out.getvalue().splitlines():
        match = _KEY_VALUE.fullmatch(line)
        if match:
            pairs[match.group(1)] = match.group(2)
    if code != 0:
        raise ItemFailure(f"exit code {code}: {err.getvalue().strip()[:200]}")
    if pairs.get("overall") != "pass":
        raise ItemFailure(f"overall={pairs.get('overall')}")
    return pairs


def write_input(path: Path, text: str) -> str:
    """Write a generated input unless an identical file is already there:
    rewriting a file in place can cost tens of milliseconds on a
    filesystem that discards freed blocks, which would make set-up time
    depend on earlier runs with the same seed."""
    try:
        if path.read_text() == text:
            return str(path)
    except FileNotFoundError:
        pass
    path.write_text(text)
    return str(path)


def read_expectations(path: Path) -> dict[str, str]:
    out = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, _, verdict = line.partition("=")
            out[name.strip()] = verdict.strip()
    return out


def check_verdicts(pairs, expected: dict[str, str]):
    for name, want in expected.items():
        have = pairs.get(f"cmd.{name}.verdict")
        if have != want:
            raise ItemFailure(f"{name}: expected {want}, got {have}")


def rounds(rng: random.Random, items: list, count: int) -> list:
    """``count`` rounds of ``items``, each round in a seed-chosen order."""
    return [item for _ in range(count) for item in rng.sample(items, len(items))]


# ---------------------------------------------------------------------------


class Proofs:
    """The shipped proof scripts replayed by ``prove``."""

    name = "proofs"
    scripts = ("paper_thm1", "paper_thm2", "paper_count")
    round_size = len(scripts)

    def setup(self, pkg, fixtures: Path, work: Path, seed: int):
        inputs = {}
        for script in self.scripts:
            wal, exp = (write_input(work / (script + suffix),
                                    (fixtures / (script + suffix)).read_text())
                        for suffix in (".wal", ".expected"))
            inputs[script] = (wal, exp, read_expectations(Path(exp)))
        schedule = rounds(random.Random(seed), list(self.scripts), 200)
        return {"schedule": schedule, "inputs": inputs}

    def run(self, pkg, state, script):
        wal, expected_path, expected = state["inputs"][script]
        pairs = run_cli(pkg["cli"], ["prove", wal, "--expected", expected_path])
        check_verdicts(pairs, expected)


class Chain:
    """k-variable chain sentences, k = 4..10: TRUE when acyclic, FALSE when
    closed.  One item proves the open and the closed chain of one rung."""

    name = "chain"
    rungs = (4, 5, 6, 7, 8, 9, 10)
    round_size = len(rungs)

    @staticmethod
    def script(k: int, rng: random.Random) -> str:
        # A renaming of Ev0..v(k-1) v0<v1 & ... & v(k-2)<v(k-1): the
        # quantifier prefix keeps chain order, so the seed changes the
        # track layout and the conjunct order but hardly the work.
        order = rng.sample([f"v{i}" for i in range(k)], k)
        conjuncts = [f"{a}<{b}" for a, b in zip(order, order[1:])]
        rng.shuffle(conjuncts)
        closed = list(conjuncts)
        closed.insert(rng.randrange(k), f"{order[-1]}<{order[0]}")
        prefix = "E" + ",".join(order) + " "
        return (f"# {k}-variable chain {'<'.join(order)}\n"
                f'eval open{k} "{prefix}{" & ".join(conjuncts)}":\n'
                f'eval closed{k} "{prefix}{" & ".join(closed)}":\n')

    def setup(self, pkg, fixtures: Path, work: Path, seed: int):
        rng = random.Random(seed)
        expected = {}
        for k in self.rungs:
            verdicts = {f"open{k}": "TRUE", f"closed{k}": "FALSE"}
            path = write_input(work / f"chain_k{k}.expected", "".join(
                f"{name}={verdict}\n" for name, verdict in verdicts.items()))
            expected[k] = (path, verdicts)
        # Ten rounds of scripts, cycled: few files keep set-up off the disk.
        schedule = []
        for index, k in enumerate(rounds(rng, list(self.rungs), 10)):
            wal = write_input(work / f"chain{index:02d}_k{k}.wal",
                              self.script(k, rng))
            schedule.append((wal, *expected[k]))
        return {"schedule": schedule}

    def run(self, pkg, state, item):
        wal, exp, expected = item
        pairs = run_cli(pkg["cli"], ["prove", wal, "--expected", exp])
        check_verdicts(pairs, expected)


class Count:
    """``count N``: four routes per row, checked against the closed forms."""

    name = "count"
    # Near the roadmap's ``count 64``.  The oracle window is cut from the
    # default 131072 to 8192 so that one item takes about 0.35 s (2 cores, AMD EPYC) and a run
    # holds enough items for a tail percentile; the sweep still dominates.
    sizes = (52, 56, 60, 64, 68)
    round_size = len(sizes)
    window = 8192

    def setup(self, pkg, fixtures: Path, work: Path, seed: int):
        rec = Recurrences()
        table = {n: expected_counts(n, rec) for n in range(1, max(self.sizes) + 1)}
        schedule = rounds(random.Random(seed), list(self.sizes), 60)
        return {"schedule": schedule, "table": table}

    def run(self, pkg, state, n_max):
        pairs = run_cli(pkg["cli"],
                        ["--window", str(self.window), "count", str(n_max)])
        table = state["table"]
        for n in range(1, n_max + 1):
            if pairs.get(f"row.{n}.agree") != "yes":
                raise ItemFailure(f"row {n}: routes disagree")
            for fn, want in zip("fg", table[n]):
                routes = {k: v for k, v in pairs.items()
                          if k.startswith(f"row.{n}.{fn}.")}
                if not routes or any(int(v) != want for v in routes.values()):
                    raise ItemFailure(f"row {n}: {fn} routes {routes}, "
                                      f"reference {want}")
        if f"row.{n_max + 1}.agree" in pairs:
            raise ItemFailure(f"table runs past n={n_max}")


class Counting:
    """Counting representations: values over a seeded range of n, and the
    rank-0 / rank-1 identities against the shipped fixtures."""

    name = "counting"
    blocks = 16
    block_size = 2800
    per_round = 4
    round_size = per_round + 1

    def setup(self, pkg, fixtures: Path, work: Path, seed: int):
        logic, linrep = pkg["logic"], pkg["linrep"]
        report = logic.run_script((fixtures / "paper_count.wal").read_text())
        reps = {name: linrep.extract_counting(linrep.counting_query(
                    report.result(name).automaton, "i", "n"))
                for name in ("mab", "mabba")}
        fixtures_lr = {
            "a006165": linrep.from_recurrence_a006165(),
            "a060973": linrep.from_recurrence_a060973(),
            "count_ab": linrep.reference_count_ab(),
            "count_abba": linrep.reference_count_abba(),
        }
        # Every n in [8193, 16384] has a 14-digit n - 1, so each value
        # costs the same whichever block the seed picks.
        rng = random.Random(seed)
        rec = Recurrences()
        starts = [rng.randrange(8193, 16385 - self.block_size)
                  for _ in range(self.blocks)]
        blocks = [[(n, *expected_counts(n, rec))
                   for n in range(s, s + self.block_size)] for s in starts]
        schedule = []
        for r in range(self.blocks // self.per_round):
            group = list(range(r * self.per_round, (r + 1) * self.per_round))
            schedule += rounds(rng, ["identities"] + group, 1)
        return {"schedule": schedule, "reps": reps, "fixtures": fixtures_lr,
                "blocks": blocks}

    def run(self, pkg, state, item):
        linrep = pkg["linrep"]
        mab, mabba = state["reps"]["mab"], state["reps"]["mabba"]
        if item != "identities":
            for n, f, g in state["blocks"][item]:
                got = (linrep.evaluate(mab, n - 1), linrep.evaluate(mabba, n - 1))
                if got != (f, g):
                    raise ItemFailure(f"n={n}: values {got}, reference {(f, g)}")
            return
        fx = state["fixtures"]
        rank1 = linrep.minimize_rep(linrep.subtract(
            mab, linrep.reverse_rep(linrep.scale(fx["a006165"], 2))))
        if rank1.dim != 1 or linrep.evaluate(rank1, 0) != -2:
            raise ItemFailure(f"rank-1 identity: dim {rank1.dim}")
        if not linrep.equal_reps(mabba, fx["a060973"]):
            raise ItemFailure("rank-0 identity fails for the ABBA class")
        if not linrep.equal_reps(mab, fx["count_ab"]):
            raise ItemFailure("mab differs from the shipped count_ab fixture")
        if not linrep.equal_reps(mabba, fx["count_abba"]):
            raise ItemFailure("mabba differs from the shipped count_abba fixture")


WORKLOADS = {w.name: w for w in (Proofs(), Chain(), Count(), Counting())}
