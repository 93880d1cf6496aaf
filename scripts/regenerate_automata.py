#!/usr/bin/env python3
"""Regenerate the snapshots under snapshots/.

Writes, for each of the four pattern predicates, the canonical compact
text form and the DOT rendering of its machine as the engine reads it,
most-significant digit first; then the ``prove --out`` block of each
shipped proof script, and the ``--out`` blocks of ``count 64`` and
``classify 2 3``.  Output is deterministic, so a clean checkout
regenerates byte-identical files; tests/test_snapshots.py and CI (which
requires ``git status --porcelain snapshots/`` to print nothing) both
enforce that for all of them.
"""

import contextlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tmprover import automata as au  # noqa: E402
from tmprover import cli  # noqa: E402

FIXTURES = pathlib.Path(cli.__file__).parent / "fixtures"
PROOF_SCRIPTS = ("paper_thm1", "paper_thm2", "paper_count", "classics")
# Snapshot name -> command line whose --out block it holds.
OUT_BLOCKS = {
    **{name: ["prove", str(FIXTURES / f"{name}.wal"), "--expected",
              str(FIXTURES / f"{name}.expected")] for name in PROOF_SCRIPTS},
    "count_64": ["count", "64"],
    "classify_2_3": ["classify", "2", "3"],
}


def main():
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "snapshots"
    out_dir.mkdir(exist_ok=True)
    machines = cli._pattern_machines(au.DEFAULT_STATE_CAP)
    for name in cli.PATTERN_NAMES:
        machine = machines[name]
        (out_dir / f"{name}.aut").write_text(au.to_compact_text(machine))
        (out_dir / f"{name}.dot").write_text(au.export_dot(machine))
        print(f"{name}: {machine.num_states} states")
    for name, argv in OUT_BLOCKS.items():
        out = out_dir / f"{name}.out"
        # The human-readable report carries timings; only --out is kept.
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", str(out)] + argv)
        if code != 0:
            print(f"{name}: {argv[0]} exited {code}", file=sys.stderr)
            return code
        print(f"{name}: {argv[0]} --out block written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
