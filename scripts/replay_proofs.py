#!/usr/bin/env python3
"""Replay the three shipped proof scripts and print the per-command reports.

Exits 0 only if every script replays with all its expected verdicts.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tmprover import cli  # noqa: E402

FIXTURES = pathlib.Path(cli.__file__).parent / "fixtures"


def main():
    status = 0
    for name in ("paper_thm1", "paper_thm2", "paper_count"):
        print(f"=== {name} ===")
        code = cli.main(["prove", str(FIXTURES / f"{name}.wal"),
                         "--expected", str(FIXTURES / f"{name}.expected")])
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
