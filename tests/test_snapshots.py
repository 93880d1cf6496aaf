"""Regression pins for the regenerated snapshots."""

import pathlib

import pytest

from tmprover import automata as au
from tmprover import cli, logic

SNAPSHOT_DIR = pathlib.Path(__file__).resolve().parents[1] / "snapshots"
FIXTURES = pathlib.Path(cli.__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def machines():
    return cli._pattern_machines(au.DEFAULT_STATE_CAP)


@pytest.mark.parametrize("name", cli.PATTERN_NAMES)
def test_compact_snapshot_bit_exact(machines, name):
    # The compact snapshots hold each pattern's machine as the engine reads
    # it, most-significant digit first.
    regenerated = au.to_compact_text(machines[name])
    assert regenerated == (SNAPSHOT_DIR / f"{name}.aut").read_text()


@pytest.mark.parametrize("name", cli.PATTERN_NAMES)
def test_dot_snapshot_bit_exact(machines, name):
    regenerated = au.export_dot(machines[name])
    assert regenerated == (SNAPSHOT_DIR / f"{name}.dot").read_text()


@pytest.mark.parametrize("name", ("paper_thm1", "paper_thm2", "paper_count",
                                  "classics"))
def test_prove_out_snapshot_bit_exact(tmp_path, capsys, name):
    out = tmp_path / f"{name}.out"
    code = cli.main(["--out", str(out), "prove", str(FIXTURES / f"{name}.wal"),
                     "--expected", str(FIXTURES / f"{name}.expected")])
    capsys.readouterr()
    assert code == 0
    assert out.read_text() == (SNAPSHOT_DIR / f"{name}.out").read_text()


def test_classify_out_snapshot_bit_exact(tmp_path, capsys):
    out = tmp_path / "classify_2_3.out"
    assert cli.main(["--out", str(out), "classify", "2", "3"]) == 0
    capsys.readouterr()
    assert out.read_text() == (SNAPSHOT_DIR / "classify_2_3.out").read_text()


def test_count_out_snapshot_bit_exact(tmp_path, capsys):
    out = tmp_path / "count_64.out"
    assert cli.main(["--out", str(out), "count", "64"]) == 0
    capsys.readouterr()
    assert out.read_text() == (SNAPSHOT_DIR / "count_64.out").read_text()


def test_snapshot_roundtrip_language(machines):
    # The compact text states/transitions must describe the same machine
    # that classification uses: spot-check memberships recorded above.
    abpat = machines["abpat"]
    assert au.accepts(abpat, [1, 2])
    assert not au.accepts(abpat, [5, 2])


def test_union_of_patterns_covers_all_lengths_at_least_2(machines):
    union = machines["abpat"]
    for name in ("bapat", "abbapat", "baabpat"):
        union = au.product(union, machines[name], "or")
    n_ge_2 = logic.compile_formula("n>=2")
    assert au.is_empty(au.complement(au.product(n_ge_2, union, "implies")))


def test_patterns_pairwise_disjoint_for_n_ge_2(machines):
    names = list(cli.PATTERN_NAMES)
    for a_idx in range(len(names)):
        for b_idx in range(a_idx + 1, len(names)):
            overlap = au.product(machines[names[a_idx]],
                                 machines[names[b_idx]], "and")
            for i in range(64):
                for n in range(2, 12):
                    assert not au.accepts(overlap, [i, n])
