"""Decision engine for first-order statements about the Thue-Morse word."""

from tmprover.core import (
    PatternClass,
    classify_lengths,
    generate_prefix,
    scan_occurrences,
    tm_bit,
)
from tmprover.linrep import equal_reps, evaluate, extract_counting, minimize_rep
from tmprover.logic import compile_formula, decide, parse_formula, run_script

__all__ = [
    "PatternClass",
    "classify_lengths",
    "compile_formula",
    "decide",
    "equal_reps",
    "evaluate",
    "extract_counting",
    "generate_prefix",
    "minimize_rep",
    "parse_formula",
    "run_script",
    "scan_occurrences",
    "tm_bit",
]
