"""The planted-defect list (``tests/mutants.py``) stays replayable.

Running the mutants takes a copy of the repository per mutant, so tier-1
only checks that each can still be planted: it parses, its old text occurs
exactly once, and every test it names exists.
"""

import re

import pytest

from mutants import MUTANTS, Mutant, problems


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize(
    "mutant", MUTANTS, ids=[re.sub(r"\W+", "-", m.name).strip("-") for m in MUTANTS]
)
def test_mutant_can_be_planted(mutant):
    assert isinstance(mutant, Mutant)
    assert all(isinstance(field, str) for field in mutant[:4])
    assert isinstance(mutant.tests, tuple)
    assert problems(mutant) == []
