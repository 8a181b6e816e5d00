"""The mutation table stays applicable: every snippet of ``mutants.py``
occurs once in its module and every test it names exists. Running the
mutants themselves is ``python tests/mutants.py``, outside Tier-1."""

import mutants


def test_every_mutant_snippet_occurs_once_and_names_existing_tests():
    assert [p for m in mutants.MUTANTS for p in mutants.problems(m)] == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
