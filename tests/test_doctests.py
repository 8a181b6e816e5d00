"""Run the examples embedded in module docstrings."""

import doctest

import pytest

import spgraphs.constructions
import spgraphs.geodesics
import spgraphs.graphs
import spgraphs.grid
import spgraphs.isomorphism
import spgraphs.patterns
import spgraphs.spg
import spgraphs.verify

MODULES = [
    spgraphs.graphs,
    spgraphs.patterns,
    spgraphs.geodesics,
    spgraphs.constructions,
    spgraphs.spg,
    spgraphs.grid,
    spgraphs.isomorphism,
    spgraphs.verify,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
