"""Run the examples embedded in module docstrings and in the README, and
hold the README's list of the public API to the package's exports."""

import doctest
import re
import shlex
import types
from pathlib import Path

import pytest

import spgraphs
import spgraphs.constructions
import spgraphs.geodesics
import spgraphs.graphs
import spgraphs.grid
import spgraphs.isomorphism
import spgraphs.patterns
import spgraphs.spg
import spgraphs.verify

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_names_every_export_under_its_module():
    # the package binds its exports and its submodules, nothing else
    bound = {
        name for name, value in vars(spgraphs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(spgraphs.__all__)
    section = README.read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.findall(r"^- `(spgraphs\.\w+)`: (.*?)(?=^- |\Z)", section, re.M | re.S):
        module, names = bullet
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = module
    assert sorted(listed) == sorted(spgraphs.__all__)
    for name, module in listed.items():
        assert getattr(spgraphs, name) is getattr(getattr(spgraphs, module.split(".")[1]), name)


def test_readme_command_lines_exit_zero(capsys, monkeypatch, tmp_path):
    # every spgraphs line of the Command line block, on the 4-cycle it names
    from spgraphs.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "square.txt").write_text("a b\nb c\nc d\nd a\n")
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("spgraphs ")]
    commands = [shlex.split(line)[1:] for line in lines]
    assert len(commands) >= 10
    for argv in commands:
        assert (argv, main(argv)) == (argv, 0)
        capsys.readouterr()
