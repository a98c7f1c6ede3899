"""The README's examples stay runnable: every `gibbs-qaoa` command in its
code blocks parses with the command-line parser, and its instance-file
example parses with the instance reader."""

import re
import shlex
from pathlib import Path

import pytest

from gibbs_qaoa import cli
from gibbs_qaoa.ising import IsingInstance, parse_instance

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S)


def commands():
    for block in BLOCKS:
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["gibbs-qaoa"]:
                yield tokens[1:]


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in commands()} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", list(commands()), ids=" ".join)
def test_readme_command_parses(monkeypatch, argv):
    monkeypatch.chdir(ROOT)  # `@FILE` paths in the README are relative to the repository
    cli.build_parser().parse_args(argv)


def test_readme_instance_example_parses():
    section = README.split("### Instance files", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    assert parse_instance(block) == IsingInstance(n=5, couplings={(1, 2): 1.0},
                                                  fields=(0.0, -0.5, 0.0, 0.0, 0.0))
