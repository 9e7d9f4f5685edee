"""Replay captured CLI documents byte for byte.

tests/cli_goldens.json holds, for every README command plus the s < k,
constrained and Monte Carlo cases (a modulus at every order, a non-trivial
u_1 with k = 4, a modulus above 2^63 at order 2, an order above s), the
argv, the exit code and the exact stdout that the CLI printed when the file
was captured.  Any change to the canonical JSON, the CSV layout or the text
layout shows up here.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from kwise import cli

CASES = json.loads(Path(__file__).with_name("cli_goldens.json").read_text())["cases"]
README = (Path(__file__).parents[1] / "README.md").read_text()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case, capsys):
    code = cli.main(list(case["argv"]))
    out = capsys.readouterr()
    assert out.err == ""
    assert code == case["exit"]
    assert out.out == case["stdout"]


def test_readme_density_example_is_the_real_document():
    case = CASES[0]
    assert case["argv"][0] == "density"
    assert f"$ kwise {' '.join(case['argv'])}\n{case['stdout']}```" in README


@pytest.mark.parametrize("line", re.findall(r"^\$ kwise (.*)$", README, flags=re.M))
def test_readme_command_parses(line):
    # a flag deleted from the CLI cannot linger in the documented commands
    cli._build_parser().parse_args(shlex.split(line, comments=True))
