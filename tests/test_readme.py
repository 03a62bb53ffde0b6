"""Every ```python block of README.md runs as written, and its CLI block
matches the CLI's parser."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from citenoise import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)
CLI_BLOCK = re.search(r"^## CLI\n\n```bash\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE).group(1)
CLI_LINES = [line for line in CLI_BLOCK.splitlines() if line.startswith("citenoise ")]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_readme_has_cli_lines():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_parses(line):
    """Parsed only: argparse exits (status 2) on any option the CLI lacks."""
    cli._build_parser().parse_args(shlex.split(line)[1:])


def test_readme_cli_block_names_every_subcommand():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    named = {shlex.split(line)[1] for line in CLI_LINES}
    assert named == set(sub.choices)
