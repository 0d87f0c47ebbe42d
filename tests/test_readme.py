"""README.md states the harness's contract: what it names must be what the code writes."""

import re
from pathlib import Path

from gpucb.cli import _MERGED_HEADER, _summary_rows
from gpucb.config import parse_config
from gpucb.ucb import _COLUMNS
from test_cli import README_EXAMPLE

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_is_short():
    assert len(README.splitlines()) < 250


def test_every_exit_code_has_its_own_item():
    for code in (0, 2, 3, 4):
        assert re.search(rf"^[-*] `{code}` ", README, re.M), code


def test_file_headers_are_the_writers():
    trace = ",".join(["t", "x_1", "...", "x_d", *_COLUMNS])
    summary = _summary_rows(parse_config(README_EXAMPLE), []).rstrip("\n")
    for header in (trace, summary, _MERGED_HEADER):
        assert f"`{header}`" in README, header


def test_example_config_is_the_tested_one():
    section = README.split("\n## Example config\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S)
    assert block is not None and block.group(1) == README_EXAMPLE
