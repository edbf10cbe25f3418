"""The README's python examples name only what the package exports, and
its command-line synopsis names every subcommand and long option."""

import argparse
import re
from pathlib import Path

import narmaxtag
from narmaxtag.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_name_existing_api():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = set(re.findall(r"\bnt\.(\w+)", "".join(blocks)))
    assert names, "no nt.<name> found in the README's python blocks"
    assert sorted(name for name in names if not hasattr(narmaxtag, name)) == []


def test_command_line_block_names_every_option():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```text\n(.*?)```", text, re.S).group(1)
    block = block.replace("\\\n", " ")  # join continued lines
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    missing = []
    for name, parser in commands.choices.items():
        # the synopsis lines of the subcommand, up to a pipe into the next
        lines = re.findall(
            rf"narmaxtag {re.escape(name)}(?= |$)(.*?)(?= \| narmaxtag|$)", block, re.M
        )
        if not lines:
            missing.append(name)
        options = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        missing += [
            f"{name} {option}"
            for option in sorted(options)
            if not any(re.search(rf"{option}\b", line) for line in lines)
        ]
    assert missing == []
