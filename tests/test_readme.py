"""The README's python examples name only what the package exports, its
command-line synopsis names every subcommand and long option, and its
preset table says what each preset's grammar and class are."""

import argparse
import re
from pathlib import Path

import narmaxtag
from narmaxtag import GrammarPreset, Monomial, NarmaxModel, SignalKind, classify, restrict
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


def test_preset_table_matches_restrict_and_classify():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"\| preset \| class tag .*\n\| .*\n((?:\|.*\n)+)", text).group(1)
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    assert sorted(row[0] for row in rows) == sorted(f"`{preset.value}`" for preset in GrammarPreset)
    for preset, tag, signals, products, trees in rows:
        assert products in ("yes", "no"), preset
        grammar = restrict(GrammarPreset(preset.strip("`")))
        assert set(re.findall(r"`(\w+)`", trees)) == {aux.name for aux in grammar.auxiliaries}
        # the widest model of the row carries its tag; one more signal, or
        # a product where the row allows none, loses it
        inside = {SignalKind(name) for name in re.findall(r"`(\w+)`", signals)}
        widest = [{(signal, 1): 1} for signal in inside]
        widest += [{(signal, 1): 2} for signal in inside if products == "yes"]
        assert tag in classify(model_of(widest)), (preset, widest)
        widenings = [widest + [{(signal, 1): 1}] for signal in set(SignalKind) - inside]
        if products == "no":
            widenings.append(widest + [{(SignalKind.INPUT, 1): 2}])
        for wider in widenings:
            assert tag not in classify(model_of(wider)), (preset, wider)


def model_of(terms):
    return NarmaxModel(tuple(Monomial(index + 1, factors) for index, factors in enumerate(terms)))
