"""Enumeration reads each model off its derivation over the model
catalog's trees, and any other grammar's through ``derived_leaves``.

``enumerate_models`` must give what the reference route gives, reading
every derivation of ``enumerate_derivations`` through ``derived_leaves``
and the yield reader, and raise that route's error on the same
derivation; each enumerated derivation's checked part must give the
leaves of the set-level reference, and its foot count must be the one
the whole-table walk finds.
"""

import random
from itertools import islice

import pytest

from narmaxtag import generate, narmax, trees
from narmaxtag.cli import main
from narmaxtag.generate import GenBounds, enumerate_derivations, enumerate_models
from narmaxtag.models import CausalityError, Mode, format_model_text
from narmaxtag.narmax import (
    GrammarPreset,
    _leaves_to_model,
    _to_parts,
    build_narmax_grammar,
    build_nbj_grammar,
    restrict,
)
from narmaxtag.treeio import parse_derivation, parse_grammar
from narmaxtag.trees import (
    ElementaryTree,
    Grammar,
    NodeLabel,
    SyntacticTree,
    TagError,
    TreeKind,
    _checked,
    _leaves,
    derive,
    derived_leaves,
)

from oracles import (
    part_tree,
    random_derivation,
    random_grammar,
    reference_derive,
    reference_top_feet,
)

GRAMMARS = [preset.value for preset in GrammarPreset] + ["nbj"]

BUDGET = 4


class _Parts(tuple):
    """The two equations of an NBJ yield, with one structure."""

    def structure(self) -> tuple:
        return tuple(part.structure() for part in self)


def _grammar_and_reader(name):
    """The grammar, and the reader of its derived leaves into a model."""
    if name == "nbj":
        catalog = build_nbj_grammar()
        return catalog.grammar, lambda leaves, mode: _Parts(_to_parts(catalog, leaves, mode))
    return restrict(GrammarPreset(name)), _leaves_to_model


def _reference_models(grammar, bounds, read):
    """``enumerate_models`` by the checked route: every derivation of
    ``enumerate_derivations`` through ``derived_leaves``."""
    for derivation in enumerate_derivations(grammar, bounds):
        try:
            model = read(derived_leaves(derivation, grammar), bounds.mode)
        except CausalityError:
            continue
        yield derivation, model


class TestModelStreamParity:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("name", GRAMMARS)
    def test_same_stream_as_the_checked_route(self, monkeypatch, name, mode):
        grammar, read = _grammar_and_reader(name)
        monkeypatch.setattr(generate, "_leaves_to_model", read)
        bounds = GenBounds(max_adjunctions=BUDGET, mode=mode)
        fast = [(d, m.structure()) for d, m in enumerate_models(grammar, bounds)]
        slow = [(d, m.structure()) for d, m in _reference_models(grammar, bounds, read)]
        assert fast == slow
        assert len(fast) > 1

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("preset", list(GrammarPreset))
    def test_same_text_stream_as_the_reference_route(self, preset, mode):
        # the differential test of the catalog reader: every derivation
        # with at most 5 adjunctions, model text and all
        grammar = restrict(preset)
        bounds = GenBounds(max_adjunctions=5, mode=mode)
        fast = [(d, format_model_text(m)) for d, m in enumerate_models(grammar, bounds)]
        slow = [
            (d, format_model_text(m))
            for d, m in _reference_models(grammar, bounds, _leaves_to_model)
        ]
        assert fast == slow
        assert len(fast) > 30

    @pytest.mark.parametrize("name", GRAMMARS)
    def test_every_derivation_has_a_part(self, name):
        # each enumerated derivation passes the check pass, and the leaf
        # walk over its part gives the leaves of the set-level reference
        grammar, _ = _grammar_and_reader(name)
        for derivation in enumerate_derivations(grammar, GenBounds(max_adjunctions=BUDGET)):
            tree = reference_derive(derivation, grammar)
            assert _leaves(_checked(derivation, grammar)) == [
                tree.labels[n] for n in tree.leaves()
            ]

    @staticmethod
    def _spy(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def spy(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, spy)

    @pytest.mark.parametrize("preset", list(GrammarPreset))
    def test_no_check_pass(self, monkeypatch, preset):
        # the catalog reader checks no derivation, walks no leaves and
        # parses no yield
        calls = []
        for module, name in ((trees, "_check"), (trees, "_leaves"), (narmax, "_to_parts")):
            self._spy(monkeypatch, module, name, calls)
        grammar = restrict(preset)
        models = list(enumerate_models(grammar, GenBounds(max_adjunctions=BUDGET)))
        assert models and calls == []
        _leaves_to_model(derived_leaves(models[-1][0], grammar), Mode.EXTENDED)
        assert calls == ["_check", "_leaves", "_to_parts"]  # the spies see the reference route

    def test_fresh_trees_take_the_reference_route(self, monkeypatch, capsys):
        # a grammar read back from its own text has equal trees but not
        # the catalog's: its stream is the same, through derived_leaves
        assert main(["grammar-show", "--preset", "narx"]) == 0
        grammar = parse_grammar(capsys.readouterr().out)
        catalog = {e.name: e for e in build_narmax_grammar().grammar.elementary()}
        entries = list(grammar.elementary())
        assert entries and not any(catalog[e.name] is e for e in entries)
        calls = []
        self._spy(monkeypatch, trees, "_check", calls)
        bounds = GenBounds(max_adjunctions=BUDGET)
        fresh = [(d, format_model_text(m)) for d, m in enumerate_models(grammar, bounds)]
        shared = [
            (d, format_model_text(m))
            for d, m in enumerate_models(restrict(GrammarPreset.NARX), bounds)
        ]
        assert fresh == shared and len(calls) == len(fresh)


def _outcome(read, *args):
    try:
        return read(*args), None
    except TagError as exc:
        return None, (type(exc), str(exc))


class TestRandomGrammars:
    """Malformed grammars: ``enumerate_models`` raises the reference
    route's error on the same derivation, and each enumerated derivation
    gives the leaves of the tree ``derive`` builds, or its error."""

    LIMIT = 200

    def _streams(self, monkeypatch, grammar):
        # the leaves as the model, so any grammar goes through
        monkeypatch.setattr(generate, "_leaves_to_model", lambda leaves, mode: leaves)
        bounds = GenBounds(max_adjunctions=2)
        fast, fast_error = [], None
        try:
            fast.extend(islice(enumerate_models(grammar, bounds), self.LIMIT))
        except TagError as exc:
            fast_error = (type(exc), str(exc))
        slow, slow_error = [], None
        try:
            for derivation in islice(enumerate_derivations(grammar, bounds), self.LIMIT):
                leaves, slow_error = _outcome(derived_leaves, derivation, grammar)
                if slow_error:
                    break
                slow.append((derivation, leaves))
        except TagError as exc:
            slow_error = (type(exc), str(exc))
        return (fast, fast_error), (slow, slow_error)

    def test_same_leaves_or_same_error(self, monkeypatch):
        errors = without_part = 0
        for seed in range(2000):
            grammar = random_grammar(random.Random(seed))
            fast, slow = self._streams(monkeypatch, grammar)
            assert fast == slow, seed
            errors += fast[1] is not None
            bounds = GenBounds(max_adjunctions=2)
            derivations = islice(enumerate_derivations(grammar, bounds), self.LIMIT)
            try:
                for derivation in derivations:
                    part, error = _outcome(_checked, derivation, grammar)
                    tree, tree_error = _outcome(derive, derivation, grammar)
                    assert error == tree_error, seed
                    if part is None:
                        without_part += 1
                    else:
                        assert _leaves(part) == [tree.labels[n] for n in tree.leaves()], seed
            except TagError:
                pass  # the cycle error, compared above
        assert errors > 100 and without_part > 100

    @pytest.mark.parametrize("kind", list(TreeKind))
    def test_terminal_root_fails_the_label_check(self, monkeypatch, kind):
        # a tree rooted at a terminal named like a slot's nonterminal is a
        # candidate there, but no placement of it passes
        nt, t = NodeLabel.nonterminal, NodeLabel.terminal
        if kind is TreeKind.AUXILIARY:
            start = SyntacticTree(0, {0: nt("S"), 1: nt("A"), 2: t("x")}, {0: (1,), 1: (2,)})
            odd = SyntacticTree(0, {0: t("A"), 1: nt("A", foot=True)}, {0: (1,)})
        else:
            start = SyntacticTree(0, {0: nt("S"), 1: nt("A", site=True)}, {0: (1,)})
            odd = SyntacticTree(0, {0: t("A"), 1: t("x")}, {0: (1,)})
        initials, auxiliaries = [ElementaryTree("s", TreeKind.INITIAL, start)], []
        (auxiliaries if kind is TreeKind.AUXILIARY else initials).append(
            ElementaryTree("odd", kind, odd)
        )
        grammar = Grammar({"S", "A"}, {"x", "A"}, "S", initials, auxiliaries)
        derivations = enumerate_derivations(grammar, GenBounds(max_adjunctions=1))
        failed = [_outcome(_checked, d, grammar)[1] is not None for d in derivations]
        assert failed == ([False, True] if kind is TreeKind.AUXILIARY else [True])
        fast, slow = self._streams(monkeypatch, grammar)
        assert fast == slow
        assert "does not match incoming root" in fast[1][1]


def _enumerated_parts(grammar, budget):
    """Every part of the enumerated derivations that pass the check."""
    for derivation in enumerate_derivations(grammar, GenBounds(max_adjunctions=budget)):
        try:
            top = _checked(derivation, grammar)
        except TagError:
            continue
        yield from part_tree(top)


class TestFeetFromCounts:
    """``_Part.feet`` against the walk over the whole table."""

    @pytest.mark.parametrize("name", GRAMMARS)
    def test_enumerated_parts(self, name):
        grammar, _ = _grammar_and_reader(name)
        for part in _enumerated_parts(grammar, BUDGET):
            assert part.feet == reference_top_feet(part)

    def test_random_grammars(self):
        # the parts of enumerated and of random derivations; random
        # grammars put operations at feet and under inner-node feet
        at_foot = under_foot = 0
        for seed in range(2000):
            rng = random.Random(seed)
            grammar = random_grammar(rng)
            parts = []
            try:
                parts += islice(_enumerated_parts(grammar, 2), 1000)
            except TagError:
                pass
            try:
                parts += part_tree(_checked(random_derivation(rng, grammar), grammar))
            except TagError:
                pass
            for part in parts:
                assert part.feet == reference_top_feet(part), seed
                at_foot += any(part.table.labels[i].foot_marker for i in part.ops)
                under_foot += any(i in part.table.cover for i in part.ops)
        assert at_foot > 0 and under_foot > 0

    def test_feet_grammar(self):
        # operations at inner-node feet, under them and under feet that
        # have operations of their own, with parts of none, one and two
        # feet; every part of every derivation with up to 3 adjunctions
        grammar = parse_grammar(
            "nonterminals: S A C\n"
            "terminals: x y z\n"
            "start: S\n"
            "initial a = S(A(x C(y)) A(z))\n"
            "auxiliary two = A(C(A★ z) A★)\n"
            "auxiliary inner = A(A★(A(x) C(x)) C(z))\n"
            "auxiliary nested = A(A★(A★(x)) C(z))\n"
            "auxiliary c = C(z C★)\n"
            "auxiliary none = C(z)\n"
        )
        checked = 0
        for part in _enumerated_parts(grammar, 3):
            assert part.feet == reference_top_feet(part)
            checked += 1
        assert checked > 1000
        text = "a[adj@1 -> inner[adj@1 -> two, adj@1.1 -> two]]"
        parts = part_tree(_checked(parse_derivation(text), grammar))
        assert [p.feet for p in parts if p.table.entry.name == "inner"] == [2]
