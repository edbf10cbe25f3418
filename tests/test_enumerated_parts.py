"""Enumeration reads each model off the checked parts it builds itself.

``enumerate_models`` must give what the checked route gives, reading
every derivation through ``derived_leaves``; a derivation whose part the
traversal could not build must raise that route's error; and each part's
foot count must be the one the whole-table walk finds.
"""

import random
from itertools import islice

import pytest

from narmaxtag import generate, trees
from narmaxtag.generate import GenBounds, _checked_parts, enumerate_derivations, enumerate_models
from narmaxtag.models import CausalityError, Mode
from narmaxtag.narmax import (
    GrammarPreset,
    _leaves_to_model,
    _to_parts,
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
    derived_leaves,
)

from oracles import part_tree, random_derivation, random_grammar, reference_top_feet

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

    @pytest.mark.parametrize("name", GRAMMARS)
    def test_every_derivation_has_a_part(self, name):
        grammar, _ = _grammar_and_reader(name)
        pairs = list(_checked_parts(grammar, GenBounds(max_adjunctions=BUDGET)))
        assert [d for d, _ in pairs] == list(
            enumerate_derivations(grammar, GenBounds(max_adjunctions=BUDGET))
        )
        for derivation, part in pairs:
            assert part is not None
            assert _leaves(part) == derived_leaves(derivation, grammar)

    @pytest.mark.parametrize("preset", list(GrammarPreset))
    def test_no_check_pass(self, monkeypatch, preset):
        calls = []
        check = trees._check

        def spy(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(trees, "_check", spy)
        grammar = restrict(preset)
        models = list(enumerate_models(grammar, GenBounds(max_adjunctions=BUDGET)))
        assert models and calls == []
        derived_leaves(models[-1][0], grammar)  # the spy sees the checked route
        assert len(calls) == 1


def _outcome(read, *args):
    try:
        return read(*args), None
    except TagError as exc:
        return None, (type(exc), str(exc))


class TestRandomGrammars:
    """Malformed grammars: each enumerated part gives the leaves of
    ``derived_leaves``, and ``enumerate_models`` raises its error on the
    same derivation."""

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
            parts = islice(_checked_parts(grammar, GenBounds(max_adjunctions=2)), self.LIMIT)
            try:
                for derivation, part in parts:
                    leaves, error = _outcome(derived_leaves, derivation, grammar)
                    if part is None:
                        without_part += 1
                        assert error is not None, seed
                    else:
                        assert (_leaves(part), None) == (leaves, error), seed
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
        parts = list(_checked_parts(grammar, GenBounds(max_adjunctions=1)))
        expected = [False, True] if kind is TreeKind.AUXILIARY else [True]
        assert [part is None for _, part in parts] == expected
        fast, slow = self._streams(monkeypatch, grammar)
        assert fast == slow
        assert "does not match incoming root" in fast[1][1]


def _enumerated_parts(grammar, budget):
    for _, top in _checked_parts(grammar, GenBounds(max_adjunctions=budget)):
        if top is not None:
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
