"""Enumeration reads each model off its derivation over the model
catalog's trees, and any other grammar's through ``derived_leaves``.

``enumerate_models`` must give, position by position, the models the
reference route gives, reading every derivation of
``enumerate_derivations`` through ``derived_leaves`` and the yield
reader, and in extended mode one model per derivation; it must raise
that route's error on the same derivation, and over the catalog's trees
build no derivation node.  Each enumerated derivation's checked part
must give the leaves of the set-level reference, and every part under
it must have a foot exactly when its tree is auxiliary and the root
label of its own tree.
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
from narmaxtag.treeio import parse_grammar
from narmaxtag.trees import (
    DerivationEdge,
    DerivationTree,
    ElementaryTree,
    Grammar,
    MalformedGrammarError,
    NodeLabel,
    SyntacticTree,
    TagError,
    TreeKind,
    _checked,
    _leaves,
    derive,
    derived_leaves,
)

from test_golden import ENUMERATE_DERIVATION_DIGESTS, sha256, stdout_of

from oracles import (
    random_derivation,
    random_grammars,
    reference_derive,
    reference_derive_node,
    refusal,
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
    ``enumerate_derivations`` through ``derived_leaves``, the refused
    ones dropped."""
    for derivation in enumerate_derivations(grammar, bounds):
        try:
            yield read(derived_leaves(derivation, grammar), bounds.mode)
        except CausalityError:
            continue


def _same_stream(grammar, bounds, fast, slow):
    """Assert the two model streams are equal position by position and,
    in extended mode, hold one model per enumerated derivation."""
    assert fast == slow
    if bounds.mode is Mode.EXTENDED:
        assert len(fast) == sum(1 for _ in enumerate_derivations(grammar, bounds))


class TestModelStreamParity:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("name", GRAMMARS)
    def test_same_stream_as_the_checked_route(self, monkeypatch, name, mode):
        grammar, read = _grammar_and_reader(name)
        monkeypatch.setattr(generate, "_leaves_to_model", read)
        bounds = GenBounds(max_adjunctions=BUDGET, mode=mode)
        fast = [m.structure() for m in enumerate_models(grammar, bounds)]
        slow = [m.structure() for m in _reference_models(grammar, bounds, read)]
        _same_stream(grammar, bounds, fast, slow)
        assert len(fast) > 1

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("preset", list(GrammarPreset))
    def test_same_text_stream_as_the_reference_route(self, preset, mode):
        # the differential test of the catalog reader: every derivation
        # with at most 5 adjunctions, model text and all
        grammar = restrict(preset)
        bounds = GenBounds(max_adjunctions=5, mode=mode)
        fast = [format_model_text(m) for m in enumerate_models(grammar, bounds)]
        slow = [format_model_text(m) for m in _reference_models(grammar, bounds, _leaves_to_model)]
        _same_stream(grammar, bounds, fast, slow)
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
        bounds = GenBounds(max_adjunctions=BUDGET)
        models = list(enumerate_models(grammar, bounds))
        assert models and calls == []
        *_, last = enumerate_derivations(grammar, bounds)
        model = _leaves_to_model(derived_leaves(last, grammar), Mode.EXTENDED)
        assert calls == ["_check", "_leaves", "_to_parts"]  # the spies see the reference route
        assert model == models[-1]

    @pytest.mark.parametrize("preset", list(GrammarPreset))
    def test_no_derivation_node_built(self, monkeypatch, capsys, preset):
        # the catalog reader builds no derivation node, by the trusted
        # constructors or the public ones; the spies do see the nodes of
        # enumerate --derivations, which prints its golden digest
        calls = []
        for cls in (DerivationTree, DerivationEdge):
            build, init = cls._build, cls.__init__

            def spy_build(*args, build=build):
                calls.append("_build")
                return build(*args)

            def spy_init(self, *args, init=init, **kwargs):
                calls.append("__init__")
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "_build", staticmethod(spy_build))
            monkeypatch.setattr(cls, "__init__", spy_init)
        models = list(enumerate_models(restrict(preset), GenBounds(max_adjunctions=4)))
        assert models and calls == []
        name = preset.value
        out = stdout_of(capsys, "enumerate", "--preset", name, "--max", "3", "--derivations")
        assert (len(out.splitlines()), sha256(out)) == ENUMERATE_DERIVATION_DIGESTS[name]
        assert len(calls) > len(out.splitlines())

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
        fresh = [format_model_text(m) for m in enumerate_models(grammar, bounds)]
        narx = restrict(GrammarPreset.NARX)
        shared = [format_model_text(m) for m in enumerate_models(narx, bounds)]
        assert fresh == shared and len(calls) == len(fresh)


def _outcome(read, *args):
    try:
        return read(*args), None
    except TagError as exc:
        return None, (type(exc), str(exc))


class TestRandomGrammars:
    """Random grammars: ``enumerate_models`` raises the reference route's
    error on the same derivation, and each enumerated derivation gives
    the leaves of the tree ``derive`` builds.  A malformed grammar is
    refused by both routes at the first item."""

    LIMIT = 200

    def _streams(self, monkeypatch, grammar):
        # the leaves as the model, so any grammar goes through
        monkeypatch.setattr(generate, "_leaves_to_model", lambda leaves, mode: leaves)
        bounds = GenBounds(max_adjunctions=2)
        fast, fast_error = [], None
        try:
            # paired as a caller pairs them; the models are drawn first,
            # so an error is enumerate_models' own
            pairs = zip(enumerate_models(grammar, bounds), enumerate_derivations(grammar, bounds))
            fast.extend((d, leaves) for leaves, d in islice(pairs, self.LIMIT))
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
        cycles = refused = parts = 0
        for seed in range(2000):
            for _, grammar in random_grammars(seed):
                fast, slow = self._streams(monkeypatch, grammar)
                assert fast == slow, seed
                malformed = refusal(grammar)
                if malformed:
                    assert fast == ([], malformed), seed
                    refused += 1
                    continue
                cycles += fast[1] is not None
                bounds = GenBounds(max_adjunctions=2)
                derivations = islice(enumerate_derivations(grammar, bounds), self.LIMIT)
                try:
                    for derivation in derivations:
                        tree = derive(derivation, grammar)
                        leaves = _leaves(_checked(derivation, grammar))
                        assert leaves == [tree.labels[n] for n in tree.leaves()], seed
                        parts += 1
                except TagError as exc:
                    assert "without end" in str(exc), seed  # compared above
        assert cycles > 100 and refused > 1000 and parts > 2000

    @pytest.mark.parametrize("kind", list(TreeKind))
    def test_terminal_root_fails_the_label_check(self, monkeypatch, kind):
        # a tree rooted at a terminal named like a nonterminal needs the
        # alphabets to overlap, so its grammar is refused before any slot
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
        error = (
            MalformedGrammarError,
            "malformed grammar: alphabets-overlap: nonterminals and terminals share A",
        )
        assert _outcome(_checked, DerivationTree("s"), grammar)[1] == error
        fast, slow = self._streams(monkeypatch, grammar)
        assert fast == slow == ([], error)


def _sub_derivations(derivation):
    """Every node of a derivation, ``derivation`` included."""
    out, stack = [], [derivation]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += [edge.child for edge in node.edges]
    return out


def _spine(table) -> set[int]:
    """The nodes of a compiled tree on the path from its root to its
    foot, found through ``table.steps``; empty when it has no foot."""
    feet = [i for i, label in enumerate(table.labels) if label.foot_marker]
    path = set()
    node = feet[0] if feet else None
    while node is not None:
        path.add(node)
        node = table.steps[node][0] if node else None  # the root is node 0
    return path


def _check_parts(derivation, grammar) -> int:
    """Check the part of every node under a derivation that passes the
    check against the set-level reference; return how many of them
    have an operation above their foot."""
    above_foot = 0
    for node in _sub_derivations(derivation):
        part = trees._check(node, grammar._tables)
        table = part.table
        tree = reference_derive_node(node, grammar)
        feet = [n for n, label in tree.labels.items() if label.foot_marker]
        assert len(feet) == (table.entry.kind is TreeKind.AUXILIARY)
        assert tree.labels[tree.root] == table.labels[0]
        if table.entry.kind is TreeKind.INITIAL:
            assert _leaves(part) == [tree.labels[n] for n in tree.leaves()]
        targets = {i for i, child in enumerate(part.ops) if child is not None}
        above_foot += not _spine(table).isdisjoint(targets)
    return above_foot


class TestPartsOfEnumeratedDerivations:
    """Each part under a checked derivation, against the tree the
    set-level operations derive from its derivation node: one foot when
    its tree is auxiliary and none otherwise, the root label of its own
    tree, and for an initial tree the leaves of the reference."""

    @pytest.mark.parametrize("name", GRAMMARS)
    def test_enumerated_parts(self, name):
        grammar, _ = _grammar_and_reader(name)
        derivations = list(enumerate_derivations(grammar, GenBounds(max_adjunctions=BUDGET)))
        for derivation in derivations:
            _check_parts(derivation, grammar)
        assert any(d.edges for d in derivations)

    def test_random_grammars(self):
        # the well-formed random grammars, over enumerated derivations
        # and over random ones that pass the check
        checked = above_foot = 0
        for seed in range(1000):
            rng, grammar = next(random_grammars(seed))
            derivations = []
            try:
                derivations += islice(
                    enumerate_derivations(grammar, GenBounds(max_adjunctions=2)), 100
                )
            except TagError as exc:
                assert "without end" in str(exc), seed
            candidate = random_derivation(rng, grammar)
            if _outcome(derive, candidate, grammar)[1] is None:
                derivations.append(candidate)
            for derivation in derivations:
                above_foot += _check_parts(derivation, grammar)
                checked += 1
        assert checked > 2000 and above_foot > 0

    def test_operations_above_the_foot(self):
        # adjunctions on the spine of an auxiliary tree, nested, beside
        # substitutions and adjunctions off the spine
        grammar = parse_grammar(
            "nonterminals: S A C\n"
            "terminals: x y z\n"
            "start: S\n"
            "initial a = S(A(x C(y)) A(z))\n"
            "initial b = C(x)\n"
            "auxiliary two = A(C(A★ z) A(x))\n"
            "auxiliary wrap = A(A(x) C(C(A★) C↓))\n"
            "auxiliary c = C(z C★)\n"
        )
        assert refusal(grammar) is None
        checked = above_foot = 0
        for derivation in enumerate_derivations(grammar, GenBounds(max_adjunctions=3)):
            above_foot += _check_parts(derivation, grammar)
            checked += 1
        assert checked > 200 and above_foot > 200
