"""Enumeration reads each model off its derivation over the model
catalog's trees, and refuses any other grammar.

``enumerate_models`` must give, position by position, the models of the
reference route, ``oracles.reference_models``: every derivation of
``enumerate_derivations`` read through ``derived_leaves`` and the yield
reader.  In extended mode it gives one model per derivation, and it
builds no derivation node and makes no check pass.  A grammar whose
trees equal the catalog's, such as one read back from ``grammar-show``,
is read the same way; any other is refused at the first item.  Each
enumerated derivation's checked part must give the leaves of the
set-level reference, and every part under it must have a foot exactly
when its tree is auxiliary and the root label of its own tree.
"""

from itertools import islice

import pytest

from narmaxtag import narmax, trees
from narmaxtag.cli import main
from narmaxtag.generate import GenBounds, enumerate_derivations, enumerate_models
from narmaxtag.models import Mode, format_model_text
from narmaxtag.narmax import (
    GrammarPreset,
    YieldError,
    YieldNotInLanguageError,
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
    entries_by_name,
    random_derivation,
    random_grammars,
    reference_derive,
    reference_derive_node,
    reference_models,
    refusal,
    structurally_equal,
)

GRAMMARS = [preset.value for preset in GrammarPreset] + ["nbj"]

BUDGET = 4


def _grammar(name):
    if name == "nbj":
        return build_nbj_grammar().grammar
    return restrict(GrammarPreset(name))


def _shown(capsys, preset):
    """The preset's ``grammar-show`` text."""
    assert main(["grammar-show", "--preset", preset.value]) == 0
    return capsys.readouterr().out


def _outcome(read, *args):
    try:
        return read(*args), None
    except TagError as exc:
        return None, (type(exc), str(exc))


def _first_item(grammar):
    """The (type, text) of the error ``enumerate_models`` raises at its
    first item, or None when it yields one."""
    return _outcome(next, enumerate_models(grammar, GenBounds(max_adjunctions=2)))[1]


def _catalog_refusal(grammar):
    """The error ``enumerate_models`` must raise over a well-formed
    grammar: it names the first tree with no catalog tree of its name,
    kind and shape, and is None when there is none."""
    catalog = entries_by_name(build_narmax_grammar().grammar)
    for entry in grammar.elementary():
        own = catalog.get(entry.name)
        if own is None or own.kind is not entry.kind or not structurally_equal(own.tree, entry.tree):
            return TagError, f"not a tree of the model catalog: {entry.name!r}"
    return None


def _models_until_error(models):
    """The structures a model stream yields, and the type of the error
    that ends it (None when it runs out)."""
    found = []
    try:
        for model in models:
            found.append(model.structure())
    except (TagError, YieldError) as exc:
        return found, type(exc)
    return found, None


class TestModelStreamParity:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("name", GRAMMARS)
    def test_same_stream_as_the_checked_route(self, name, mode):
        # every preset gives the oracle's stream, model structures and
        # all; the NBJ grammar is not the catalog, and neither route
        # yields a model of it: enumerate_models refuses it, and the
        # yield reader cannot read its first derivation
        grammar = _grammar(name)
        bounds = GenBounds(max_adjunctions=BUDGET, mode=mode)
        fast, fast_error = _models_until_error(enumerate_models(grammar, bounds))
        slow, slow_error = _models_until_error(reference_models(grammar, bounds))
        assert fast == slow
        if name == "nbj":
            assert fast == [] and (fast_error, slow_error) == (TagError, YieldNotInLanguageError)
            return
        assert len(fast) > 1 and fast_error is slow_error is None
        if mode is Mode.EXTENDED:
            assert len(fast) == sum(1 for _ in enumerate_derivations(grammar, bounds))

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("preset", list(GrammarPreset))
    def test_same_text_stream_as_the_reference_route(self, preset, mode):
        # the differential test of the catalog reader: every derivation
        # with at most 5 adjunctions, model text and all
        grammar = restrict(preset)
        bounds = GenBounds(max_adjunctions=5, mode=mode)
        fast = [format_model_text(m) for m in enumerate_models(grammar, bounds)]
        slow = [format_model_text(m) for m in reference_models(grammar, bounds)]
        assert fast == slow and len(fast) > 30
        if mode is Mode.EXTENDED:
            assert len(fast) == sum(1 for _ in enumerate_derivations(grammar, bounds))

    @pytest.mark.parametrize("name", GRAMMARS)
    def test_every_derivation_has_a_part(self, name):
        # each enumerated derivation passes the check pass, and the leaf
        # walk over its part gives the leaves of the set-level reference
        grammar = _grammar(name)
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
        *_, model = reference_models(grammar, bounds)
        assert set(calls) == {"_check", "_leaves", "_to_parts"}  # the spies see the oracle
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

    @pytest.mark.parametrize("preset", list(GrammarPreset))
    def test_reread_grammar_is_the_catalog(self, monkeypatch, capsys, preset):
        # a grammar read back from its own text has equal trees, not the
        # catalog's objects: it is read off the traversal all the same,
        # with no check pass
        grammar = parse_grammar(_shown(capsys, preset))
        catalog = entries_by_name(build_narmax_grammar().grammar)
        entries = list(grammar.elementary())
        assert entries and not any(catalog[e.name] is e for e in entries)
        calls = []
        self._spy(monkeypatch, trees, "_check", calls)
        bounds = GenBounds(max_adjunctions=BUDGET)
        fresh = [format_model_text(m) for m in enumerate_models(grammar, bounds)]
        shared = [format_model_text(m) for m in enumerate_models(restrict(preset), bounds)]
        assert fresh == shared and len(fresh) > 1 and calls == []

    # ARX grammar text edits: the delay tree mirrored (other labels in
    # pre-order), and an additive tree with its "+" moved into the term
    # (the same labels in pre-order, other children)
    EDITS = {
        "mirrored": ("beta7 = expr2(expr2★ q⁻¹)", "beta7 = expr2(q⁻¹ expr2★)"),
        "reshaped": (
            "beta1 = expr0(expr1(par(c) op(×) expr2(u)) op(+) expr0★)",
            "beta1 = expr0(expr1(par(c) op(×) expr2(u) op(+)) expr0★)",
        ),
    }

    @pytest.mark.parametrize("name", ["nbj", *EDITS])
    def test_other_grammars_are_refused(self, capsys, name):
        # the NBJ grammar's initial tree is not the model grammar's, and
        # an edited tree is not the catalog's; each is refused before any
        # model
        if name == "nbj":
            grammar, tree = build_nbj_grammar().grammar, "alpha1"
        else:
            text = _shown(capsys, GrammarPreset.ARX)
            old, new = self.EDITS[name]
            assert old in text
            grammar, tree = parse_grammar(text.replace(old, new)), new.split()[0]
        assert refusal(grammar) is None
        models = []
        with pytest.raises(TagError) as info:
            models += enumerate_models(grammar, GenBounds(max_adjunctions=BUDGET))
        assert type(info.value) is TagError and models == []
        assert str(info.value) == f"not a tree of the model catalog: {tree!r}"
        assert _catalog_refusal(grammar) == (TagError, str(info.value))


class TestRandomGrammars:
    """Random grammars, none of them the model catalog's:
    ``enumerate_models`` refuses each at the first item, a malformed one
    with its first diagnostic.  The reference route reads, on each
    enumerated derivation, the leaves of the tree ``derive`` builds, and
    refuses a malformed grammar at the first item too."""

    LIMIT = 200

    def _leaf_stream(self, grammar):
        """Each enumerated derivation with its ``derived_leaves``, as
        ``reference_models`` reads them, up to the first error."""
        found, error = [], None
        try:
            derivations = enumerate_derivations(grammar, GenBounds(max_adjunctions=2))
            for derivation in islice(derivations, self.LIMIT):
                found.append((derivation, derived_leaves(derivation, grammar)))
        except TagError as exc:
            error = (type(exc), str(exc))
        return found, error

    def test_same_leaves_or_same_error(self):
        cycles = refused = parts = 0
        for seed in range(2000):
            for _, grammar in random_grammars(seed):
                malformed = refusal(grammar)
                assert _first_item(grammar) == (malformed or _catalog_refusal(grammar)), seed
                stream, error = self._leaf_stream(grammar)
                if malformed:
                    assert (stream, error) == ([], malformed), seed
                    refused += 1
                    continue
                if error:
                    assert "without end" in error[1], seed
                    cycles += 1
                for derivation, leaves in stream:
                    tree = derive(derivation, grammar)
                    assert leaves == [tree.labels[n] for n in tree.leaves()], seed
                    parts += 1
        assert cycles > 100 and refused > 1000 and parts > 2000

    @pytest.mark.parametrize("kind", list(TreeKind))
    def test_terminal_root_fails_the_label_check(self, kind):
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
        assert self._leaf_stream(grammar) == ([], error)
        assert _first_item(grammar) == error


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
        grammar = _grammar(name)
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
