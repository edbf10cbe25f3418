import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import permutations
from pathlib import Path

import pytest

from narmaxtag import (
    DanglingReferenceError,
    DerivationEdge,
    DerivationTree,
    ElementaryTree,
    Grammar,
    InapplicableOperationError,
    InvalidAddressError,
    LabelKind,
    MalformedGrammarError,
    NodeLabel,
    Operation,
    SyntacticTree,
    TagError,
    TreeKind,
    UndefinedAdjunctionError,
    UndefinedSubstitutionError,
    adjoin,
    derive,
    derived_leaves,
    is_saturated,
    node_at,
    substitute,
    validate_grammar,
    yield_of,
)
from narmaxtag import trees
from narmaxtag.generate import GenBounds, enumerate_derivations, enumerate_models
from narmaxtag.models import parse_model_text
from narmaxtag.narmax import (
    GrammarPreset,
    adjunctions_needed,
    build_narmax_grammar,
    build_nbj_grammar,
    model_to_derivation,
    restrict,
)
from narmaxtag.treeio import parse_derivation, parse_grammar, parse_tree
from narmaxtag.trees import _Table

from oracles import (
    address_of,
    adjunction_case,
    edge_set,
    expected_adjunction,
    expected_substitution,
    label_key,
    node_names,
    random_derivation,
    random_grammar,
    random_grammars,
    reference_derive,
    refusal,
    structural_key,
    structurally_equal,
    substitution_case,
    substitution_sites,
)


def find(grammar, name):
    entry = grammar.find(name)
    assert entry is not None
    return entry


class TestNodeLabel:
    def test_markers_require_nonterminal(self):
        with pytest.raises(ValueError):
            NodeLabel(LabelKind.TERMINAL, "a", substitution_marker=True)
        with pytest.raises(ValueError):
            NodeLabel(LabelKind.EPSILON, "ε", foot_marker=True)

    def test_markers_exclusive(self):
        with pytest.raises(ValueError):
            NodeLabel(LabelKind.NONTERMINAL, "A", True, True)


class TestSyntacticTree:
    def test_rejects_unreachable_nodes(self):
        labels = {1: NodeLabel.nonterminal("A"), 2: NodeLabel.terminal("a"),
                  3: NodeLabel.terminal("b")}
        with pytest.raises(ValueError):
            SyntacticTree(1, labels, {1: (2,)})

    def test_rejects_multiple_parents(self):
        labels = {1: NodeLabel.nonterminal("A"), 2: NodeLabel.nonterminal("B"),
                  3: NodeLabel.terminal("a")}
        with pytest.raises(ValueError):
            SyntacticTree(1, labels, {1: (2, 3), 2: (3,)})

    @pytest.mark.parametrize(
        "root, children, message",
        [
            (4, {}, "root id is not a labeled node"),
            (1, {1: (2, 5)}, "child id 5 of node 1 is unlabeled"),
            (2, {1: (2,), 2: (3,)}, "root has an incoming edge"),
            (1, {2: (3,), 3: (2,)}, "not all nodes are reachable from the root"),
        ],
    )
    def test_rejects_malformed_structure(self, root, children, message):
        labels = {1: NodeLabel.nonterminal("A"), 2: NodeLabel.nonterminal("B"),
                  3: NodeLabel.terminal("a")}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntacticTree(root, labels, children)

    def test_post_order(self):
        tree = parse_tree("A(B(c d) e)")
        assert list(tree.post_order()) == [3, 4, 2, 5, 1]


def chain_tree(n, leaf="a"):
    labels = {nid: NodeLabel.nonterminal("A") for nid in range(1, n)}
    labels[n] = NodeLabel.terminal(leaf)
    children = {nid: (nid + 1,) for nid in range(1, n)}
    return SyntacticTree(1, labels, children)


class TestDeepWalkers:
    N = 5_000

    def test_post_order_of_chain(self):
        assert list(chain_tree(self.N).post_order()) == list(range(self.N, 0, -1))

    def test_structural_key_of_chain(self):
        key = structural_key(chain_tree(self.N))
        depth = 0
        while key[1]:
            (key,) = key[1]
            depth += 1
        assert depth == self.N - 1
        assert key[0] == label_key(NodeLabel.terminal("a"))

    def test_structural_equality_of_chains(self):
        assert structurally_equal(chain_tree(self.N), chain_tree(self.N))
        assert not structurally_equal(chain_tree(self.N), chain_tree(self.N, leaf="b"))

    @staticmethod
    def chain_derivation(n, leaf="leaf"):
        derivation = DerivationTree(leaf)
        for _ in range(n - 1):
            edge = DerivationEdge(Operation.ADJUNCTION, (1,), derivation)
            derivation = DerivationTree("beta", (edge,))
        return derivation

    def test_node_names_of_deep_derivation(self):
        derivation = self.chain_derivation(self.N)
        assert node_names(derivation) == ["beta"] * (self.N - 1) + ["leaf"]

    def test_equality_and_hash_of_deep_derivations(self):
        first, second = self.chain_derivation(self.N), self.chain_derivation(self.N)
        assert first == second
        assert hash(first) == hash(second)
        assert first != self.chain_derivation(self.N, leaf="other")
        assert first != self.chain_derivation(self.N - 1)


class TestNodeAt:
    def test_empty_address_is_root(self):
        tree = parse_tree("A(a b)")
        assert node_at(tree, ()) == tree.root

    def test_first_child_of_sentence_tree(self, sentence_grammar, plain_derivation):
        tree = derive(plain_derivation, sentence_grammar)
        nid = node_at(tree, (1,))
        assert tree.labels[nid].name == "sub"

    def test_chain_walk(self):
        tree = parse_tree("A(B(c))")
        nid = node_at(tree, (1, 1))
        assert tree.labels[nid].name == "c"
        assert not tree.children[nid]

    def test_invalid_address(self):
        tree = parse_tree("A(a)")
        with pytest.raises(InvalidAddressError):
            node_at(tree, (2,))


def _assert_addresses(entry):
    table = _Table(entry)
    for i, nid in enumerate(entry.tree.pre_order()):
        address = table.address(i)
        assert table.resolve(address) == i
        assert address == address_of(entry.tree, nid)


class TestCompiledAddresses:
    """``_Table.address`` against the search of ``oracles.address_of``,
    with ``_Table.resolve`` as its inverse."""

    def test_catalog_trees(self, sentence_grammar):
        catalogs = (build_narmax_grammar(), build_nbj_grammar())
        for grammar in (*(catalog.grammar for catalog in catalogs), sentence_grammar):
            for entry in grammar.elementary():
                _assert_addresses(entry)

    def test_random_grammars(self):
        for seed in range(2000):
            for entry in random_grammar(random.Random(seed)).elementary():
                _assert_addresses(entry)


# Runs in a fresh interpreter, so no catalog tree is compiled yet: counts
# the tables compiled while the catalogs are built, every preset is
# enumerated, one model is sampled, both catalogs are validated and one
# two-equation derivation is derived, and prints the number of catalog
# entries, of compiles and of distinct trees compiled, and whether every
# entry was compiled.
_COMPILE_RUN = """\
import json
from narmaxtag import trees
from narmaxtag.generate import GenBounds, SampleConfig, enumerate_models, sample_model
from narmaxtag.models import NbjModel, parse_model_text
from narmaxtag.narmax import (
    GrammarPreset, build_narmax_grammar, build_nbj_grammar, nbj_model_to_derivation, restrict
)
compiled = []
init = trees._Table.__init__
def counted(table, entry):
    compiled.append(entry)
    init(table, entry)
trees._Table.__init__ = counted
catalogs = build_narmax_grammar(), build_nbj_grammar()
for preset in GrammarPreset:
    for _ in enumerate_models(restrict(preset), GenBounds(max_adjunctions=2)):
        pass
sample_model(SampleConfig(GenBounds(), seed=1))
for catalog in catalogs:
    assert trees.validate_grammar(catalog.grammar) == []
model = parse_model_text("c1*u[0] + xi")
derivation = nbj_model_to_derivation(NbjModel(model.terms, model.terms))
trees.derive(derivation, catalogs[1].grammar)
entries = [entry for catalog in catalogs for entry in catalog.grammar.elementary()]
seen = {id(entry) for entry in compiled}
print(json.dumps([len(entries), len(compiled), len(seen), all(id(e) in seen for e in entries)]))
"""


class TestCompiledOnce:
    """Each elementary tree is compiled once, on the tree, whichever
    grammars hold it and whatever reads it."""

    def test_catalog_trees_compile_once(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", _COMPILE_RUN], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [21, 21, 21, True]

    def test_presets_share_the_catalog_tables(self):
        full = build_narmax_grammar().grammar
        for preset in GrammarPreset:
            tables = restrict(preset)._tables
            assert all(table is full._tables[name] for name, table in tables.items())

    def test_repeated_name_compiles_and_diagnoses_both_entries(self):
        first = ElementaryTree("t", TreeKind.INITIAL, parse_tree("S(a)"))
        second = ElementaryTree("t", TreeKind.AUXILIARY, parse_tree("S(a)"))  # no foot
        grammar = Grammar(frozenset({"S"}), frozenset({"a"}), "S", (first,), (second,))
        diagnostics = validate_grammar(grammar)
        assert [(d.code, d.tree) for d in diagnostics] == [
            ("duplicate-tree-name", "t"), ("missing-foot", "t")
        ]
        with pytest.raises(MalformedGrammarError) as info:
            grammar._tables
        assert str(info.value) == (
            "malformed grammar: duplicate-tree-name: tree name 't' appears more than once [t]"
        )
        assert second._table.entry is second and second._table is not first._table


class TestSubstitute:
    def test_subject_tree_fills_site(self, sentence_grammar):
        alpha1 = find(sentence_grammar, "alpha1")
        alpha2 = find(sentence_grammar, "alpha2")
        host = alpha1.tree.renumbered(1)
        result = substitute(host, node_at(host, (1,)), alpha2)
        tokens = yield_of(result)
        assert ("a", "man") == tokens[:2]

    def test_non_leaf_target_rejected(self, sentence_grammar):
        alpha1 = find(sentence_grammar, "alpha1")
        host = alpha1.tree.renumbered(1)
        with pytest.raises(UndefinedSubstitutionError):
            substitute(host, host.root, find(sentence_grammar, "alpha2"))

    def test_label_mismatch_rejected(self, sentence_grammar):
        alpha1 = find(sentence_grammar, "alpha1")
        alpha3 = find(sentence_grammar, "alpha3")
        host = alpha1.tree.renumbered(1)
        with pytest.raises(UndefinedSubstitutionError):
            substitute(host, node_at(host, (1,)), alpha3)

    def test_auxiliary_tree_rejected(self, sentence_grammar):
        alpha1 = find(sentence_grammar, "alpha1")
        beta1 = find(sentence_grammar, "beta1")
        host = alpha1.tree.renumbered(1)
        with pytest.raises(UndefinedSubstitutionError):
            substitute(host, node_at(host, (1,)), beta1)

    def test_node_outside_the_host_rejected(self, sentence_grammar):
        host = find(sentence_grammar, "alpha1").tree.renumbered(1)
        with pytest.raises(UndefinedSubstitutionError, match="is not part of the host tree"):
            substitute(host, max(host.labels) + 1, find(sentence_grammar, "alpha2"))

    def test_foot_leaf_rejected(self):
        host = parse_tree("A(a A★)")
        with pytest.raises(UndefinedSubstitutionError, match="cannot substitute at a foot node"):
            substitute(host, 3, parse_tree("A(b)"))

    def test_set_counts_on_random_cases(self):
        rng = random.Random(1203)
        for _ in range(100):
            gamma, site, inner = substitution_case(rng)
            result = substitute(gamma, site, inner)
            assert len(result.labels) == len(gamma.labels) + len(inner.labels) - 1
            assert len(edge_set(result)) == len(edge_set(gamma)) + len(
                edge_set(inner)
            )

    def test_matches_set_expressions(self):
        rng = random.Random(77)
        for _ in range(100):
            gamma, site, inner = substitution_case(rng)
            vertices, edges, root = expected_substitution(gamma, site, inner)
            result = substitute(gamma, site, inner)
            assert set(result.labels) == vertices
            assert edge_set(result) == edges
            assert result.root == root


class TestAdjoin:
    def _saw_mary_tree(self, sentence_grammar, plain_derivation):
        return derive(plain_derivation, sentence_grammar)

    def test_adverb_prepended(self, sentence_grammar, plain_derivation):
        tree = self._saw_mary_tree(sentence_grammar, plain_derivation)
        beta1 = find(sentence_grammar, "beta1")
        result = adjoin(tree, tree.root, beta1)
        assert yield_of(result) == ("yesterday", "a", "man", "saw", "mary")

    def test_label_mismatch_rejected(self, sentence_grammar, plain_derivation):
        tree = self._saw_mary_tree(sentence_grammar, plain_derivation)
        beta1 = find(sentence_grammar, "beta1")
        with pytest.raises(UndefinedAdjunctionError):
            adjoin(tree, node_at(tree, (1,)), beta1)

    def test_leaf_target_rejected(self, sentence_grammar, plain_derivation):
        tree = self._saw_mary_tree(sentence_grammar, plain_derivation)
        beta1 = find(sentence_grammar, "beta1")
        with pytest.raises(UndefinedAdjunctionError):
            adjoin(tree, node_at(tree, (1, 1, 1)), beta1)

    def test_node_outside_the_host_rejected(self, sentence_grammar, plain_derivation):
        tree = self._saw_mary_tree(sentence_grammar, plain_derivation)
        beta1 = find(sentence_grammar, "beta1")
        with pytest.raises(UndefinedAdjunctionError, match="is not part of the host tree"):
            adjoin(tree, max(tree.labels) + 1, beta1)

    def test_tree_without_foot_rejected(self):
        with pytest.raises(UndefinedAdjunctionError, match="incoming tree has no foot node"):
            adjoin(parse_tree("A(a)"), 1, parse_tree("A(b)"))

    def test_foot_marker_cleared(self, sentence_grammar, plain_derivation):
        tree = self._saw_mary_tree(sentence_grammar, plain_derivation)
        result = adjoin(tree, tree.root, find(sentence_grammar, "beta1"))
        assert result.foot_node() is None

    def test_subtree_rehung_intact(self):
        rng = random.Random(4321)
        for _ in range(100):
            gamma, at, aux = adjunction_case(rng)
            before = structural_key(gamma, at)
            result = adjoin(gamma, at, aux)
            vertices, edges, root = expected_adjunction(gamma, at, aux)
            assert set(result.labels) == vertices
            assert edge_set(result) == edges
            assert result.root == root
            # the excised node's former children hang below the foot, in order
            feet = [n for n in result.labels
                    if result.children[n] == gamma.children[at]
                    and n not in gamma.labels]
            assert feet


class TestPurity:
    def test_substitute_leaves_inputs_alone(self, sentence_grammar):
        alpha1 = find(sentence_grammar, "alpha1")
        alpha2 = find(sentence_grammar, "alpha2")
        host = alpha1.tree.renumbered(1)
        key_host = structural_key(host)
        key_inner = structural_key(alpha2.tree)
        first = substitute(host, node_at(host, (1,)), alpha2)
        second = substitute(host, node_at(host, (1,)), alpha2)
        assert structural_key(host) == key_host
        assert structural_key(alpha2.tree) == key_inner
        assert structurally_equal(first, second)

    def test_adjoin_leaves_inputs_alone(self, sentence_grammar, plain_derivation):
        tree = derive(plain_derivation, sentence_grammar)
        beta1 = find(sentence_grammar, "beta1")
        key = structural_key(tree)
        first = adjoin(tree, tree.root, beta1)
        second = adjoin(tree, tree.root, beta1)
        assert structural_key(tree) == key
        assert structurally_equal(first, second)


class TestYield:
    def test_sentence_tree(self, sentence_grammar, plain_derivation):
        tree = derive(plain_derivation, sentence_grammar)
        assert yield_of(tree) == ("a", "man", "saw", "mary")

    def test_single_leaf(self):
        tree = parse_tree("ξ")
        assert yield_of(tree) == ("ξ",)

    def test_epsilon_elided(self):
        tree = parse_tree("A(a ε b)")
        assert yield_of(tree) == ("a", "b")

    def test_substitution_homomorphism(self):
        rng = random.Random(90125)
        for _ in range(60):
            gamma, site, inner = substitution_case(rng)
            position = [n for n in gamma.leaves()].index(site)
            spliced = yield_of(substitute(gamma, site, inner))
            tokens = []
            for i, nid in enumerate(gamma.leaves()):
                label = gamma.labels[nid]
                if i == position:
                    tokens.extend(yield_of(inner))
                elif label.kind is not LabelKind.EPSILON:
                    tokens.append(label.name)
            assert spliced == tuple(tokens)

    def test_adjunction_keeps_subtree_yield_contiguous(self):
        rng = random.Random(5150)
        for _ in range(60):
            gamma, at, aux = adjunction_case(rng)
            sub_yield = [
                gamma.labels[n].name
                for n in gamma.pre_order(at)
                if not gamma.children[n] and gamma.labels[n].kind is not LabelKind.EPSILON
            ]
            result = yield_of(adjoin(gamma, at, aux))
            if sub_yield:
                text = "\x00".join(result)
                assert "\x00".join(sub_yield) in text


class TestSaturation:
    def test_derived_sentence_tree(self, sentence_grammar, plain_derivation):
        assert is_saturated(derive(plain_derivation, sentence_grammar))

    def test_tree_with_open_sites(self, sentence_grammar):
        assert not is_saturated(find(sentence_grammar, "alpha1").tree)

    def test_epsilon_only_tree(self):
        assert is_saturated(parse_tree("A(ε)"))

    def test_site_accounting(self):
        rng = random.Random(2001)
        for _ in range(60):
            gamma, site, inner = substitution_case(rng)
            result = substitute(gamma, site, inner)
            delta = len(substitution_sites(result)) - len(substitution_sites(gamma))
            assert delta == len(substitution_sites(inner)) - 1
        for _ in range(60):
            gamma, at, aux = adjunction_case(rng)
            result = adjoin(gamma, at, aux)
            delta = len(substitution_sites(result)) - len(substitution_sites(gamma))
            assert delta == len(substitution_sites(aux))


class TestDerive:
    def test_plain_sentence(self, sentence_grammar, plain_derivation):
        assert yield_of(derive(plain_derivation, sentence_grammar)) == (
            "a",
            "man",
            "saw",
            "mary",
        )

    def test_adverb_sentence(self, sentence_grammar, adverb_derivation):
        assert yield_of(derive(adverb_derivation, sentence_grammar)) == (
            "yesterday",
            "a",
            "man",
            "saw",
            "mary",
        )

    def test_single_node_is_the_tree_itself(self, sentence_grammar):
        alpha1 = find(sentence_grammar, "alpha1")
        derived = derive(DerivationTree("alpha1"), sentence_grammar)
        assert structurally_equal(derived, alpha1.tree)

    def test_unknown_name(self, sentence_grammar):
        with pytest.raises(DanglingReferenceError):
            derive(DerivationTree("alpha9"), sentence_grammar)

    def test_mismatched_address(self, sentence_grammar):
        bad = DerivationTree(
            "alpha1",
            (
                DerivationEdge(
                    Operation.SUBSTITUTION, (2,), DerivationTree("alpha2")
                ),
            ),
        )
        with pytest.raises(InapplicableOperationError):
            derive(bad, sentence_grammar)

    def test_root_must_start_the_grammar(self, sentence_grammar):
        with pytest.raises(InapplicableOperationError):
            derive(DerivationTree("alpha2"), sentence_grammar)

    def test_duplicate_addresses_rejected(self):
        child = DerivationTree("alpha2")
        with pytest.raises(ValueError):
            DerivationTree(
                "alpha1",
                (
                    DerivationEdge(Operation.SUBSTITUTION, (1,), child),
                    DerivationEdge(Operation.SUBSTITUTION, (1,), child),
                ),
            )

    def test_sibling_order_independence(self, sentence_grammar, narmax_catalog):
        # three siblings at distinct addresses of one additive tree, plus
        # the sentence case mixing substitution and adjunction
        grammar = narmax_catalog.grammar
        host_entry = find(grammar, "beta2")
        ops = [
            (Operation.ADJUNCTION, (), find(grammar, "beta1").tree),
            (Operation.ADJUNCTION, (1,), find(grammar, "beta5").tree),
            (Operation.ADJUNCTION, (1, 3), find(grammar, "beta7").tree),
        ]
        keys = set()
        for order in permutations(range(3)):
            host = host_entry.tree.renumbered(1)
            targets = [node_at(host, address) for _, address, _ in ops]
            for i in order:
                operation, _, part = ops[i]
                if operation is Operation.SUBSTITUTION:
                    host = substitute(host, targets[i], part)
                else:
                    host = adjoin(host, targets[i], part)
            keys.add(structural_key(host))
        assert len(keys) == 1


PARITY_GRAMMARS = [(preset.value, 5) for preset in GrammarPreset] + [("nbj", 4)]


def _outcome(evaluate, derivation, grammar):
    try:
        return evaluate(derivation, grammar), None
    except TagError as exc:
        return None, (type(exc), str(exc))


class TestDeriveParity:
    """``derive`` against the splice-based reference built from
    ``substitute`` and ``adjoin``."""

    @pytest.mark.parametrize("name, budget", PARITY_GRAMMARS)
    def test_enumerated_derivations(self, name, budget):
        if name == "nbj":
            grammar = build_nbj_grammar().grammar
        else:
            grammar = restrict(GrammarPreset(name))
        for derivation in enumerate_derivations(grammar, GenBounds(max_adjunctions=budget)):
            fast = derive(derivation, grammar)
            assert structurally_equal(fast, reference_derive(derivation, grammar))

    def test_sentence_fixture(self, sentence_grammar, plain_derivation, adverb_derivation):
        for derivation in (plain_derivation, adverb_derivation):
            fast = derive(derivation, sentence_grammar)
            assert structurally_equal(fast, reference_derive(derivation, sentence_grammar))

    def test_random_grammars(self):
        # random derivations over well-formed grammars: same tree or same
        # error; a malformed grammar is refused whatever the derivation
        outcomes, refused = set(), 0
        for seed in range(2000):
            for rng, grammar in random_grammars(seed):
                derivation = random_derivation(rng, grammar)
                fast, fast_error = _outcome(derive, derivation, grammar)
                malformed = refusal(grammar)
                if malformed:
                    assert fast_error == malformed, seed
                    refused += 1
                    continue
                slow, slow_error = _outcome(reference_derive, derivation, grammar)
                assert fast_error == slow_error, seed
                if fast is not None:
                    assert structurally_equal(fast, slow), seed
                    SyntacticTree(fast.root, fast.labels, fast.children)
                    assert list(fast.pre_order()) == list(range(1, len(fast.labels) + 1))
                outcomes.add(fast_error[0] if fast_error else None)
        assert outcomes == {None, DanglingReferenceError, InapplicableOperationError}
        assert refused > 1000


def _leaf_labels(derivation, grammar):
    tree = derive(derivation, grammar)
    return [tree.labels[nid] for nid in tree.leaves()]


class TestDerivedLeavesParity:
    """``derived_leaves`` against the leaves of the tree ``derive``
    builds, over the corpora of :class:`TestDeriveParity`."""

    @pytest.mark.parametrize("name, budget", PARITY_GRAMMARS)
    def test_enumerated_derivations(self, name, budget):
        if name == "nbj":
            grammar = build_nbj_grammar().grammar
        else:
            grammar = restrict(GrammarPreset(name))
        for derivation in enumerate_derivations(grammar, GenBounds(max_adjunctions=budget)):
            assert derived_leaves(derivation, grammar) == _leaf_labels(derivation, grammar)

    def test_sentence_fixture(self, sentence_grammar, plain_derivation, adverb_derivation):
        for derivation in (plain_derivation, adverb_derivation):
            leaves = derived_leaves(derivation, sentence_grammar)
            assert leaves == _leaf_labels(derivation, sentence_grammar)

    def test_random_grammars(self):
        # random derivations over well-formed grammars: same labels or
        # same error; a malformed grammar is refused whatever the derivation
        outcomes, refused = set(), 0
        for seed in range(2000):
            for rng, grammar in random_grammars(seed):
                derivation = random_derivation(rng, grammar)
                fast, fast_error = _outcome(derived_leaves, derivation, grammar)
                malformed = refusal(grammar)
                if malformed:
                    assert fast_error == malformed, seed
                    refused += 1
                    continue
                slow, slow_error = _outcome(_leaf_labels, derivation, grammar)
                assert (fast, fast_error) == (slow, slow_error), seed
                outcomes.add(fast_error[0] if fast_error else None)
        assert outcomes == {None, DanglingReferenceError, InapplicableOperationError}
        assert refused > 1000


# auxiliary trees with two feet and with a foot on an inner node
FEET_GRAMMAR = """\
nonterminals: S A C
terminals: x y z
start: S
initial a = S(A(x C(y)) A(z))
auxiliary two = A(C(A★ z) A★)
auxiliary inner = A(A★(x) C(z))
auxiliary c = C(z C★)
"""


class TestDerivedLeavesFeet:
    """A grammar whose auxiliary trees have two feet or a foot on an
    inner node is malformed: ``derive`` and ``derived_leaves`` refuse it
    with its first diagnostic, whatever the derivation."""

    @pytest.mark.parametrize(
        "text",
        [
            "a[adj@1 -> two]",
            "a[adj@1 -> two[adj@1 -> c]]",
            "a[adj@1 -> inner]",
            "a[adj@1 -> inner[adj@ε -> two]]",
            "a[adj@1 -> two[adj@ε -> inner]]",
            "a[adj@1 -> inner[adj@1 -> two, adj@2 -> c]]",
            "a[adj@1 -> two[adj@1 -> c[adj@ε -> c]], adj@2 -> inner[adj@1 -> two]]",
            "a[adj@1.2 -> c, adj@2 -> two[adj@1 -> c, adj@ε -> inner]]",
        ],
    )
    def test_refused_with_the_first_diagnostic(self, text):
        grammar = parse_grammar(FEET_GRAMMAR)
        derivation = parse_derivation(text)
        for evaluate in (derive, derived_leaves):
            assert _outcome(evaluate, derivation, grammar)[1] == (
                MalformedGrammarError,
                "malformed grammar: multiple-foot: 2 foot-marked nodes [two@2]",
            )


class TestCheckedPartMemory:
    """The checked part of a long chain holds one entry per node of each
    elementary tree it uses and nothing more: at most 220 B per
    adjunction (~155-180 B on CPython 3.11, x86-64)."""

    @pytest.mark.parametrize("text", ["c1*u[-10000] + xi", "c1*u[0]^10000 + xi"])
    def test_bytes_per_adjunction(self, text):
        grammar = build_narmax_grammar().grammar
        tables = grammar._tables  # compiled before the count starts
        model = parse_model_text(text)
        derivation = model_to_derivation(model)
        tracemalloc.start()
        try:
            part = trees._check(derivation, tables)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert part.table is tables["alpha1"]
        per_adjunction = held / adjunctions_needed(model)
        assert per_adjunction <= 220, f"{per_adjunction:.0f} B per adjunction"


class TestDerivationMemory:
    """A derivation node and edge are slotted records, without a
    ``__dict__``: a long chain's derivation holds at most 170 B per
    adjunction (152 B on CPython 3.11, x86-64).  ``derive`` builds the
    derived tree's maps in one pass, so its peak above the tree it
    returns is its checked part plus the open path of child lists."""

    @pytest.mark.parametrize("text", ["c1*u[-10000] + xi", "c1*u[0]^10000 + xi"])
    def test_bytes_per_adjunction(self, text):
        model_to_derivation(parse_model_text("c1*u[-1] + xi"))  # warm every lazy table
        model = parse_model_text(text)
        tracemalloc.start()
        try:
            derivation = model_to_derivation(model)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert derivation.tree_name == "alpha1"
        per_adjunction = held / adjunctions_needed(model)
        assert per_adjunction <= 170, f"{per_adjunction:.0f} B per adjunction"

    def test_derive_peak_above_its_tree(self):
        grammar = build_narmax_grammar().grammar
        text = " + ".join(f"c{k}*u[-{k % 10}]*y[-{k % 7 + 1}]" for k in range(1, 101))
        derivation = model_to_derivation(parse_model_text(text + " + xi"))
        derive(derivation, grammar)  # warm every lazy table
        tracemalloc.start()
        try:
            part = trees._checked(derivation, grammar)
            parts, _ = tracemalloc.get_traced_memory()
            del part
            tracemalloc.reset_peak()
            tree = derive(derivation, grammar)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tree.labels) == 2172
        # ~17 kB on CPython 3.11, x86-64; a list per node would add ~200 kB
        above = peak - held - parts
        assert above <= 64 * 1024, f"{above} B above the tree and its checked parts"


class TestMalformedGrammars:
    """A grammar that ``validate_grammar`` flags can be built, read and
    validated, and everything that derives over it or looks a tree up
    refuses it with its first diagnostic."""

    def test_every_reader_refuses_the_random_grammars(self):
        bounds = GenBounds(max_adjunctions=2)
        refused = 0
        for seed in range(300):
            rng = random.Random(seed)
            grammar = random_grammar(rng)
            error = refusal(grammar)
            if error is None:
                continue
            derivation = random_derivation(rng, grammar)
            uses = (
                lambda: derive(derivation, grammar),
                lambda: derived_leaves(derivation, grammar),
                lambda: next(enumerate_derivations(grammar, bounds)),
                lambda: next(enumerate_models(grammar, bounds)),
                lambda: grammar.find(derivation.tree_name),
            )
            for use in uses:
                with pytest.raises(MalformedGrammarError) as info:
                    use()
                assert (type(info.value), str(info.value)) == error, seed
            refused += 1
        assert refused > 200

    def test_refused_on_first_use_not_on_construction(self):
        grammar = parse_grammar(FEET_GRAMMAR)
        generator = enumerate_derivations(grammar, GenBounds())
        assert [d.code for d in validate_grammar(grammar)][:2] == ["multiple-foot", "foot-not-leaf"]
        with pytest.raises(MalformedGrammarError):
            next(generator)

    def test_validated_once_per_grammar(self, monkeypatch, sentence_grammar, plain_derivation):
        calls = []
        validate = trees.validate_grammar

        def counted(grammar):
            calls.append(grammar)
            return validate(grammar)

        monkeypatch.setattr(trees, "validate_grammar", counted)
        grammar = Grammar(
            sentence_grammar.nonterminals, sentence_grammar.terminals, sentence_grammar.start,
            sentence_grammar.initials, sentence_grammar.auxiliaries,
        )
        for _ in range(3):
            derive(plain_derivation, grammar)
            derived_leaves(plain_derivation, grammar)
        list(enumerate_derivations(grammar, GenBounds(max_adjunctions=2)))
        assert grammar.find("alpha1") is not None
        assert calls == [grammar]


class TestValidateGrammar:
    def test_clean_grammar(self, sentence_grammar):
        assert validate_grammar(sentence_grammar) == []

    def test_start_not_nonterminal(self):
        tree = parse_tree("A(a)", nonterminals={"A"}, terminals={"a"})
        grammar = Grammar(
            {"A"}, {"a"}, "Z", (ElementaryTree("t", TreeKind.INITIAL, tree),), ()
        )
        codes = [d.code for d in validate_grammar(grammar)]
        assert "start-not-nonterminal" in codes

    def test_foot_label_mismatch(self):
        tree = parse_tree("A(a B★)", nonterminals={"A", "B"}, terminals={"a"})
        grammar = Grammar(
            {"A", "B"}, {"a"}, "A", (), (ElementaryTree("b", TreeKind.AUXILIARY, tree),)
        )
        diagnostics = validate_grammar(grammar)
        assert any(d.code == "foot-label-mismatch" for d in diagnostics)
        mismatch = next(d for d in diagnostics if d.code == "foot-label-mismatch")
        assert mismatch.tree == "b"
        assert mismatch.address == "2"

    def test_missing_foot(self):
        tree = parse_tree("A(a)", nonterminals={"A"}, terminals={"a"})
        grammar = Grammar(
            {"A"}, {"a"}, "A", (), (ElementaryTree("b", TreeKind.AUXILIARY, tree),)
        )
        assert any(d.code == "missing-foot" for d in validate_grammar(grammar))

    def test_alphabet_overlap_and_unknown_label(self):
        tree = parse_tree("A(z)")
        grammar = Grammar(
            {"A", "a"}, {"a"}, "A", (ElementaryTree("t", TreeKind.INITIAL, tree),), ()
        )
        codes = [d.code for d in validate_grammar(grammar)]
        assert "alphabets-overlap" in codes
        assert "unknown-label" in codes

    def test_unknown_nonterminal(self):
        tree = parse_tree("A(B(a))")
        grammar = Grammar({"A"}, {"a"}, "A", (ElementaryTree("t", TreeKind.INITIAL, tree),), ())
        (diagnostic,) = validate_grammar(grammar)
        assert (diagnostic.code, diagnostic.address) == ("unknown-label", "1")
        assert diagnostic.message == "nonterminal 'B' is not in the alphabet"

    def test_many_diagnostics_in_linear_time(self):
        # a root over 8,000 internal nodes labelled with a terminal: one
        # diagnostic each, every one with its own address
        count = 8000
        labels = {0: NodeLabel.nonterminal("S")}
        children = {0: tuple(range(1, 2 * count, 2))}
        for nid in range(1, 2 * count, 2):
            labels[nid] = labels[nid + 1] = NodeLabel.terminal("x")
            children[nid] = (nid + 1,)
        tree = SyntacticTree(0, labels, children)
        grammar = Grammar({"S"}, {"x"}, "S", (ElementaryTree("t", TreeKind.INITIAL, tree),), ())
        start = time.perf_counter()
        diagnostics = validate_grammar(grammar)
        elapsed = time.perf_counter() - start
        assert [d.address for d in diagnostics] == [str(i) for i in range(1, count + 1)]
        assert elapsed < 3.0, f"validate took {elapsed:.2f}s of its 3s budget"

    def test_deep_chains_in_linear_time_and_bounded_memory(self):
        # two auxiliary chains 8,000 deep: one whose foot is misnamed (one
        # diagnostic, at the bottom of the chain) and one that is clean
        depth = 8000

        def chain(name: str, foot: str) -> ElementaryTree:
            labels = {nid: NodeLabel.nonterminal("A") for nid in range(depth)}
            labels[depth] = NodeLabel.nonterminal(foot, foot=True)
            tree = SyntacticTree(0, labels, {nid: (nid + 1,) for nid in range(depth)})
            return ElementaryTree(name, TreeKind.AUXILIARY, tree)

        grammar = Grammar(
            {"A", "B"}, set(), "A", (), (chain("bad", "B"), chain("clean", "A"))
        )
        start = time.perf_counter()
        diagnostics = validate_grammar(grammar)
        elapsed = time.perf_counter() - start
        assert [(d.code, d.tree, d.address) for d in diagnostics] == [
            ("foot-label-mismatch", "bad", ".".join(["1"] * depth))
        ]
        assert elapsed < 3.0, f"validate took {elapsed:.2f}s of its 3s budget"
        tracemalloc.start()
        try:
            assert len(validate_grammar(grammar)) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"validate peaked at {peak / 2**20:.1f} MiB"
