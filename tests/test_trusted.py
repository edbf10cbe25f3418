"""The objects the package builds itself skip the public constructors'
checks; these tests rebuild them through those constructors.

``enumerate_derivations`` and ``narmax._node`` build derivation nodes
and edges with ``_build``, and ``canonicalize``'s builder builds its
terms with ``Monomial._build`` and its model with ``NarmaxModel._build``.
Whatever they build must be something the public constructors accept
and compare equal to, and every check of the public constructors must
still fire on bad input.
"""

import sys

import pytest

from narmaxtag import (
    CausalityError,
    DerivationEdge,
    DerivationTree,
    GenBounds,
    GrammarPreset,
    Mode,
    ModelError,
    Monomial,
    NarmaxModel,
    Operation,
    SampleConfig,
    SignalKind,
    canonicalize,
    derive,
    derived_to_model,
    enumerate_derivations,
    enumerate_models,
    model_to_derivation,
    restrict,
    sample_model,
)
from narmaxtag.narmax import build_narmax_grammar, build_nbj_grammar


def rebuilt(derivation):
    """``derivation`` rebuilt node by node through the public
    constructors, which check each node's and edge's invariants."""
    done = []  # rebuilt children, consumed in the order they were pushed
    stack = [(derivation, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            stack += [(edge.child, False) for edge in reversed(node.edges)]
            continue
        children = [done.pop() for _ in node.edges][::-1]
        edges = tuple(
            DerivationEdge(edge.operation, list(edge.address), child)
            for edge, child in zip(node.edges, children)
        )
        done.append(DerivationTree(node.tree_name, edges))
    (root,) = done
    return root


def assert_trusted_build_is_valid(derivation):
    assert rebuilt(derivation) == derivation
    # what the trusted builders rely on: each node's edges are in
    # increasing address order
    stack = [derivation]
    while stack:
        node = stack.pop()
        addresses = [edge.address for edge in node.edges]
        assert addresses == sorted(set(addresses))
        assert all(type(address) is tuple for address in addresses)
        stack += [edge.child for edge in node.edges]


GRAMMARS = [preset.value for preset in GrammarPreset] + ["nbj"]


class TestTrustedDerivations:
    @pytest.mark.parametrize("name", GRAMMARS)
    def test_enumerated_derivations(self, name):
        if name == "nbj":
            grammar = build_nbj_grammar().grammar
        else:
            grammar = restrict(GrammarPreset(name))
        count = 0
        for derivation in enumerate_derivations(grammar, GenBounds(max_adjunctions=4)):
            assert_trusted_build_is_valid(derivation)
            count += 1
        assert count > 1

    def test_model_to_derivation_of_sampled_models(self):
        bounds = GenBounds(max_adjunctions=10, max_terms=4, max_delay=3, max_exponent=3)
        for seed in range(2000):
            model = sample_model(SampleConfig(bounds=bounds, seed=seed))
            assert_trusted_build_is_valid(model_to_derivation(model))

    def test_repeated_address_still_raises(self):
        leaf = DerivationTree("beta7")
        with pytest.raises(ValueError, match="^two edges of 'beta1' share address 1.3$"):
            DerivationTree(
                "beta1",
                (
                    DerivationEdge(Operation.ADJUNCTION, (1, 3), leaf),
                    DerivationEdge(Operation.ADJUNCTION, [1, 3], leaf),
                ),
            )

    def test_zero_index_still_raises(self):
        with pytest.raises(ValueError, match="^Gorn address indices must be >= 1$"):
            DerivationEdge(Operation.ADJUNCTION, (1, 0), DerivationTree("beta7"))


class TestTrustedTerms:
    def test_enumerated_models_rebuild(self):
        grammar = restrict(GrammarPreset.NARMAX)
        for model in enumerate_models(grammar, GenBounds(max_adjunctions=4)):
            terms = tuple(
                Monomial(term.coeff_id, term.factors, term.coeff_value) for term in model.terms
            )
            assert NarmaxModel(terms, model.mode) == model

    def test_merged_values_rebuild(self):
        model = canonicalize(
            NarmaxModel(
                (
                    Monomial(4, {(SignalKind.INPUT, 0): 1}, 1.5),
                    Monomial(2, {(SignalKind.OUTPUT, 2): 2}, None),
                    Monomial(1, {(SignalKind.INPUT, 0): 1}, -0.25),
                )
            )
        )
        assert [(t.coeff_id, t.coeff_value) for t in model.terms] == [(1, 1.25), (2, None)]
        for term in model.terms:
            assert Monomial(term.coeff_id, term.factors, term.coeff_value) == term

    @pytest.mark.parametrize("sign, shown", [(1.0, "inf"), (-1.0, "-inf")])
    def test_merge_past_the_largest_float_still_raises(self, sign, shown):
        big = sign * sys.float_info.max
        model = NarmaxModel(
            (
                Monomial(1, {(SignalKind.INPUT, 0): 1}, big),
                Monomial(2, {(SignalKind.INPUT, 0): 1}, big),
            )
        )
        with pytest.raises(ModelError, match=f"^coefficient values must be finite, got {shown}$"):
            canonicalize(model)

    def test_strict_mode_still_checked(self):
        # the yield reader builds its model with canonicalize's builder
        model = NarmaxModel((Monomial(1, {(SignalKind.INPUT, 0): 1, (SignalKind.NOISE, 0): 1}),))
        tree = derive(model_to_derivation(model), build_narmax_grammar().grammar)
        assert derived_to_model(tree) == model
        with pytest.raises(CausalityError, match="^strict mode forbids the current noise"):
            derived_to_model(tree, Mode.STRICT)
