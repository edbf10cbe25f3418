import random
from collections import Counter

import pytest

from narmaxtag import (
    DerivationEdge,
    DerivationTree,
    GenBounds,
    GrammarPreset,
    Mode,
    Monomial,
    NarmaxModel,
    NbjModel,
    NotSaturatedError,
    Operation,
    SignalInWrongPartError,
    SignalKind,
    UnrepresentableModelError,
    YieldNotInLanguageError,
    adjunctions_needed,
    derive,
    derived_to_model,
    enumerate_models,
    format_model_text,
    model_to_derivation,
    nbj_derived_to_model,
    nbj_model_to_derivation,
    nbj_roundtrip_check,
    parse_model_text,
    restrict,
    roundtrip_check,
    validate_grammar,
    yield_of,
)
from narmaxtag import narmax
from narmaxtag.narmax import MAX_ADJUNCTIONS
from narmaxtag.treeio import parse_tree

from oracles import adjunctions_required, node_names, random_model

FIG_A = "c1*y[-1] + c2*u[0] + xi"
FIG_B = "c1*y[-1]^2 + c2*u[0] + xi"
FIG_C = "c1*y[-1]^2 + c2*u[0] + c3*xi[0]*xi[-1]*xi[-2] + xi"


class TestCatalog:
    def test_validates_clean(self, narmax_catalog):
        assert validate_grammar(narmax_catalog.grammar) == []

    def test_catalog_sizes(self, narmax_catalog):
        assert len(narmax_catalog.grammar.initials) == 1
        assert len(narmax_catalog.grammar.auxiliaries) == 7

    def test_initial_tree_yield(self, narmax_catalog):
        alpha1 = narmax_catalog.grammar.find("alpha1")
        assert yield_of(alpha1.tree) == ("ξ",)

    def test_tree_families(self, narmax_catalog):
        grammar = narmax_catalog.grammar
        for name in ("beta1", "beta2", "beta3"):
            tree = grammar.find(name).tree
            assert tree.labels[tree.root].name == "expr0"
            assert tree.labels[tree.foot_node()].name == "expr0"
        for name in ("beta4", "beta5", "beta6"):
            tree = grammar.find(name).tree
            assert tree.labels[tree.root].name == "expr1"
        beta7 = grammar.find("beta7").tree
        assert tree_labels(beta7) == ["expr2", "expr2", "q⁻¹"]

    def test_additive_trees_have_one_coefficient(self, narmax_catalog):
        grammar = narmax_catalog.grammar
        for name in ("beta1", "beta2", "beta3"):
            tokens = yield_of(grammar.find(name).tree)
            assert tokens.count("c") == 1

    def test_output_trees_embed_one_delay(self, narmax_catalog):
        grammar = narmax_catalog.grammar
        for name in ("beta2", "beta5"):
            tokens = yield_of(grammar.find(name).tree)
            assert tokens.count("q⁻¹") == 1


def tree_labels(tree):
    return [tree.labels[nid].name for nid in tree.pre_order()]


class TestRestrict:
    def test_narmax(self):
        names = {aux.name for aux in restrict(GrammarPreset.NARMAX).auxiliaries}
        assert names == {"beta1", "beta2", "beta3", "beta4", "beta5", "beta6", "beta7"}

    def test_arx(self):
        names = {aux.name for aux in restrict(GrammarPreset.ARX).auxiliaries}
        assert names == {"beta1", "beta2", "beta7"}

    def test_narx(self):
        names = {aux.name for aux in restrict(GrammarPreset.NARX).auxiliaries}
        assert names == {"beta1", "beta2", "beta4", "beta5", "beta7"}

    def test_fir_and_volterra(self):
        assert {aux.name for aux in restrict(GrammarPreset.FIR).auxiliaries} == {
            "beta1",
            "beta7",
        }
        assert {aux.name for aux in restrict(GrammarPreset.VOLTERRA).auxiliaries} == {
            "beta1",
            "beta4",
            "beta7",
        }

    def test_presets_validate(self):
        for preset in GrammarPreset:
            assert validate_grammar(restrict(preset)) == []


class TestModelToDerivation:
    def test_pure_noise_is_bare_initial(self):
        derivation = model_to_derivation(parse_model_text("xi"))
        assert derivation == DerivationTree("alpha1")

    def test_linear_example_nodes(self):
        derivation = model_to_derivation(parse_model_text(FIG_A))
        names = Counter(node_names(derivation))
        assert names == Counter({"alpha1": 1, "beta1": 1, "beta2": 1})

    def test_noise_product_example_nodes(self):
        derivation = model_to_derivation(parse_model_text(FIG_C))
        names = Counter(node_names(derivation))
        assert names["beta1"] == 1 and names["beta2"] == 1
        assert names["beta3"] == 1 and names["beta6"] == 2
        assert names["beta7"] == 3 and names["beta5"] == 1

    def test_constant_term_unrepresentable(self):
        model = NarmaxModel((Monomial(1, {}),))
        with pytest.raises(UnrepresentableModelError):
            model_to_derivation(model)

    @pytest.mark.parametrize(
        "factors",
        [
            {(SignalKind.INPUT, 0): 2**63},
            {(SignalKind.OUTPUT, 2**63): 1},
            {(SignalKind.INPUT, 0): 1, (SignalKind.NOISE, 10**30): 1},
        ],
    )
    def test_past_maxsize_adjunctions_unrepresentable(self, factors):
        # these fail before any derivation node is built
        model = NarmaxModel((Monomial(1, factors),))
        with pytest.raises(
            UnrepresentableModelError, match=f"more than the limit of {MAX_ADJUNCTIONS}$"
        ):
            model_to_derivation(model)

    def test_exponents_become_chains(self, narmax_catalog):
        model = parse_model_text("c1*u[-2]^2 + xi")
        derivation = model_to_derivation(model)
        names = Counter(node_names(derivation))
        # one additive + one multiplicative introduction, two delays each
        assert names == Counter({"alpha1": 1, "beta1": 1, "beta4": 1, "beta7": 4})
        derived = derive(derivation, narmax_catalog.grammar)
        assert derived_to_model(derived).structure() == model.structure()


def derivation_adjunctions(derivation):
    """Adjunctions in a derivation over a one-initial-tree catalog: every
    node but the root."""
    return len(node_names(derivation)) - 1


class TestAdjunctionsNeeded:
    """``adjunctions_needed`` counts what ``model_to_derivation`` builds,
    and agrees with the oracle's own count."""

    def test_enumerated_models(self):
        for preset in GrammarPreset:
            for mode in Mode:
                bounds = GenBounds(max_adjunctions=5, mode=mode)
                models = {
                    model.structure(): model
                    for model in enumerate_models(restrict(preset), bounds)
                }
                for model in models.values():
                    needed = adjunctions_needed(model)
                    assert needed == derivation_adjunctions(model_to_derivation(model))
                    assert needed == adjunctions_required(model) <= 5

    def test_random_models(self):
        rng = random.Random(18)
        for _ in range(2000):
            model = random_model(
                rng, max_terms=4, max_delay=6, max_exponent=3, mode=rng.choice(list(Mode))
            )
            needed = adjunctions_needed(model)
            assert needed == derivation_adjunctions(model_to_derivation(model))
            assert needed == adjunctions_required(model)

    def test_nbj_models(self):
        rng = random.Random(81)
        for _ in range(200):
            process = random_model(rng, max_terms=3, max_delay=5)
            process = NarmaxModel(
                tuple(t for t in process.terms if SignalKind.NOISE not in t.signals())
            )
            noise = random_model(rng, max_terms=3, max_delay=5)
            model = NbjModel(process.terms, noise.terms)
            assert derivation_adjunctions(nbj_model_to_derivation(model)) == (
                adjunctions_needed(process) + adjunctions_needed(noise)
            )

    def test_terms_counted_as_given(self):
        # canonicalize merges the two terms; the count does not
        term = Monomial(1, {(SignalKind.OUTPUT, 2): 1})
        model = NarmaxModel((term, Monomial(2, term.factors)))
        assert adjunctions_needed(model) == 4
        assert derivation_adjunctions(model_to_derivation(model)) == 2

    def test_limit_is_inclusive(self, monkeypatch):
        # checked before building, by every entry point that builds
        monkeypatch.setattr(narmax, "MAX_ADJUNCTIONS", 3)
        at_limit = parse_model_text("c1*u[-1] + c2*y[-1] + xi")
        past_limit = parse_model_text("c1*u[-2] + c2*y[-1] + xi")
        assert derivation_adjunctions(model_to_derivation(at_limit)) == 3
        assert roundtrip_check(at_limit)
        message = "the model needs 4 adjunctions, more than the limit of 3$"
        with pytest.raises(UnrepresentableModelError, match=message):
            model_to_derivation(past_limit)
        with pytest.raises(UnrepresentableModelError, match=message):
            roundtrip_check(past_limit)
        # the two sides of an NBJ model count together
        nbj = NbjModel(at_limit.terms[:1], past_limit.terms[1:])
        assert nbj_roundtrip_check(nbj)
        nbj = NbjModel(past_limit.terms[:1], past_limit.terms[1:])
        with pytest.raises(UnrepresentableModelError, match=message):
            nbj_model_to_derivation(nbj)
        with pytest.raises(UnrepresentableModelError, match=message):
            nbj_roundtrip_check(nbj)

    def test_count_past_the_decimal_text_limit(self):
        # the count has more digits than int-to-str conversion allows
        nines = "9" * 4000
        model = parse_model_text(f"c1*u[-{nines}]^{nines} + xi")
        with pytest.raises(UnrepresentableModelError, match="needs a 26576-bit number of"):
            model_to_derivation(model)


class TestDerivedToModel:
    def test_quadratic_example(self, narmax_catalog):
        derivation = model_to_derivation(parse_model_text(FIG_B))
        derived = derive(derivation, narmax_catalog.grammar)
        model = derived_to_model(derived)
        assert format_model_text(model) == "c1*u[0] + c2*y[-1]^2 + xi"

    def test_initial_alone_is_pure_noise(self, narmax_catalog):
        derived = derive(DerivationTree("alpha1"), narmax_catalog.grammar)
        assert derived_to_model(derived) == parse_model_text("xi")

    def test_unsaturated_rejected(self):
        with pytest.raises(NotSaturatedError):
            derived_to_model(parse_tree("expr0(expr0↓)"))

    def test_alien_yield_rejected(self):
        with pytest.raises(YieldNotInLanguageError):
            derived_to_model(parse_tree("expr0(c)"))
        tree = parse_tree('root(q⁻¹ ξ)', nonterminals={"root"},
                          terminals={"q⁻¹", "ξ"})
        with pytest.raises(YieldNotInLanguageError):
            derived_to_model(tree)

    def test_output_without_delay_rejected(self):
        tree = parse_tree('expr0(c × y "+" ξ)', nonterminals={"expr0"},
                          terminals={"c", "×", "y", "+", "ξ"})
        with pytest.raises(YieldNotInLanguageError):
            derived_to_model(tree)

    def test_coefficients_numbered_left_to_right(self, narmax_catalog):
        derivation = model_to_derivation(parse_model_text(FIG_C))
        derived = derive(derivation, narmax_catalog.grammar)
        model = derived_to_model(derived)
        assert [term.coeff_id for term in model.terms] == [1, 2, 3]


class TestRoundtrip:
    @pytest.mark.parametrize("text", [FIG_A, FIG_B, FIG_C, "xi"])
    def test_golden_models(self, text):
        assert roundtrip_check(parse_model_text(text))

    def test_seeded_random_models_both_modes(self):
        rng = random.Random(20260809)
        for index in range(200):
            mode = Mode.EXTENDED if index % 2 else Mode.STRICT
            model = random_model(rng, mode=mode)
            assert roundtrip_check(model), format_model_text(model)

    def test_identity_on_canonical_symbolic_models(self, narmax_catalog):
        rng = random.Random(55)
        for _ in range(50):
            model = random_model(rng)
            derived = derive(model_to_derivation(model), narmax_catalog.grammar)
            assert derived_to_model(derived, mode=model.mode) == model

    def test_yields_reenter_the_grammar(self, narmax_catalog):
        # parser-accepted token sequences are realizable by a derivation
        rng = random.Random(31415)
        for _ in range(30):
            model = random_model(rng)
            derived = derive(model_to_derivation(model), narmax_catalog.grammar)
            tokens = yield_of(derived)
            again = derive(
                model_to_derivation(derived_to_model(derived)),
                narmax_catalog.grammar,
            )
            assert yield_of(again) == tokens


class TestNbj:
    def test_validates_clean(self, nbj_catalog):
        assert validate_grammar(nbj_catalog.grammar) == []

    def test_base_case(self, nbj_catalog):
        derived = derive(DerivationTree("alpha1"), nbj_catalog.grammar)
        assert yield_of(derived) == ("0", ",", "ξ")
        model = nbj_derived_to_model(derived)
        assert model.process_terms == ()
        assert model.noise_terms == ()

    def test_single_process_adjunction(self, nbj_catalog):
        derivation = DerivationTree(
            "alpha1",
            (
                DerivationEdge(
                    Operation.ADJUNCTION,
                    nbj_catalog.equations[0].slot,
                    DerivationTree("betaf2"),
                ),
            ),
        )
        model = nbj_derived_to_model(derive(derivation, nbj_catalog.grammar))
        assert model.process_terms == (
            Monomial(1, {(SignalKind.OUTPUT, 1): 1}),
        )
        assert model.noise_terms == ()

    def test_misplaced_noise_token_rejected(self, nbj_catalog):
        tree = parse_tree('root(c × ξ "+" 0 "," ξ)', nonterminals={"root"},
                          terminals={"c", "×", "ξ", "+", "0", ","})
        with pytest.raises(SignalInWrongPartError):
            nbj_derived_to_model(tree)

    def test_misplaced_process_token_rejected(self):
        tree = parse_tree('root(0 "," c × ŷ q⁻¹ "+" ξ)', nonterminals={"root"},
                          terminals={"c", "×", "ŷ", "q⁻¹", "+", "0", ",", "ξ"})
        with pytest.raises(SignalInWrongPartError):
            nbj_derived_to_model(tree)

    @pytest.mark.parametrize(
        "text",
        [
            # a malformed process sum after the nonterminal leaf
            'exprbj(expr0f↓ "," expr0g(ξ))',
            # no comma at all
            "exprbj(expr0f↓ expr0g(ξ))",
            # two commas
            'exprbj(expr0f(0) "," expr0g↓ "," ξ)',
        ],
    )
    def test_saturation_checked_first(self, text):
        with pytest.raises(NotSaturatedError, match="^the tree still has nonterminal leaves$"):
            nbj_derived_to_model(parse_tree(text))

    def test_comma_count_enforced(self):
        tree = parse_tree('root(ξ)', nonterminals={"root"}, terminals={"ξ"})
        with pytest.raises(YieldNotInLanguageError):
            nbj_derived_to_model(tree)

    def test_roundtrip_random_two_sided(self, nbj_catalog):
        rng = random.Random(777)
        for _ in range(40):
            process = random_model(rng, max_terms=2)
            noise = random_model(rng, max_terms=2)
            process_terms = tuple(
                term
                for term in process.terms
                if SignalKind.NOISE not in term.signals()
            )
            model = NbjModel(process_terms, noise.terms)
            assert nbj_roundtrip_check(model)

    def test_model_to_derivation_sides(self, nbj_catalog):
        model = NbjModel(
            (Monomial(1, {(SignalKind.INPUT, 0): 1}),),
            (Monomial(1, {(SignalKind.OUTPUT, 2): 1}),),
        )
        derivation = nbj_model_to_derivation(model)
        names = Counter(node_names(derivation))
        assert names["betaf1"] == 1
        assert names["betag2"] == 1 and names["betag7"] == 1
        derived = derive(derivation, nbj_catalog.grammar)
        tokens = yield_of(derived)
        assert tokens == ("c", "×", "u", "+", "0", ",", "c", "×", "v", "q⁻¹", "q⁻¹", "+", "ξ")
        back = nbj_derived_to_model(derived)
        assert back.process_terms == model.process_terms
        assert back.noise_terms == model.noise_terms
