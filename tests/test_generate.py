import time
import tracemalloc
from itertools import islice, product

import pytest

from narmaxtag import (
    DerivationTree,
    ElementaryTree,
    Grammar,
    GenBounds,
    GrammarPreset,
    Mode,
    NarmaxModel,
    NodeLabel,
    SampleConfig,
    SignalKind,
    SyntacticTree,
    TagError,
    TreeKind,
    build_narmax_grammar,
    build_nbj_grammar,
    classify,
    derive,
    derived_to_model,
    enumerate_derivations,
    enumerate_models,
    format_model_text,
    restrict,
    sample_derivation,
    sample_model,
)
from narmaxtag import generate
from narmaxtag.treeio import parse_grammar, parse_tree

from oracles import (
    PRESET_TAGS,
    adjunctions_required,
    all_models_within_cost,
    node_names,
    random_grammars,
    reference_enumerate,
    refusal,
)


def count_upto(grammar, budget):
    return sum(
        1 for _ in enumerate_derivations(grammar, GenBounds(max_adjunctions=budget))
    )


class TestEnumerate:
    def test_budget_zero_is_the_initial_tree(self, narmax_catalog):
        items = list(
            enumerate_derivations(narmax_catalog.grammar, GenBounds(max_adjunctions=0))
        )
        assert items == [DerivationTree("alpha1")]

    def test_single_adjunction_count(self, narmax_catalog):
        # the start tree exposes one additive slot with three candidates
        assert count_upto(narmax_catalog.grammar, 1) == 4

    def test_counts_match_closed_form(self, narmax_catalog):
        # additive nodes branch 7 ways (3 additive + 3 multiplicative +
        # 1 delay continuation), so exactly 3*7^(n-1) derivations use n
        # adjunctions
        expected = 1
        for budget in range(1, 5):
            expected += 3 * 7 ** (budget - 1)
            assert count_upto(narmax_catalog.grammar, budget) == expected

    def test_preset_counts_match_closed_form(self):
        cases = [
            (GrammarPreset.ARX, 3),  # 2 additive + 1 delay
            (GrammarPreset.NARX, 5),  # 2 additive + 2 multiplicative + 1 delay
            (GrammarPreset.FIR, 2),
            (GrammarPreset.VOLTERRA, 3),
        ]
        for preset, branching in cases:
            grammar = restrict(preset)
            additive = 2 if preset in (GrammarPreset.ARX, GrammarPreset.NARX) else 1
            expected = 1
            for budget in range(1, 5):
                expected += additive * branching ** (budget - 1)
                assert count_upto(grammar, budget) == expected, preset

    def test_no_duplicates(self, narmax_catalog):
        items = list(
            enumerate_derivations(narmax_catalog.grammar, GenBounds(max_adjunctions=3))
        )
        assert len(items) == len(set(items))

    def test_deterministic_stream(self, narmax_catalog):
        bounds = GenBounds(max_adjunctions=2)
        first = list(enumerate_derivations(narmax_catalog.grammar, bounds))
        second = list(enumerate_derivations(narmax_catalog.grammar, bounds))
        assert first == second

    def test_substitution_sites_always_filled(self, sentence_grammar):
        derivations = list(
            enumerate_derivations(sentence_grammar, GenBounds(max_adjunctions=1))
        )
        # one complete sentence with and without the adverb
        assert len(derivations) == 2
        for derivation in derivations:
            names = set(node_names(derivation))
            assert {"alpha1", "alpha2", "alpha3"} <= names

    def test_each_preset_carves_out_exactly_its_class(self):
        # checked by hand at 5 adjunctions as well
        full = restrict(GrammarPreset.NARMAX)
        for mode in Mode:
            bounds = GenBounds(max_adjunctions=4, mode=mode)
            models = {model.structure(): model for model in enumerate_models(full, bounds)}
            for preset, tag in PRESET_TAGS.items():
                carved = {m.structure() for m in enumerate_models(restrict(preset), bounds)}
                tagged = {key for key, model in models.items() if tag in classify(model)}
                assert carved == tagged, (preset, mode)

    def test_arx_enumeration_classifies_arx(self):
        grammar = restrict(GrammarPreset.ARX)
        for model in enumerate_models(grammar, GenBounds(max_adjunctions=3)):
            assert "ARX" in classify(model)

    def test_completeness_against_model_space(self, narmax_catalog):
        budget = 4
        parsed = set()
        for model in enumerate_models(
            narmax_catalog.grammar, GenBounds(max_adjunctions=budget)
        ):
            assert adjunctions_required(model) <= budget
            parsed.add(model.structure())
        direct = all_models_within_cost(budget)
        assert parsed == direct


    def test_strict_stream_is_the_filtered_extended_stream(self):
        # the extended stream holds one model per derivation; strict mode
        # skips the models with the current noise sample in a product,
        # and keeps the rest in stream order
        grammar = restrict(GrammarPreset.NARMAX)
        for budget in range(4):
            bounds = GenBounds(max_adjunctions=budget)
            extended = list(enumerate_models(grammar, bounds))
            assert len(extended) == len(list(enumerate_derivations(grammar, bounds)))
            strict = [
                model.structure()
                for model in enumerate_models(
                    grammar, GenBounds(max_adjunctions=budget, mode=Mode.STRICT)
                )
            ]
            kept = [
                model.structure()
                for model in extended
                if all((SignalKind.NOISE, 0) not in term.factors for term in model.terms)
            ]
            assert strict == kept
        assert len(strict) < count_upto(grammar, 3)

    def test_any_depth(self):
        # the delay chains of FIR models grow one level per few items
        grammar = restrict(GrammarPreset.FIR)
        items = list(
            islice(enumerate_derivations(grammar, GenBounds(max_adjunctions=3000)), 600)
        )
        assert len(items) == 600
        assert max(len(node_names(d)) for d in items) > 500

    def test_substitution_cycle_is_an_error(self):
        grammar = parse_grammar(
            "nonterminals: A\nterminals: a\nstart: A\ninitial t1 = A(A↓)\n"
        )
        with pytest.raises(TagError, match="t1 -> t1"):
            list(enumerate_derivations(grammar, GenBounds(max_adjunctions=1)))

    def test_wide_tree_in_linear_time(self):
        # one initial tree with 64,000 substitution sites, each filled by
        # the same leaf tree: one derivation with 64,000 edges
        count = 64000
        labels = {0: NodeLabel.nonterminal("S")}
        labels.update((nid, NodeLabel.nonterminal("B", site=True)) for nid in range(1, count + 1))
        wide = SyntacticTree(0, labels, {0: tuple(range(1, count + 1))})
        leaf = parse_tree("B(b)")
        grammar = Grammar(
            {"S", "B"}, {"b"}, "S",
            (ElementaryTree("wide", TreeKind.INITIAL, wide),
             ElementaryTree("leaf", TreeKind.INITIAL, leaf)),
            (),
        )
        start = time.perf_counter()
        (derivation,) = enumerate_derivations(grammar, GenBounds(max_adjunctions=0))
        elapsed = time.perf_counter() - start
        assert [edge.address for edge in derivation.edges] == [(i,) for i in range(1, count + 1)]
        assert elapsed < 4.0, f"enumeration took {elapsed:.2f}s of its 4s budget"

    def test_deep_chain_in_bounded_memory(self):
        # one initial tree that is a chain 8,000 deep ending in the one
        # substitution site: only that slot's address is built, not one
        # per node (which would hold the sum of all depths, ~250 MiB)
        depth = 8000
        labels = {nid: NodeLabel.nonterminal("A") for nid in range(depth)}
        labels[depth] = NodeLabel.nonterminal("B", site=True)
        chain = SyntacticTree(0, labels, {nid: (nid + 1,) for nid in range(depth)})
        grammar = Grammar(
            {"A", "B"}, {"b"}, "A",
            (ElementaryTree("chain", TreeKind.INITIAL, chain),
             ElementaryTree("leaf", TreeKind.INITIAL, parse_tree("B(b)"))),
            (),
        )
        tracemalloc.start()
        try:
            (derivation,) = enumerate_derivations(grammar, GenBounds(max_adjunctions=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [edge.address for edge in derivation.edges] == [(1,) * depth]
        assert peak < 16 * 2**20, f"enumeration peaked at {peak / 2**20:.1f} MiB"

    def test_models_stream(self):
        # draining the 8,404 models at 5 adjunctions holds one model at a
        # time: a memo kept per model or per derivation would show here
        grammar = restrict(GrammarPreset.NARMAX)
        bounds = GenBounds(max_adjunctions=5)
        peaks = []
        for keep in (False, True):
            kept = []
            tracemalloc.start()
            try:
                for model in enumerate_models(grammar, bounds):
                    if keep:
                        kept.append(model)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert len(kept) == 8404
        assert peaks[0] * 10 <= peaks[1], f"streamed {peaks[0]} B, kept {peaks[1]} B"


PARITY_GRAMMARS = [(preset.value, 5) for preset in GrammarPreset] + [("nbj", 4)]


class TestEnumerateParity:
    """The backtracking loop against the recursive reference enumeration."""

    @pytest.mark.parametrize("name, budget", PARITY_GRAMMARS)
    def test_catalogs(self, name, budget):
        if name == "nbj":
            grammar = build_nbj_grammar().grammar
        else:
            grammar = restrict(GrammarPreset(name))
        bounds = GenBounds(max_adjunctions=budget)
        assert list(enumerate_derivations(grammar, bounds)) == list(
            reference_enumerate(grammar, budget)
        )

    def test_sentence_fixture(self, sentence_grammar):
        for budget in range(3):
            bounds = GenBounds(max_adjunctions=budget)
            assert list(enumerate_derivations(sentence_grammar, bounds)) == list(
                reference_enumerate(sentence_grammar, budget)
            )

    def test_random_grammars(self):
        # Over well-formed grammars: equal streams, or a prefix of the
        # reference's stream and then the cycle error where the reference
        # recurses without end.  A malformed grammar is refused at the
        # first item.
        limit, cycles, refused = 200, 0, 0
        for seed in range(600):
            for _, grammar in random_grammars(seed):
                new, error = [], None
                try:
                    new.extend(
                        islice(enumerate_derivations(grammar, GenBounds(max_adjunctions=2)), limit)
                    )
                except TagError as exc:
                    error = exc
                malformed = refusal(grammar)
                if malformed:
                    assert (new, (type(error), str(error))) == ([], malformed), seed
                    refused += 1
                    continue
                old = []
                try:
                    old.extend(islice(reference_enumerate(grammar, 2), limit))
                except RecursionError:
                    old.append(None)
                if error is None:
                    assert new == old, seed
                else:
                    assert "without end" in str(error), seed
                    assert len(new) < len(old) and new == old[: len(new)], seed
                    cycles += 1
        assert 0 < cycles < 600 and refused > 300


class TestEnumeratedDerivationsDerive:
    """Over a well-formed grammar every derivation enumeration yields
    passes ``derive``: the slot table's candidates are exactly what
    ``derive`` accepts, so the only error left is the substitution
    cycle.  ``test_trees.TestDeriveParity.test_enumerated_derivations``
    derives every enumerated derivation of each preset and NBJ."""

    def test_well_formed_random_grammars(self):
        derived = cycles = 0
        for seed in range(2000):
            _, grammar = next(random_grammars(seed))
            try:
                for derivation in islice(
                    enumerate_derivations(grammar, GenBounds(max_adjunctions=2)), 200
                ):
                    derive(derivation, grammar)
                    derived += 1
            except TagError as exc:
                assert type(exc) is TagError and "without end" in str(exc), seed
                cycles += 1
        assert derived > 2000 and cycles > 100


class TestSample:
    def test_seed_reproducibility(self):
        config = SampleConfig(GenBounds(max_adjunctions=8), seed=42)
        assert sample_model(config) == sample_model(config)
        assert sample_derivation(config) == sample_derivation(config)

    def test_different_seeds_vary(self):
        bounds = GenBounds(max_adjunctions=8)
        models = {
            format_model_text(sample_model(SampleConfig(bounds, seed=s)))
            for s in range(25)
        }
        assert len(models) > 5

    def test_bounds_hold_over_many_draws(self):
        bounds = GenBounds(max_adjunctions=10, max_terms=3, max_delay=3, max_exponent=2)
        for seed in range(1000):
            model = sample_model(SampleConfig(bounds, seed=seed))
            assert model.term_count() <= 3
            for term in model.terms:
                for (_, delay), exponent in term.factors.items():
                    assert delay <= 3
                    assert exponent <= 2

    def test_strict_mode_bounds(self):
        bounds = GenBounds(
            max_adjunctions=10, max_terms=3, max_delay=3, max_exponent=2,
            mode=Mode.STRICT,
        )
        saw_noise = False
        for seed in range(300):
            model = sample_model(SampleConfig(bounds, seed=seed))
            for term in model.terms:
                for (signal, delay), _ in term.factors.items():
                    if signal.value == "xi":
                        saw_noise = True
                        assert delay >= 1
        assert saw_noise

    def test_self_check_covers_the_adjunction_budget(self, monkeypatch):
        # a grower that overspends: 1 + 2 adjunctions against a budget of 2,
        # within every other bound
        def overspend(bounds, preset, rng):
            return [[(SignalKind.INPUT, 0)], [(SignalKind.INPUT, 1)]]

        monkeypatch.setattr(generate, "_grow", overspend)
        config = SampleConfig(GenBounds(max_adjunctions=2), seed=0)
        with pytest.raises(RuntimeError, match="adjunction bound"):
            sample_model(config)

    def test_zero_terms_bound(self):
        config = SampleConfig(GenBounds(max_adjunctions=6, max_terms=0), seed=3)
        model = sample_model(config)
        assert model.term_count() == 0
        assert format_model_text(model) == "xi"

    def test_presets_constrain_samples(self):
        for preset, mode in product(GrammarPreset, Mode):
            bounds = GenBounds(max_adjunctions=8, mode=mode)
            for seed in range(100):
                model = sample_model(SampleConfig(bounds, seed=seed), preset)
                assert PRESET_TAGS[preset] in classify(model), (preset, mode, seed)

    def test_large_bounds_within_budget(self):
        # one term of hundreds of factors: counting a factor's occurrences
        # must not rescan the term for every option of every step
        n = 20_000
        start = time.perf_counter()
        model = sample_model(SampleConfig(GenBounds(n, 1, n, n), seed=1))
        elapsed = time.perf_counter() - start
        assert model.term_count() == 1
        assert elapsed < 1.0, f"sampling took {elapsed:.2f}s of its 1s budget"

    def test_model_is_the_sampled_derivations_model(self):
        # the edge-bounds grid of the derivation goldens, and the bounds
        # of the benchmark's evolutionary-search workload
        configs = [
            (SampleConfig(GenBounds(adjunctions, terms, delay, exponent, mode), seed), preset)
            for preset, mode, adjunctions, terms, delay, exponent, seed in product(
                GrammarPreset, Mode, (0, 1, 2, 5, 9), (0, 1, 3), (0, 1, 3), (0, 1, 2), range(6)
            )
        ]
        configs += [
            (SampleConfig(GenBounds(12, 4, 5, 2, mode), seed), preset)
            for preset, mode, seed in product(GrammarPreset, Mode, range(20))
        ]
        grammar = build_narmax_grammar().grammar
        for config, preset in configs:
            derived = derive(sample_derivation(config, preset), grammar)
            expected = derived_to_model(derived, config.bounds.mode)
            assert sample_model(config, preset) == expected, (config, preset)

    def test_model_needs_no_check_pass_or_yield_reader(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sample_model built or read a derivation")

        monkeypatch.setattr("narmaxtag.trees._check", refuse)
        monkeypatch.setattr("narmaxtag.narmax._to_parts", refuse)
        grammar = build_narmax_grammar().grammar
        with pytest.raises(AssertionError):  # the patches are in force
            derive(DerivationTree("alpha1"), grammar)
        with pytest.raises(AssertionError):
            derived_to_model(parse_tree("expr0(ξ)"))
        for preset, mode in product(GrammarPreset, Mode):
            config = SampleConfig(GenBounds(max_adjunctions=12, mode=mode), seed=5)
            assert isinstance(sample_model(config, preset), NarmaxModel)

    def test_sampled_derivations_use_preset_trees(self):
        allowed = {"alpha1", "beta1", "beta2", "beta7"}
        for seed in range(100):
            derivation = sample_derivation(
                SampleConfig(GenBounds(max_adjunctions=8), seed=seed),
                GrammarPreset.ARX,
            )
            assert set(node_names(derivation)) <= allowed
