"""Acceptance suite: one check per release criterion.

Each test prints a single ``PASS``/``FAIL`` line (run pytest with ``-s``
to see them) and enforces its time budget.
"""

import random
import time
from itertools import permutations

import pytest

from narmaxtag import (
    DerivationTree,
    GenBounds,
    GrammarPreset,
    Mode,
    Operation,
    adjoin,
    classify,
    derive,
    derived_to_model,
    enumerate_derivations,
    enumerate_models,
    format_model_text,
    is_saturated,
    model_to_derivation,
    nbj_derived_to_model,
    node_at,
    restrict,
    roundtrip_check,
    simulate,
    substitute,
    validate_grammar,
    yield_of,
)
from narmaxtag.models import SignalKind, canonicalize

from oracles import (
    adjunction_case,
    edge_set,
    expected_adjunction,
    expected_substitution,
    random_model,
    structural_key,
    substitution_case,
)


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"{status} criterion {self.number}: {self.description} "
            f"({elapsed:.2f}s / {self.budget_s:.0f}s budget)"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_linguistic_fixture(
    sentence_grammar, plain_derivation, adverb_derivation
):
    with _Criterion(1, "linguistic fixture yields", 1.0):
        plain = derive(plain_derivation, sentence_grammar)
        assert yield_of(plain) == ("a", "man", "saw", "mary")
        adverb = derive(adverb_derivation, sentence_grammar)
        assert yield_of(adverb) == ("yesterday", "a", "man", "saw", "mary")


def test_criterion_2_golden_roundtrips():
    from narmaxtag import parse_model_text

    with _Criterion(2, "golden model round-trips", 1.0):
        for text in (
            "c1*y[-1] + c2*u[0] + xi",
            "c1*y[-1]^2 + c2*u[0] + xi",
            "c1*y[-1]^2 + c2*u[0] + c3*xi[0]*xi[-1]*xi[-2] + xi",
        ):
            assert roundtrip_check(parse_model_text(text)), text


def test_criterion_3_forward_closure(narmax_catalog):
    with _Criterion(3, "forward closure at 6 adjunctions", 60.0):
        count = 0
        for derivation in enumerate_derivations(
            narmax_catalog.grammar, GenBounds(max_adjunctions=6)
        ):
            derived = derive(derivation, narmax_catalog.grammar)
            assert is_saturated(derived)
            model = derived_to_model(derived)  # raises if not in the language
            for term in model.terms:
                assert term.total_degree() >= 1
                for (signal, delay), exponent in term.factors.items():
                    assert exponent >= 1
                    assert delay >= 0
                    if signal is SignalKind.OUTPUT:
                        assert delay >= 1
            count += 1
        assert count == 58825
        assert count <= 10**5


def test_criterion_4_backward_completeness():
    with _Criterion(4, "backward completeness on 200 random models", 10.0):
        rng = random.Random(20260809)
        for index in range(200):
            mode = Mode.EXTENDED if index % 2 else Mode.STRICT
            model = random_model(
                rng, max_terms=3, max_delay=3, max_exponent=2, mode=mode
            )
            assert roundtrip_check(model), format_model_text(model)


def test_criterion_5_subset_soundness():
    with _Criterion(5, "subset soundness at 5 adjunctions", 60.0):
        expectations = [
            (GrammarPreset.ARX, "ARX"),
            (GrammarPreset.NARX, "NARX"),
            (GrammarPreset.FIR, "FIR"),
            (GrammarPreset.VOLTERRA, "Volterra"),
        ]
        for preset, tag in expectations:
            grammar = restrict(preset)
            for model in enumerate_models(grammar, GenBounds(max_adjunctions=5)):
                assert tag in classify(model), (preset, format_model_text(model))


def test_criterion_6_operation_algebra():
    with _Criterion(6, "operation algebra vs set expressions (1000 cases)", 10.0):
        rng = random.Random(424242)
        for _ in range(500):
            gamma, site, inner = substitution_case(rng)
            vertices, edges, root = expected_substitution(gamma, site, inner)
            result = substitute(gamma, site, inner)
            assert set(result.labels) == vertices
            assert edge_set(result) == edges
            assert result.root == root
        for _ in range(500):
            gamma, at, aux = adjunction_case(rng)
            vertices, edges, root = expected_adjunction(gamma, at, aux)
            result = adjoin(gamma, at, aux)
            assert set(result.labels) == vertices
            assert edge_set(result) == edges
            assert result.root == root


def test_criterion_7_semantic_equivalence(narmax_catalog):
    with _Criterion(7, "simulation agreement after round-trip", 10.0):
        rng = random.Random(1999)
        for _ in range(100):
            model = random_model(rng)
            derived = derive(model_to_derivation(model), narmax_catalog.grammar)
            back = derived_to_model(derived, mode=model.mode)
            assert canonicalize(model).structure() == back.structure()
            coeffs = [rng.uniform(-0.9, 0.9) for _ in model.terms]
            u = [rng.uniform(-1.0, 1.0) for _ in range(100)]
            xi = [rng.uniform(-0.1, 0.1) for _ in range(100)]
            a = simulate(canonicalize(model), coeffs, u, xi)
            b = simulate(back, coeffs, u, xi)
            for x, y in zip(a, b):
                assert x == pytest.approx(y, rel=1e-9, abs=1e-12)


def _sibling_case(rng, grammar):
    """One additive host plus three children at pairwise-distinct slots."""
    parent = grammar.find(rng.choice(["beta1", "beta2", "beta3"])).tree
    additive = grammar.find(rng.choice(["beta1", "beta2", "beta3"])).tree
    mult = grammar.find(rng.choice(["beta4", "beta5", "beta6"])).tree
    delay = grammar.find("beta7").tree
    if rng.random() < 0.5:
        inst = mult.renumbered(1)
        mult = adjoin(inst, node_at(inst, (3,)), delay)
    if rng.random() < 0.5:
        inst = delay.renumbered(1)
        delay = adjoin(inst, inst.root, grammar.find("beta7").tree)
    return parent, [
        (Operation.ADJUNCTION, (), additive),
        (Operation.ADJUNCTION, (1,), mult),
        (Operation.ADJUNCTION, (1, 3), delay),
    ]


def test_criterion_8_order_independence(narmax_catalog, sentence_grammar):
    with _Criterion(8, "sibling application order independence", 10.0):
        rng = random.Random(8080)
        cases = [_sibling_case(rng, narmax_catalog.grammar) for _ in range(99)]
        sentence_ops = [
            (Operation.SUBSTITUTION, (1,), sentence_grammar.find("alpha2").tree),
            (Operation.SUBSTITUTION, (2,), sentence_grammar.find("alpha3").tree),
            (Operation.ADJUNCTION, (), sentence_grammar.find("beta1").tree),
        ]
        cases.append((sentence_grammar.find("alpha1").tree, sentence_ops))
        for parent, ops in cases:
            keys = set()
            for order in permutations(range(len(ops))):
                host = parent.renumbered(1)
                targets = [node_at(host, address) for _, address, _ in ops]
                for i in order:
                    operation, _, part = ops[i]
                    if operation is Operation.SUBSTITUTION:
                        host = substitute(host, targets[i], part)
                    else:
                        host = adjoin(host, targets[i], part)
                keys.add(structural_key(host))
            assert len(keys) == 1


def test_criterion_9_nbj(nbj_catalog):
    with _Criterion(9, "two-equation extension", 10.0):
        assert validate_grammar(nbj_catalog.grammar) == []
        base = derive(DerivationTree("alpha1"), nbj_catalog.grammar)
        model = nbj_derived_to_model(base)
        assert model.process_terms == () and model.noise_terms == ()
        count = 0
        for derivation in enumerate_derivations(
            nbj_catalog.grammar, GenBounds(max_adjunctions=3)
        ):
            derived = derive(derivation, nbj_catalog.grammar)
            assert is_saturated(derived)
            parsed = nbj_derived_to_model(derived)
            for term in parsed.process_terms:
                assert SignalKind.NOISE not in term.signals()
            count += 1
        assert count == 312
