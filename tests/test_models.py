import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narmaxtag import (
    CausalityError,
    GenBounds,
    GrammarPreset,
    Mode,
    ModelError,
    ModelSyntaxError,
    Monomial,
    NarmaxModel,
    NbjModel,
    SignalKind,
    SimulationDivergedError,
    canonicalize,
    classify,
    enumerate_models,
    format_model_text,
    max_lags,
    parse_model_text,
    restrict,
    simulate,
)

from oracles import class_tags, random_model, reference_canonicalize, reference_simulate

FIG_A = "c1*y[-1] + c2*u[0] + xi"
FIG_B = "c1*y[-1]^2 + c2*u[0] + xi"
FIG_C = "c1*y[-1]^2 + c2*u[0] + c3*xi[0]*xi[-1]*xi[-2] + xi"


def factor_keys(extended=True):
    keys = [(SignalKind.INPUT, d) for d in range(0, 4)]
    keys += [(SignalKind.OUTPUT, d) for d in range(1, 4)]
    keys += [(SignalKind.NOISE, d) for d in range(0 if extended else 1, 4)]
    return keys


@st.composite
def monomials(draw, min_factors=0):
    keys = draw(
        st.lists(
            st.sampled_from(factor_keys()),
            min_size=min_factors,
            max_size=3,
            unique=True,
        )
    )
    factors = {key: draw(st.integers(min_value=1, max_value=3)) for key in keys}
    value = draw(st.one_of(st.none(), st.integers(-4, 4).map(float)))
    return Monomial(draw(st.integers(1, 9)), factors, value)


@st.composite
def models(draw, min_factors=0):
    terms = draw(st.lists(monomials(min_factors=min_factors), max_size=4))
    return NarmaxModel(tuple(terms), Mode.EXTENDED)


class TestMonomial:
    def test_rejects_zero_exponent(self):
        with pytest.raises(ModelError):
            Monomial(1, {(SignalKind.INPUT, 0): 0})

    def test_rejects_acausal_output(self):
        with pytest.raises(CausalityError):
            Monomial(1, {(SignalKind.OUTPUT, 0): 1})

    @pytest.mark.parametrize(
        "coeff_id, factors, error, message",
        [
            (0, {(SignalKind.INPUT, 0): 1}, ModelError, "coefficient ids are positive integers"),
            (1, {(SignalKind.INPUT, -1): 1}, CausalityError, "negative delay on u"),
        ],
    )
    def test_rejects_zero_id_and_negative_delay(self, coeff_id, factors, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Monomial(coeff_id, factors)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -(10**400)])
    def test_rejects_non_finite_value(self, value):
        with pytest.raises(ModelError, match="coefficient values must be finite"):
            Monomial(1, {(SignalKind.INPUT, 0): 1}, value)

    def test_strict_mode_rejects_current_noise(self):
        term = Monomial(1, {(SignalKind.NOISE, 0): 1})
        with pytest.raises(CausalityError):
            NarmaxModel((term,), Mode.STRICT)
        NarmaxModel((term,), Mode.EXTENDED)


class TestCanonicalize:
    def test_merges_numeric_like_terms(self):
        model = NarmaxModel(
            (
                Monomial(1, {(SignalKind.INPUT, 0): 1}, 2.0),
                Monomial(2, {(SignalKind.INPUT, 0): 1}, 3.0),
            )
        )
        merged = canonicalize(model)
        assert merged.term_count() == 1
        assert merged.terms[0].coeff_value == 5.0
        assert merged.terms[0].coeff_id == 1

    def test_symbolic_merge_drops_value(self):
        model = NarmaxModel(
            (
                Monomial(1, {(SignalKind.INPUT, 0): 1}),
                Monomial(2, {(SignalKind.INPUT, 0): 1}, 3.0),
            )
        )
        assert canonicalize(model).terms[0].coeff_value is None

    def test_degree_then_key_order(self):
        # the three-term example sorts by total degree: u (1), y^2 (2),
        # noise product (3)
        model = parse_model_text(FIG_C)
        assert format_model_text(model) == (
            "c1*u[0] + c2*y[-1]^2 + c3*xi[0]*xi[-1]*xi[-2] + xi"
        )

    @given(models())
    @settings(max_examples=150)
    def test_idempotent(self, model):
        once = canonicalize(model)
        assert canonicalize(once) == once

    @given(models(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_permutation_invariant(self, model, rng):
        terms = list(model.terms)
        rng.shuffle(terms)
        assert canonicalize(NarmaxModel(tuple(terms), model.mode)) == canonicalize(
            model
        )


class TestCanonicalizeParity:
    """canonicalize against the earlier two-sort, flagged-merge version
    in ``oracles.reference_canonicalize``."""

    # None mixes a symbolic slot into a merge; -0.0 + -0.0 stays -0.0
    VALUES = (None, -0.0, 0.0, 0.1, -2.5, 3.0, 1e300)

    @staticmethod
    def assert_same(model):
        got, want = canonicalize(model), reference_canonicalize(model)
        assert got.structure() == want.structure()
        assert [list(t.factors.items()) for t in got.terms] == [
            list(t.factors.items()) for t in want.terms
        ]
        assert [t.coeff_id for t in got.terms] == [t.coeff_id for t in want.terms]
        assert [repr(t.coeff_value) for t in got.terms] == [
            repr(t.coeff_value) for t in want.terms
        ]
        assert got.mode is want.mode

    @staticmethod
    def scrambled(model, rng, values):
        """The model's terms reversed, each factor map in reverse order,
        with drawn values and some factor maps repeated."""
        terms = [
            Monomial(t.coeff_id, dict(reversed(t.factors.items())), rng.choice(values))
            for t in reversed(model.terms)
        ]
        terms += [Monomial(9, t.factors, rng.choice(values)) for t in terms if rng.random() < 0.4]
        noise_now = any((SignalKind.NOISE, 0) in t.factors for t in terms)
        mode = Mode.STRICT if not noise_now and rng.random() < 0.5 else model.mode
        return NarmaxModel(tuple(terms), mode)

    @given(models(), st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_hypothesis_models(self, model, rng):
        self.assert_same(model)
        self.assert_same(self.scrambled(model, rng, self.VALUES))

    def test_enumerated_models(self):
        rng = random.Random(4)
        grammar = restrict(GrammarPreset.NARMAX)
        count = 0
        for model in enumerate_models(grammar, GenBounds(max_adjunctions=4)):
            self.assert_same(self.scrambled(model, rng, self.VALUES))
            count += 1
        assert count == 1201

    def test_signed_zero_and_symbolic_merges(self):
        u = {(SignalKind.INPUT, 0): 1}
        for values in [(-0.0, -0.0), (-0.0, 0.0), (None, 1.0), (1.0, None), (None, None)]:
            self.assert_same(NarmaxModel(tuple(Monomial(1, u, v) for v in values)))


class TestOverflowingMerge:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("c1:1e308*u[0] + c2:1e308*u[0] + xi", "inf"),
            ("c1:-1e308*u[0] + c2:-1e308*u[0] + xi", "-inf"),
        ],
    )
    def test_is_a_model_error(self, text, value):
        with pytest.raises(ModelError, match=f"must be finite, got {value}$"):
            parse_model_text(text)

    def test_a_finite_merge_still_reads_back(self):
        model = parse_model_text("c1:1e308*u[0] + c2:-1e308*u[0] + c3:1e308*u[0] + xi")
        assert format_model_text(model) == "c1:1e+308*u[0] + xi"
        assert parse_model_text(format_model_text(model)) == model


class TestMaxLags:
    def test_first_example(self):
        assert max_lags(parse_model_text(FIG_A)) == (0, 1, 0)

    def test_pure_noise(self):
        assert max_lags(parse_model_text("xi")) == (0, 0, 0)

    def test_third_example(self):
        assert max_lags(parse_model_text(FIG_C)) == (0, 1, 2)


class TestSimulate:
    def test_pure_noise_passthrough(self):
        model = parse_model_text("xi")
        assert simulate(model, (), (0.0, 0.0), (0.5, -1.0)) == [0.5, -1.0]

    def test_hand_recursion(self):
        # y_k = 0.5*y_{k-1} + 2*u_k with zero noise: y_0 = 2, y_1 = 3
        model = parse_model_text("c1:0.5*y[-1] + c2:2.0*u[0] + xi")
        assert simulate(model, None, (1.0, 1.0), (0.0, 0.0)) == [2.0, 3.0]

    def test_zero_dynamics(self):
        model = parse_model_text(FIG_C)
        out = simulate(model, (1.0, 1.0, 1.0), [0.0] * 5, [0.0] * 5)
        assert out == [0.0] * 5

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            simulate(parse_model_text("xi"), (), (0.0,), (0.0, 0.0))

    def test_coefficient_count_checked(self):
        with pytest.raises(ModelError):
            simulate(parse_model_text(FIG_A), (1.0,), (0.0,), (0.0,))

    @pytest.mark.parametrize(
        "value, shown", [(1e400, "inf"), (float("-inf"), "-inf"), (float("nan"), "nan")]
    )
    def test_coefficients_must_be_finite(self, value, shown):
        # the rule a Monomial applies to its attached value
        with pytest.raises(ModelError, match=f"^coefficient values must be finite, got {shown}$"):
            simulate(parse_model_text(FIG_A), (0.5, value), (0.0,), (0.0,))

    def test_int_past_the_float_range(self):
        # float() of such an int raises OverflowError, not a model error
        model = parse_model_text("c1*u[-1] + xi")
        huge = 10**400
        with pytest.raises(
            ModelError, match="^coefficient values must be finite, got one past the float range$"
        ):
            simulate(model, [huge], [1.0], [1.0])
        for record, inputs, noise in (("input", [huge], [1.0]), ("noise", [1.0], [huge])):
            with pytest.raises(ModelError, match=f"^the {record} record has a value past"):
                simulate(model, [1.0], inputs, noise)
        assert simulate(model, [2], [1, 2**53], [0, 1]) == [0.0, 3.0]

    def test_power_overflow_is_divergence(self):
        # y: 1, 2, 8, 128, ..., ~9e307 at step 10; squaring it overflows
        model = parse_model_text("c1*y[-1]^2 + xi")
        with pytest.raises(SimulationDivergedError) as caught:
            simulate(model, (2.0,), [0.0] * 50, [1.0] + [0.0] * 49)
        assert caught.value.step == 11
        assert str(caught.value) == "simulation diverged at step 11"

    def test_infinite_sample_is_divergence(self):
        model = parse_model_text("c1*y[-1] + xi")
        with pytest.raises(SimulationDivergedError) as caught:
            simulate(model, (1e308,), [0.0] * 5, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert caught.value.step == 2
        assert isinstance(caught.value, ModelError)

    @given(models())
    # a squared-feedback model whose run overflows a float within 30 steps
    @example(
        NarmaxModel(
            (
                Monomial(1, {}),
                Monomial(2, {(SignalKind.OUTPUT, 1): 2}),
                Monomial(3, {}),
                Monomial(4, {}),
            ),
            Mode.EXTENDED,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_canonicalize_preserves_simulation(self, model):
        # values travel with their terms, so reordering and like-term
        # merging may only reorder sums and products: both runs agree,
        # or both diverge at the same step
        rng = random.Random(7)
        valued = NarmaxModel(
            tuple(
                Monomial(t.coeff_id, t.factors, rng.uniform(-0.9, 0.9))
                for t in model.terms
            ),
            model.mode,
        )
        u = [rng.uniform(-1.0, 1.0) for _ in range(30)]
        xi = [rng.uniform(-0.2, 0.2) for _ in range(30)]

        def run(m):
            try:
                return simulate(m, None, u, xi)
            except SimulationDivergedError as exc:
                return exc.step

        a = run(valued)
        b = run(canonicalize(valued))
        if isinstance(a, int) or isinstance(b, int):
            assert a == b
            return
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-9, abs=1e-12)

    def test_shift_equivariance(self):
        rng = random.Random(99)
        for _ in range(25):
            # degree >= 1 keeps the zero prefix at zero
            model = random_model(rng)
            coeffs = [rng.uniform(-0.8, 0.8) for _ in model.terms]
            u = [rng.uniform(-1, 1) for _ in range(20)]
            xi = [rng.uniform(-0.3, 0.3) for _ in range(20)]
            pad = 4
            base = simulate(model, coeffs, u, xi)
            padded = simulate(model, coeffs, [0.0] * pad + u, [0.0] * pad + xi)
            assert padded[:pad] == [0.0] * pad
            for x, y in zip(base, padded[pad:]):
                assert x == pytest.approx(y, rel=1e-9, abs=1e-12)


SPECIAL_SAMPLES = (
    float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 1e200, -1e200, 1e300,
)

# the squared-feedback model pinned in TestSimulate
SQUARED_FEEDBACK = NarmaxModel(
    (
        Monomial(1, {}),
        Monomial(2, {(SignalKind.OUTPUT, 1): 2}),
        Monomial(3, {}),
        Monomial(4, {}),
    ),
    Mode.EXTENDED,
)


def _record(rng, n):
    """``n`` samples; none, one in fifty or one in ten of them a
    non-finite, signed-zero or huge value."""
    rate = rng.choice((0.0, 0.02, 0.1))
    return [
        rng.choice(SPECIAL_SAMPLES) if rng.random() < rate else rng.uniform(-2.0, 2.0)
        for _ in range(n)
    ]


def _outcome(run, model, coeffs, inputs, noise):
    """Every output bit (``float.hex`` tells -0.0 from 0.0), or the divergence step."""
    try:
        return [value.hex() for value in run(model, coeffs, inputs, noise)]
    except SimulationDivergedError as exc:
        return exc.step


class TestSimulateParity:
    """``simulate`` against the loop that walks the factor maps every step."""

    def _check(self, rng, model, n):
        coeffs = [
            rng.choice((0.0, -0.0, 1e200)) if rng.random() < 0.1 else rng.uniform(-1.5, 1.5)
            for _ in model.terms
        ]
        args = (model, coeffs, _record(rng, n), _record(rng, n))
        expected = _outcome(reference_simulate, *args)
        assert _outcome(simulate, *args) == expected
        return expected

    @given(models(), st.integers(0, 2**32 - 1))
    # finite records and coefficients; the squared feedback diverges at step 10
    @example(SQUARED_FEEDBACK, 5)
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_models(self, model, seed):
        rng = random.Random(seed)
        self._check(rng, model, rng.randint(0, 40))

    def test_seeded_corpus(self):
        rng = random.Random(2024)
        outcomes = []
        for _ in range(2000):
            n = rng.randint(0, 120)
            terms = []
            for coeff_id in range(1, rng.randint(0, 4) + 1):
                factors = {}
                for _ in range(rng.randint(0, 3)):
                    signal = rng.choice(list(SignalKind))
                    low = 1 if signal is SignalKind.OUTPUT else 0
                    # one delay in ten sits around the record length
                    if rng.random() < 0.1:
                        delay = max(low, n + rng.randint(-1, 3))
                    else:
                        delay = rng.randint(low, 6)
                    factors[(signal, delay)] = rng.randint(1, 3)
                terms.append(Monomial(coeff_id, factors))
            outcomes.append(self._check(rng, NarmaxModel(tuple(terms)), n))
        finished = sum(isinstance(o, list) for o in outcomes)
        # the corpus must exercise both endings
        assert 200 < finished < 1800

    def test_huge_delay_allocates_by_record_length(self):
        model = parse_model_text("c1*u[-100000000] + xi")
        tracemalloc.start()
        try:
            out = simulate(model, [1.0], [1.0] * 3, [0.0] * 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == [0.0] * 3
        assert peak < 2**20


class TestClassify:
    def test_linear_example(self):
        assert classify(parse_model_text(FIG_A)) == {"ARX", "ARMAX", "NARX", "NARMAX"}

    def test_quadratic_example(self):
        assert classify(parse_model_text(FIG_B)) == {"NARX", "NARMAX"}

    def test_noise_product_example(self):
        assert classify(parse_model_text(FIG_C)) == {"NARMAX"}

    def test_constant_counts_as_linear(self):
        model = NarmaxModel((Monomial(1, {}),))
        tags = classify(model)
        assert {"FIR", "Volterra", "ARX", "ARMAX", "NARX", "NARMAX"} == tags

    def test_matches_the_oracle_on_enumerated_models(self):
        for preset, mode in product(GrammarPreset, Mode):
            bounds = GenBounds(max_adjunctions=5, mode=mode)
            for model in enumerate_models(restrict(preset), bounds):
                assert classify(model) == class_tags(model), format_model_text(model)

    def test_matches_the_oracle_on_random_models(self):
        rng = random.Random(2020)
        for index in range(2000):
            model = random_model(rng, mode=Mode.STRICT if index % 2 else Mode.EXTENDED)
            assert classify(model) == class_tags(model), format_model_text(model)

    @given(models())
    @settings(max_examples=150)
    def test_monotonicity(self, model):
        tags = classify(model)
        assert "NARMAX" in tags
        if "FIR" in tags:
            assert {"Volterra", "ARX", "ARMAX"} <= tags
        if "ARX" in tags:
            assert {"ARMAX", "NARX"} <= tags


class TestTextFormat:
    def test_quadratic_example_parses(self):
        model = parse_model_text(FIG_B)
        assert model.term_count() == 2
        degrees = sorted(term.total_degree() for term in model.terms)
        assert degrees == [1, 2]

    def test_pure_noise(self):
        model = parse_model_text("xi")
        assert model.term_count() == 0
        assert format_model_text(model) == "xi"

    def test_current_output_rejected(self):
        with pytest.raises(CausalityError):
            parse_model_text("c1*y[0] + xi")

    def test_future_reference_rejected(self):
        with pytest.raises(CausalityError):
            parse_model_text("c1*u[1] + xi")

    def test_syntax_error_position(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model_text("c1*w[0] + xi")
        assert err.value.position == 3

    @pytest.mark.parametrize(
        "text, position",
        [
            pytest.param("c1:1e999*u[0] + xi", 3, id="infinite-coefficient"),
            pytest.param("c1:-1e999 + xi", 3, id="negative-infinite-coefficient"),
            pytest.param("c" + "9" * 5000 + " + xi", 1, id="id-past-digit-limit"),
            pytest.param("c1*u[-" + "9" * 5000 + "] + xi", 6, id="delay-past-digit-limit"),
        ],
    )
    def test_out_of_range_numbers(self, text, position):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model_text(text)
        assert err.value.position == position

    def test_missing_trailing_noise(self):
        with pytest.raises(ModelSyntaxError):
            parse_model_text("c1*u[0]")

    def test_strict_mode_rejects_current_noise(self):
        with pytest.raises(CausalityError):
            parse_model_text("c1*xi[0] + xi", mode=Mode.STRICT)
        parse_model_text("c1*xi[-1] + xi", mode=Mode.STRICT)

    def test_repeated_factor_accumulates(self):
        model = parse_model_text("c1*u[0]*u[0] + xi")
        assert model.terms[0].factors == {(SignalKind.INPUT, 0): 2}
        assert format_model_text(model) == "c1*u[0]^2 + xi"

    def test_values_roundtrip(self):
        text = "c1:0.5*u[0] + c2:-2.0*y[-1] + xi"
        model = parse_model_text(text)
        assert format_model_text(model) == text

    def test_bare_constant_term(self):
        model = parse_model_text("c1 + c2*u[0] + xi")
        assert model.terms[0].factors == {}
        assert format_model_text(model) == "c1 + c2*u[0] + xi"

    @given(models())
    @settings(max_examples=150)
    def test_parse_format_roundtrip(self, model):
        canonical = canonicalize(model)
        assert parse_model_text(format_model_text(model)) == canonical
        assert parse_model_text(format_model_text(canonical)) == canonical


class TestNbjModel:
    def test_rejects_noise_in_process(self):
        term = Monomial(1, {(SignalKind.NOISE, 1): 1})
        with pytest.raises(ModelError):
            NbjModel((term,), ())

    def test_strict_mode_applies_to_noise_side(self):
        term = Monomial(1, {(SignalKind.NOISE, 0): 1})
        with pytest.raises(CausalityError):
            NbjModel((), (term,), Mode.STRICT)
        NbjModel((), (term,), Mode.EXTENDED)
