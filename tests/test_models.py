import gc
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import chain, product
from pathlib import Path

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
    parse_model_text,
    restrict,
    simulate,
)
from narmaxtag.models import _MAX_CHAIN_DEPTH, _pipeline

from oracles import class_tags, random_model, reference_canonicalize, reference_simulate

FIG_A = "c1*y[-1] + c2*u[0] + xi"
FIG_B = "c1*y[-1]^2 + c2*u[0] + xi"
FIG_C = "c1*y[-1]^2 + c2*u[0] + c3*xi[0]*xi[-1]*xi[-2] + xi"
FOUR_TERMS = "c1:0.5*y[-1] + c2:0.2*u[0]^2 + c3:0.1*xi[-1]*u[-2] + c4:0.1*y[-2]*u[-1]^3 + xi"


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

    @pytest.mark.parametrize(
        "factors, message",
        [
            # printed as u[0]^1.5, which the text reader refuses
            ({(SignalKind.INPUT, 0): 1.5}, "exponents must be integers, got 1.5"),
            ({(SignalKind.INPUT, 1.5): 1}, "delays must be integers, got 1.5"),
            ({("u", 0): 1}, "factor signals must be SignalKind members, got 'u'"),
        ],
        ids=["exponent", "delay", "signal"],
    )
    def test_rejects_a_factor_model_text_cannot_hold(self, factors, message):
        with pytest.raises(ModelError, match=f"^{message}$"):
            Monomial(1, factors)

    @pytest.mark.parametrize(
        "coeff_id, factors, value, message",
        [
            # printed as c1.5 + xi and cTrue*u[0] + xi, which the reader refuses
            (1.5, {}, None, "coefficient ids must be integers, got 1.5"),
            (True, {(SignalKind.INPUT, 0): 1}, None, "coefficient ids must be integers, got True"),
            (1, {}, "2", "coefficient values must be numbers, got '2'"),
            (1, {}, True, "coefficient values must be numbers, got True"),
            (
                1,
                {(SignalKind.INPUT, 0, 1): 1},
                None,
                "factor keys must be (signal, delay) pairs, got (<SignalKind.INPUT: 'u'>, 0, 1)",
            ),
        ],
        ids=["float-id", "bool-id", "str-value", "bool-value", "three-item-key"],
    )
    def test_rejects_an_id_value_or_key_model_text_cannot_hold(
        self, coeff_id, factors, value, message
    ):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            Monomial(coeff_id, factors, value)

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


def _python_calls(model, coeffs, inputs, noise):
    """The Python function calls that ``simulate`` makes over the records,
    which it must run to their end."""
    events = []
    # a collection would call the Python gc callbacks that other
    # libraries install (Hypothesis does), a call simulate never makes
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(lambda frame, event, arg: event == "call" and events.append(frame))
    try:
        out = simulate(model, coeffs, inputs, noise)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    assert len(out) == len(inputs)
    return len(events)


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

    def test_exponent_past_the_float_range(self):
        # float ** int converts the exponent, which raised OverflowError
        # at step 0 and read as divergence
        model = parse_model_text("c1:0.5*u[0]*xi[-2]^1" + "0" * 400 + " + xi")
        for n in (0, 2):
            with pytest.raises(ModelError) as caught:
                simulate(model, None, [0.0] * n, [0.0] * n)
            assert type(caught.value) is ModelError
            assert str(caught.value) == "the exponent of xi[-2] is past the float range"

    def test_no_python_call_per_step(self):
        model = parse_model_text(FOUR_TERMS)
        rng = random.Random(5)

        def calls(n):
            inputs = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            noise = [rng.uniform(-0.1, 0.1) for _ in range(n)]
            return _python_calls(model, None, inputs, noise)

        assert calls(1000) == calls(2000)

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


def _corpus_model(rng, n, most=4):
    """Up to ``most`` terms of up to ``most - 1`` factors over u, y and xi,
    exponents 1-3; one delay in ten sits around the record length ``n``."""
    terms = []
    for coeff_id in range(1, rng.randint(0, most) + 1):
        factors = {}
        for _ in range(rng.randint(0, most - 1)):
            signal = rng.choice(list(SignalKind))
            low = 1 if signal is SignalKind.OUTPUT else 0
            if rng.random() < 0.1:
                delay = max(low, n + rng.randint(-1, 3))
            else:
                delay = rng.randint(low, 6)
            factors[(signal, delay)] = rng.randint(1, 3)
        terms.append(Monomial(coeff_id, factors))
    return NarmaxModel(tuple(terms))


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
            outcomes.append(self._check(rng, _corpus_model(rng, n), n))
        finished = sum(isinstance(o, list) for o in outcomes)
        # the corpus must exercise both endings
        assert 200 < finished < 1800

    @pytest.mark.parametrize("bound", [2, 3, 5])
    def test_relays_at_a_small_bound(self, monkeypatch, bound):
        # with the depth bound this low, a fold nests only ``bound`` items
        # and folds the rest flat: the corpus, of up to ``bound + 3`` terms
        # of up to ``bound + 2`` factors, takes flat tails inside terms and
        # across terms, and no chain is deeper than the bound, which a
        # fold nesting one more item would pass
        depth = 2 * bound + 7
        monkeypatch.setattr("narmaxtag.models._MAX_CHAIN_DEPTH", depth)
        rng = random.Random(bound)
        outcomes, shapes = [], set()
        for _ in range(300):
            n = rng.randint(0, 60)
            model = _corpus_model(rng, n, bound + 3)
            top = _pipeline(model.terms, [1.0] * len(model.terms), _records(n), n)
            assert _chain_depth(top) <= depth
            shapes |= _shapes(top)
            outcomes.append(self._check(rng, model, n))
        assert shapes == {"nested", "flat"}
        finished = sum(isinstance(o, list) for o in outcomes)
        assert 30 < finished < 270

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


def _near_one(rng, n):
    """``n`` samples of magnitude 0.99-1.01 and random sign: products of
    thousands of them stay well inside the float range."""
    return [rng.choice((-1.0, 1.0)) * rng.uniform(0.99, 1.01) for _ in range(n)]


def _many_terms(rng, count, signals=tuple(SignalKind), last=None):
    """``count`` terms of 1-3 factors over ``signals`` with delays up to 5
    and exponents 1-3, then the factor map ``last`` if given."""
    terms = []
    for _ in range(count):
        factors = {}
        for _ in range(rng.randint(1, 3)):
            signal = rng.choice(signals)
            factors[(signal, rng.randint(signal is SignalKind.OUTPUT, 5))] = rng.randint(1, 3)
        terms.append(factors)
    terms += [last] if last else []
    return NarmaxModel(tuple(Monomial(i, f) for i, f in enumerate(terms, 1)))


def _long_term(rng, count, extra=()):
    """``y[-1]``, ``u[0]`` and one term of ``count`` distinct factors over
    u, y and xi in shuffled order, exponents 1-3; the ``extra`` factors
    go last, in place of an equal key."""
    signals = tuple(SignalKind)
    keys = [(s, d) for d in range(count) for s in signals if d or s is not SignalKind.OUTPUT][:count]
    rng.shuffle(keys)
    factors = {key: rng.randint(1, 3) for key in keys}
    for key, exponent in extra:
        factors.pop(key, None)
        factors[key] = exponent
    return NarmaxModel(
        (
            Monomial(1, {(SignalKind.OUTPUT, 1): 1}),
            Monomial(2, {(SignalKind.INPUT, 0): 1}),
            Monomial(3, factors),
        )
    )


_PAST_TWICE_THE_BOUND = 2 * _MAX_CHAIN_DEPTH + 500


def _records(n):
    """A record of ``n`` samples per signal, to build a pipeline over."""
    return {signal: [0.5] * n for signal in SignalKind}


def _inner(iterator):
    """The iterators that a ``map`` or ``zip`` of a pipeline pulls from,
    read through ``__reduce__``."""
    if type(iterator) is map:
        return iterator.__reduce__()[1][1:]
    if type(iterator) is zip:
        return iterator.__reduce__()[1]
    return ()


def _walk(top):
    """Every iterator of the pipeline ``top`` with its level, ``top`` at 1."""
    stack = [(top, 1)]
    while stack:
        iterator, depth = stack.pop()
        yield iterator, depth
        stack.extend((inner, depth + 1) for inner in _inner(iterator))


def _chain_depth(top):
    """The deepest nesting of iterators under ``top``; a ``chain`` and its
    repeat or list iterator are 2."""
    return max(depth + (type(iterator) is chain) for iterator, depth in _walk(top))


def _shapes(top):
    """``"nested"`` if ``top`` nests a fold's maps, and ``"flat"`` if it
    folds flat through a ``zip``."""
    shapes = set()
    for iterator, _ in _walk(top):
        if type(iterator) is map and type(_inner(iterator)[0]) is map:
            shapes.add("nested")
        elif type(iterator) is zip:
            shapes.add("flat")
    return shapes


_SIMULATE_IN_A_CHILD = """
import json, sys
from narmaxtag import parse_model_text, simulate
text, inputs, noise = json.load(sys.stdin)
print(json.dumps([v.hex() for v in simulate(parse_model_text(text), None, inputs, noise)]))
"""


class TestDeepModels:
    """Models too long to nest within ``models._MAX_CHAIN_DEPTH``, whose
    folds end in a flat tail, against the reference loop bit by bit."""

    def _outcomes(self, model, coeffs, inputs, noise):
        expected = _outcome(reference_simulate, model, coeffs, inputs, noise)
        assert _outcome(simulate, model, coeffs, inputs, noise) == expected
        return expected

    def test_terms_past_twice_the_bound(self):
        rng = random.Random(31)
        model = _many_terms(rng, _PAST_TWICE_THE_BOUND)
        coeffs = [rng.uniform(-1.0, 1.0) / len(model.terms) for _ in model.terms]
        n = 40
        outcome = self._outcomes(model, coeffs, _record(rng, n), _near_one(rng, n))
        assert isinstance(outcome, list) and len(set(outcome)) == n

    def test_factors_past_twice_the_bound(self):
        # the long term reads real samples once the step passes its
        # largest delay (833), so its flat tail carries nonzero products
        rng = random.Random(32)
        model = _long_term(rng, _PAST_TWICE_THE_BOUND)
        n = 850
        records = (_near_one(rng, n), _near_one(rng, n))
        outcome = self._outcomes(model, [1e-3, 1e-3, 1e-3], *records)
        without = _outcome(reference_simulate, model, [1e-3, 1e-3, 0.0], *records)
        assert outcome[:833] == without[:833]
        assert all(a != b for a, b in zip(outcome[833:], without[833:]))

    def test_divergence_past_the_bound(self):
        # the last term, in the flat tail, takes y to ~1e200 and
        # then past the floats by a product; no other term reads y
        rng = random.Random(33)
        signals = (SignalKind.INPUT, SignalKind.NOISE)
        model = _many_terms(rng, _PAST_TWICE_THE_BOUND, signals, {(SignalKind.OUTPUT, 1): 1})
        coeffs = [1e-4] * (len(model.terms) - 1) + [1e200]
        n = 10
        assert self._outcomes(model, coeffs, _near_one(rng, n), _near_one(rng, n)) == 2

    def test_power_overflow_past_the_bound(self):
        # y[-1] ** 3 is the long term's last factor, past the bound, and
        # overflows once y[-1] is ~1e120, whatever the product
        rng = random.Random(34)
        model = _long_term(rng, _PAST_TWICE_THE_BOUND, [((SignalKind.OUTPUT, 1), 3)])
        n = 10
        assert self._outcomes(model, [1e120, 1.0, 1.0], _near_one(rng, n), _near_one(rng, n)) == 2

    @pytest.mark.parametrize(
        "text",
        [
            # 10**5 terms, one per factor over u, y (y[-1] first) and xi
            " + ".join(
                f"c{i + 1}:1e-3*{('y', 'u', 'xi')[i % 3]}[-{i // 3 + 1}]^{1 + i % 3}"
                for i in range(10**5)
            )
            + " + xi",
            # y[-1] and one term of 10**5 factors
            "c1:0.5*y[-1] + c2:1e-3"
            + "".join(f"*{s}[-{d}]" for d in range(1, 33335) for s in ("u", "y", "xi"))
            + " + xi",
        ],
        ids=["terms", "factors"],
    )
    def test_deep_model_in_a_child(self, text):
        # a pipeline nested this deep would overflow the C stack and end
        # the process with a signal, so it runs in a child
        model = parse_model_text(text)
        rng = random.Random(36)
        inputs, noise = _near_one(rng, 5), _near_one(rng, 5)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", _SIMULATE_IN_A_CHILD],
            input=json.dumps([text, inputs, noise]),
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == _outcome(reference_simulate, model, None, inputs, noise)

    @pytest.mark.parametrize("build", [_many_terms, _long_term])
    def test_no_chain_deeper_than_the_bound(self, build):
        model = build(random.Random(35), _PAST_TWICE_THE_BOUND)
        n = 5
        top = _pipeline(model.terms, [1.0] * len(model.terms), _records(n), n)
        assert _shapes(top) == {"nested", "flat"}
        assert _chain_depth(top) <= _MAX_CHAIN_DEPTH

    def test_no_zip_within_the_bound(self):
        model = parse_model_text(FOUR_TERMS)
        top = _pipeline(model.terms, [1.0] * len(model.terms), _records(5), 5)
        assert _shapes(top) == {"nested"}

    @pytest.mark.parametrize("build", [_many_terms, _long_term], ids=["terms", "factors"])
    def test_no_python_call_per_step_past_the_bound(self, build):
        # 2,500 terms, or y[-1], u[0] and one term of 2,500 factors
        rng = random.Random(37)
        model = build(rng, 2500)
        coeffs = [1e-3 / len(model.terms)] * len(model.terms)

        def calls(n):
            return _python_calls(model, coeffs, _near_one(rng, n), _near_one(rng, n))

        assert calls(1000) == calls(2000)


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


class TestModeIsAMember:
    """A mode given as its string is refused, not read as extended."""

    MESSAGE = "^mode must be a Mode member, got 'strict'$"
    NOISE = Monomial(1, {(SignalKind.NOISE, 0): 1})

    def test_narmax_model(self):
        for terms in ((), (self.NOISE,)):
            with pytest.raises(ModelError, match=self.MESSAGE):
                NarmaxModel(terms, "strict")

    def test_nbj_model(self):
        with pytest.raises(ModelError, match=self.MESSAGE):
            NbjModel((), (self.NOISE,), "strict")

    def test_parse_model_text(self):
        with pytest.raises(ModelError, match=self.MESSAGE):
            parse_model_text("c1*xi[0] + xi", mode="strict")


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
