"""Polynomial input-output model structures in product form.

A model is a finite sum of monomials in delayed input, output and noise
samples, plus an always-present additive noise term for the current
instant.  Each monomial owns a symbolic coefficient slot and may carry
an optional numeric value; coefficients are attachments, never part of
the structure.

Delays are stored as nonnegative integers (``delay`` of 1 means "one
step in the past").  Output factors must have delay >= 1; noise factors
must as well in ``strict`` mode, while the default ``extended`` mode
also admits the current noise sample inside products.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from functools import reduce
from itertools import chain, repeat
from operator import add, mul
from sys import float_info
from typing import Iterable, Mapping, Sequence

from ._record import record


class ModelError(ValueError):
    """Invalid model content or inconsistent operation arguments."""


class CausalityError(ModelError):
    """A factor references the present or future of a feedback signal."""


class ModelSyntaxError(ModelError):
    """Malformed model text, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SimulationDivergedError(ModelError):
    """The simulated output left the finite floats at ``step``."""

    def __init__(self, step: int):
        super().__init__(f"simulation diverged at step {step}")
        self.step = step


class SignalKind(Enum):
    INPUT = "u"
    OUTPUT = "y"
    NOISE = "xi"

    # members are singletons: identity hashing keeps equality and skips
    # Enum's Python-level hash of the member name
    __hash__ = object.__hash__


_SIGNALS = tuple(SignalKind)  # canonical rank order: input, output, noise
_SIGNAL_RANK = {signal: rank for rank, signal in enumerate(_SIGNALS)}
_SIGNAL_NAMES = tuple(signal.value for signal in _SIGNALS)  # by rank; .value is a slow property


class Mode(Enum):
    STRICT = "strict"
    EXTENDED = "extended"

    __hash__ = object.__hash__  # see SignalKind


FactorKey = tuple[SignalKind, int]
_ID_RULE = "coefficient ids are positive integers"


@record()
class Monomial:
    """One model term: a coefficient slot times a product of delayed factors.

    ``factors`` maps ``(signal, delay)`` to a positive exponent; absent
    keys mean exponent zero.  An empty map is the constant term.
    ``coeff_value``, when present, is finite.
    """

    coeff_id: int
    factors: Mapping[FactorKey, int]
    coeff_value: float | None = None

    def __post_init__(self) -> None:
        if self.coeff_id < 1:
            raise ModelError(_ID_RULE)
        if self.coeff_value is not None:
            _finite(self.coeff_value)
        factors = dict(self.factors)
        object.__setattr__(self, "factors", factors)
        for (signal, delay), exponent in factors.items():
            # only these keys and exponents print as model text that reads back
            if not isinstance(signal, SignalKind):
                raise ModelError(f"factor signals must be SignalKind members, got {signal!r}")
            if not isinstance(delay, int):
                raise ModelError(f"delays must be integers, got {delay!r}")
            if not isinstance(exponent, int):
                raise ModelError(f"exponents must be integers, got {exponent!r}")
            if exponent < 1:
                raise ModelError("zero exponents must be absent keys")
            if delay < 0:
                raise CausalityError(f"negative delay on {signal.value}")
            if signal is SignalKind.OUTPUT and delay < 1:
                raise CausalityError("output factors need delay >= 1")

    @staticmethod
    def _build(
        coeff_id: int, factors: dict[FactorKey, int], coeff_value: float | None
    ) -> "Monomial":
        """Trusted fast path that skips ``__post_init__``.

        Its one caller, :func:`_canonical`, numbers ids from 1, checks each
        value with :func:`_finite` (a merged sum may overflow), and builds
        factor maps from keys and exponents that a :class:`Monomial`, the
        model-text reader :func:`parse_model_text` or the yield parser
        :func:`narmaxtag.narmax._parse_token_sum` has checked, or that
        :mod:`narmaxtag.generate` reads off the model catalog's trees,
        whose delays are causal by construction.
        """
        term = object.__new__(Monomial)
        object.__setattr__(term, "coeff_id", coeff_id)
        object.__setattr__(term, "factors", factors)
        object.__setattr__(term, "coeff_value", coeff_value)
        return term

    def total_degree(self) -> int:
        return sum(self.factors.values())

    def signals(self) -> frozenset[SignalKind]:
        return frozenset(signal for signal, _ in self.factors)


def _finite(value: float, what: str = "coefficient values") -> float:
    """Return ``value``, or raise :class:`ModelError` when it is not a
    finite float (NaN fails both comparisons); ``what`` names the values
    in the message."""
    if not -float_info.max <= value <= float_info.max:
        raise ModelError(f"{what} must be finite, got {value!r}")
    return value


def _factor_key(factors: Mapping[FactorKey, int]) -> tuple:
    """A factor map in canonical order, as sorted (rank, delay, exponent)."""
    return tuple(
        sorted((_SIGNAL_RANK[signal], delay, exp) for (signal, delay), exp in factors.items())
    )


def _check_mode(terms: Sequence[Monomial], mode: Mode) -> None:
    if mode is Mode.STRICT and any((SignalKind.NOISE, 0) in term.factors for term in terms):
        raise CausalityError("strict mode forbids the current noise sample in products")


@record()
class NarmaxModel:
    """Sum of monomials plus the implicit additive current-noise term.

    ``terms`` may be empty: the pure-noise model.  The canonical form
    (see :func:`canonicalize`) sorts terms by total degree then factor
    keys, merges duplicate factor maps and renumbers coefficients.
    """

    terms: tuple[Monomial, ...]
    mode: Mode = Mode.EXTENDED

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        _check_mode(self.terms, self.mode)

    @staticmethod
    def _build(terms: tuple[Monomial, ...], mode: Mode) -> "NarmaxModel":
        """Trusted fast path that skips ``__post_init__``.

        Its one caller, :func:`_canonical`, passes a tuple of terms that
        it has checked against ``mode`` with :func:`_check_mode`.
        """
        model = object.__new__(NarmaxModel)
        object.__setattr__(model, "terms", terms)
        object.__setattr__(model, "mode", mode)
        return model

    def __str__(self) -> str:
        return format_model_text(self)

    def term_count(self) -> int:
        return len(self.terms)

    def structure(self) -> tuple:
        """Factor maps only, in term order; coefficients are ignored."""
        return tuple(_factor_key(term.factors) for term in self.terms)


def canonicalize(model: NarmaxModel) -> NarmaxModel:
    """Sorted, merged, renumbered form; idempotent.

    Terms with identical factor maps are merged: values are summed while
    every merged term has one, else the slot is symbolic (None), and a
    sum that overflows is a :class:`ModelError`.  Terms are sorted by
    total degree, then :func:`_factor_key`; ids are renumbered 1..p in
    that order and factor maps are stored in key order.
    """
    return _canonical([(term.factors, term.coeff_value) for term in model.terms], model.mode)


def _canonical(
    terms: Iterable[tuple[Mapping[FactorKey, int], float | None]], mode: Mode
) -> NarmaxModel:
    # what canonicalize returns for terms given as (factor map, value)
    merged: dict[tuple, float | None] = {}
    for factors, value in terms:
        key = (sum(factors.values()), _factor_key(factors))
        if key in merged:
            value = None if merged[key] is None or value is None else merged[key] + value
        merged[key] = value
    terms = [
        Monomial._build(
            i,
            {(_SIGNALS[rank], delay): exp for rank, delay, exp in key},
            None if value is None else _finite(value),
        )
        for i, ((_, key), value) in enumerate(sorted(merged.items()), 1)
    ]
    _check_mode(terms, mode)
    return NarmaxModel._build(tuple(terms), mode)


def simulate(
    model: NarmaxModel,
    coefficients: Sequence[float] | None,
    inputs: Sequence[float],
    noise: Sequence[float],
) -> list[float]:
    """Run the model recursion over equal-length input and noise records.

    Out-of-range (pre-record) samples read as zero.  When
    ``coefficients`` is None each term's attached value is used; given
    coefficients must be finite, as attached values are, or a
    :class:`ModelError` is raised, as it is for a record value or an
    exponent past the float range.  The first step whose output is not a
    finite float (or overflows while being computed) raises
    :class:`SimulationDivergedError`.

    The model is built once into a pipeline of nested ``map`` iterators,
    so each step's arithmetic runs in C.  A factor is its record (a float
    copy of the inputs or the noise, or the output list) behind
    ``min(delay, n)`` zeros, raised by ``pow`` when its exponent is not 1;
    a delay of ``n`` or more reads zeros only, so memory grows with the
    record length, not with the delay.  A term is ``map(mul, ...)``
    folded left from its coefficient over its factors in ``factors``
    order, and the output is ``map(add, ...)`` folded left from the noise
    record over the terms in term order: each step takes the same
    products and sums in the same order as a loop over the terms would.
    Output factors read the output list through its iterator while the
    step loop appends to it.  Their delay is at least 1, so a step reads
    only samples already appended, and the noise record, pulled first at
    every step, ends the pipeline at the end of the record before any
    factor is read.

    Pulling a sample recurses in C once per level of nesting, so no chain
    is deeper than ``_MAX_CHAIN_DEPTH``.  A fold, over the terms or over
    one term's factors, nests its first items only; the rest are read
    through one ``zip`` and folded by ``functools.reduce``, which takes
    the same sums or products in the same order.  Models within the
    bound build no ``zip``, and every model runs through one pipeline.
    """
    n = len(inputs)
    if n != len(noise):
        raise ModelError(
            f"input and noise records differ in length ({n} vs {len(noise)})"
        )
    if coefficients is None:
        values = [term.coeff_value for term in model.terms]
        if any(v is None for v in values):
            raise ModelError("model has coefficient slots without numeric values")
        coeffs = [float(v) for v in values]  # type: ignore[arg-type]
    else:
        try:
            coeffs = [_finite(float(c)) for c in coefficients]
        except OverflowError:  # float() of an int past the float range
            raise ModelError(
                "coefficient values must be finite, got one past the float range"
            ) from None
        if len(coeffs) != len(model.terms):
            raise ModelError(
                f"expected {len(model.terms)} coefficients, got {len(coeffs)}"
            )
    out: list[float] = []
    records = {
        SignalKind.INPUT: _floats(inputs, "input"),
        SignalKind.OUTPUT: out,
        SignalKind.NOISE: _floats(noise, "noise"),
    }
    steps = _pipeline(model.terms, coeffs, records, n)
    isfinite, append = math.isfinite, out.append
    # only ``**`` raises OverflowError: float ``*`` and ``+`` round to inf
    try:
        for value in steps:
            if not isfinite(value):
                raise SimulationDivergedError(len(out))
            append(value)
    except OverflowError:
        raise SimulationDivergedError(len(out)) from None
    return out


# Pulling a sample from nested iterators recurses in C once per level, and
# ~10**5 levels overflow the C stack: no chain in a simulation pipeline is
# deeper than this.  It sets how many items a fold nests (see _fold).
_MAX_CHAIN_DEPTH = 1000


def _pipeline(terms: Sequence[Monomial], coeffs: Sequence[float], records: dict, n: int):
    """The iterator of :func:`simulate`'s outputs over ``records`` (a list
    per signal)."""
    folded = []
    for coeff, term in zip(coeffs, terms):
        factors = []
        for (signal, delay), exponent in term.factors.items():
            factor = chain(repeat(0.0, min(delay, n)), records[signal])
            if exponent == 1:  # pow(x, 1.0) == x for every float, so this is exact
                factors.append(factor)
                continue
            try:
                exponent = float(exponent)
            except OverflowError:
                raise ModelError(
                    f"the exponent of {signal.value}[{-delay}] is past the float range"
                ) from None
            factors.append(map(pow, factor, repeat(exponent)))
        folded.append(_fold(mul, repeat(coeff), factors))
    return _fold(add, iter(records[SignalKind.NOISE]), folded)


def _fold(function, acc, items: Sequence):
    """``function`` folded left from ``acc`` over ``items``, sample by
    sample: ``map(function, ...)`` nested over the first ``nested``
    items, ``(_MAX_CHAIN_DEPTH - 7) // 2``, then one ``map(reduce, ...)``
    over a ``zip`` of the result and the rest, which applies ``function``
    in the same order without nesting.

    A factor is at most 3 levels deep, so a term is at most
    ``nested + 5`` levels and the output at most ``2 * nested + 7``.
    """
    nested = (_MAX_CHAIN_DEPTH - 7) // 2
    for item in items[:nested]:
        acc = map(function, acc, item)
    if len(items) > nested:
        acc = map(reduce, repeat(function), zip(acc, *items[nested:]))
    return acc


def _floats(record: Sequence[float], name: str) -> list[float]:
    """The values of the record called ``name`` as floats; a value past
    the float range is a :class:`ModelError` that names the record."""
    try:
        return list(map(float, record))
    except OverflowError:
        raise ModelError(f"the {name} record has a value past the float range") from None


# The model classes in tag order: the signals a class's terms range over,
# and whether they may multiply factors.  The presets are cut from it too.
_CLASSES: dict[str, tuple[frozenset[SignalKind], bool]] = {
    "FIR": (frozenset({SignalKind.INPUT}), False),
    "Volterra": (frozenset({SignalKind.INPUT}), True),
    "ARX": (frozenset({SignalKind.INPUT, SignalKind.OUTPUT}), False),
    "ARMAX": (frozenset(SignalKind), False),
    "NARX": (frozenset({SignalKind.INPUT, SignalKind.OUTPUT}), True),
    "NARMAX": (frozenset(SignalKind), True),
}
CLASS_TAG_ORDER = tuple(_CLASSES)


def classify(model: NarmaxModel) -> frozenset[str]:
    """Structural class tags: the classes whose signals include the
    model's and, unless the class allows products, whose terms all have
    total degree <= 1 (constants included); every model is NARMAX."""
    signals = {signal for term in model.terms for signal, _ in term.factors}
    linear = all(term.total_degree() <= 1 for term in model.terms)
    return frozenset(
        tag
        for tag, (allowed, products) in _CLASSES.items()
        if signals <= allowed and (products or linear)
    )


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

# built once: iterating SignalKind for each factor read costs ~4x this dict
_SIGNAL_TOKEN = {signal.value: signal for signal in SignalKind}
_REAL = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
# A term head, "cN" with its optional ":VALUE" or the trailing noise term
# "xi", and a factor "*s[OFFSET]" with its optional "^EXP", each read by
# one pattern.  Every piece after the first is an optional group, written
# ``(?:piece|)`` or ``(piece|)``, which sre matches faster than ``?``, and
# the whitespace before a piece is matched outside its group.  So the
# pattern always matches, and a read that stops early ends at the
# character where a piece is missing: the reader raises the first missing
# piece there.  Everything after a piece is optional, so no piece gives
# back what it matched; ``\s`` agrees with ``str.isspace``.
_TERM_HEAD_RE = re.compile(
    rf"\s*(?:(c)\s*(?:(\d+)\s*(?:(:)\s*({_REAL}|)|)|)|(xi)(?!\s*\[)\s*|)"
)
_FACTOR_RE = re.compile(
    rf"\s*(?:(\*)\s*(?:({'|'.join(_SIGNAL_TOKEN)})\s*(?:(\[)\s*(-?)\s*"
    r"(?:(\d+)\s*(?:(\])\s*(?:(\^)\s*(\d+|)|)|)|)|)|)|)"
)


def _integer(found: re.Match, group: int) -> int:
    """``int`` of a digit run; a run past the interpreter's limit is an
    error at its first digit."""
    try:
        return int(found[group])
    except ValueError:
        raise ModelSyntaxError("an integer is out of range", found.start(group)) from None


def _term_head(found: re.Match) -> tuple[int, float | None]:
    """The id and value of a ``cN(:VALUE)?`` read by ``_TERM_HEAD_RE``."""
    if found[2] is None:
        what = "an integer" if found[1] else "'c'"
        raise ModelSyntaxError(f"expected {what}", found.end())
    coeff_id = _integer(found, 2)
    if found[3] is None:
        return coeff_id, None
    if not found[4]:
        raise ModelSyntaxError("expected a number", found.end())
    value = float(found[4])
    if not math.isfinite(value):
        raise ModelSyntaxError("a number is out of range", found.start(4))
    return coeff_id, value


def _factor(found: re.Match) -> tuple[FactorKey, int]:
    """The key and exponent of a ``*s[OFFSET](^EXP)?`` read by ``_FACTOR_RE``."""
    if found[6] is None:  # the first missing piece is an error
        if found[2] is None:
            what = "a signal (u, y or xi)"
        elif found[3] is None:
            what = "'['"
        elif found[5] is None:
            what = "an integer"
        else:
            _integer(found, 5)
            what = "']'"
        raise ModelSyntaxError(f"expected {what}", found.end())
    offset = _integer(found, 5)
    delay = offset if found[4] else -offset
    signal = _SIGNAL_TOKEN[found[2]]
    if delay < 0:
        raise CausalityError(
            f"{signal.value}[{-delay}] references the future (position {found.start(2)})"
        )
    if signal is SignalKind.OUTPUT and delay == 0:
        raise CausalityError(f"y[0] violates causality (position {found.start(2)})")
    if found[7] is None:
        return (signal, delay), 1
    if not found[8]:
        raise ModelSyntaxError("expected an integer", found.end())
    exponent = _integer(found, 8)
    if exponent < 1:
        raise ModelSyntaxError("exponents must be >= 1", found.end())
    return (signal, delay), exponent


def parse_model_text(text: str, mode: Mode = Mode.EXTENDED) -> NarmaxModel:
    """Parse model text and return its canonical form.

    Grammar: ``model := term ('+' term)* '+' 'xi' | 'xi'`` with
    ``term := cN(:VALUE)? ('*' factor)*`` and
    ``factor := (u|y|xi)[OFFSET](^EXP)?`` where offsets are 0 or
    negative (``u[0]`` is the current input, ``y[-1]`` the previous
    output).
    """
    # (factor map, value) per term; the reads check what Monomial would
    terms: list[tuple[dict[FactorKey, int], float | None]] = []
    pos = 0
    while True:
        head = _TERM_HEAD_RE.match(text, pos)
        pos = head.end()
        if head[5]:
            if pos < len(text):
                raise ModelSyntaxError("the trailing noise term must end the model", pos)
            break
        coeff_id, value = _term_head(head)
        factors: dict[FactorKey, int] = {}
        while True:
            found = _FACTOR_RE.match(text, pos)
            pos = found.end()
            if not found[1]:
                break
            key, exponent = _factor(found)
            factors[key] = factors.get(key, 0) + exponent
        if coeff_id < 1:
            raise ModelSyntaxError(_ID_RULE, head.start(1))
        terms.append((factors, value))
        if not text.startswith("+", pos):
            raise ModelSyntaxError("expected '+'", pos)
        pos += 1
    return _canonical(terms, mode)


def format_model_text(model: NarmaxModel) -> str:
    """Canonical single-space rendering; inverse of :func:`parse_model_text`."""
    parts = []
    for term in model.terms:
        text = f"c{term.coeff_id}"
        if term.coeff_value is not None:
            text += f":{term.coeff_value!r}"
        for rank, delay, exponent in _factor_key(term.factors):
            text += f"*{_SIGNAL_NAMES[rank]}[{-delay if delay else 0}]"
            if exponent > 1:
                text += f"^{exponent}"
        parts.append(text)
    parts.append("xi")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Two-equation extension
# ---------------------------------------------------------------------------


@record()
class NbjModel:
    """Process/noise equation pair for the nonlinear Box-Jenkins structure.

    ``process_terms`` is the noise-free process polynomial: its
    output-role factors denote the model's own simulated output and its
    monomials range over inputs and delayed simulated outputs only.
    ``noise_terms`` is the noise polynomial, whose output-role factors
    denote the autoregressive disturbance; the implicit additive current
    noise sample belongs to the noise equation.  ``mode`` constrains the
    noise side only.
    """

    process_terms: tuple[Monomial, ...]
    noise_terms: tuple[Monomial, ...]
    mode: Mode = Mode.EXTENDED

    def __post_init__(self) -> None:
        object.__setattr__(self, "process_terms", tuple(self.process_terms))
        object.__setattr__(self, "noise_terms", tuple(self.noise_terms))
        for term in self.process_terms:
            if SignalKind.NOISE in term.signals():
                raise ModelError("the process equation cannot contain noise factors")
        _check_mode(self.noise_terms, self.mode)
