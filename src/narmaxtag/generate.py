"""Bounded exhaustive enumeration and seeded random sampling of derivations.

Enumeration works for any grammar: every node of an elementary tree
whose label matches some auxiliary root is an optional adjunction slot,
every marked leaf is a mandatory substitution slot, and the stream
lists each derivation with at most the requested number of adjunctions
exactly once, in a fixed order (slots by address, candidates by name,
smaller derivations first within a slot).

Sampling grows a random model over the polynomial-model grammar (or one
of its presets) extension by extension, tracking each term's factor
occurrences in the order they were grown, so the drawn model respects
the structural bounds by construction and is reproducible from the
seed.  The derivation is then built from those lists by the builder
that :func:`~narmaxtag.narmax.model_to_derivation` uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .models import FactorKey, Mode, NarmaxModel, SignalKind
from .narmax import (
    GrammarPreset,
    SumRoles,
    _narmax_derivation,
    build_narmax_grammar,
    derived_to_model,
    restrict,
)
from .trees import (
    DerivationEdge,
    DerivationTree,
    ElementaryTree,
    GornAddress,
    Grammar,
    LabelKind,
    Operation,
    derive,
)


@dataclass(frozen=True)
class GenBounds:
    """Structural limits for generated derivations and models."""

    max_adjunctions: int = 4
    max_terms: int = 3
    max_delay: int = 3
    max_exponent: int = 2
    mode: Mode = Mode.EXTENDED

    def __post_init__(self) -> None:
        for name in ("max_adjunctions", "max_terms", "max_delay", "max_exponent"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SampleConfig:
    """Bounds plus a seed; equal configs draw identical sequences."""

    bounds: GenBounds = GenBounds()
    seed: int = 0


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Slot:
    address: GornAddress
    operation: Operation
    candidates: tuple[ElementaryTree, ...]


def _slots_of(entry: ElementaryTree, grammar: Grammar) -> tuple[_Slot, ...]:
    tree = entry.tree
    slots: list[_Slot] = []
    for nid in tree.pre_order():
        label = tree.label(nid)
        if label.kind is not LabelKind.NONTERMINAL:
            continue
        address = tree.address_of(nid)
        if tree.is_internal(nid):
            candidates = tuple(
                sorted(
                    (
                        aux
                        for aux in grammar.auxiliaries
                        if aux.tree.label(aux.tree.root).name == label.name
                    ),
                    key=lambda entry: entry.name,
                )
            )
            if candidates:
                slots.append(_Slot(address, Operation.ADJUNCTION, candidates))
        elif label.substitution_marker:
            candidates = tuple(
                sorted(
                    (
                        init
                        for init in grammar.initials
                        if init.tree.label(init.tree.root).name == label.name
                    ),
                    key=lambda entry: entry.name,
                )
            )
            slots.append(_Slot(address, Operation.SUBSTITUTION, candidates))
    slots.sort(key=lambda slot: slot.address)
    return tuple(slots)


def _expand(
    entry: ElementaryTree,
    slot_map: dict[str, tuple[_Slot, ...]],
    budget: int,
) -> Iterator[tuple[DerivationTree, int]]:
    """All derivations rooted at ``entry`` with at most ``budget`` adjunctions.

    Yields each derivation with its exact adjunction count so callers
    can combine independent slots against a shared budget.
    """
    slots = slot_map[entry.name]

    def assignments(
        index: int, remaining: int
    ) -> Iterator[tuple[tuple[DerivationEdge, ...], int]]:
        if index == len(slots):
            yield (), 0
            return
        slot = slots[index]
        if slot.operation is Operation.ADJUNCTION:
            yield from assignments(index + 1, remaining)
            if remaining < 1:
                return
            for candidate in slot.candidates:
                for child, used in _expand(candidate, slot_map, remaining - 1):
                    edge = DerivationEdge(slot.operation, slot.address, child)
                    for rest, rest_used in assignments(
                        index + 1, remaining - 1 - used
                    ):
                        yield (edge, *rest), 1 + used + rest_used
        else:
            for candidate in slot.candidates:
                for child, used in _expand(candidate, slot_map, remaining):
                    edge = DerivationEdge(slot.operation, slot.address, child)
                    for rest, rest_used in assignments(index + 1, remaining - used):
                        yield (edge, *rest), used + rest_used

    for edges, used in assignments(0, budget):
        yield DerivationTree(entry.name, edges), used


def enumerate_derivations(
    grammar: Grammar, bounds: GenBounds
) -> Iterator[DerivationTree]:
    """Every complete derivation with at most ``bounds.max_adjunctions``
    adjunctions, exactly once, in a deterministic order.

    Substitution sites are always filled (otherwise the derived tree
    would not be saturated) and do not count against the budget.
    """
    slot_map = {
        entry.name: _slots_of(entry, grammar) for entry in grammar.elementary()
    }
    roots = [
        init
        for init in grammar.initials
        if init.tree.label(init.tree.root).name == grammar.start
    ]
    for entry in sorted(roots, key=lambda e: e.name):
        for derivation, _ in _expand(entry, slot_map, bounds.max_adjunctions):
            yield derivation


def enumerate_models(
    grammar: Grammar, bounds: GenBounds
) -> Iterator[tuple[DerivationTree, NarmaxModel]]:
    """Enumerated derivations over a polynomial-model grammar, parsed."""
    for derivation in enumerate_derivations(grammar, bounds):
        derived = derive(derivation, grammar)
        yield derivation, derived_to_model(derived, mode=bounds.mode)


# ---------------------------------------------------------------------------
# Seeded random sampling
# ---------------------------------------------------------------------------


class _GrowthSampler:
    """Random derivation growth under structural bounds.

    Extensions: start a new term (one additive tree), multiply a factor
    onto an existing term (one multiplicative tree), or deepen a
    factor's delay (one delay tree).  In strict mode a noise factor is
    introduced together with one delay tree, so the current noise
    sample never appears in a product.
    """

    def __init__(self, bounds: GenBounds, preset: GrammarPreset, rng: random.Random):
        self.bounds = bounds
        self.rng = rng
        catalog = build_narmax_grammar()
        self.roles: SumRoles = catalog.roles
        available = {tree.name for tree in restrict(preset).auxiliaries}
        self.additive_signals = [
            sig
            for sig in (SignalKind.INPUT, SignalKind.OUTPUT, SignalKind.NOISE)
            if self.roles.additive[sig] in available
        ]
        self.mult_signals = [
            sig
            for sig in (SignalKind.INPUT, SignalKind.OUTPUT, SignalKind.NOISE)
            if self.roles.multiplicative[sig] in available
        ]
        self.has_delay = self.roles.delay_tree in available
        # factor occurrences (signal, delay) per term, leading factor first
        self.terms: list[list[FactorKey]] = []

    def _base_delay(self, signal: SignalKind) -> int:
        if signal in self.roles.causal_signals:
            return 1
        if signal is SignalKind.NOISE and self.bounds.mode is Mode.STRICT:
            return 1
        return 0

    def _cost(self, signal: SignalKind) -> int:
        # strict-mode noise factors come with one immediate delay tree
        built_in = signal in self.roles.causal_signals
        return 2 if (not built_in and self._base_delay(signal) == 1) else 1

    def _factor_fits(self, term: list[FactorKey], signal: SignalKind) -> bool:
        base = self._base_delay(signal)
        if base > self.bounds.max_delay:
            return False
        if base == 1 and signal not in self.roles.causal_signals and not self.has_delay:
            return False
        return term.count((signal, base)) + 1 <= self.bounds.max_exponent

    def options(self, budget: int) -> list[tuple]:
        out: list[tuple] = []
        if self.bounds.max_exponent >= 1:
            if len(self.terms) < self.bounds.max_terms:
                for sig in self.additive_signals:
                    if self._cost(sig) <= budget and self._factor_fits([], sig):
                        out.append(("term", sig.value))
            for index, term in enumerate(self.terms):
                for sig in self.mult_signals:
                    if self._cost(sig) <= budget and self._factor_fits(term, sig):
                        out.append(("factor", index, sig.value))
        if self.has_delay and budget >= 1:
            for t_index, term in enumerate(self.terms):
                for f_index, (signal, delay) in enumerate(term):
                    deeper = delay + 1
                    if (
                        deeper <= self.bounds.max_delay
                        and term.count((signal, deeper)) + 1
                        <= self.bounds.max_exponent
                    ):
                        out.append(("delay", t_index, f_index))
        return out

    def apply(self, option: tuple) -> int:
        if option[0] == "delay":
            _, t_index, f_index = option
            signal, delay = self.terms[t_index][f_index]
            self.terms[t_index][f_index] = (signal, delay + 1)
            return 1
        signal = SignalKind(option[-1])
        if option[0] == "term":
            self.terms.append([])
            term = self.terms[-1]
        else:
            term = self.terms[option[1]]
        # strict-mode noise factors come with their first delay tree
        term.append((signal, self._base_delay(signal)))
        return self._cost(signal)

    def grow(self) -> DerivationTree:
        target = self.rng.randint(0, self.bounds.max_adjunctions)
        spent = 0
        while spent < target:
            options = self.options(target - spent)
            if not options:
                break
            spent += self.apply(self.rng.choice(options))
        return _narmax_derivation(self.terms)


def sample_derivation(
    config: SampleConfig, preset: GrammarPreset = GrammarPreset.NARMAX
) -> DerivationTree:
    """One random derivation within bounds; reproducible from the seed."""
    rng = random.Random(config.seed)
    return _GrowthSampler(config.bounds, preset, rng).grow()


def sample_model(
    config: SampleConfig, preset: GrammarPreset = GrammarPreset.NARMAX
) -> NarmaxModel:
    """Parse a sampled derivation's derived tree into a canonical model."""
    derivation = sample_derivation(config, preset)
    grammar = build_narmax_grammar().grammar
    model = derived_to_model(derive(derivation, grammar), mode=config.bounds.mode)
    _check_bounds(model, config.bounds)
    return model


def _check_bounds(model: NarmaxModel, bounds: GenBounds) -> None:
    if model.term_count() > bounds.max_terms:
        raise RuntimeError("sampler exceeded the term bound")
    for term in model.terms:
        for (_, delay), exponent in term.factors.items():
            if delay > bounds.max_delay or exponent > bounds.max_exponent:
                raise RuntimeError("sampler exceeded a delay or exponent bound")
