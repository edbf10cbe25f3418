"""Bounded exhaustive enumeration and seeded random sampling of derivations.

Enumeration works for any grammar and at any depth: every internal
node of an elementary tree whose label matches some auxiliary root is
an optional adjunction slot, every marked leaf is a mandatory
substitution slot, and the stream lists each derivation with at most
the requested number of adjunctions exactly once.  A derivation is the
sequence of decisions at its slots, taken in pre-order of the
derivation (a chosen tree's own slots before its parent's next slot),
and the stream is in lexicographic order of those sequences: at each
slot, skipping an adjunction comes first, then the candidates by name.
Tree names mean what they mean to ``derive``: the first entry of a
name wins.

There is one traversal, and it hands each completed derivation node to
a completion step.  :func:`enumerate_derivations` only builds the node.
:func:`enumerate_models` also builds the node's checked part, the form
``derive`` checks a derivation into, from what the slot table already
knows: each slot's target node and which candidates pass the
preconditions that depend on the two elementary trees alone.  The
parts of shared subtrees are shared, and the leaves are read off the
parts with no second check.

Sampling grows a random model over the polynomial-model grammar (or one
of its presets) extension by extension: it draws a number of
adjunctions to spend, then at each step one extension (a new term, a
factor multiplied onto a term, or a factor's delay deepened) out of
those that fit the adjunctions left and the structural bounds.  It
tracks only each term's factor occurrences, in the order they were
grown, so the drawn model respects the bounds by construction and is
reproducible from the seed.  The model is read off those lists, with
no derivation built; the derivation is built from them by the builder
that :func:`~narmaxtag.narmax.model_to_derivation` uses.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .models import _CLASSES, CausalityError, FactorKey, Mode, NarmaxModel, SignalKind, _canonical
from .narmax import (
    _PRESET_CLASS,
    GrammarPreset,
    _derivation,
    _factor_cost,
    _leaves_to_model,
    adjunctions_needed,
    build_narmax_grammar,
)
from .trees import (
    DerivationEdge,
    DerivationTree,
    Grammar,
    LabelKind,
    Operation,
    TagError,
    TreeKind,
    _adjunction_fault,
    _leaves,
    _Part,
    _substitution_fault,
    derived_leaves,
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


def _slot_table(grammar: Grammar) -> tuple[dict[str, tuple[tuple, ...]], list[str]]:
    """The slots of every tree ``derive`` knows, each an (operation,
    address, candidate names, target node, fitting names) tuple, in
    pre-order; and the names of the initial trees rooted at the start
    symbol.

    Candidates are the distinct tree names of the right kind whose root
    label matches the slot's, sorted.  An internal node without any is
    no slot; a substitution site without any is a dead end.  The fitting
    names are the candidates that pass every precondition ``derive``
    decides on the two elementary trees alone; the one left, whether the
    incoming part has a foot, is known when that part is built.
    """
    tables = grammar._tables
    fitting: dict[tuple[TreeKind, str], list[str]] = {}
    for name in sorted(tables):
        table = tables[name]
        fitting.setdefault((table.entry.kind, table.labels[0].name), []).append(name)
    slots = {}
    for name, table in tables.items():
        found = []
        for i, label in enumerate(table.labels):  # pre-order is address order
            if label.kind is not LabelKind.NONTERMINAL:
                continue
            internal = bool(table.children[i])
            if internal:
                operation, kind, fault = Operation.ADJUNCTION, TreeKind.AUXILIARY, _adjunction_fault
            elif label.substitution_marker:
                operation, kind, fault = Operation.SUBSTITUTION, TreeKind.INITIAL, _substitution_fault
            else:
                continue
            names = fitting.get((kind, label.name), [])
            if names or operation is Operation.SUBSTITUTION:
                # the foot the fault functions are told of is the one that passes
                fits = frozenset(
                    n for n in names
                    if not fault(label, internal, tables[n].labels[0], kind is TreeKind.AUXILIARY)
                )
                found.append((operation, table.address(i), tuple(names), i, fits))
        slots[name] = tuple(found)
    return slots, fitting.get((TreeKind.INITIAL, grammar.start), [])


def enumerate_derivations(
    grammar: Grammar, bounds: GenBounds
) -> Iterator[DerivationTree]:
    """Every complete derivation with at most ``bounds.max_adjunctions``
    adjunctions, exactly once, in a deterministic order.

    Substitution sites are always filled (otherwise the derived tree
    would not be saturated) and do not count against the budget, so a
    run of substitutions that would repeat an initial tree has no end
    and raises :class:`TagError`.  A node's edges are one per filled
    slot, in the slot table's address order, so nodes and edges are
    built through the trusted ``_build`` constructors.
    """
    return _enumerate(grammar, bounds, _derivation_step)


def _enumerate(grammar: Grammar, bounds: GenBounds, complete) -> Iterator:
    """The traversal behind :func:`enumerate_derivations`, which hands
    each completed frame to ``complete(name, chain, slot)``: the frame's
    tree name, its chain of what ``complete`` returned for its filled
    slots, and the parent's slot it fills (None at the root).  What
    ``complete`` returns goes on the parent's chain, or is yielded at the
    root."""
    slots, roots = _slot_table(grammar)
    # A frame is (tree name, its slots, next slot, chain so far, parent
    # frame); the parent's next slot is the one the frame fills.  The
    # chain is (last item, earlier chain) ending in None, shared by the
    # frames that extend it, and is read once, when the frame is
    # complete.  A stack entry is a decision still to try: at ``frame``'s
    # next slot, with ``budget`` adjunctions left, open ``choice`` there
    # (None: skip it).
    budget = bounds.max_adjunctions
    stack: list[tuple] = [(None, budget, root) for root in reversed(roots)]
    while stack:
        frame, budget, choice = stack.pop()
        if choice is None:
            name, own, index, chain, parent = frame
            index += 1
        else:
            if frame is not None:
                if frame[1][frame[2]][0] is Operation.ADJUNCTION:
                    budget -= 1
                else:
                    _check_cycle(frame, choice)
            name, own, index, chain, parent = choice, slots[choice], 0, None, frame
        while index == len(own):  # the frame is complete: hand it to its parent
            if parent is None:
                yield complete(name, chain, None)
                break
            slot = parent[1][parent[2]]
            item = complete(name, chain, slot)
            name, own, index, chain, parent = parent
            chain = (item, chain)
            index += 1
        else:
            operation, _, names, _, _ = own[index]
            frame = (name, own, index, chain, parent)
            # pushed in reverse, so tried skip first, then by name
            if operation is Operation.SUBSTITUTION or budget > 0:
                stack += [(frame, budget, n) for n in reversed(names)]
            if operation is Operation.ADJUNCTION:
                stack.append((frame, budget, None))


def _derivation_step(name: str, chain: tuple | None, slot: tuple | None):
    """A completed frame's derivation, or at a slot the edge to it; the
    chain holds the edges, last edge first."""
    edges = []
    while chain is not None:
        edge, chain = chain
        edges.append(edge)
    edges.reverse()
    derivation = DerivationTree._build(name, tuple(edges))
    if slot is None:
        return derivation
    return DerivationEdge._build(slot[0], slot[1], derivation)


def _check_cycle(frame: tuple, name: str) -> None:
    """Raise if substituting ``name`` at ``frame``'s next slot repeats a
    tree of the run of substitutions that reaches that slot."""
    run = [name]
    while True:
        run.append(frame[0])
        if frame[0] == name:
            raise TagError(
                "initial trees substitute into one another without end: "
                + " -> ".join(reversed(run))
            )
        parent = frame[4]
        if parent is None or parent[1][parent[2]][0] is Operation.ADJUNCTION:
            return
        frame = parent


def enumerate_models(
    grammar: Grammar, bounds: GenBounds
) -> Iterator[tuple[DerivationTree, NarmaxModel]]:
    """Enumerated derivations over a polynomial-model grammar, parsed
    from their derived trees' leaves; strict mode skips a derivation
    whose model has the current noise sample in a product.

    The leaves are read off the parts the traversal builds (see
    :func:`_checked_parts`), with no second check; a derivation without
    a part goes through :func:`~narmaxtag.trees.derived_leaves`, which
    raises its error.
    """
    for derivation, part in _checked_parts(grammar, bounds):
        leaves = derived_leaves(derivation, grammar) if part is None else _leaves(part)
        try:
            model = _leaves_to_model(leaves, bounds.mode)
        except CausalityError:
            continue
        yield derivation, model


def _checked_parts(
    grammar: Grammar, bounds: GenBounds
) -> Iterator[tuple[DerivationTree, _Part | None]]:
    """The stream of :func:`enumerate_derivations`, each derivation with
    the checked part ``derive`` would make of it.

    A completed frame builds its part from the parts on its chain, so
    the parts of shared subtrees are shared.  A placement that fails a
    precondition (only a malformed grammar allows one) leaves that frame
    and every frame above it without a part (None).
    """
    tables = grammar._tables

    def step(name: str, chain: tuple | None, slot: tuple | None):
        # the chain holds (edge, target node, (operation, part) or None),
        # last edge first
        edges, ops = [], {}
        while chain is not None:
            (edge, target, op), chain = chain
            edges.append(edge)
            ops[target] = op
        edges.reverse()
        derivation = DerivationTree._build(name, tuple(edges))
        part = None if None in ops.values() else _Part(tables[name], ops)
        if slot is None:
            return derivation, part
        operation, address, _, target, fits = slot
        edge = DerivationEdge._build(operation, address, derivation)
        if part is None or name not in fits or bool(part.feet) is not (
            operation is Operation.ADJUNCTION
        ):
            return edge, target, None
        return edge, target, (operation, part)

    return _enumerate(grammar, bounds, step)


# ---------------------------------------------------------------------------
# Seeded random sampling
# ---------------------------------------------------------------------------


def _grow(bounds: GenBounds, preset: GrammarPreset, rng: random.Random) -> list[list[FactorKey]]:
    """Random factor occurrences (signal, delay) per term, leading factor
    first, grown within ``bounds`` over the signals of the preset's class.

    Extensions: start a new term (one additive tree), multiply a factor
    onto an existing term (one multiplicative tree, when the class
    allows products), or deepen a factor's delay (one delay tree).  A new
    factor costs what :func:`~narmaxtag.narmax.adjunctions_needed` counts
    for it.  Each step draws one of the extensions that fit the
    adjunctions left, in a fixed order.
    """
    signals, products = _CLASSES[_PRESET_CLASS[preset]]
    # a new factor's first occurrence and its cost: output factors carry
    # a built-in backshift, and in strict mode a noise factor starts at
    # delay 1, so the current noise sample never appears in a product
    noise = 1 if bounds.mode is Mode.STRICT else 0
    start = {
        signal: ((signal, delay), _factor_cost(signal, delay))
        for signal, delay in zip(SignalKind, (0, 1, noise))
        if signal in signals and delay <= bounds.max_delay
    }
    multiplicative = list(start) if products else []

    def fits(counts: dict[FactorKey, int], signal: SignalKind) -> bool:
        factor, cost = start[signal]
        return cost <= budget and counts.get(factor, 0) < bounds.max_exponent

    # each term's factor list, and beside it the count of each factor
    terms: list[tuple[list[FactorKey], dict[FactorKey, int]]] = []
    budget = rng.randint(0, bounds.max_adjunctions)
    while budget > 0:
        # an option is (term, or None for a new one; signal of the new
        # factor) or (term, index of the factor to deepen)
        options: list[tuple] = []
        if len(terms) < bounds.max_terms:
            options += [(None, signal) for signal in start if fits({}, signal)]
        for term in terms:
            options += [(term, signal) for signal in multiplicative if fits(term[1], signal)]
        for term in terms:
            factors, counts = term
            options += [
                (term, index)
                for index, (signal, delay) in enumerate(factors)
                if delay < bounds.max_delay
                and counts.get((signal, delay + 1), 0) < bounds.max_exponent
            ]
        if not options:
            break
        term, choice = rng.choice(options)
        if term is None:
            term = ([], {})
            terms.append(term)
        factors, counts = term
        if isinstance(choice, int):
            old = factors[choice]
            factor = factors[choice] = (old[0], old[1] + 1)
            counts[old] -= 1
            budget -= 1  # one delay tree
        else:
            factor, cost = start[choice]
            factors.append(factor)
            budget -= cost
        counts[factor] = counts.get(factor, 0) + 1
    return [factors for factors, _ in terms]


def sample_derivation(
    config: SampleConfig, preset: GrammarPreset = GrammarPreset.NARMAX
) -> DerivationTree:
    """One random derivation within bounds; reproducible from the seed."""
    terms = _grow(config.bounds, preset, random.Random(config.seed))
    return _derivation(build_narmax_grammar(), [terms])


def sample_model(
    config: SampleConfig, preset: GrammarPreset = GrammarPreset.NARMAX
) -> NarmaxModel:
    """The canonical model of :func:`sample_derivation`'s derivation, read
    off the grown factor lists and checked against the bounds."""
    terms = _grow(config.bounds, preset, random.Random(config.seed))
    model = _canonical([(Counter(term), None) for term in terms], config.bounds.mode)
    _check_bounds(model, config.bounds)
    return model


def _check_bounds(model: NarmaxModel, bounds: GenBounds) -> None:
    if adjunctions_needed(model) > bounds.max_adjunctions:
        raise RuntimeError("sampler exceeded the adjunction bound")
    if model.term_count() > bounds.max_terms:
        raise RuntimeError("sampler exceeded the term bound")
    for term in model.terms:
        for (_, delay), exponent in term.factors.items():
            if delay > bounds.max_delay or exponent > bounds.max_exponent:
                raise RuntimeError("sampler exceeded a delay or exponent bound")
