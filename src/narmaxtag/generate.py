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
A grammar that :func:`~narmaxtag.trees.validate_grammar` flags is
refused at the first item, with its first diagnostic.

There is one traversal, and it hands each completed derivation node to
a completion step.  :func:`enumerate_derivations` builds the node.
:func:`enumerate_models` yields only models, one per derivation in the
same order (zip the two streams, in extended mode, for pairs).  It
reads the model catalog's trees only (the full grammar, every preset,
and any grammar whose trees equal theirs, such as one read back from
its own text), and its step builds no node: it reads what each subtree
adds, a delay tree a backshift, a multiplicative tree a factor, an
additive tree a term.

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
from operator import attrgetter
from typing import Iterator

from ._record import record
from .models import _CLASSES, FactorKey, Mode, NarmaxModel, SignalKind, _canonical
from .narmax import (
    _PRESET_CLASS,
    GrammarPreset,
    _derivation,
    _factor_cost,
    _factor_delay,
    adjunctions_needed,
    build_narmax_grammar,
)
from .trees import (
    DerivationEdge,
    DerivationTree,
    Grammar,
    Operation,
    TagError,
    TreeKind,
)


@record()
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


@record()
class SampleConfig:
    """Bounds plus a seed; equal configs draw identical sequences."""

    bounds: GenBounds = GenBounds()
    seed: int = 0


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def _slot_table(grammar: Grammar) -> tuple[dict[str, tuple[tuple, ...]], list[str]]:
    """The slots of every tree of the grammar, each an (operation,
    address, candidate names) tuple, in pre-order; and the names of the
    initial trees rooted at the start symbol.

    Candidates are the tree names of the right kind whose root label
    matches the slot's, sorted.  An internal node without any is no
    slot; a substitution site without any is a dead end.  The grammar is
    well formed (``grammar._tables`` refuses any other), so a candidate
    passes every check of ``derive`` at its slot.
    """
    tables = grammar._tables
    candidates: dict[tuple[TreeKind, str], list[str]] = {}
    for name in sorted(tables):
        table = tables[name]
        candidates.setdefault((table.entry.kind, table.labels[0].name), []).append(name)
    slots = {}
    for name, table in tables.items():
        found = []
        for i, label in enumerate(table.labels):  # pre-order is address order
            if table.children[i]:
                operation, kind = Operation.ADJUNCTION, TreeKind.AUXILIARY
            elif label.substitution_marker:
                operation, kind = Operation.SUBSTITUTION, TreeKind.INITIAL
            else:
                continue
            names = candidates.get((kind, label.name), [])
            if names or operation is Operation.SUBSTITUTION:
                found.append((operation, table.address(i), tuple(names)))
        slots[name] = tuple(found)
    return slots, candidates.get((TreeKind.INITIAL, grammar.start), [])


def enumerate_derivations(
    grammar: Grammar, bounds: GenBounds
) -> Iterator[DerivationTree]:
    """Every complete derivation with at most ``bounds.max_adjunctions``
    adjunctions, exactly once, in a deterministic order.  That is the
    only bound read here: ``max_terms``, ``max_delay`` and
    ``max_exponent`` bound sampling only.

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
            operation, _, names = own[index]
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


def enumerate_models(grammar: Grammar, bounds: GenBounds) -> Iterator[NarmaxModel]:
    """The model of each enumerated derivation over a polynomial-model
    grammar, in the order of :func:`enumerate_derivations`; strict mode
    skips a derivation whose model has the current noise sample in a
    product.  Of ``bounds`` only ``max_adjunctions`` and ``mode`` are
    read: ``max_terms``, ``max_delay`` and ``max_exponent`` bound
    sampling only.

    Only models are yielded.  In extended mode none is skipped, so
    ``zip(enumerate_derivations(...), enumerate_models(...))`` pairs
    each derivation with its model.  Strict mode's refusals are dropped
    by an ``is None`` test, never by a model's truth value.

    Each elementary tree of ``grammar`` must be the model catalog's tree
    of its name, of the same kind and compiled structure (labels and
    children), as in the full grammar, every preset
    :func:`~narmaxtag.narmax.restrict` cuts from it and a grammar read
    back from their text.  Any other grammar is refused at the first
    item, a malformed one with its ``MalformedGrammarError``, any other
    with a :class:`~narmaxtag.trees.TagError` that names its first tree
    that is not the catalog's.  Each model is read off the traversal
    (see :func:`_model_step`), with no derivation built and no check
    pass, leaf walk or yield parse.
    """
    shape = attrgetter("entry.kind", "labels", "children")
    catalog = build_narmax_grammar().grammar._tables
    for name, table in grammar._tables.items():
        if name not in catalog or shape(catalog[name]) != shape(table):
            raise TagError(f"not a tree of the model catalog: {name!r}")
    for model in _enumerate(grammar, bounds, _model_step(bounds.mode)):
        if model is not None:
            yield model


# what a completed subtree of the catalog adds to its parent: backshifts
# (a delay tree), factors (a multiplicative tree) or terms (an additive
# tree); each indexes the step's accumulator
_BACKSHIFTS, _FACTORS, _TERMS = range(3)


def _model_step(mode: Mode):
    """The completion step that reads each derivation over the model
    catalog's trees into its model, by the catalog's roles: the inverse of
    :func:`~narmaxtag.narmax._term_fragment`.  It builds no derivation.

    A completed node hands its parent its family and what its subtree
    adds there: a delay tree one backshift to its factor, a
    multiplicative tree one factor to its term, an additive tree one
    term, a factor-count map, to the sum.  A factor's delay is read from
    its backshifts by :func:`~narmaxtag.narmax._factor_delay`.  At the
    root the terms go to the canonical form.  Strict mode refuses a model
    with the current noise sample in a product, which is decided at that
    factor: its step returns None, each step above it hands the None on,
    and the root returns it in the model's place.
    """
    (roles,) = build_narmax_grammar().equations
    # each tree's family, and the signal of the factor it brings
    family = {roles.delay_tree: (_BACKSHIFTS, None)}
    for kind, trees in ((_FACTORS, roles.multiplicative), (_TERMS, roles.additive)):
        family.update((name, (kind, signal)) for signal, name in trees.items())
    refused = (SignalKind.NOISE, 0) if mode is Mode.STRICT else None

    def step(name: str, chain: tuple | None, slot: tuple | None):
        # the chain holds (family, what the subtree adds), last child
        # first; backshifts add up and factors and terms join their lists
        found = [0, [], []]
        while chain is not None:
            item, chain = chain
            if item is None:  # a refused subtree
                return None
            kind, adds = item
            found[kind] += adds
        backshifts, factors, terms = found
        if slot is None:  # the initial tree
            return _canonical([(term, None) for term in terms], mode)
        kind, signal = family[name]
        if kind is _BACKSHIFTS:
            return kind, backshifts + 1
        factor = (signal, _factor_delay(signal, backshifts))
        if factor == refused:
            return None
        factors.append(factor)
        if kind is _FACTORS:
            return kind, factors
        term: dict[FactorKey, int] = {}
        for factor in factors:
            term[factor] = term.get(factor, 0) + 1
        terms.append(term)
        return kind, terms

    return step


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
    # a new factor's first occurrence and its cost: in strict mode a
    # noise factor starts with one delay tree, so the current noise sample
    # never appears in a product
    noise = 1 if bounds.mode is Mode.STRICT else 0
    start = {}
    for signal in SignalKind:
        delay = _factor_delay(signal, noise if signal is SignalKind.NOISE else 0)
        if signal in signals and delay <= bounds.max_delay:
            start[signal] = ((signal, delay), _factor_cost(signal, delay))
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
