"""The concrete grammar whose tree language is the polynomial model class.

One initial tree yields the bare noise token; seven auxiliary trees
split into three families: *additive* trees (root and foot ``expr0``)
prepend one coefficient-times-factor term to the sum, *multiplicative*
trees (root and foot ``expr1``) append one factor to an existing term,
and the *delay* tree (root and foot ``expr2``) postfixes one backshift
token to a factor.  Output factors embed one built-in backshift, so
feedback is causal by construction.

Both directions of the model/derivation correspondence live here:
:func:`model_to_derivation` builds a derivation tree for any
representable canonical model, and :func:`derived_to_model` parses a
saturated derived tree's yield back into a model.  The two-equation
nonlinear Box-Jenkins catalog is built from the same sum-family table,
one family per equation, and shares the same derivation builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .models import (
    FactorKey,
    Mode,
    Monomial,
    NarmaxModel,
    NbjModel,
    SignalKind,
    canonicalize,
)
from .trees import (
    ROOT_ADDRESS,
    DerivationEdge,
    DerivationTree,
    ElementaryTree,
    GornAddress,
    Grammar,
    LabelKind,
    Operation,
    SyntacticTree,
    TreeKind,
    derive,
)
from .treeio import parse_tree

INPUT_TOKEN = "u"
OUTPUT_TOKEN = "y"
NOISE_TOKEN = "ξ"
PLUS_TOKEN = "+"
COEFF_TOKEN = "c"
TIMES_TOKEN = "×"
DELAY_TOKEN = "q⁻¹"

PROCESS_OUTPUT_TOKEN = "ŷ"
NOISE_FEEDBACK_TOKEN = "v"
EMPTY_SUM_TOKEN = "0"
COMMA_TOKEN = ","


class YieldError(ValueError):
    """Base class for failures of the derived-tree-to-model direction."""


class NotSaturatedError(YieldError):
    """The tree still has nonterminal leaves."""


class YieldNotInLanguageError(YieldError):
    """The token sequence is not a well-formed model expression."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (token {index})")
        self.index = index


class SignalInWrongPartError(YieldError):
    """A signal token appears on the wrong side of a two-part yield."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (token {index})")
        self.index = index


class UnrepresentableModelError(ValueError):
    """The model has no derivation tree over the grammar."""


@dataclass(frozen=True, eq=False)
class SumRoles:
    """Role bookkeeping for one sum-shaped expression grammar.

    ``term_slot`` is the address of the term node inside an additive
    tree (where multiplicative trees adjoin), the two factor slots are
    the addresses of the factor node inside additive and multiplicative
    trees (where delay trees adjoin).  Output factors carry one built-in
    backshift.
    """

    additive: Mapping[SignalKind, str]
    multiplicative: Mapping[SignalKind, str]
    delay_tree: str
    term_slot: GornAddress
    additive_factor_slot: GornAddress
    mult_factor_slot: GornAddress
    signal_tokens: Mapping[str, SignalKind]
    end_token: str


@dataclass(frozen=True, eq=False)
class NarmaxCatalog:
    """The validated grammar together with its role map."""

    grammar: Grammar
    roles: SumRoles


@dataclass(frozen=True, eq=False)
class NbjCatalog:
    """Grammar for the two-equation structure, with per-side role maps."""

    grammar: Grammar
    process_roles: SumRoles
    noise_roles: SumRoles
    process_slot: GornAddress
    noise_slot: GornAddress


def _elementary(
    name: str,
    kind: TreeKind,
    source: str,
    nonterminals: frozenset[str],
    terminals: frozenset[str],
) -> ElementaryTree:
    tree = parse_tree(source, nonterminals=nonterminals, terminals=terminals)
    return ElementaryTree(name, kind, tree)


def _find_slot(tree: SyntacticTree, name: str) -> GornAddress:
    hits = [
        nid
        for nid in tree.pre_order()
        if tree.is_internal(nid)
        and tree.label(nid).kind is LabelKind.NONTERMINAL
        and tree.label(nid).name == name
    ]
    if len(hits) != 1:
        raise ValueError(f"expected exactly one internal {name!r} node")
    return tree.address_of(hits[0])


_SIGNAL_ORDER = (SignalKind.INPUT, SignalKind.OUTPUT, SignalKind.NOISE)


def _sum_family(
    side: str,
    tokens: Mapping[str, SignalKind],
    end_token: str,
    nonterminals: frozenset[str],
    terminals: frozenset[str],
) -> tuple[list[ElementaryTree], SumRoles]:
    """Auxiliary trees and role map of one sum-shaped expression.

    Trees are named ``beta<side><k>``: k = 1-3 prepend a term and
    k = 4-6 append a factor (input, output, noise order), k = 7
    postfixes one backshift to a factor.  Nonterminals are
    ``expr0<side>`` (sum), ``expr1<side>`` (term) and ``expr2<side>``
    (factor).  Signals without a token get no trees; output factors
    carry one built-in backshift.
    """
    sum_nt, term_nt, factor_nt = (f"expr{level}{side}" for level in range(3))
    factors = {
        signal: f"{token} {DELAY_TOKEN}" if signal is SignalKind.OUTPUT else token
        for token, signal in tokens.items()
    }

    def auxiliary(k: int, source: str) -> ElementaryTree:
        return _elementary(
            f"beta{side}{k}", TreeKind.AUXILIARY, source, nonterminals, terminals
        )

    additive = {
        signal: auxiliary(
            k,
            f"{sum_nt}({term_nt}(par(c) op(×) {factor_nt}({factors[signal]})) "
            f"op(+) {sum_nt}★)",
        )
        for k, signal in enumerate(_SIGNAL_ORDER, start=1)
        if signal in factors
    }
    multiplicative = {
        signal: auxiliary(
            k, f"{term_nt}({term_nt}★ op(×) {factor_nt}({factors[signal]}))"
        )
        for k, signal in enumerate(_SIGNAL_ORDER, start=4)
        if signal in factors
    }
    delay = auxiliary(7, f"{factor_nt}({factor_nt}★ {DELAY_TOKEN})")
    some_additive = additive[SignalKind.INPUT].tree
    roles = SumRoles(
        additive={signal: tree.name for signal, tree in additive.items()},
        multiplicative={signal: tree.name for signal, tree in multiplicative.items()},
        delay_tree=delay.name,
        term_slot=_find_slot(some_additive, term_nt),
        additive_factor_slot=_find_slot(some_additive, factor_nt),
        mult_factor_slot=_find_slot(multiplicative[SignalKind.INPUT].tree, factor_nt),
        signal_tokens=dict(tokens),
        end_token=end_token,
    )
    return [*additive.values(), *multiplicative.values(), delay], roles


@lru_cache(maxsize=1)
def build_narmax_grammar() -> NarmaxCatalog:
    """Construct the single-output polynomial model grammar."""
    nts = frozenset({"expr0", "expr1", "expr2", "op", "par"})
    ts = frozenset(
        {
            INPUT_TOKEN,
            OUTPUT_TOKEN,
            NOISE_TOKEN,
            PLUS_TOKEN,
            COEFF_TOKEN,
            TIMES_TOKEN,
            DELAY_TOKEN,
        }
    )
    alpha1 = _elementary("alpha1", TreeKind.INITIAL, "expr0(ξ)", nts, ts)
    auxiliaries, roles = _sum_family(
        "",
        {
            INPUT_TOKEN: SignalKind.INPUT,
            OUTPUT_TOKEN: SignalKind.OUTPUT,
            NOISE_TOKEN: SignalKind.NOISE,
        },
        NOISE_TOKEN,
        nts,
        ts,
    )
    grammar = Grammar(nts, ts, "expr0", (alpha1,), tuple(auxiliaries))
    return NarmaxCatalog(grammar, roles)


class GrammarPreset(Enum):
    """Named auxiliary-tree subsets that carve out model subclasses."""

    NARMAX = "narmax"
    ARX = "arx"
    NARX = "narx"
    FIR = "fir"
    VOLTERRA = "volterra"


PRESET_AUXILIARIES: Mapping[GrammarPreset, frozenset[str]] = {
    GrammarPreset.NARMAX: frozenset(
        {"beta1", "beta2", "beta3", "beta4", "beta5", "beta6", "beta7"}
    ),
    GrammarPreset.ARX: frozenset({"beta1", "beta2", "beta7"}),
    GrammarPreset.NARX: frozenset({"beta1", "beta2", "beta4", "beta5", "beta7"}),
    GrammarPreset.FIR: frozenset({"beta1", "beta7"}),
    GrammarPreset.VOLTERRA: frozenset({"beta1", "beta4", "beta7"}),
}


def restrict(preset: GrammarPreset) -> Grammar:
    """Grammar with the preset's auxiliary subset; initials are unchanged."""
    catalog = build_narmax_grammar()
    keep = PRESET_AUXILIARIES[preset]
    full = catalog.grammar
    return Grammar(
        full.nonterminals,
        full.terminals,
        full.start,
        full.initials,
        tuple(aux for aux in full.auxiliaries if aux.name in keep),
    )


# ---------------------------------------------------------------------------
# Model -> derivation
# ---------------------------------------------------------------------------


def _node(
    name: str, *children: tuple[GornAddress, DerivationTree | None]
) -> DerivationTree:
    """Derivation node with one adjunction per present child, by address."""
    edges = [
        DerivationEdge(Operation.ADJUNCTION, address, child)
        for address, child in children
        if child is not None
    ]
    return DerivationTree(name, tuple(sorted(edges, key=lambda e: e.address)))


def _delay_chain(
    roles: SumRoles, signal: SignalKind, delay: int
) -> DerivationTree | None:
    """Delay trees beyond the built-in backshift, each adjoined at its parent's root."""
    node: DerivationTree | None = None
    for _ in range(delay - 1 if signal is SignalKind.OUTPUT else delay):
        node = _node(roles.delay_tree, (ROOT_ADDRESS, node))
    return node


_LEAD_RANK = {SignalKind.INPUT: 0, SignalKind.NOISE: 1, SignalKind.OUTPUT: 2}


def _factor_order(term: Monomial) -> list[FactorKey]:
    """A term's factor occurrences, one per unit of exponent, sorted by
    signal (input, noise, output) and then delay.

    The first occurrence is the term's leading factor: its lowest-delay
    input factor if any, else noise, else output.
    """
    if not term.factors:
        raise UnrepresentableModelError(
            "a constant term has no factor to hang the grammar's product on"
        )
    order: list[FactorKey] = []
    for key in sorted(term.factors, key=lambda k: (_LEAD_RANK[k[0]], k[1])):
        order += [key] * term.factors[key]
    return order


def _term_fragment(
    factors: Sequence[FactorKey], roles: SumRoles, rest: DerivationTree | None
) -> DerivationTree:
    """Derivation fragment for one term, factors in the given order, with
    the additive chain ``rest`` adjoined at its root.

    The first factor comes with the term's additive tree; every later
    one is a multiplicative tree, the second adjoined at the term slot
    and each next at its predecessor's root.  Every factor carries its
    own delay chain.
    """
    lead, lead_delay = factors[0]
    if lead not in roles.additive:
        raise UnrepresentableModelError(
            f"no additive tree introduces {lead.value} factors here"
        )
    mult_chain: DerivationTree | None = None
    for signal, delay in reversed(factors[1:]):
        if signal not in roles.multiplicative:
            raise UnrepresentableModelError(
                f"no multiplicative tree introduces {signal.value} factors here"
            )
        mult_chain = _node(
            roles.multiplicative[signal],
            (roles.mult_factor_slot, _delay_chain(roles, signal, delay)),
            (ROOT_ADDRESS, mult_chain),
        )
    return _node(
        roles.additive[lead],
        (ROOT_ADDRESS, rest),
        (roles.additive_factor_slot, _delay_chain(roles, lead, lead_delay)),
        (roles.term_slot, mult_chain),
    )


def _sum_chain(
    terms: Iterable[Sequence[FactorKey]], roles: SumRoles
) -> DerivationTree | None:
    """Additive chain for a list of terms' factor lists; the first term sits deepest.

    Every link adjoins at its parent's root and therefore prepends its
    term, so the saturated yield lists terms in the given order and the
    left-to-right coefficient numbering survives a round trip.
    """
    chain: DerivationTree | None = None
    for factors in terms:
        chain = _term_fragment(factors, roles, chain)
    return chain


def _narmax_derivation(terms: Iterable[Sequence[FactorKey]]) -> DerivationTree:
    """The initial tree with the terms' sum chain adjoined at its root."""
    chain = _sum_chain(terms, build_narmax_grammar().roles)
    return _node("alpha1", (ROOT_ADDRESS, chain))


def model_to_derivation(model: NarmaxModel) -> DerivationTree:
    """Derivation tree whose derived tree parses back to the same model.

    The model is canonicalized first; each term becomes one additive
    tree with delay and multiplicative chains below it.  Constant terms
    are not representable: every term of the tree language carries at
    least one signal factor.
    """
    return _narmax_derivation(map(_factor_order, canonicalize(model).terms))


# ---------------------------------------------------------------------------
# Derived tree -> model
# ---------------------------------------------------------------------------


def _parse_token_sum(
    tokens: tuple[str, ...],
    roles: SumRoles,
    foreign: Mapping[str, str],
    offset: int = 0,
) -> list[dict[tuple[SignalKind, int], int]]:
    """Parse ``(term '+')* end`` over the role's signal tokens.

    ``foreign`` maps signal tokens of the *other* part of a split yield
    to a description, so misplaced signals raise the dedicated error
    rather than a generic syntax failure.  ``offset`` shifts reported
    token indices for split yields.
    """

    def fail(message: str, index: int) -> YieldNotInLanguageError:
        return YieldNotInLanguageError(message, offset + index)

    maps: list[dict[tuple[SignalKind, int], int]] = []
    i = 0
    n = len(tokens)
    while True:
        if i >= n:
            raise fail(f"expected a term or {roles.end_token!r}", i)
        token = tokens[i]
        if token == roles.end_token:
            if i != n - 1:
                raise fail(f"tokens after the closing {roles.end_token!r}", i + 1)
            return maps
        if token in foreign:
            raise SignalInWrongPartError(
                f"{token!r} belongs to the {foreign[token]} part", offset + i
            )
        if token != COEFF_TOKEN:
            raise fail(f"expected {COEFF_TOKEN!r}, found {token!r}", i)
        i += 1
        factors: dict[tuple[SignalKind, int], int] = {}
        while i < n and tokens[i] == TIMES_TOKEN:
            i += 1
            if i >= n:
                raise fail("dangling product operator", i)
            sig_token = tokens[i]
            if sig_token in foreign:
                raise SignalInWrongPartError(
                    f"{sig_token!r} belongs to the {foreign[sig_token]} part",
                    offset + i,
                )
            signal = roles.signal_tokens.get(sig_token)
            if signal is None:
                raise fail(f"expected a signal token, found {sig_token!r}", i)
            i += 1
            delay = 0
            while i < n and tokens[i] == DELAY_TOKEN:
                delay += 1
                i += 1
            if signal is SignalKind.OUTPUT and delay == 0:
                raise fail(f"{sig_token!r} factor without a backshift", i - 1)
            key = (signal, delay)
            factors[key] = factors.get(key, 0) + 1
        if not factors:
            raise fail("term without factors", i)
        maps.append(factors)
        if i >= n or tokens[i] != PLUS_TOKEN:
            raise fail("expected '+'", i)
        i += 1


def _terms_from_maps(
    maps: list[dict[tuple[SignalKind, int], int]]
) -> tuple[Monomial, ...]:
    return tuple(Monomial(i + 1, factors) for i, factors in enumerate(maps))


def _saturated_yield(tree: SyntacticTree) -> tuple[str, ...]:
    """The yield of ``tree`` from one walk over its leaves.

    A nonterminal leaf anywhere raises :class:`NotSaturatedError`, so it
    is reported before any error in the yield.
    """
    labels = tree.labels
    names = []
    for nid in tree.leaves():
        label = labels[nid]
        if label.kind is LabelKind.TERMINAL:
            names.append(label.name)
        elif label.kind is LabelKind.NONTERMINAL:
            raise NotSaturatedError("the tree still has nonterminal leaves")
    return tuple(names)


def derived_to_model(tree: SyntacticTree, mode: Mode = Mode.EXTENDED) -> NarmaxModel:
    """Parse a saturated derived tree's yield into a canonical model.

    Coefficient slots are numbered left to right before
    canonicalization renumbers the sorted result.
    """
    catalog = build_narmax_grammar()
    maps = _parse_token_sum(_saturated_yield(tree), catalog.roles, foreign={})
    return canonicalize(NarmaxModel(_terms_from_maps(maps), mode))


def roundtrip_check(model: NarmaxModel) -> bool:
    """True iff the model survives derivation and re-parsing structurally.

    Coefficient values are attachments, not grammar content, so the
    comparison is on canonical factor structure.
    """
    derivation = model_to_derivation(model)
    derived = derive(derivation, build_narmax_grammar().grammar)
    back = derived_to_model(derived, mode=model.mode)
    return canonicalize(model).structure() == back.structure()


# ---------------------------------------------------------------------------
# Two-equation extension
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_nbj_grammar() -> NbjCatalog:
    """Construct the two-equation (process + noise) grammar.

    The initial tree yields ``0 , ξ``: an empty process sum and a bare
    noise equation, comma-separated.  Each side gets its own sum family
    (``betaf*`` and ``betag*``): the process side ranges over inputs and
    the delayed simulated output, so it has no ``betaf3``/``betaf6``; the
    noise side ranges over inputs, the delayed disturbance and noise.
    """
    nts = frozenset(
        {
            "exprbj",
            "expr0f",
            "expr1f",
            "expr2f",
            "expr0g",
            "expr1g",
            "expr2g",
            "op",
            "par",
        }
    )
    ts = frozenset(
        {
            INPUT_TOKEN,
            PROCESS_OUTPUT_TOKEN,
            NOISE_FEEDBACK_TOKEN,
            NOISE_TOKEN,
            EMPTY_SUM_TOKEN,
            PLUS_TOKEN,
            COEFF_TOKEN,
            TIMES_TOKEN,
            DELAY_TOKEN,
            COMMA_TOKEN,
        }
    )
    alpha1 = _elementary(
        "alpha1", TreeKind.INITIAL, 'exprbj(expr0f(0) "," expr0g(ξ))', nts, ts
    )
    process_trees, process_roles = _sum_family(
        "f",
        {INPUT_TOKEN: SignalKind.INPUT, PROCESS_OUTPUT_TOKEN: SignalKind.OUTPUT},
        EMPTY_SUM_TOKEN,
        nts,
        ts,
    )
    noise_trees, noise_roles = _sum_family(
        "g",
        {
            INPUT_TOKEN: SignalKind.INPUT,
            NOISE_FEEDBACK_TOKEN: SignalKind.OUTPUT,
            NOISE_TOKEN: SignalKind.NOISE,
        },
        NOISE_TOKEN,
        nts,
        ts,
    )
    grammar = Grammar(
        nts, ts, "exprbj", (alpha1,), (*process_trees, *noise_trees)
    )
    return NbjCatalog(
        grammar=grammar,
        process_roles=process_roles,
        noise_roles=noise_roles,
        process_slot=_find_slot(alpha1.tree, "expr0f"),
        noise_slot=_find_slot(alpha1.tree, "expr0g"),
    )


def nbj_derived_to_model(tree: SyntacticTree, mode: Mode = Mode.EXTENDED) -> NbjModel:
    """Split a saturated yield at its comma and parse both equations."""
    catalog = build_nbj_grammar()
    tokens = _saturated_yield(tree)
    splits = [i for i, token in enumerate(tokens) if token == COMMA_TOKEN]
    if len(splits) != 1:
        raise YieldNotInLanguageError(
            f"expected exactly one {COMMA_TOKEN!r}, found {len(splits)}", 0
        )
    cut = splits[0]
    process_tokens, noise_tokens = tokens[:cut], tokens[cut + 1 :]
    process_maps = _parse_token_sum(
        process_tokens,
        catalog.process_roles,
        foreign={
            NOISE_TOKEN: "noise-equation",
            NOISE_FEEDBACK_TOKEN: "noise-equation",
        },
    )
    noise_maps = _parse_token_sum(
        noise_tokens,
        catalog.noise_roles,
        foreign={PROCESS_OUTPUT_TOKEN: "process-equation"},
        offset=cut + 1,
    )
    process = canonicalize(
        NarmaxModel(_terms_from_maps(process_maps), Mode.EXTENDED)
    ).terms
    noise = canonicalize(NarmaxModel(_terms_from_maps(noise_maps), mode)).terms
    return NbjModel(process, noise, mode)


def nbj_model_to_derivation(model: NbjModel) -> DerivationTree:
    """Derivation over the two-equation grammar, one sum chain per side."""
    catalog = build_nbj_grammar()
    process = canonicalize(NarmaxModel(model.process_terms, Mode.EXTENDED)).terms
    noise = canonicalize(NarmaxModel(model.noise_terms, model.mode)).terms
    return _node(
        "alpha1",
        (
            catalog.process_slot,
            _sum_chain(map(_factor_order, process), catalog.process_roles),
        ),
        (
            catalog.noise_slot,
            _sum_chain(map(_factor_order, noise), catalog.noise_roles),
        ),
    )


def nbj_roundtrip_check(model: NbjModel) -> bool:
    derivation = nbj_model_to_derivation(model)
    derived = derive(derivation, build_nbj_grammar().grammar)
    back = nbj_derived_to_model(derived, mode=model.mode)
    def structure(terms: tuple[Monomial, ...]) -> tuple:
        return canonicalize(NarmaxModel(terms, Mode.EXTENDED)).structure()

    return structure(model.process_terms) == structure(back.process_terms) and (
        structure(model.noise_terms) == structure(back.noise_terms)
    )
