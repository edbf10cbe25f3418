"""The concrete grammars whose tree languages are the polynomial model classes.

A catalog is built from an equation table with one row per
comma-separated part of the yield: the part's side suffix, its name, its
signal tokens and its end token.  The single-output model grammar has
one row; the two-equation nonlinear Box-Jenkins grammar has a process
row and a noise row.  The alphabets come from the table, and so does
the one initial tree, which yields each part's end token alone
(comma-separated).  Each row brings one sum family of auxiliary trees:
*additive* trees (root and foot ``expr0``) prepend one
coefficient-times-factor term to the part's sum, *multiplicative* trees
(root and foot ``expr1``) append one factor to an existing term, and the
*delay* tree (root and foot ``expr2``) postfixes one backshift token to
a factor.  Output factors embed one built-in backshift, so feedback is
causal by construction.

Both directions of the model/derivation correspondence are written
once, over the parts: :func:`_to_derivation` hangs one sum chain per
part under the initial tree, :func:`_to_parts` splits the yield of a
derived tree's leaf labels at its comma and parses each part, and
:func:`_roundtrip` composes the two.  The public NARMAX and NBJ
functions are entry points over the two catalogs.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from ._record import record
from .models import (
    _CLASSES,
    FactorKey,
    Mode,
    Monomial,
    NarmaxModel,
    NbjModel,
    SignalKind,
    _canonical,
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
    NodeLabel,
    Operation,
    SyntacticTree,
    TreeKind,
    derived_leaves,
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


@record(eq=False)
class SumRoles:
    """Role bookkeeping for one part of the yield, a sum-shaped expression.

    ``slot`` is the address in the initial tree where the part's sum
    chain adjoins.  ``term_slot`` is the address of the term node inside
    an additive tree (where multiplicative trees adjoin), the two factor
    slots are the addresses of the factor node inside additive and
    multiplicative trees (where delay trees adjoin).  Output factors
    carry one built-in backshift.  ``foreign`` maps each signal token of
    the other parts that this part lacks to its part's name.  An
    additive tree's root comes before its term slot, and that before its
    factor slot, in address order (see :func:`_term_fragment`).
    """

    additive: Mapping[SignalKind, str]
    multiplicative: Mapping[SignalKind, str]
    delay_tree: str
    term_slot: GornAddress
    additive_factor_slot: GornAddress
    mult_factor_slot: GornAddress
    signal_tokens: Mapping[str, SignalKind]
    end_token: str
    slot: GornAddress
    foreign: Mapping[str, str]


@record(eq=False)
class Catalog:
    """A validated grammar and the role map of each of its yield's one or
    two parts, in yield order."""

    grammar: Grammar
    equations: tuple[SumRoles, ...]


def _elementary(
    name: str,
    kind: TreeKind,
    source: str,
    nonterminals: frozenset[str],
    terminals: frozenset[str],
) -> ElementaryTree:
    tree = parse_tree(source, nonterminals=nonterminals, terminals=terminals)
    return ElementaryTree(name, kind, tree)


def _find_slot(entry: ElementaryTree, name: str) -> GornAddress:
    table = entry._table
    hits = [
        i
        for i, label in enumerate(table.labels)
        if table.children[i] and label.kind is LabelKind.NONTERMINAL and label.name == name
    ]
    if len(hits) != 1:
        raise ValueError(f"expected exactly one internal {name!r} node")
    return table.address(hits[0])


def _sum_family(
    side: str,
    tokens: Mapping[str, SignalKind],
    end_token: str,
    slot: GornAddress,
    foreign: Mapping[str, str],
    nonterminals: frozenset[str],
    terminals: frozenset[str],
) -> tuple[list[ElementaryTree], SumRoles]:
    """Auxiliary trees and role map of one part's sum-shaped expression.

    Trees are named ``beta<side><k>``: k = 1-3 prepend a term and
    k = 4-6 append a factor (input, output, noise order), k = 7
    postfixes one backshift to a factor.  Nonterminals are
    ``expr0<side>`` (sum), ``expr1<side>`` (term) and ``expr2<side>``
    (factor).  Signals without a token get no trees; a factor carries
    the backshifts it has with no delay tree (one for output factors,
    see :func:`_factor_delay`).
    """
    sum_nt, term_nt, factor_nt = (f"expr{level}{side}" for level in range(3))
    factors = {
        signal: " ".join([token] + [DELAY_TOKEN] * _factor_delay(signal, 0))
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
        for k, signal in enumerate(SignalKind, start=1)
        if signal in factors
    }
    multiplicative = {
        signal: auxiliary(
            k, f"{term_nt}({term_nt}★ op(×) {factor_nt}({factors[signal]}))"
        )
        for k, signal in enumerate(SignalKind, start=4)
        if signal in factors
    }
    delay = auxiliary(7, f"{factor_nt}({factor_nt}★ {DELAY_TOKEN})")
    some_additive = additive[SignalKind.INPUT]
    roles = SumRoles(
        additive={signal: tree.name for signal, tree in additive.items()},
        multiplicative={signal: tree.name for signal, tree in multiplicative.items()},
        delay_tree=delay.name,
        term_slot=_find_slot(some_additive, term_nt),
        additive_factor_slot=_find_slot(some_additive, factor_nt),
        mult_factor_slot=_find_slot(multiplicative[SignalKind.INPUT], factor_nt),
        signal_tokens=dict(tokens),
        end_token=end_token,
        slot=slot,
        foreign=foreign,
    )
    return [*additive.values(), *multiplicative.values(), delay], roles


# An equation table has one row per comma-separated part of the yield:
# (side suffix, part name, signal tokens in input, output, noise order
# with None for a signal the part lacks, end token).
_EquationRow = tuple[str, str, tuple[str | None, str | None, str | None], str]

_NARMAX_TABLE: tuple[_EquationRow, ...] = (
    ("", "model", (INPUT_TOKEN, OUTPUT_TOKEN, NOISE_TOKEN), NOISE_TOKEN),
)
# The process side ranges over inputs and the delayed simulated output,
# the noise side over inputs, the delayed disturbance and noise.
_NBJ_TABLE: tuple[_EquationRow, ...] = (
    ("f", "process-equation", (INPUT_TOKEN, PROCESS_OUTPUT_TOKEN, None), EMPTY_SUM_TOKEN),
    ("g", "noise-equation", (INPUT_TOKEN, NOISE_FEEDBACK_TOKEN, NOISE_TOKEN), NOISE_TOKEN),
)


def _catalog(start: str, table: tuple[_EquationRow, ...]) -> Catalog:
    """The grammar of a table with one or two rows, and its role maps.

    The initial tree is the one part's sum over its end token, or the
    start symbol over both parts' sums, comma-separated.
    """
    signals = [
        {token: signal for token, signal in zip(tokens, SignalKind) if token}
        for _, _, tokens, _ in table
    ]
    nts = frozenset(
        {start, "op", "par"} | {f"expr{level}{side}" for side, *_ in table for level in range(3)}
    )
    ts = frozenset(
        {PLUS_TOKEN, COEFF_TOKEN, TIMES_TOKEN, DELAY_TOKEN}
        | {token for tokens in signals for token in tokens}
        | {end for *_, end in table}
        | ({COMMA_TOKEN} if len(table) > 1 else set())
    )
    sums = f" {COMMA_TOKEN} ".join(f"expr0{side}({end})" for side, _, _, end in table)
    alpha1 = _elementary(
        "alpha1", TreeKind.INITIAL, sums if len(table) == 1 else f"{start}({sums})", nts, ts
    )
    auxiliaries: list[ElementaryTree] = []
    equations = []
    for tokens, (side, _, _, end) in zip(signals, table):
        foreign = {
            token: name
            for others, (_, name, _, _) in zip(signals, table)
            for token in others
            if token not in tokens
        }
        slot = _find_slot(alpha1, f"expr0{side}")
        trees, roles = _sum_family(side, tokens, end, slot, foreign, nts, ts)
        auxiliaries += trees
        equations.append(roles)
    return Catalog(Grammar(nts, ts, start, (alpha1,), auxiliaries), tuple(equations))


@lru_cache(maxsize=1)
def build_narmax_grammar() -> Catalog:
    """Construct the single-output polynomial model grammar."""
    return _catalog("expr0", _NARMAX_TABLE)


@lru_cache(maxsize=1)
def build_nbj_grammar() -> Catalog:
    """Construct the two-equation (process + noise) grammar.

    The initial tree yields ``0 , ξ``: an empty process sum and a bare
    noise equation.  The process side has no noise trees
    (``betaf3``/``betaf6``).
    """
    return _catalog("exprbj", _NBJ_TABLE)


class GrammarPreset(Enum):
    """Named auxiliary-tree subsets, each carving out the class ``_PRESET_CLASS`` names."""

    NARMAX = "narmax"
    ARX = "arx"
    NARX = "narx"
    FIR = "fir"
    VOLTERRA = "volterra"

    # members are singletons: identity hashing keeps equality and skips
    # Enum's Python-level hash of the member name
    __hash__ = object.__hash__


_PRESET_CLASS: Mapping[GrammarPreset, str] = {
    GrammarPreset.NARMAX: "NARMAX",
    GrammarPreset.ARX: "ARX",
    GrammarPreset.NARX: "NARX",
    GrammarPreset.FIR: "FIR",
    GrammarPreset.VOLTERRA: "Volterra",
}


@lru_cache(maxsize=len(GrammarPreset))
def restrict(preset: GrammarPreset) -> Grammar:
    """The model grammar cut to the preset's class, sharing its trees: the
    delay tree, the additive trees of the class's signals, and their
    multiplicative trees when the class allows products.  Built once per
    preset: a grammar is immutable, and it validates itself on first use."""
    catalog = build_narmax_grammar()
    (roles,) = catalog.equations
    signals, products = _CLASSES[_PRESET_CLASS[preset]]
    keep = {roles.delay_tree, *(roles.additive[signal] for signal in signals)}
    if products:
        keep.update(roles.multiplicative[signal] for signal in signals)
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

# The most adjunctions a model's derivation may have.  Each adjunction is
# one derivation node and a few derived-tree nodes, so this bounds the
# memory of every command that builds a derivation: at the limit,
# ``narmaxtag roundtrip`` peaks at 276 MiB resident on CPython 3.11
# (x86-64 Linux; 3 runs per shape), its heaviest case (see README).
MAX_ADJUNCTIONS = 500_000


def _factor_cost(signal: SignalKind, delay: int) -> int:
    """Adjunctions one factor occurrence costs: its additive or
    multiplicative tree, and one delay tree per backshift beyond the one
    that output factors carry built in."""
    return delay if signal is SignalKind.OUTPUT else delay + 1


def _factor_delay(signal: SignalKind, backshifts: int) -> int:
    """The delay of a factor occurrence with ``backshifts`` delay trees
    adjoined to it; the inverse of :func:`_factor_cost`, which counts
    ``backshifts + 1`` adjunctions for that delay."""
    return backshifts + 1 - _factor_cost(signal, 0)


def adjunctions_needed(model: NarmaxModel) -> int:
    """The number of adjunctions in the derivation of ``model``, worked
    out from its terms without building anything.

    Each term's factor occurrences cost one additive tree for the
    leading one, one multiplicative tree for each other, and their delay
    trees.  Terms are counted as given: for a canonical model this is the
    count :func:`model_to_derivation` builds, and a model whose terms
    share a factor map counts each of them, which is more.
    """
    return sum(
        exponent * _factor_cost(signal, delay)
        for term in model.terms
        for (signal, delay), exponent in term.factors.items()
    )


def _count_text(count: int) -> str:
    """``count`` in decimal, or its size in bits where the decimal text
    would pass the interpreter's limit on integer string conversion."""
    try:
        return str(count)
    except ValueError:
        return f"a {count.bit_length()}-bit number of"


def _node(
    name: str, *children: tuple[GornAddress, DerivationTree | None]
) -> DerivationTree:
    """Derivation node with one adjunction per present child.

    Callers pass the children in increasing order of their addresses,
    which are distinct slots of the catalog's tree ``name``, so the node
    is built through the trusted :meth:`DerivationTree._build`.
    """
    return DerivationTree._build(
        name,
        tuple(
            DerivationEdge._build(Operation.ADJUNCTION, address, child)
            for address, child in children
            if child is not None
        ),
    )


def _delay_chain(
    roles: SumRoles, signal: SignalKind, delay: int
) -> DerivationTree | None:
    """Delay trees beyond the built-in backshift, each adjoined at its parent's root."""
    node: DerivationTree | None = None
    for _ in range(_factor_cost(signal, delay) - 1):
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
            (ROOT_ADDRESS, mult_chain),
            (roles.mult_factor_slot, _delay_chain(roles, signal, delay)),
        )
    return _node(
        roles.additive[lead],
        (ROOT_ADDRESS, rest),
        (roles.term_slot, mult_chain),
        (roles.additive_factor_slot, _delay_chain(roles, lead, lead_delay)),
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


def _derivation(
    catalog: Catalog, parts: Iterable[Iterable[Sequence[FactorKey]]]
) -> DerivationTree:
    """The initial tree with each part's sum chain, built from its terms'
    factor lists, adjoined at the part's slot; the parts' slots are in
    yield order, which is address order."""
    return _node(
        catalog.grammar.initials[0].name,
        *[(roles.slot, _sum_chain(terms, roles)) for roles, terms in zip(catalog.equations, parts)],
    )


def _to_derivation(catalog: Catalog, parts: Sequence[NarmaxModel]) -> DerivationTree:
    """Derivation tree whose derived tree parses back to the same
    canonical models, one per part.

    Each term becomes one additive tree with delay and multiplicative
    chains below it.  Constant terms are not representable: every term
    of the tree language carries at least one signal factor.  A model
    that needs more than :data:`MAX_ADJUNCTIONS` adjunctions is refused
    before anything is built.
    """
    needed = sum(map(adjunctions_needed, parts))
    if needed > MAX_ADJUNCTIONS:
        raise UnrepresentableModelError(
            f"the model needs {_count_text(needed)} adjunctions, "
            f"more than the limit of {MAX_ADJUNCTIONS}"
        )
    return _derivation(catalog, [map(_factor_order, part.terms) for part in parts])


# ---------------------------------------------------------------------------
# Derived tree -> model
# ---------------------------------------------------------------------------


def _parse_token_sum(
    tokens: tuple[str, ...], roles: SumRoles, offset: int
) -> list[dict[FactorKey, int]]:
    """Parse ``(term '+')* end`` over the part's signal tokens into the
    terms' factor maps, left to right.

    A signal token of another part (``roles.foreign``) raises the
    dedicated error rather than a generic syntax failure.  ``offset`` is
    the index of the part's first token in the whole yield, so reported
    indices are yield indices.
    """
    foreign = roles.foreign

    def fail(message: str, index: int) -> YieldNotInLanguageError:
        return YieldNotInLanguageError(message, offset + index)

    terms: list[dict[FactorKey, int]] = []
    i = 0
    n = len(tokens)
    while True:
        if i >= n:
            raise fail(f"expected a term or {roles.end_token!r}", i)
        token = tokens[i]
        if token == roles.end_token:
            if i != n - 1:
                raise fail(f"tokens after the closing {roles.end_token!r}", i + 1)
            return terms
        if token in foreign:
            raise SignalInWrongPartError(
                f"{token!r} belongs to the {foreign[token]} part", offset + i
            )
        if token != COEFF_TOKEN:
            raise fail(f"expected {COEFF_TOKEN!r}, found {token!r}", i)
        i += 1
        factors: dict[FactorKey, int] = {}
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
        terms.append(factors)
        if i >= n or tokens[i] != PLUS_TOKEN:
            raise fail("expected '+'", i)
        i += 1


def _saturated_yield(leaves: Iterable[NodeLabel]) -> tuple[str, ...]:
    """The yield of a derived tree from its leaf labels, left to right.

    A nonterminal leaf anywhere raises :class:`NotSaturatedError`, so it
    is reported before any error in the yield.
    """
    names = []
    for label in leaves:
        if label.kind is LabelKind.TERMINAL:
            names.append(label.name)
        elif label.kind is LabelKind.NONTERMINAL:
            raise NotSaturatedError("the tree still has nonterminal leaves")
    return tuple(names)


def _to_parts(catalog: Catalog, leaves: Iterable[NodeLabel], mode: Mode) -> list[NarmaxModel]:
    """Parse the yield of a saturated derived tree, given its leaf labels
    left to right, into one canonical model per part; a two-part yield is
    split at its one comma.

    Each part's factor maps go to :func:`~narmaxtag.models.canonicalize`'s
    builder, which checks ``mode`` before the next part is read.
    """
    tokens = _saturated_yield(leaves)
    bounds = [-1, len(tokens)]  # each part lies strictly between two bounds
    if len(catalog.equations) > 1:
        commas = [i for i, token in enumerate(tokens) if token == COMMA_TOKEN]
        if len(commas) != 1:
            raise YieldNotInLanguageError(
                f"expected exactly one {COMMA_TOKEN!r}, found {len(commas)}", 0
            )
        bounds[1:1] = commas
    parts = []
    for roles, start, end in zip(catalog.equations, bounds, bounds[1:]):
        terms = _parse_token_sum(tokens[start + 1 : end], roles, start + 1)
        parts.append(_canonical([(factors, None) for factors in terms], mode))
    return parts


def _roundtrip(catalog: Catalog, parts: Sequence[NarmaxModel], mode: Mode) -> DerivationTree | None:
    """The derivation of the canonical parts if each survives re-parsing, else None.

    Coefficient values are attachments, not grammar content, so the
    comparison is on canonical factor structure.
    """
    derivation = _to_derivation(catalog, parts)
    leaves = derived_leaves(derivation, catalog.grammar)
    back = [part.structure() for part in _to_parts(catalog, leaves, mode)]
    return derivation if [part.structure() for part in parts] == back else None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def model_to_derivation(model: NarmaxModel) -> DerivationTree:
    """Derivation tree whose derived tree parses back to the same model."""
    return _to_derivation(build_narmax_grammar(), (canonicalize(model),))


def derived_to_model(tree: SyntacticTree, mode: Mode = Mode.EXTENDED) -> NarmaxModel:
    """Parse a saturated derived tree's yield into a canonical model."""
    return _to_parts(build_narmax_grammar(), [tree.labels[nid] for nid in tree.leaves()], mode)[0]


def roundtrip_check(model: NarmaxModel) -> bool:
    """True iff the model survives derivation and re-parsing structurally."""
    return _roundtrip(build_narmax_grammar(), (canonicalize(model),), model.mode) is not None


def _nbj_parts(model: NbjModel) -> list[NarmaxModel]:
    # canonical; the process side has no noise factors, so mode is moot
    sides = (model.process_terms, model.noise_terms)
    return [canonicalize(NarmaxModel(terms, model.mode)) for terms in sides]


def nbj_model_to_derivation(model: NbjModel) -> DerivationTree:
    """Derivation over the two-equation grammar, one sum chain per side."""
    return _to_derivation(build_nbj_grammar(), _nbj_parts(model))


def nbj_derived_to_model(tree: SyntacticTree, mode: Mode = Mode.EXTENDED) -> NbjModel:
    """Split a saturated yield at its comma and parse both equations."""
    leaves = [tree.labels[nid] for nid in tree.leaves()]
    process, noise = _to_parts(build_nbj_grammar(), leaves, mode)
    return NbjModel(process.terms, noise.terms, mode)


def nbj_roundtrip_check(model: NbjModel) -> bool:
    """True iff both equations survive derivation and re-parsing structurally."""
    return _roundtrip(build_nbj_grammar(), _nbj_parts(model), model.mode) is not None
