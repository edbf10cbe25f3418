"""Independent reference constructions used by the property and acceptance
tests.

Everything here is deliberately written against the raw set-level
definitions of the operations (vertex/edge set expressions) or against
plain counting arguments, never by calling the code paths under test.
"""

from __future__ import annotations

import math
import random
import re
from typing import Iterator, Sequence

from narmaxtag import narmax
from narmaxtag.generate import GenBounds, enumerate_derivations
from narmaxtag.models import (
    CausalityError,
    Mode,
    ModelError,
    Monomial,
    NarmaxModel,
    SignalKind,
    SimulationDivergedError,
    canonicalize,
)
from narmaxtag.narmax import GrammarPreset
from narmaxtag.trees import (
    DanglingReferenceError,
    DerivationEdge,
    DerivationTree,
    ElementaryTree,
    Grammar,
    InapplicableOperationError,
    InvalidAddressError,
    LabelKind,
    MalformedGrammarError,
    NodeLabel,
    Operation,
    SyntacticTree,
    TreeKind,
    UndefinedAdjunctionError,
    UndefinedSubstitutionError,
    adjoin,
    derived_leaves,
    format_address,
    node_at,
    substitute,
    validate_grammar,
)

# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

# The tree token pattern as first compiled, with a group per token kind:
# "(" or ")" | a quoted or bare label with an optional marker | any other
# non-space character.  The reader's own pattern must split every text
# into the same token spans.
REFERENCE_TREE_TOKEN_RE = re.compile(
    r'([()])|(?:"((?:[^"\\]|\\.)*)"|([^\s()"↓★]+))([↓★])?|(\S)', re.DOTALL
)

# one token of well-formed derivation text: an edge head, a node name
# with its "[", a leaf name, or the "," or "]" after a child
_DERIVATION_TOKEN_RE = re.compile(
    r"\s*(?:(sub|adj)\s*@\s*(ε|\d+(?:\.\d+)*)\s*->|([\w.\-]+)\s*\[|([\w.\-]+)|([,\]]))\s*"
)


def reference_parse_derivation(text: str) -> DerivationTree:
    """Well-formed derivation text read token by token into the checked
    constructors, :class:`DerivationTree` and :class:`DerivationEdge`."""
    done: list[DerivationTree] = []
    stack: list[tuple[str, list[DerivationEdge], list[tuple]]] = []  # name, edges, heads
    pos = 0
    while pos < len(text):
        found = _DERIVATION_TOKEN_RE.match(text, pos)
        assert found and found.end() > pos, f"cannot read {text[pos:pos + 20]!r}"
        pos = found.end()
        op, address, opened, leaf, punct = found.groups()
        if op:
            steps = () if address == "ε" else tuple(int(i) for i in address.split("."))
            stack[-1][2].append((Operation(op), steps))
            continue
        if opened:
            stack.append((opened, [], []))
            continue
        if punct == ",":
            continue
        if leaf:
            node = DerivationTree(leaf)
        else:
            name, edges, _ = stack.pop()
            node = DerivationTree(name, tuple(edges))
        if stack:
            operation, steps = stack[-1][2][len(stack[-1][1])]
            stack[-1][1].append(DerivationEdge(operation, steps, node))
        else:
            done.append(node)
    (derivation,) = done
    return derivation


# ---------------------------------------------------------------------------
# Structural views of trees, read off ``labels`` and ``children``
# ---------------------------------------------------------------------------


def label_key(label: NodeLabel) -> tuple:
    return (label.kind.value, label.name, label.substitution_marker, label.foot_marker)


def edge_set(tree: SyntacticTree) -> frozenset[tuple[int, int]]:
    return frozenset((parent, kid) for parent, kids in tree.children.items() for kid in kids)


def substitution_sites(tree: SyntacticTree) -> list[int]:
    """Marked leaves, left to right."""
    return [
        nid for nid in tree.pre_order()
        if not tree.children[nid] and tree.labels[nid].substitution_marker
    ]


def structural_key(tree: SyntacticTree, start: int | None = None) -> tuple:
    """Nested (label key, child keys) of the subtree at ``start``, built
    children first, so any depth works."""
    top = tree.root if start is None else start
    keys: dict[int, tuple] = {}
    for nid in reversed(list(tree.pre_order(top))):
        keys[nid] = (label_key(tree.labels[nid]), tuple(keys[kid] for kid in tree.children[nid]))
    return keys[top]


def structurally_equal(first: SyntacticTree, second: SyntacticTree) -> bool:
    """Same shape and labels; compares flat pre-order (label, arity) lists."""

    def shape(tree: SyntacticTree) -> list[tuple]:
        return [
            (label_key(tree.labels[nid]), len(tree.children[nid]))
            for nid in tree.pre_order()
        ]

    return shape(first) == shape(second)


def node_names(derivation: DerivationTree) -> list[str]:
    """Tree names of a derivation's nodes in pre-order."""
    names, stack = [], [derivation]
    while stack:
        node = stack.pop()
        names.append(node.tree_name)
        stack.extend(edge.child for edge in reversed(node.edges))
    return names


def address_of(tree: SyntacticTree, nid: int) -> tuple[int, ...]:
    """Gorn address of ``nid``, by a search down from the root."""
    stack = [(tree.root, ())]
    while stack:
        node, address = stack.pop()
        if node == nid:
            return address
        stack.extend((kid, address + (step,)) for step, kid in enumerate(tree.children[node], 1))
    raise InvalidAddressError(f"node {nid} is not part of the tree")


# ---------------------------------------------------------------------------
# Independent renumbering and the vertex/edge set expressions
# ---------------------------------------------------------------------------


def preorder_renumber(tree: SyntacticTree, start: int):
    """Pre-order consecutive renumbering, reimplemented for the oracle.

    Returns (vertex set, edge set, root id, label map) of the copy,
    matching the instantiation convention the operations document.
    """
    order = []

    def walk(nid):
        order.append(nid)
        for kid in tree.children[nid]:
            walk(kid)

    walk(tree.root)
    mapping = {nid: start + i for i, nid in enumerate(order)}
    vertices = set(mapping.values())
    edges = {
        (mapping[parent], mapping[kid])
        for parent in order
        for kid in tree.children[parent]
    }
    labels = {mapping[nid]: tree.labels[nid] for nid in order}
    return vertices, edges, mapping[tree.root], labels


def expected_substitution(gamma: SyntacticTree, site: int, inner: SyntacticTree):
    """V''/E'' for substitution, evaluated straight from the set equations."""
    inner_v, inner_e, inner_root, _ = preorder_renumber(inner, max(gamma.labels) + 1)
    host_v = set(gamma.labels)
    host_e = set(edge_set(gamma))
    vertices = (host_v | inner_v) - {site}
    edges = (
        {(a, b) for (a, b) in host_e if b != site}
        | inner_e
        | {(a, inner_root) for (a, b) in host_e if b == site}
    )
    root = gamma.root if site != gamma.root else inner_root
    return vertices, edges, root


def expected_adjunction(gamma: SyntacticTree, at: int, aux: SyntacticTree):
    """V''/E'' for adjunction, evaluated straight from the set equations."""
    foot = next(nid for nid in aux.labels if aux.labels[nid].foot_marker)
    aux_v, aux_e, aux_root, aux_labels = preorder_renumber(aux, max(gamma.labels) + 1)
    inst_foot = next(nid for nid in aux_labels if aux_labels[nid].foot_marker)
    host_v = set(gamma.labels)
    host_e = set(edge_set(gamma))
    vertices = (host_v | aux_v) - {at}
    edges = (
        {(a, b) for (a, b) in host_e if a != at and b != at}
        | aux_e
        | {(a, aux_root) for (a, b) in host_e if b == at}
        | {(inst_foot, b) for (a, b) in host_e if a == at}
    )
    root = gamma.root if at != gamma.root else aux_root
    return vertices, edges, root


# ---------------------------------------------------------------------------
# Splice-based derivation evaluation
# ---------------------------------------------------------------------------


def entries_by_name(grammar: Grammar) -> dict[str, ElementaryTree]:
    """The grammar's elementary trees by name; unlike ``Grammar.find`` it
    reads malformed grammars too."""
    return {entry.name: entry for entry in grammar.elementary()}


def refusal(grammar: Grammar) -> tuple | None:
    """The (type, text) of the error that deriving over ``grammar`` must
    raise before anything else: the first diagnostic of
    ``validate_grammar``, or None for a well-formed grammar."""
    diagnostics = validate_grammar(grammar)
    if not diagnostics:
        return None
    return MalformedGrammarError, f"malformed grammar: {diagnostics[0]}"


def reference_derive(derivation: DerivationTree, grammar: Grammar) -> SyntacticTree:
    """``derive`` by the set-level operations on a well-formed grammar:
    every node's elementary tree is copied and each child's derived tree
    spliced in with ``substitute`` or ``adjoin``, innermost first.
    Quadratic in tree size and recursive in derivation depth; it raises
    the errors ``derive`` must raise."""
    entries = entries_by_name(grammar)
    entry = entries.get(derivation.tree_name)
    if entry is None:
        raise DanglingReferenceError(f"unknown elementary tree {derivation.tree_name!r}")
    root_label = entry.tree.labels[entry.tree.root]
    if entry.kind is not TreeKind.INITIAL or root_label.name != grammar.start:
        raise InapplicableOperationError(
            f"derivation root {derivation.tree_name!r} is not an initial tree "
            f"rooted at {grammar.start!r}"
        )
    return _reference_node(derivation, entries)


def reference_derive_node(derivation: DerivationTree, grammar: Grammar) -> SyntacticTree:
    """The tree any derivation node derives, initial or auxiliary at its
    root: ``reference_derive`` without the start-symbol check, for the
    nodes under a whole derivation."""
    return _reference_node(derivation, entries_by_name(grammar))


def _reference_node(
    derivation: DerivationTree, entries: dict[str, ElementaryTree]
) -> SyntacticTree:
    host = entries[derivation.tree_name].tree.renumbered(1)
    resolved = []
    for edge in derivation.edges:
        try:
            target = node_at(host, edge.address)
        except InvalidAddressError as exc:
            raise InapplicableOperationError(
                f"address {format_address(edge.address)} is not a node of "
                f"{derivation.tree_name!r}"
            ) from exc
        resolved.append((edge, target))
    rank = {nid: pos for pos, nid in enumerate(host.post_order())}
    resolved.sort(key=lambda pair: rank[pair[1]])
    for edge, target in resolved:
        child_entry = entries.get(edge.child.tree_name)
        if child_entry is None:
            raise DanglingReferenceError(
                f"unknown elementary tree {edge.child.tree_name!r}"
            )
        part = _reference_node(edge.child, entries)
        try:
            if edge.operation is Operation.SUBSTITUTION:
                if child_entry.kind is not TreeKind.INITIAL:
                    raise InapplicableOperationError(
                        f"substitution edge targets auxiliary tree "
                        f"{child_entry.name!r}"
                    )
                host = substitute(host, target, part)
            else:
                if child_entry.kind is not TreeKind.AUXILIARY:
                    raise InapplicableOperationError(
                        f"adjunction edge targets initial tree {child_entry.name!r}"
                    )
                host = adjoin(host, target, part)
        except (UndefinedSubstitutionError, UndefinedAdjunctionError) as exc:
            raise InapplicableOperationError(
                f"cannot apply {edge.operation.value} of {edge.child.tree_name!r} "
                f"at {derivation.tree_name!r}@{format_address(edge.address)}: {exc}"
            ) from exc
    return host


# ---------------------------------------------------------------------------
# Recursive derivation enumeration
# ---------------------------------------------------------------------------


def reference_enumerate(grammar: Grammar, budget: int) -> Iterator[DerivationTree]:
    """``enumerate_derivations`` by two mutually recursive generators over
    slots read straight off the syntactic trees, with the adjunction
    budget threaded through them.  Recursive in derivation depth."""

    def slots_of(entry: ElementaryTree) -> list[tuple]:
        tree = entry.tree
        slots = []
        for nid in tree.pre_order():
            label = tree.labels[nid]
            if label.kind is not LabelKind.NONTERMINAL:
                continue
            if tree.children[nid]:
                operation, catalog = Operation.ADJUNCTION, grammar.auxiliaries
            elif label.substitution_marker:
                operation, catalog = Operation.SUBSTITUTION, grammar.initials
            else:
                continue
            fitting = sorted(
                (e for e in catalog if e.tree.labels[e.tree.root].name == label.name),
                key=lambda e: e.name,
            )
            if fitting or operation is Operation.SUBSTITUTION:
                slots.append((address_of(tree, nid), operation, fitting))
        slots.sort(key=lambda slot: slot[0])
        return slots

    slot_map = {entry.name: slots_of(entry) for entry in grammar.elementary()}

    def expand(entry: ElementaryTree, remaining: int):
        slots = slot_map[entry.name]

        def assignments(index: int, remaining: int):
            if index == len(slots):
                yield (), 0
                return
            address, operation, fitting = slots[index]
            cost = 1 if operation is Operation.ADJUNCTION else 0
            if cost:
                yield from assignments(index + 1, remaining)
                if remaining < 1:
                    return
            for candidate in fitting:
                for child, used in expand(candidate, remaining - cost):
                    edge = DerivationEdge(operation, address, child)
                    left = remaining - cost - used
                    for rest, rest_used in assignments(index + 1, left):
                        yield (edge, *rest), cost + used + rest_used

        for edges, used in assignments(0, remaining):
            yield DerivationTree(entry.name, edges), used

    roots = [e for e in grammar.initials if e.tree.labels[e.tree.root].name == grammar.start]
    for entry in sorted(roots, key=lambda e: e.name):
        for derivation, _ in expand(entry, budget):
            yield derivation


def reference_models(grammar: Grammar, bounds: GenBounds) -> Iterator[NarmaxModel]:
    """``enumerate_models`` by the checked route: every derivation of
    ``enumerate_derivations`` read through ``derived_leaves`` and the
    yield reader, the ones strict mode refuses dropped.  Those three are
    the package's own, held to ``reference_enumerate`` and
    ``reference_derive`` by their own tests."""
    catalog = narmax.build_narmax_grammar()
    for derivation in enumerate_derivations(grammar, bounds):
        try:
            yield narmax._to_parts(catalog, derived_leaves(derivation, grammar), bounds.mode)[0]
        except CausalityError:
            continue


# ---------------------------------------------------------------------------
# Random syntactic trees and operation cases
# ---------------------------------------------------------------------------

_NT_NAMES = ("A", "B", "C", "D")
_T_NAMES = ("a", "b", "c")


def random_tree(rng: random.Random, max_depth: int = 3) -> SyntacticTree:
    labels: dict[int, NodeLabel] = {}
    children: dict[int, tuple[int, ...]] = {}
    counter = [0]

    def build(depth: int) -> int:
        counter[0] += 1
        nid = counter[0]
        if depth >= max_depth or (depth > 0 and rng.random() < 0.4):
            roll = rng.random()
            if roll < 0.45:
                labels[nid] = NodeLabel.terminal(rng.choice(_T_NAMES))
            elif roll < 0.55:
                labels[nid] = NodeLabel.epsilon()
            elif roll < 0.8:
                labels[nid] = NodeLabel.nonterminal(rng.choice(_NT_NAMES), site=True)
            else:
                labels[nid] = NodeLabel.nonterminal(rng.choice(_NT_NAMES))
            children[nid] = ()
        else:
            labels[nid] = NodeLabel.nonterminal(rng.choice(_NT_NAMES))
            children[nid] = tuple(
                build(depth + 1) for _ in range(rng.randint(1, 3))
            )
        return nid

    root = build(0)
    return SyntacticTree(root, labels, children)


def substitution_case(rng: random.Random):
    """(host, site id, initial tree) with all preconditions satisfied."""
    while True:
        gamma = random_tree(rng)
        sites = substitution_sites(gamma)
        if sites:
            break
    site = rng.choice(sites)
    name = gamma.labels[site].name
    inner = random_tree(rng, max_depth=2)
    labels = dict(inner.labels)
    labels[inner.root] = NodeLabel.nonterminal(name)
    inner = SyntacticTree(inner.root, labels, inner.children)
    return gamma, site, inner


def adjunction_case(rng: random.Random):
    """(host, internal node id, auxiliary tree) with preconditions satisfied."""
    while True:
        gamma = random_tree(rng)
        internal = [nid for nid in gamma.labels if gamma.children[nid]]
        if internal:
            break
    at = rng.choice(internal)
    name = gamma.labels[at].name
    while True:
        aux = random_tree(rng, max_depth=2)
        if aux.children[aux.root]:
            break
    labels = dict(aux.labels)
    labels[aux.root] = NodeLabel.nonterminal(name)
    leaves = [nid for nid in labels if not aux.children[nid]]
    foot = rng.choice(leaves)
    labels[foot] = NodeLabel.nonterminal(name, foot=True)
    for nid in leaves:
        if nid != foot and labels[nid].foot_marker:
            labels[nid] = NodeLabel.nonterminal(labels[nid].name)
    aux = SyntacticTree(aux.root, labels, aux.children)
    return gamma, at, aux


def _relabeled(tree: SyntacticTree, changes: dict[int, NodeLabel]) -> SyntacticTree:
    return SyntacticTree(tree.root, {**tree.labels, **changes}, tree.children)


def _with_feet(rng: random.Random, tree: SyntacticTree) -> SyntacticTree:
    """Mostly one foot on a leaf named like the root; sometimes none, two,
    one on an inner node or one with another name."""
    count = rng.choices((0, 1, 2), weights=(1, 7, 2))[0]
    leaves = [nid for nid in tree.labels if not tree.children[nid]]
    inner = [nid for nid in tree.labels if tree.children[nid]]
    changes = {}
    for _ in range(count):
        nid = rng.choice(leaves if rng.random() < 0.8 else inner)
        name = tree.labels[tree.root].name if rng.random() < 0.9 else rng.choice(_NT_NAMES)
        changes[nid] = NodeLabel.nonterminal(name, foot=True)
    return _relabeled(tree, changes)


def _with_foot(rng: random.Random, tree: SyntacticTree) -> SyntacticTree:
    """One foot, on a leaf, named like the root (an inner node)."""
    leaves = [nid for nid in tree.labels if not tree.children[nid]]
    name = tree.labels[tree.root].name
    return _relabeled(tree, {rng.choice(leaves): NodeLabel.nonterminal(name, foot=True)})


def random_grammar(rng: random.Random, well_formed: bool = False) -> Grammar:
    """A small grammar over random trees, often malformed: feet missing,
    doubled, on inner nodes or misnamed, and tree names used twice.

    With ``well_formed`` it is one that ``validate_grammar`` passes:
    every auxiliary tree has one foot, on a leaf named like its root, no
    initial tree has a foot, and every tree name is used once.
    """
    start = rng.choice(_NT_NAMES)
    unique = iter(rng.sample(range(1, 10), 7)) if well_formed else None

    def name() -> str:
        return f"t{next(unique) if well_formed else rng.randint(1, 6)}"

    initials, auxiliaries = [], []
    for _ in range(rng.randint(1, 3)):
        tree = random_tree(rng, max_depth=2)
        if rng.random() < 0.6:
            tree = _relabeled(tree, {tree.root: NodeLabel.nonterminal(start)})
        if not well_formed and rng.random() < 0.1:
            tree = _with_feet(rng, tree)
        initials.append(ElementaryTree(name(), TreeKind.INITIAL, tree))
    for _ in range(rng.randint(1, 4)):
        tree = random_tree(rng, max_depth=2)
        tree = _with_foot(rng, tree) if well_formed else _with_feet(rng, tree)
        auxiliaries.append(ElementaryTree(name(), TreeKind.AUXILIARY, tree))
    return Grammar(set(_NT_NAMES), set(_T_NAMES), start, initials, auxiliaries)


def random_grammars(seed: int) -> Iterator[tuple[random.Random, Grammar]]:
    """The two random grammars of ``seed``, the well-formed one first,
    each with the generator that drew it, left ready to draw more."""
    for well_formed in (True, False):
        rng = random.Random(seed)
        yield rng, random_grammar(rng, well_formed)


def random_derivation(
    rng: random.Random, grammar: Grammar, depth: int = 3
) -> DerivationTree:
    """A derivation that mostly fills sites and adjoins at inner nodes with
    trees whose root label fits, with some unknown names, wrong
    operations, addresses off the tree and edges in random order."""
    names = [entry.name for entry in grammar.elementary()] + ["zz"]
    entries = entries_by_name(grammar)

    def pick(operation: Operation, label: NodeLabel) -> str:
        catalog = grammar.initials if operation is Operation.SUBSTITUTION else grammar.auxiliaries
        fitting = [e.name for e in catalog if e.tree.labels[e.tree.root].name == label.name]
        return rng.choice(fitting if fitting and rng.random() < 0.9 else names)

    def build(name: str, depth: int) -> DerivationTree:
        entry = entries.get(name)
        if entry is None or depth == 0:
            return DerivationTree(name)
        tree = entry.tree
        edges, used = [], set()
        for nid in tree.pre_order():
            label = tree.labels[nid]
            if label.substitution_marker:
                chance, operation = 0.9, Operation.SUBSTITUTION
            else:
                chance = 0.3 if tree.children[nid] else 0.03
                operation = Operation.ADJUNCTION
            if rng.random() >= chance:
                continue
            if rng.random() < 0.05:
                operation = rng.choice(list(Operation))
            address = address_of(tree, nid)
            if rng.random() < 0.05:
                address += (rng.randint(1, 3),)
            if address in used:
                continue
            used.add(address)
            child = build(pick(operation, label), depth - 1)
            edges.append(DerivationEdge(operation, address, child))
        rng.shuffle(edges)
        return DerivationTree(name, tuple(edges))

    starts = [
        e.name for e in grammar.initials if e.tree.labels[e.tree.root].name == grammar.start
    ]
    root = rng.choice(starts if starts and rng.random() < 0.9 else names)
    return build(root, depth)


# ---------------------------------------------------------------------------
# Random models within bounds
# ---------------------------------------------------------------------------


def random_model(
    rng: random.Random,
    max_terms: int = 3,
    max_delay: int = 3,
    max_exponent: int = 2,
    mode: Mode = Mode.EXTENDED,
) -> NarmaxModel:
    """Canonical random model; every term has at least one factor."""
    grid = []
    for signal in SignalKind:
        low = 1 if signal is SignalKind.OUTPUT else 0
        if signal is SignalKind.NOISE and mode is Mode.STRICT:
            low = 1
        grid.extend((signal, delay) for delay in range(low, max_delay + 1))
    terms = []
    for index in range(rng.randint(0, max_terms)):
        keys = rng.sample(grid, rng.randint(1, 2))
        factors = {key: rng.randint(1, max_exponent) for key in keys}
        terms.append(Monomial(index + 1, factors))
    return canonicalize(NarmaxModel(tuple(terms), mode))


# ---------------------------------------------------------------------------
# Canonical form, as two separate sorts and a flagged merge
# ---------------------------------------------------------------------------

_REFERENCE_RANK = {SignalKind.INPUT: 0, SignalKind.OUTPUT: 1, SignalKind.NOISE: 2}


def _reference_factor_key(factors) -> tuple:
    return tuple(
        sorted((_REFERENCE_RANK[signal], delay, exp) for (signal, delay), exp in factors.items())
    )


def _reference_sorted_factors(factors) -> list:
    return sorted(factors.items(), key=lambda item: (_REFERENCE_RANK[item[0][0]], item[0][1]))


def reference_canonicalize(model: NarmaxModel) -> NarmaxModel:
    """The earlier ``canonicalize``: merge by factor key with a flag that
    records whether every merged term had a value, sort by total degree
    then key, and store each factor map sorted by (signal, delay)."""
    merged: dict[tuple, tuple[dict, float | None, bool]] = {}
    for term in model.terms:
        key = _reference_factor_key(term.factors)
        if key in merged:
            factors, value, numeric = merged[key]
            if numeric and term.coeff_value is not None:
                merged[key] = (factors, value + term.coeff_value, True)
            else:
                merged[key] = (factors, None, False)
        else:
            merged[key] = (
                dict(term.factors),
                term.coeff_value,
                term.coeff_value is not None,
            )
    ordered = sorted(merged.items(), key=lambda item: (sum(item[1][0].values()), item[0]))
    terms = tuple(
        Monomial(i + 1, dict(_reference_sorted_factors(factors)), value if numeric else None)
        for i, (_, (factors, value, numeric)) in enumerate(ordered)
    )
    return NarmaxModel(terms, model.mode)


# ---------------------------------------------------------------------------
# Simulation by walking the factor maps at every step
# ---------------------------------------------------------------------------


def reference_simulate(
    model: NarmaxModel,
    coefficients: Sequence[float] | None,
    inputs: Sequence[float],
    noise: Sequence[float],
) -> list[float]:
    """The model recursion read straight off the factor maps: every step
    looks up each factor's sample by signal and tests the delay against
    the record start.  Same contract as ``simulate``."""
    if len(inputs) != len(noise):
        raise ModelError(
            f"input and noise records differ in length ({len(inputs)} vs {len(noise)})"
        )
    if coefficients is None:
        values = [term.coeff_value for term in model.terms]
        if any(v is None for v in values):
            raise ModelError("model has coefficient slots without numeric values")
        coeffs = [float(v) for v in values]  # type: ignore[arg-type]
    else:
        coeffs = [float(c) for c in coefficients]
        if len(coeffs) != len(model.terms):
            raise ModelError(
                f"expected {len(model.terms)} coefficients, got {len(coeffs)}"
            )
    out: list[float] = []
    for k in range(len(inputs)):
        value = float(noise[k])
        for coeff, term in zip(coeffs, model.terms):
            product = coeff
            for (signal, delay), exponent in term.factors.items():
                idx = k - delay
                if idx < 0:
                    sample = 0.0
                elif signal is SignalKind.INPUT:
                    sample = float(inputs[idx])
                elif signal is SignalKind.OUTPUT:
                    sample = out[idx]
                else:
                    sample = float(noise[idx])
                try:
                    product *= sample**exponent
                except OverflowError:
                    raise SimulationDivergedError(k) from None
            value += product
        if not math.isfinite(value):
            raise SimulationDivergedError(k)
        out.append(value)
    return out


# ---------------------------------------------------------------------------
# Adjunction-cost accounting and direct model-space enumeration
# ---------------------------------------------------------------------------


def _delay_cost(signal: SignalKind, delay: int) -> int:
    return delay - 1 if signal is SignalKind.OUTPUT else delay


def adjunctions_required(model: NarmaxModel) -> int:
    """Minimal number of adjunctions needed to derive the model.

    One additive tree per term plus, per factor occurrence beyond the
    leading one, a multiplicative tree; every factor occurrence also
    needs one delay tree per backshift not built into its introducing
    tree.  The leading factor is the lowest-delay input factor if any,
    else noise, else output.
    """
    total = 0
    for term in model.terms:
        keys = sorted(
            term.factors,
            key=lambda key: (
                {SignalKind.INPUT: 0, SignalKind.NOISE: 1, SignalKind.OUTPUT: 2}[
                    key[0]
                ],
                key[1],
            ),
        )
        first = keys[0]
        total += 1 + _delay_cost(*first)
        for signal, delay in keys:
            count = term.factors[(signal, delay)]
            if (signal, delay) == first:
                count -= 1
            total += count * (1 + _delay_cost(signal, delay))
    return total


def all_models_within_cost(budget: int) -> set[tuple]:
    """Every canonical extended-mode model whose minimal derivation fits
    the adjunction budget, enumerated directly in model space.

    Returns canonical structure keys so the result is comparable with a
    parsed-model set.
    """
    singles = []
    for signal in SignalKind:
        low = 1 if signal is SignalKind.OUTPUT else 0
        for delay in range(low, budget + 1):
            cost = 1 + _delay_cost(signal, delay)
            if cost <= budget:
                singles.append(((signal, delay), cost))

    monomials: list[tuple[dict, int]] = []

    def extend(factors: dict, cost: int, start: int) -> None:
        monomials.append((dict(factors), cost))
        for i in range(start, len(singles)):
            key, key_cost = singles[i]
            # additional occurrences of any factor cost a multiplicative
            # tree plus their own delay chain
            extra = 1 + _delay_cost(*key)
            if cost + extra <= budget:
                factors[key] = factors.get(key, 0) + 1
                extend(factors, cost + extra, i)
                factors[key] -= 1
                if not factors[key]:
                    del factors[key]

    for i, (key, cost) in enumerate(singles):
        extend({key: 1}, cost, i)

    result: set[tuple] = set()

    def models(start: int, remaining: int, chosen: list[dict]) -> None:
        model = canonicalize(
            NarmaxModel(
                tuple(Monomial(i + 1, f) for i, f in enumerate(chosen)),
                Mode.EXTENDED,
            )
        )
        result.add(model.structure())
        for i in range(start, len(monomials)):
            factors, cost = monomials[i]
            if cost <= remaining and all(factors != prev for prev in chosen):
                chosen.append(factors)
                models(i + 1, remaining - cost, chosen)
                chosen.pop()

    models(0, budget, [])
    return result


# ---------------------------------------------------------------------------
# Model classes, as one rule per tag
# ---------------------------------------------------------------------------

# The class each grammar preset is meant to carve out of model space.
PRESET_TAGS = {
    GrammarPreset.NARMAX: "NARMAX",
    GrammarPreset.ARX: "ARX",
    GrammarPreset.NARX: "NARX",
    GrammarPreset.FIR: "FIR",
    GrammarPreset.VOLTERRA: "Volterra",
}


def class_tags(model: NarmaxModel) -> set[str]:
    """The structural class tags of ``model``, one hand-written rule per
    tag: NARX is noise-free, ARMAX linear (every term of total degree at
    most 1, constants included), Volterra input-only, ARX linear and
    noise-free, FIR linear and input-only; every model is NARMAX."""
    signals = {signal for term in model.terms for signal, _ in term.factors}
    linear = all(sum(term.factors.values()) <= 1 for term in model.terms)
    input_only = signals <= {SignalKind.INPUT}
    noise_free = SignalKind.NOISE not in signals
    tags = {"NARMAX"}
    if noise_free:
        tags.add("NARX")
    if linear:
        tags.add("ARMAX")
    if linear and noise_free:
        tags.add("ARX")
    if input_only:
        tags.add("Volterra")
    if input_only and linear:
        tags.add("FIR")
    return tags
