"""Generic tree adjoining grammar machinery.

Trees, grammars and derivations are immutable values: every operation
returns a fresh tree and never touches its inputs.  Nodes are identified
by integer ids, but ids are an implementation detail -- whenever two
trees have to be compared, structural equality (same shape, same labels)
is the notion that matters.  :func:`substitute` and :func:`adjoin`
renumber the incoming tree so that vertex sets stay disjoint.

The two rewriting operations follow the usual set-level definitions:
substitution replaces a marked nonterminal leaf by the root of an
initial tree, adjunction excises an internal node, splices an auxiliary
tree in its place and re-hangs the excised node's children below the
auxiliary tree's foot.  They are the reference semantics of
:func:`derive` and :func:`derived_leaves`.  Both check a whole
derivation into a checked part (:class:`_Part`), which costs no more
than the derived tree, then read the derived tree off one pre-order
walk of that part (:func:`_walk`): :func:`derive` builds the tree from
it, and :func:`derived_leaves` keeps only its leaf labels.  Both take
time linear in the size of the derived tree, with no limit on its
depth, and read well-formed grammars only: a grammar that
:func:`validate_grammar` flags raises :class:`MalformedGrammarError`.

Each elementary tree is compiled once into a pre-order table, which
derivation, enumeration, validation and the catalogs' slot lookup read,
and which alone works out a node's Gorn address (:class:`_Table`).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping, Sequence, Union

from ._record import record

GornAddress = tuple[int, ...]

ROOT_ADDRESS: GornAddress = ()

EPSILON = "ε"
SUBSTITUTION_MARK = "↓"
FOOT_MARK = "★"


class TagError(Exception):
    """Base class for grammar and tree-operation failures."""


class InvalidAddressError(TagError):
    """A Gorn address does not resolve to a node of the given tree."""


class UndefinedSubstitutionError(TagError):
    """Substitution preconditions are violated at the requested node."""


class UndefinedAdjunctionError(TagError):
    """Adjunction preconditions are violated at the requested node."""


class DanglingReferenceError(TagError):
    """A derivation refers to an elementary tree the grammar does not have."""


class InapplicableOperationError(TagError):
    """A derivation edge cannot be applied at its recorded address."""


class MalformedGrammarError(TagError):
    """Derivation was asked of a grammar that :func:`validate_grammar` flags."""


def format_address(address: GornAddress) -> str:
    return EPSILON if not address else ".".join(str(i) for i in address)


class LabelKind(Enum):
    NONTERMINAL = "nonterminal"
    TERMINAL = "terminal"
    EPSILON = "epsilon"

    # members are singletons: identity hashing keeps equality and skips
    # Enum's Python-level hash of the member name
    __hash__ = object.__hash__


@record()
class NodeLabel:
    """Label of a tree node, plus its substitution/foot marker state."""

    kind: LabelKind
    name: str
    substitution_marker: bool = False
    foot_marker: bool = False

    def __post_init__(self) -> None:
        if self.substitution_marker and self.kind is not LabelKind.NONTERMINAL:
            raise ValueError("substitution marker requires a nonterminal label")
        if self.foot_marker and self.kind is not LabelKind.NONTERMINAL:
            raise ValueError("foot marker requires a nonterminal label")
        if self.substitution_marker and self.foot_marker:
            raise ValueError("a node cannot carry both markers")

    @staticmethod
    def nonterminal(name: str, *, site: bool = False, foot: bool = False) -> "NodeLabel":
        return NodeLabel(LabelKind.NONTERMINAL, name, site, foot)

    @staticmethod
    def terminal(symbol: str) -> "NodeLabel":
        return NodeLabel(LabelKind.TERMINAL, symbol)

    @staticmethod
    def epsilon() -> "NodeLabel":
        return NodeLabel(LabelKind.EPSILON, EPSILON)


@record(eq=False)
class SyntacticTree:
    """Finite ordered labeled tree.

    ``labels`` maps every node id to its label; ``children`` maps every
    node id to the ordered tuple of its child ids (leaves map to ``()``).
    Construction checks that the data actually forms a single rooted
    tree; labeling rules (internal nodes nonterminal, foot constraints)
    are the business of :func:`validate_grammar` and of the operations'
    own preconditions, so that malformed labelings can be represented
    and diagnosed.
    """

    root: int
    labels: Mapping[int, NodeLabel]
    children: Mapping[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        labels = dict(self.labels)
        children = {nid: tuple(self.children.get(nid, ())) for nid in labels}
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "children", children)
        if self.root not in labels:
            raise ValueError("root id is not a labeled node")
        indegree = {nid: 0 for nid in labels}
        for parent, kids in children.items():
            for kid in kids:
                if kid not in labels:
                    raise ValueError(f"child id {kid} of node {parent} is unlabeled")
                indegree[kid] += 1
        if indegree[self.root] != 0:
            raise ValueError("root has an incoming edge")
        bad = [nid for nid, deg in indegree.items() if nid != self.root and deg != 1]
        if bad:
            raise ValueError(f"nodes {bad} do not have in-degree 1")
        if len(list(self.pre_order())) != len(labels):
            raise ValueError("not all nodes are reachable from the root")

    @staticmethod
    def _build(
        root: int,
        labels: dict[int, NodeLabel],
        children: dict[int, tuple[int, ...]],
    ) -> "SyntacticTree":
        # trusted fast path for operation-internal construction: the
        # caller guarantees complete, well-formed node/child maps
        tree = object.__new__(SyntacticTree)
        object.__setattr__(tree, "root", root)
        object.__setattr__(tree, "labels", labels)
        object.__setattr__(tree, "children", children)
        return tree

    # -- queries ---------------------------------------------------------

    def pre_order(self, start: int | None = None) -> Iterator[int]:
        stack = [self.root if start is None else start]
        while stack:
            nid = stack.pop()
            yield nid
            stack.extend(reversed(self.children[nid]))

    def post_order(self) -> Iterator[int]:
        # a pre-order that takes children right to left, reversed
        order = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(self.children[nid])
        return reversed(order)

    def leaves(self) -> list[int]:
        """Leaf ids in left-to-right order, from one explicit-stack walk."""
        children = self.children
        out = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            kids = children[nid]
            if kids:
                stack += reversed(kids)
            else:
                out.append(nid)
        return out

    def foot_node(self) -> int | None:
        for nid in self.pre_order():
            if self.labels[nid].foot_marker:
                return nid
        return None

    # -- structure -------------------------------------------------------

    def renumbered(self, start: int) -> "SyntacticTree":
        """Copy with ids reassigned consecutively from ``start`` in pre-order."""
        mapping = {nid: start + i for i, nid in enumerate(self.pre_order())}
        labels = {mapping[nid]: self.labels[nid] for nid in mapping}
        children = {
            mapping[nid]: tuple(mapping[k] for k in self.children[nid])
            for nid in mapping
        }
        return SyntacticTree._build(mapping[self.root], labels, children)


class TreeKind(Enum):
    INITIAL = "initial"
    AUXILIARY = "auxiliary"

    __hash__ = object.__hash__  # see LabelKind


@record(eq=False)
class ElementaryTree:
    """A named catalog entry: an immutable template instantiated at use."""

    name: str
    kind: TreeKind
    tree: SyntacticTree

    @cached_property
    def _table(self) -> _Table:
        # compiled on first use, once for all the grammars that hold the tree
        return _Table(self)


@record(eq=False)
class Grammar:
    """Alphabets, start symbol and the elementary-tree catalogs."""

    nonterminals: frozenset[str]
    terminals: frozenset[str]
    start: str
    initials: tuple[ElementaryTree, ...]
    auxiliaries: tuple[ElementaryTree, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(self, "initials", tuple(self.initials))
        object.__setattr__(self, "auxiliaries", tuple(self.auxiliaries))

    def elementary(self) -> Iterator[ElementaryTree]:
        yield from self.initials
        yield from self.auxiliaries

    @cached_property
    def _tables(self) -> dict[str, _Table]:
        # derivation, enumeration and ``find`` read well-formed grammars only
        diagnostics = validate_grammar(self)
        if diagnostics:
            raise MalformedGrammarError(f"malformed grammar: {diagnostics[0]}")
        return {entry.name: entry._table for entry in self.elementary()}

    def find(self, name: str) -> ElementaryTree | None:
        table = self._tables.get(name)
        return None if table is None else table.entry


class _Table:
    """An elementary tree compiled once, the form in which the package
    reads it: :func:`derive`, :func:`derived_leaves`, enumeration,
    :func:`validate_grammar` and the catalogs' slot lookup.

    Nodes are the indices 0..n-1 in pre-order: ``labels`` and
    ``children`` are indexed by them, ``steps`` gives each node but the
    root its (parent, position) pair, and ``rank`` gives each node's place
    in post-order.  :meth:`address` and :meth:`resolve` map a node to its
    Gorn address and back.  ``unmarked`` is the foot's label with the
    marker cleared, the label the foot takes in a derived tree, or None
    when the tree has no foot.
    """

    __slots__ = ("entry", "labels", "children", "steps", "rank", "unmarked")

    def __init__(self, entry: ElementaryTree):
        tree = entry.tree
        order = list(tree.pre_order())
        index = {nid: i for i, nid in enumerate(order)}
        self.entry = entry
        self.labels = [tree.labels[nid] for nid in order]
        self.children = [tuple(index[kid] for kid in tree.children[nid]) for nid in order]
        self.steps: list[tuple[int, int] | None] = [None] * len(order)
        for i, kids in enumerate(self.children):
            for step, kid in enumerate(kids, 1):
                self.steps[kid] = (i, step)
        self.rank = [0] * len(order)
        for position, nid in enumerate(tree.post_order()):
            self.rank[index[nid]] = position
        feet = [NodeLabel(label.kind, label.name) for label in self.labels if label.foot_marker]
        self.unmarked = feet[0] if feet else None

    def address(self, node: int) -> GornAddress:
        """The Gorn address of ``node``; it costs its own length."""
        path = []
        while node:  # the root is node 0
            node, step = self.steps[node]
            path.append(step)
        return tuple(reversed(path))

    def resolve(self, address: GornAddress) -> int | None:
        node = 0
        for step in address:
            kids = self.children[node]
            if step > len(kids):
                return None
            node = kids[step - 1]
        return node


_INDEX_RULE = "Gorn address indices must be >= 1"


def _shared_address(tree_name: str, edges: Sequence[DerivationEdge]) -> str | None:
    """The error text for the first of ``edges`` at the address of an
    earlier one, or None when their addresses are distinct."""
    seen = set()
    for edge in edges:
        if edge.address in seen:
            return f"two edges of {tree_name!r} share address {format_address(edge.address)}"
        seen.add(edge.address)
    return None


class Operation(Enum):
    SUBSTITUTION = "sub"
    ADJUNCTION = "adj"

    __hash__ = object.__hash__  # see LabelKind


@record()
class DerivationEdge:
    operation: Operation
    address: GornAddress
    child: "DerivationTree"

    def __post_init__(self) -> None:
        object.__setattr__(self, "address", tuple(self.address))
        if any(i < 1 for i in self.address):
            raise ValueError(_INDEX_RULE)

    @staticmethod
    def _build(
        operation: Operation, address: GornAddress, child: "DerivationTree"
    ) -> "DerivationEdge":
        """Trusted fast path that skips ``__post_init__``.

        Its callers pass an address that is already a tuple of indices
        >= 1: enumeration (:mod:`narmaxtag.generate`) takes it from
        :meth:`_Table.address`, :func:`narmaxtag.narmax._node` from the
        slots the catalog found in its own trees, and
        :func:`narmaxtag.treeio.parse_derivation` from digit runs, after
        it has refused an index 0 itself.
        """
        edge = object.__new__(DerivationEdge)
        object.__setattr__(edge, "operation", operation)
        object.__setattr__(edge, "address", address)
        object.__setattr__(edge, "child", child)
        return edge


@record(eq=False)
class DerivationTree:
    """Record of which elementary trees were combined, where and how.

    Edge addresses always refer to the parent node's *original*
    elementary tree, never to the partially rewritten host.  Equality
    and hashing compare the flat pre-order of the nodes, so they work at
    any depth.
    """

    tree_name: str
    edges: tuple[DerivationEdge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        message = _shared_address(self.tree_name, self.edges)
        if message:
            raise ValueError(message)

    @staticmethod
    def _build(tree_name: str, edges: tuple[DerivationEdge, ...]) -> "DerivationTree":
        """Trusted fast path that skips ``__post_init__``.

        Its callers pass a tuple of edges no two of which share an
        address: enumeration (:mod:`narmaxtag.generate`) makes one edge
        per slot of its slot table, in increasing address order,
        :func:`narmaxtag.narmax._node` one per distinct slot of a catalog
        tree, in the order its callers give, and
        :func:`narmaxtag.treeio.parse_derivation` the edges of the text
        once it has found their addresses distinct.
        """
        node = object.__new__(DerivationTree)
        object.__setattr__(node, "tree_name", tree_name)
        object.__setattr__(node, "edges", edges)
        return node

    def _shape(self) -> list[tuple]:
        # (tree name, incoming operation, incoming address, arity) in
        # pre-order; field-wise methods would recurse once per level
        out = []
        stack: list[tuple] = [(None, None, self)]
        while stack:
            operation, address, node = stack.pop()
            out.append((node.tree_name, operation, address, len(node.edges)))
            stack.extend((e.operation, e.address, e.child) for e in reversed(node.edges))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DerivationTree):
            return NotImplemented
        return self is other or self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def node_at(tree: SyntacticTree, address: Sequence[int]) -> int:
    """Resolve a Gorn address; the empty address is the root."""
    nid = tree.root
    for depth, index in enumerate(address):
        kids = tree.children[nid]
        if index < 1 or index > len(kids):
            raise InvalidAddressError(
                f"address {format_address(tuple(address))} leaves the tree at "
                f"step {depth + 1}"
            )
        nid = kids[index - 1]
    return nid


TreeLike = Union[SyntacticTree, ElementaryTree]


def _as_tree(value: TreeLike) -> SyntacticTree:
    return value.tree if isinstance(value, ElementaryTree) else value


def _label_fault(label: NodeLabel, root: NodeLabel) -> str | None:
    if label.kind is LabelKind.NONTERMINAL and root.kind is LabelKind.NONTERMINAL:
        if label.name == root.name:
            return None
    return f"label {label.name!r} does not match incoming root {root.name!r}"


def _substitution_fault(
    label: NodeLabel, internal: bool, root: NodeLabel, has_foot: bool
) -> str | None:
    """Why a tree with root label ``root`` cannot substitute at a node
    labeled ``label``, or None when it can."""
    if internal:
        return "substitution target must be a leaf"
    if label.foot_marker:
        return "cannot substitute at a foot node"
    if not label.substitution_marker:
        return "target leaf is not marked for substitution"
    if has_foot:
        return "cannot substitute an auxiliary tree"
    return _label_fault(label, root)


def _adjunction_fault(
    label: NodeLabel, internal: bool, root: NodeLabel, has_foot: bool
) -> str | None:
    """Why a tree with root label ``root`` cannot adjoin at a node labeled
    ``label``, or None when it can."""
    if not internal:
        return "adjunction target must have out-degree >= 1"
    if not has_foot:
        return "incoming tree has no foot node"
    return _label_fault(label, root)


def substitute(gamma: SyntacticTree, site: int, inner: TreeLike) -> SyntacticTree:
    """Replace the marked leaf ``site`` by a copy of the initial tree ``inner``.

    The incoming tree is renumbered pre-order starting at the largest id
    of ``gamma`` plus one, so that the two vertex sets are disjoint; the
    result keeps every other id of ``gamma``.
    """
    inner_tree = _as_tree(inner)
    if site not in gamma.labels:
        raise UndefinedSubstitutionError(f"node {site} is not part of the host tree")
    fault = _substitution_fault(
        gamma.labels[site],
        bool(gamma.children[site]),
        inner_tree.labels[inner_tree.root],
        inner_tree.foot_node() is not None,
    )
    if fault:
        raise UndefinedSubstitutionError(fault)

    labels, children, root, _ = _splice(gamma, site, inner_tree)
    return SyntacticTree._build(root, labels, children)


def adjoin(gamma: SyntacticTree, at: int, aux: TreeLike) -> SyntacticTree:
    """Splice a copy of the auxiliary tree ``aux`` in at internal node ``at``.

    The excised node's children re-attach below the copy's foot node,
    whose marker is cleared in the result.  Renumbering of the incoming
    tree is the same pre-order scheme used by :func:`substitute`.
    """
    aux_tree = _as_tree(aux)
    if at not in gamma.labels:
        raise UndefinedAdjunctionError(f"node {at} is not part of the host tree")
    foot = aux_tree.foot_node()
    fault = _adjunction_fault(
        gamma.labels[at], bool(gamma.children[at]), aux_tree.labels[aux_tree.root], foot is not None
    )
    if fault:
        raise UndefinedAdjunctionError(fault)

    labels, children, root, copy = _splice(gamma, at, aux_tree)
    inst_foot = copy.foot_node()
    foot_label = labels[inst_foot]
    labels[inst_foot] = NodeLabel(
        foot_label.kind, foot_label.name, foot_label.substitution_marker, False
    )
    children[inst_foot] = gamma.children[at]
    return SyntacticTree._build(root, labels, children)


def _splice(gamma: SyntacticTree, target: int, incoming: SyntacticTree) -> tuple:
    """The label and child maps and the root id of ``gamma`` with a copy
    of ``incoming`` in place of node ``target``, and that copy, which is
    renumbered in pre-order from the largest id of ``gamma`` plus one."""
    copy = incoming.renumbered(max(gamma.labels) + 1)
    labels = {nid: lab for nid, lab in gamma.labels.items() if nid != target}
    labels.update(copy.labels)
    children = {
        nid: tuple(copy.root if kid == target else kid for kid in kids)
        for nid, kids in gamma.children.items()
        if nid != target
    }
    children.update(copy.children)
    root = copy.root if target == gamma.root else gamma.root
    return labels, children, root, copy


def yield_of(tree: SyntacticTree) -> tuple[str, ...]:
    """Names of the leaves in left-to-right order (see
    :meth:`SyntacticTree.leaves`); epsilon leaves are elided."""
    labels = tree.labels
    names = [labels[n].name for n in tree.leaves() if labels[n].kind is not LabelKind.EPSILON]
    return tuple(names)


def is_saturated(tree: SyntacticTree) -> bool:
    """True iff every leaf is a terminal or epsilon."""
    labels = tree.labels
    return LabelKind.NONTERMINAL not in {labels[nid].kind for nid in tree.leaves()}


def derive(derivation: DerivationTree, grammar: Grammar) -> SyntacticTree:
    """Evaluate a derivation tree into the derived syntactic tree.

    The root must name an initial tree whose root label is the start
    symbol.  The result equals applying :func:`substitute` and
    :func:`adjoin` node by node: each edge's address is resolved against
    the parent's original elementary tree, the edges of a node are
    applied in post-order of their targets, and a child is derived before
    its own edge is applied, so the first error those operations would
    meet is the one raised.  The evaluation makes two passes over the
    grammar's compiled trees: a check pass, and the walk (:func:`_walk`)
    that :func:`_emit` builds the tree from, numbering the nodes 1..n in
    pre-order.  Both are loops, so the cost is linear in the size of the
    derived tree and any depth is allowed.
    """
    return _emit(_checked(derivation, grammar))


def derived_leaves(derivation: DerivationTree, grammar: Grammar) -> list[NodeLabel]:
    """The leaf labels of ``derive(derivation, grammar)``, left to right.

    The checks and errors are those of :func:`derive`, and the labels
    come from the same walk over the checked part, which keeps the
    leaves and builds no tree.
    """
    return _leaves(_checked(derivation, grammar))


def _leaves(top: _Part) -> list[NodeLabel]:
    """The leaf labels of the tree a checked part derives, left to right."""
    return [label for label, _, kids in _walk(top) if not kids]


def _checked(derivation: DerivationTree, grammar: Grammar) -> _Part:
    """The checked part of a whole derivation, whose root must name an
    initial tree rooted at the start symbol."""
    tables = grammar._tables
    table = tables.get(derivation.tree_name)
    if table is None:
        raise DanglingReferenceError(f"unknown elementary tree {derivation.tree_name!r}")
    if table.entry.kind is not TreeKind.INITIAL or table.labels[0].name != grammar.start:
        raise InapplicableOperationError(
            f"derivation root {derivation.tree_name!r} is not an initial tree "
            f"rooted at {grammar.start!r}"
        )
    return _check(derivation, tables)


class _Part:
    """A checked derivation node: its compiled tree, and in ``ops``, one
    entry per node of that tree, the part brought there or None.  A part
    was adjoined exactly when its tree has a foot (:func:`_check_edge`).
    """

    __slots__ = ("table", "ops")

    def __init__(self, table: _Table, ops: list[_Part | None]):
        self.table = table
        self.ops = ops


def _open(node: DerivationTree, table: _Table) -> tuple:
    """Check-pass frame of ``node``: its edges resolved in edge order,
    sorted so that popping them gives post-order of their targets."""
    pending = []
    for edge in node.edges:
        target = table.resolve(edge.address)
        if target is None:
            raise InapplicableOperationError(
                f"address {format_address(edge.address)} is not a node of "
                f"{node.tree_name!r}"
            )
        pending.append((table.rank[target], target, edge))
    pending.sort(reverse=True)  # distinct targets, distinct ranks: edges never compared
    return node, table, pending, [None] * len(table.labels)


def _check(derivation: DerivationTree, tables: dict[str, _Table]) -> _Part:
    """Raise the first error of the derivation, or return its checked part.

    Every precondition is decided on the original elementary trees: an
    operation never changes the label or arity of another target, nor
    the root label of a part.
    """
    stack = [_open(derivation, tables[derivation.tree_name])]
    while True:
        node, table, pending, ops = stack[-1]
        if pending:
            edge = pending[-1][2]
            child = tables.get(edge.child.tree_name)
            if child is None:
                raise DanglingReferenceError(
                    f"unknown elementary tree {edge.child.tree_name!r}"
                )
            stack.append(_open(edge.child, child))
            continue
        stack.pop()
        part = _Part(table, ops)
        if not stack:
            return part
        node, table, pending, ops = stack[-1]
        _, target, edge = pending.pop()
        _check_edge(node, table, target, edge, part)
        ops[target] = part


def _check_edge(
    node: DerivationTree, table: _Table, target: int, edge: DerivationEdge, part: _Part
) -> None:
    entry = part.table.entry
    label = table.labels[target]
    internal = bool(table.children[target])
    root = part.table.labels[0]
    if edge.operation is Operation.SUBSTITUTION:
        if entry.kind is not TreeKind.INITIAL:
            raise InapplicableOperationError(
                f"substitution edge targets auxiliary tree {entry.name!r}"
            )
        fault = _substitution_fault(label, internal, root, False)
    else:
        if entry.kind is not TreeKind.AUXILIARY:
            raise InapplicableOperationError(
                f"adjunction edge targets initial tree {entry.name!r}"
            )
        fault = _adjunction_fault(label, internal, root, True)
    if fault:
        raise InapplicableOperationError(
            f"cannot apply {edge.operation.value} of {entry.name!r} "
            f"at {node.tree_name!r}@{format_address(edge.address)}: {fault}"
        )


def _walk(top: _Part) -> Iterator[tuple[NodeLabel, int, tuple[int, ...]]]:
    """The nodes of the tree a checked part derives, in pre-order, as
    (label, parent number, children in the node's compiled tree).

    The nodes are numbered 1..n in the order they come, and the root's
    parent number is 0.  A part in ``ops`` is walked in place of its
    node; one whose tree has a foot was adjoined, and its foot loses its
    marker and takes the excised node's children, as :func:`adjoin` does.
    A node is a leaf of the derived tree when it has no compiled children.
    """
    excised: list[tuple[_Part, int]] = []  # adjunctions still to meet their foot
    stack: list[tuple[_Part, int, int]] = [(top, 0, 0)]  # (part, node, parent number)
    number = 0
    while stack:
        part, i, parent = stack.pop()
        child = part.ops[i]
        if child is not None:
            if child.table.unmarked is not None:  # adjoined: its tree has a foot
                excised.append((part, i))
            stack.append((child, 0, parent))
            continue
        label = part.table.labels[i]
        if label.foot_marker:
            label = part.table.unmarked
            part, i = excised.pop()
        kids = part.table.children[i]
        yield label, parent, kids
        number += 1
        if kids:
            stack += [(part, kid, number) for kid in reversed(kids)]


def _emit(top: _Part) -> SyntacticTree:
    """Build the derived tree of a checked part from :func:`_walk`, with
    the walk's numbers as node ids.

    Only the nodes on the path from the root to the current node hold a
    list of their children so far; a node's list becomes its tuple when
    the walk leaves its subtree, which in pre-order is when a node comes
    whose parent is an ancestor.  A node's keys are inserted when it
    comes, so both maps are in pre-order.
    """
    labels: dict[int, NodeLabel] = {}
    children: dict[int, tuple[int, ...]] = {}
    path: list[tuple[int, list[int]]] = [(0, [])]  # open nodes, with their children so far
    for number, (label, parent, kids) in enumerate(_walk(top), 1):
        while path[-1][0] != parent:
            done, ids = path.pop()
            children[done] = tuple(ids)
        path[-1][1].append(number)
        labels[number] = label
        children[number] = ()  # a leaf, unless its list below is closed
        if kids:
            path.append((number, []))
    for done, ids in path[1:]:
        children[done] = tuple(ids)
    return SyntacticTree._build(1, labels, children)


# ---------------------------------------------------------------------------
# Grammar validation
# ---------------------------------------------------------------------------


@record()
class Diagnostic:
    code: str
    message: str
    tree: str | None = None
    address: str | None = None

    def __str__(self) -> str:
        where = ""
        if self.tree is not None:
            where = f" [{self.tree}" + (f"@{self.address}]" if self.address else "]")
        return f"{self.code}: {self.message}{where}"


def validate_grammar(grammar: Grammar) -> list[Diagnostic]:
    """Check every grammar and elementary-tree invariant.

    Returns an empty list when the grammar is well formed, otherwise one
    diagnostic per violation.  Never raises: broken grammars are data to
    be reported on, not errors.
    """
    out: list[Diagnostic] = []
    overlap = grammar.nonterminals & grammar.terminals
    if overlap:
        out.append(
            Diagnostic(
                "alphabets-overlap",
                "nonterminals and terminals share " + ", ".join(sorted(overlap)),
            )
        )
    if grammar.start not in grammar.nonterminals:
        out.append(
            Diagnostic(
                "start-not-nonterminal",
                f"start symbol {grammar.start!r} is not a nonterminal",
            )
        )
    seen: set[str] = set()
    for entry in grammar.elementary():
        if entry.name in seen:
            out.append(
                Diagnostic(
                    "duplicate-tree-name",
                    f"tree name {entry.name!r} appears more than once",
                    tree=entry.name,
                )
            )
        seen.add(entry.name)
        out.extend(_check_tree(entry, grammar))
    return out


def _check_tree(entry: ElementaryTree, grammar: Grammar) -> list[Diagnostic]:
    table = entry._table
    labels, children = table.labels, table.children
    out: list[Diagnostic] = []

    def diag(code: str, message: str, node: int | None = None) -> None:
        address = None if node is None else format_address(table.address(node))
        out.append(Diagnostic(code, message, tree=entry.name, address=address))

    feet = [i for i, label in enumerate(labels) if label.foot_marker]
    if entry.kind is TreeKind.AUXILIARY and not feet:
        diag("missing-foot", "auxiliary tree has no foot node")
    if entry.kind is TreeKind.INITIAL and feet:
        diag("unexpected-foot", "initial tree carries a foot node", feet[0])
    if len(feet) > 1:
        diag("multiple-foot", f"{len(feet)} foot-marked nodes", feet[1])
    root_label = labels[0]
    for foot in feet:
        if children[foot]:
            diag("foot-not-leaf", "foot node has children", foot)
        if labels[foot].name != root_label.name:
            diag(
                "foot-label-mismatch",
                f"foot label {labels[foot].name!r} differs from root label "
                f"{root_label.name!r}",
                foot,
            )
    for i, label in enumerate(labels):
        if children[i] and label.kind is not LabelKind.NONTERMINAL:
            diag(
                "internal-not-nonterminal",
                f"internal node labeled with {label.kind.value} {label.name!r}",
                i,
            )
        if label.kind is LabelKind.NONTERMINAL and label.name not in grammar.nonterminals:
            diag("unknown-label", f"nonterminal {label.name!r} is not in the alphabet", i)
        if label.kind is LabelKind.TERMINAL and label.name not in grammar.terminals:
            diag("unknown-label", f"terminal {label.name!r} is not in the alphabet", i)
    return out
