"""Text formats for trees, grammars and derivations.

All three formats are round-trippable: emitters produce canonical
spacing, parsers accept arbitrary whitespace between tokens.

Tree format: parenthesized pre-order, one node written as ``label``,
``label↓`` or ``label★``, followed by an optional parenthesized child
list, e.g. ``expr0(expr1(par(c) op(×) expr2(u)) op(+) expr0★)``.
Labels that collide with the markers or the structural characters are
written in double quotes.  When the alphabets are known the label kinds
are resolved against them; otherwise internal and marked nodes are read
as nonterminals, ``ε`` as the empty leaf and everything else as a
terminal.  Tree text is lexed by one compiled pattern whose ``findall``
gives the token texts.  Its bare-label rule, like the tree-name rule
``[\\w.\\-]+``, is shared by the readers and the writers, so a writer
refuses what its reader could not read back.

Grammar format: ``nonterminals:`` / ``terminals:`` / ``start:`` header
lines followed by named tree blocks ``initial NAME = TREE`` and
``auxiliary NAME = TREE``.  Header symbols are written like tree labels,
quoted where needed, but without parentheses or markers.

Derivation format: ``name[op@address -> child, ...]`` lists, each child
itself a derivation, with ``op`` one of ``sub``/``adj`` and dotted Gorn
addresses (``ε`` for the root).

Each production of derivation text (a node name, an edge head, the
separator after a child), like each production of the model text of
:mod:`narmaxtag.models`, is read by one compiled pattern in which every
piece after the first is optional.  The pattern always matches, and a
read that stops early ends where the first missing piece should start,
so that is where the error is reported.  The derivation reader builds
its nodes and edges through the trusted constructors and checks their
two rules (a Gorn index 0, two edges at one address) itself, where the
constructors would.

Work that depends on a token's text alone is done once per distinct
text and call: the tree reader decodes and resolves each label token
once for leaves and once for internal nodes, the derivation reader
converts each address text once and keeps one string per tree name, the
tree writer renders each label once for leaves and once, with its
``(``, for internal nodes, and the derivation writer checks each tree
name and renders each edge head once.  The tree reader walks its tokens
once, resolving labels as it reads the structure, and holds the first
label error until the structure is whole, so errors rank lexical, then
structural, then label errors in node order; every other error is raised
where it is found.  Every parser and printer here is a loop over an
explicit stack, so nesting depth is bounded by memory only.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable

from .trees import (
    EPSILON,
    FOOT_MARK,
    SUBSTITUTION_MARK,
    DerivationEdge,
    DerivationTree,
    ElementaryTree,
    Grammar,
    LabelKind,
    NodeLabel,
    Operation,
    SyntacticTree,
    TreeKind,
    _INDEX_RULE,
    _shared_address,
    format_address,
)

_MARKERS = SUBSTITUTION_MARK + FOOT_MARK
_BARE_LABEL_RE = re.compile(rf'[^\s()"{_MARKERS}]+')
# "(" or ")" | a quoted or bare label with an optional marker | any other
# non-space character, a lone '"' or marker, which is an error; whitespace
# between tokens matches nothing, and ``findall`` returns the token texts
_TREE_TOKEN_RE = re.compile(
    rf'[()]|(?:"(?:[^"\\]|\\.)*"|{_BARE_LABEL_RE.pattern})[{_MARKERS}]?|\S', re.DOTALL
)
_STRAY_TOKENS = frozenset('"' + _MARKERS)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_NAME_RE = re.compile(r"[\w.\-]+")
_BLOCK_RE = re.compile(rf"(initial|auxiliary)\s+({_NAME_RE.pattern})\s*=\s*(.+)$")


class TextFormatError(ValueError):
    """Syntax error in one of the text formats, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------


def _lex_tree(text: str) -> list[str]:
    """The token texts of tree text.  The first stray token, a lone ``"``
    or marker, is an error."""
    tokens = _TREE_TOKEN_RE.findall(text)
    if not _STRAY_TOKENS.isdisjoint(tokens):
        index = next(index for index, token in enumerate(tokens) if token in _STRAY_TOKENS)
        if tokens[index] == '"':
            raise TextFormatError("unterminated quoted label", _token_start(text, index))
        raise TextFormatError("marker without a preceding label", _token_start(text, index))
    return tokens


def _token_start(text: str, index: int) -> int:
    """The position of token ``index`` of ``text``, for error reports."""
    return next(itertools.islice(_TREE_TOKEN_RE.finditer(text), index, None)).start()


def _label_parts(token: str) -> tuple[str, bool, str]:
    """A label token's name, whether it is quoted, and its marker (or ``""``)."""
    marker = token[-1] if token[-1] in _MARKERS else ""
    body = token[:-1] if marker else token
    if body[0] == '"':
        return _ESCAPE_RE.sub(r"\1", body[1:-1]), True, marker
    return body, False, marker


# ---------------------------------------------------------------------------
# Tree format
# ---------------------------------------------------------------------------


def _resolve_label(
    token: str,
    internal: bool,
    nonterminals: frozenset[str] | None,
    terminals: frozenset[str] | None,
) -> NodeLabel | str:
    """The label of a label token at an internal node or a leaf, or the
    text of the error it is."""
    name, quoted, marker = _label_parts(token)
    site = marker == SUBSTITUTION_MARK
    foot = marker == FOOT_MARK
    if not name:
        return "empty label"
    if nonterminals is not None or terminals is not None:
        if not quoted and name in (nonterminals or frozenset()):
            return NodeLabel.nonterminal(name, site=site, foot=foot)
        if not quoted and name == EPSILON:
            return NodeLabel.epsilon()
        if name in (terminals or frozenset()):
            if marker:
                return f"terminal {name!r} cannot carry a marker"
            return NodeLabel.terminal(name)
        return f"label {name!r} is not in the alphabets"
    if internal or marker:
        if quoted:
            return "quoted labels denote terminals"
        return NodeLabel.nonterminal(name, site=site, foot=foot)
    if name == EPSILON and not quoted:
        return NodeLabel.epsilon()
    return NodeLabel.terminal(name)


def parse_tree(
    text: str,
    *,
    nonterminals: Iterable[str] | None = None,
    terminals: Iterable[str] | None = None,
) -> SyntacticTree:
    tokens = _lex_tree(text)
    if not tokens:
        raise TextFormatError("empty tree text", 0)
    nts = None if nonterminals is None else frozenset(nonterminals)
    ts = None if terminals is None else frozenset(terminals)
    # node ids are 1..n in pre-order; a node's label token is resolved
    # (once per distinct token and leaf or internal use) as soon as the
    # next token shows whether the node is internal, and the first label
    # error is held as (message, token index) until the structure is whole
    resolved: tuple[dict[str, NodeLabel | str], dict[str, NodeLabel | str]] = ({}, {})
    error: tuple[str, int] | None = None
    labels: dict[int, NodeLabel | str] = {}
    children: dict[int, tuple[int, ...]] = {}
    pending: list[tuple[int, list[int]]] = []  # the nodes whose ')' is pending, with their kids
    count = len(tokens)
    nid = 0
    i = 0
    while True:
        token = tokens[i]
        if token == "(" or token == ")":
            raise TextFormatError("expected a node label", _token_start(text, i))
        nid += 1
        if pending:
            pending[-1][1].append(nid)
        children[nid] = ()  # a leaf until its child list is closed
        i += 1
        internal = i < count and tokens[i] == "("
        label = resolved[internal].get(token)
        if label is None:
            label = resolved[internal][token] = _resolve_label(token, internal, nts, ts)
            if error is None and isinstance(label, str):
                error = (label, i - 1)
        labels[nid] = label
        if internal:
            i += 1
            if i < count and tokens[i] == ")":
                raise TextFormatError("empty child list", _token_start(text, i))
            pending.append((nid, []))
        while pending and i < count and tokens[i] == ")":
            parent, kids = pending.pop()
            children[parent] = tuple(kids)
            i += 1
        if not pending:
            break
        if i == count:
            raise TextFormatError("missing ')'", len(text))
    if i != count:
        raise TextFormatError("trailing tokens after tree", _token_start(text, i))
    if error is not None:
        raise TextFormatError(error[0], _token_start(text, error[1]))
    return SyntacticTree._build(1, labels, children)


def _format_label(label: NodeLabel, leaf: bool, epsilon_nonterminal: bool = False) -> str:
    """A label as the tree format writes it.  A bare ``ε`` leaf reads back
    as the empty leaf, or as the nonterminal ``ε`` where the reader's
    nonterminals include it (``epsilon_nonterminal``); a leaf that would
    read back as the other is refused."""
    if label.kind is LabelKind.EPSILON:
        if epsilon_nonterminal:
            raise ValueError(f"an empty leaf reads back as the nonterminal {EPSILON!r}")
        return EPSILON
    name = label.name
    if not _BARE_LABEL_RE.fullmatch(name) or (label.kind is LabelKind.TERMINAL and name == EPSILON):
        if label.kind is not LabelKind.TERMINAL:
            raise ValueError(f"nonterminal name {name!r} contains reserved characters")
        name = '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    elif name == EPSILON and leaf and not (
        epsilon_nonterminal or label.substitution_marker or label.foot_marker
    ):
        raise ValueError(f"a nonterminal leaf named {EPSILON!r} reads back as the empty leaf")
    if label.substitution_marker:
        name += SUBSTITUTION_MARK
    if label.foot_marker:
        name += FOOT_MARK
    return name


def format_tree(tree: SyntacticTree) -> str:
    return _format_tree(tree, False)


def _format_tree(tree: SyntacticTree, epsilon_nonterminal: bool) -> str:
    labels, children = tree.labels, tree.children
    # each distinct label object is written once as a leaf and once as an
    # internal node, with its "(" (by id: the tree holds every label for
    # the call); an error is not kept, so it is raised at the first node
    # that has it
    leaf_texts: dict[int, str] = {}
    open_texts: dict[int, str] = {}
    parts: list[str] = []
    stack: list[int | str] = [tree.root]  # node ids and pending punctuation
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        label = labels[item]
        kids = children[item]
        if not kids:
            text = leaf_texts.get(id(label))
            if text is None:
                text = leaf_texts[id(label)] = _format_label(label, True, epsilon_nonterminal)
            parts.append(text)
            continue
        text = open_texts.get(id(label))
        if text is None:
            text = open_texts[id(label)] = _format_label(label, False, epsilon_nonterminal) + "("
        parts.append(text)
        pending: list[int | str] = [")"]
        for kid in reversed(kids):
            pending += (kid, " ")
        pending.pop()
        stack += pending
    return "".join(parts)


# ---------------------------------------------------------------------------
# Grammar format
# ---------------------------------------------------------------------------


def _header_symbols(text: str) -> list[str]:
    symbols = []
    for index, token in enumerate(_lex_tree(text)):
        name, _, marker = _label_parts(token)
        if token == "(" or token == ")" or marker:
            message = "header symbols take no parentheses or markers"
            raise TextFormatError(message, _token_start(text, index))
        symbols.append(name)
    return symbols


def parse_grammar(text: str) -> Grammar:
    """Read the grammar format; error positions are offsets into ``text``."""
    nonterminals: frozenset[str] | None = None
    terminals: frozenset[str] | None = None
    start: str | None = None
    initials: list[ElementaryTree] = []
    auxiliaries: list[ElementaryTree] = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        pos = offset + len(raw) - len(raw.lstrip())  # the line's first character
        offset += len(raw)
        line = raw.strip()
        if not line:
            continue
        head, colon, rest = line.partition(":")
        if head in ("nonterminals", "terminals", "start") and colon:
            try:
                symbols = _header_symbols(rest)
            except TextFormatError as err:
                at = pos + len(head) + 1 + err.position
                raise TextFormatError(err.message, at) from None
            if head == "nonterminals":
                nonterminals = frozenset(symbols)
            elif head == "terminals":
                terminals = frozenset(symbols)
            else:
                if len(symbols) != 1:
                    raise TextFormatError("start line needs exactly one symbol", pos)
                start = symbols[0]
            continue
        match = _BLOCK_RE.match(line)
        if not match:
            raise TextFormatError(f"cannot parse grammar line {line!r}", pos)
        if nonterminals is None or terminals is None or start is None:
            raise TextFormatError("tree blocks must come after the header lines", pos)
        kind = TreeKind.INITIAL if match.group(1) == "initial" else TreeKind.AUXILIARY
        try:
            tree = parse_tree(match.group(3), nonterminals=nonterminals, terminals=terminals)
        except TextFormatError as err:
            raise TextFormatError(err.message, pos + match.start(3) + err.position) from None
        bucket = initials if kind is TreeKind.INITIAL else auxiliaries
        bucket.append(ElementaryTree(match.group(2), kind, tree))
    if nonterminals is None or terminals is None or start is None:
        raise TextFormatError("grammar is missing header lines", 0)
    return Grammar(nonterminals, terminals, start, tuple(initials), tuple(auxiliaries))


def _format_name(name: str) -> str:
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"tree name {name!r} is not a word of letters, digits, '_', '.' or '-'")
    return name


def format_grammar(grammar: Grammar) -> str:
    """The grammar format; header symbols are written as tree labels
    would be, so a nonterminal name the format cannot write raises
    ``ValueError`` as in :func:`format_tree`, and so do a tree name
    outside ``[\\w.\\-]+`` and a terminal with a line break.  Where
    ``ε`` is a nonterminal, :func:`parse_grammar` reads a bare ``ε`` leaf
    as that nonterminal, so an empty leaf raises ``ValueError``."""
    nonterminals = [NodeLabel.nonterminal(name) for name in sorted(grammar.nonterminals)]
    terminals = [NodeLabel.terminal(name) for name in sorted(grammar.terminals)]
    lines = [
        "nonterminals: " + " ".join([_format_label(label, False) for label in nonterminals]),
        "terminals: " + " ".join([_format_label(label, False) for label in terminals]),
        "start: " + _format_label(NodeLabel.nonterminal(grammar.start), False),
    ]
    epsilon_nonterminal = EPSILON in grammar.nonterminals
    for entry in grammar.elementary():
        tree = _format_tree(entry.tree, epsilon_nonterminal)
        lines.append(f"{entry.kind.value} {_format_name(entry.name)} = {tree}")
    text = "\n".join(lines) + "\n"
    if text.splitlines() != lines:
        raise ValueError("a grammar label contains a line break")
    return text


# ---------------------------------------------------------------------------
# Derivation format
# ---------------------------------------------------------------------------

_ADDRESS = rf"{EPSILON}|\d+(?:\.\d+)*"
# the three productions of derivation text, each read by one pattern: a
# node name with an optional "[", an edge head "op@address ->", and the
# "," or "]" after a child.  Every piece after the first is an optional
# group, ``(?:piece|)`` or ``(piece|)`` (sre matches these faster than
# ``?``), and the whitespace before a piece is matched outside its group,
# so a read that stops early ends at the character where a piece is
# missing; no piece gives back what it matched, as all that follows it is
# optional, and ``\s`` agrees with ``str.isspace``
_NODE_RE = re.compile(rf"\s*(?:({_NAME_RE.pattern})\s*(\[|)|)")
_EDGE_HEAD_RE = re.compile(
    rf"\s*(?:({_NAME_RE.pattern})\s*(?:(@)\s*(?:({_ADDRESS})\s*(->|)|)|)|)"
)
_AFTER_CHILD_RE = re.compile(r"\s*([,\]]|)")
_OPERATIONS = {op.value: op for op in Operation}


def _edge_head_address(found: re.Match, addresses: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    """The address of an edge head read by ``_EDGE_HEAD_RE`` whose
    operation, address or ``->`` the fast path did not find: the first
    missing piece in reading order is an error, else the address text is
    new and is converted and kept in ``addresses``."""
    if found[1] is None:
        raise TextFormatError("expected an operation (sub/adj)", found.end())
    if found[1] not in _OPERATIONS:
        message = f"unknown operation {found[1]!r} (expected sub/adj)"
        raise TextFormatError(message, found.start(1))
    if found[2] is None:
        raise TextFormatError("expected '@'", found.end())
    text = found[3]
    if text is None:
        raise TextFormatError("expected a Gorn address", found.end())
    address = addresses.get(text)
    if address is None:
        try:
            address = () if text == EPSILON else tuple(int(part) for part in text.split("."))
        except ValueError:  # a digit run past the interpreter's limit
            raise TextFormatError("a Gorn address is out of range", found.start(3)) from None
        addresses[text] = address
    if not found[4]:
        raise TextFormatError("expected '->'", found.end())
    return address


def parse_derivation(text: str) -> DerivationTree:
    names: dict[str, str] = {}  # one string per distinct tree name
    addresses: dict[str, tuple[int, ...]] = {}  # one address per distinct address text
    # (name, edges, operation, address) of the nodes whose edge waits for its child
    stack: list[tuple] = []
    pos = 0
    while True:
        found = _NODE_RE.match(text, pos)
        pos = found.end()
        name = found[1]
        if name is None:
            raise TextFormatError("expected an elementary-tree name", pos)
        name = names.setdefault(name, name)
        if found[2]:
            edges: list[DerivationEdge] = []
        else:
            node = DerivationTree._build(name, ())
            while stack:
                name, edges, operation, address = stack.pop()
                # the constructors' rules (indices >= 1, distinct addresses)
                # are checked here and reported as format errors where they
                # are detected: after the child, and after the closing "]"
                if 0 in address:
                    raise TextFormatError(_INDEX_RULE, pos)
                edges.append(DerivationEdge._build(operation, address, node))
                found = _AFTER_CHILD_RE.match(text, pos)
                pos = found.end()
                if found[1] == ",":
                    break
                if not found[1]:
                    raise TextFormatError("expected ']'", pos)
                if len(edges) > 1 and len({edge.address for edge in edges}) < len(edges):
                    raise TextFormatError(_shared_address(name, edges), pos)
                node = DerivationTree._build(name, tuple(edges))
            else:  # the root is closed
                break
        # a "[" or "," is followed by the edge head of node ``name``
        found = _EDGE_HEAD_RE.match(text, pos)
        pos = found.end()
        operation = _OPERATIONS.get(found[1])
        address = addresses.get(found[3])
        if operation is None or address is None or not found[4]:
            address = _edge_head_address(found, addresses)
        stack.append((name, edges, operation, address))
    rest = text[pos:]
    if rest and not rest.isspace():
        raise TextFormatError("trailing text after derivation", len(text) - len(rest.lstrip()))
    return node


def format_derivation(derivation: DerivationTree) -> str:
    names: dict[str, str] = {}  # each distinct tree name, checked once
    # each distinct edge head "op@address -> " once, by operation and address
    heads: dict[Operation, dict[tuple[int, ...], str]] = {op: {} for op in Operation}
    parts: list[str] = []
    stack: list[DerivationTree | str] = [derivation]  # nodes and pending text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        name = names.get(item.tree_name)
        if name is None:
            name = names[item.tree_name] = _format_name(item.tree_name)
        parts.append(name)
        if item.edges:
            pending: list[DerivationTree | str] = ["]"]
            for edge in reversed(item.edges):
                known = heads[edge.operation]
                head = known.get(edge.address)
                if head is None:
                    head = known[edge.address] = (
                        f"{edge.operation.value}@{format_address(edge.address)} -> "
                    )
                pending += (edge.child, head, ", ")
            pending[-1] = "["
            stack += pending
    return "".join(parts)
