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
terminal.  Tree text is lexed by one compiled pattern.  Its bare-label
rule, like the tree-name rule ``[\\w.\\-]+``, is shared by the readers
and the writers, so a writer refuses what its reader could not read
back.

Grammar format: ``nonterminals:`` / ``terminals:`` / ``start:`` header
lines followed by named tree blocks ``initial NAME = TREE`` and
``auxiliary NAME = TREE``.  Header symbols are written like tree labels,
quoted where needed, but without parentheses or markers.

Derivation format: nested ``name[op@address -> child, ...]`` lists with
``op`` one of ``sub``/``adj`` and dotted Gorn addresses (``ε`` for the
root).

Derivation text and the model text of :mod:`narmaxtag.models` are read
with one cursor, :class:`_Scanner`.  Every parser and printer here is a
loop over an explicit stack, so nesting depth is bounded by memory only.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Iterable

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
    format_address,
)

_MARKERS = SUBSTITUTION_MARK + FOOT_MARK
_BARE_LABEL_RE = re.compile(rf'[^\s()"{_MARKERS}]+')
# "(" or ")" | a quoted or bare label with an optional marker | any other
# non-space character, an error; whitespace between tokens matches nothing
_TREE_TOKEN_RE = re.compile(
    rf'([()])|(?:"((?:[^"\\]|\\.)*)"|({_BARE_LABEL_RE.pattern}))([{_MARKERS}])?|(\S)',
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_NAME_RE = re.compile(r"[\w.\-]+")
_BLOCK_RE = re.compile(rf"(initial|auxiliary)\s+({_NAME_RE.pattern})\s*=\s*(.+)$")


class TextFormatError(ValueError):
    """Syntax error in one of the text formats, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class _Scanner:
    """Cursor over text; mismatches raise ``error(message, position)``."""

    def __init__(self, text: str, error: type[ValueError]):
        self.text = text
        self.pos = 0
        self.error = error

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.error(f"expected {literal!r}", self.pos)

    def match(self, pattern: re.Pattern, what: str) -> str:
        self.skip_ws()
        found = pattern.match(self.text, self.pos)
        if not found:
            raise self.error(f"expected {what}", self.pos)
        self.pos = found.end()
        return found.group()

    def number(self, pattern: re.Pattern, what: str, convert: Callable) -> Any:
        """``convert`` of the next ``match``; a value it cannot take, such as
        a digit run past the interpreter's limit, or a non-finite float is
        an error at the value's first character."""
        self.skip_ws()
        start = self.pos
        text = self.match(pattern, what)
        try:
            value = convert(text)
        except ValueError:
            raise self.error(f"{what} is out of range", start) from None
        if isinstance(value, float) and not math.isfinite(value):
            raise self.error(f"{what} is out of range", start)
        return value


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------


def _tokenize_tree(text: str) -> list[tuple]:
    """``(kind, text, pos, marker, quoted)`` tuples; kind is "label", "(" or ")"."""
    tokens: list[tuple] = []
    for found in _TREE_TOKEN_RE.finditer(text):
        punct, quoted, bare, marker, other = found.groups()
        pos = found.start()
        if punct:
            tokens.append((punct, punct, pos, None, False))
        elif bare:
            tokens.append(("label", bare, pos, marker, False))
        elif quoted is not None:
            tokens.append(("label", _ESCAPE_RE.sub(r"\1", quoted), pos, marker, True))
        elif other == '"':
            raise TextFormatError("unterminated quoted label", pos)
        else:
            raise TextFormatError("marker without a preceding label", pos)
    return tokens


# ---------------------------------------------------------------------------
# Tree format
# ---------------------------------------------------------------------------


def _resolve_label(
    token: tuple,
    internal: bool,
    nonterminals: frozenset[str] | None,
    terminals: frozenset[str] | None,
) -> NodeLabel:
    _, name, pos, marker, quoted = token
    site = marker == SUBSTITUTION_MARK
    foot = marker == FOOT_MARK
    if not name:
        raise TextFormatError("empty label", pos)
    if nonterminals is not None or terminals is not None:
        if not quoted and name in (nonterminals or frozenset()):
            return NodeLabel.nonterminal(name, site=site, foot=foot)
        if not quoted and name == EPSILON:
            return NodeLabel.epsilon()
        if name in (terminals or frozenset()):
            if marker:
                raise TextFormatError(f"terminal {name!r} cannot carry a marker", pos)
            return NodeLabel.terminal(name)
        raise TextFormatError(f"label {name!r} is not in the alphabets", pos)
    if internal or marker:
        if quoted:
            raise TextFormatError("quoted labels denote terminals", pos)
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
    tokens = _tokenize_tree(text)
    if not tokens:
        raise TextFormatError("empty tree text", 0)
    # structure first, labels after: a structural error anywhere in the
    # text wins over a label error; node ids are 1..n in pre-order
    heads: dict[int, tuple] = {}
    kids: dict[int, list[int]] = {}
    open_nodes: list[int] = []  # nodes whose ')' is pending
    i = 0
    while True:
        if tokens[i][0] != "label":
            raise TextFormatError("expected a node label", tokens[i][2])
        nid = len(heads) + 1
        heads[nid], kids[nid] = tokens[i], []
        if open_nodes:
            kids[open_nodes[-1]].append(nid)
        i += 1
        if i < len(tokens) and tokens[i][0] == "(":
            i += 1
            if i < len(tokens) and tokens[i][0] == ")":
                raise TextFormatError("empty child list", tokens[i][2])
            open_nodes.append(nid)
        while open_nodes and i < len(tokens) and tokens[i][0] == ")":
            open_nodes.pop()
            i += 1
        if not open_nodes:
            break
        if i == len(tokens):
            raise TextFormatError("missing ')'", len(text))
    if i != len(tokens):
        raise TextFormatError("trailing tokens after tree", tokens[i][2])
    nts = None if nonterminals is None else frozenset(nonterminals)
    ts = None if terminals is None else frozenset(terminals)
    labels = {nid: _resolve_label(head, bool(kids[nid]), nts, ts) for nid, head in heads.items()}
    children = {nid: tuple(ids) for nid, ids in kids.items()}
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
    parts: list[str] = []
    stack: list[int | str] = [tree.root]  # node ids and pending punctuation
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        kids = tree.children[item]
        parts.append(_format_label(tree.labels[item], not kids, epsilon_nonterminal))
        if kids:
            pending: list[int | str] = [")"]
            for kid in reversed(kids):
                pending += (kid, " ")
            pending[-1] = "("
            stack += pending
    return "".join(parts)


# ---------------------------------------------------------------------------
# Grammar format
# ---------------------------------------------------------------------------


def _header_symbols(text: str) -> list[str]:
    tokens = _tokenize_tree(text)
    for kind, _, pos, marker, _ in tokens:
        if kind != "label" or marker:
            raise TextFormatError("header symbols take no parentheses or markers", pos)
    return [token[1] for token in tokens]


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

_ADDRESS_RE = re.compile(rf"{EPSILON}|\d+(?:\.\d+)*")


def _address(text: str) -> tuple[int, ...]:
    return () if text == EPSILON else tuple(int(part) for part in text.split("."))


def _edge_head(scanner: _Scanner, name: str, edges: list[DerivationEdge]) -> tuple:
    """Read ``op@address ->`` of the next edge of node ``name``."""
    scanner.skip_ws()
    start = scanner.pos
    op_name = scanner.match(_NAME_RE, "an operation (sub/adj)")
    try:
        operation = Operation(op_name)
    except ValueError:
        raise TextFormatError(f"unknown operation {op_name!r} (expected sub/adj)", start) from None
    scanner.expect("@")
    address = scanner.number(_ADDRESS_RE, "a Gorn address", _address)
    scanner.expect("->")
    return name, edges, operation, address


def parse_derivation(text: str) -> DerivationTree:
    scanner = _Scanner(text, TextFormatError)
    # (name, edges, operation, address) of the nodes whose edge waits for its child
    stack: list[tuple] = []
    while True:
        name = scanner.match(_NAME_RE, "an elementary-tree name")
        if scanner.take("["):
            stack.append(_edge_head(scanner, name, []))
            continue
        node = DerivationTree(name)
        while stack:
            parent, edges, operation, address = stack.pop()
            # the constructors' rules (indices >= 1, distinct addresses)
            # are reported as format errors where they are detected
            try:
                edges.append(DerivationEdge(operation, address, node))
            except ValueError as exc:
                raise TextFormatError(str(exc), scanner.pos) from None
            if scanner.take(","):
                stack.append(_edge_head(scanner, parent, edges))
                break
            scanner.expect("]")
            try:
                node = DerivationTree(parent, tuple(edges))
            except ValueError as exc:
                raise TextFormatError(str(exc), scanner.pos) from None
        if not stack:
            break
    if scanner.peek():
        raise TextFormatError("trailing text after derivation", scanner.pos)
    return node


def format_derivation(derivation: DerivationTree) -> str:
    parts: list[str] = []
    stack: list[DerivationTree | str] = [derivation]  # nodes and pending text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(_format_name(item.tree_name))
        if item.edges:
            pending: list[DerivationTree | str] = ["]"]
            for edge in reversed(item.edges):
                head = f"{edge.operation.value}@{format_address(edge.address)} -> "
                pending += (edge.child, head, ", ")
            pending[-1] = "["
            stack += pending
    return "".join(parts)
