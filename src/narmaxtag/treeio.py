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
terminal.

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

_SPECIAL = set("()\"" + SUBSTITUTION_MARK + FOOT_MARK)


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


class _Token:
    __slots__ = ("kind", "text", "marker", "quoted", "pos")

    def __init__(self, kind, text, pos, marker=None, quoted=False):
        self.kind = kind  # "label", "(", ")"
        self.text = text
        self.marker = marker
        self.quoted = quoted
        self.pos = pos


def _tokenize_tree(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch in (SUBSTITUTION_MARK, FOOT_MARK):
            raise TextFormatError("marker without a preceding label", i)
        start = i
        if ch == '"':
            i += 1
            parts = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    parts.append(text[i + 1])
                    i += 2
                else:
                    parts.append(text[i])
                    i += 1
            if i >= n:
                raise TextFormatError("unterminated quoted label", start)
            i += 1
            label, quoted = "".join(parts), True
        else:
            while i < n and not text[i].isspace() and text[i] not in _SPECIAL:
                i += 1
            label, quoted = text[start:i], False
        marker = None
        if i < n and text[i] in (SUBSTITUTION_MARK, FOOT_MARK):
            marker = text[i]
            i += 1
        tokens.append(_Token("label", label, start, marker=marker, quoted=quoted))
    return tokens


# ---------------------------------------------------------------------------
# Tree format
# ---------------------------------------------------------------------------


def _resolve_label(
    tok: _Token,
    internal: bool,
    nonterminals: frozenset[str] | None,
    terminals: frozenset[str] | None,
) -> NodeLabel:
    site = tok.marker == SUBSTITUTION_MARK
    foot = tok.marker == FOOT_MARK
    name = tok.text
    if not name:
        raise TextFormatError("empty label", tok.pos)
    if nonterminals is not None or terminals is not None:
        if not tok.quoted and name in (nonterminals or frozenset()):
            return NodeLabel.nonterminal(name, site=site, foot=foot)
        if not tok.quoted and name == EPSILON:
            return NodeLabel.epsilon()
        if name in (terminals or frozenset()):
            if tok.marker:
                raise TextFormatError(f"terminal {name!r} cannot carry a marker", tok.pos)
            return NodeLabel.terminal(name)
        raise TextFormatError(f"label {name!r} is not in the alphabets", tok.pos)
    if internal or tok.marker:
        if tok.quoted:
            raise TextFormatError("quoted labels denote terminals", tok.pos)
        return NodeLabel.nonterminal(name, site=site, foot=foot)
    if name == EPSILON and not tok.quoted:
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
    heads: dict[int, _Token] = {}
    kids: dict[int, list[int]] = {}
    open_nodes: list[int] = []  # nodes whose ')' is pending
    i = 0
    while True:
        if tokens[i].kind != "label":
            raise TextFormatError("expected a node label", tokens[i].pos)
        nid = len(heads) + 1
        heads[nid], kids[nid] = tokens[i], []
        if open_nodes:
            kids[open_nodes[-1]].append(nid)
        i += 1
        if i < len(tokens) and tokens[i].kind == "(":
            i += 1
            if i < len(tokens) and tokens[i].kind == ")":
                raise TextFormatError("empty child list", tokens[i].pos)
            open_nodes.append(nid)
        while open_nodes and i < len(tokens) and tokens[i].kind == ")":
            open_nodes.pop()
            i += 1
        if not open_nodes:
            break
        if i == len(tokens):
            raise TextFormatError("missing ')'", len(text))
    if i != len(tokens):
        raise TextFormatError("trailing tokens after tree", tokens[i].pos)
    nts = None if nonterminals is None else frozenset(nonterminals)
    ts = None if terminals is None else frozenset(terminals)
    labels = {nid: _resolve_label(tok, bool(kids[nid]), nts, ts) for nid, tok in heads.items()}
    children = {nid: tuple(ids) for nid, ids in kids.items()}
    return SyntacticTree._build(1, labels, children)


def _format_label(label: NodeLabel) -> str:
    name = label.name
    if label.kind is LabelKind.EPSILON:
        return EPSILON
    needs_quote = (
        not name
        or any(ch.isspace() or ch in _SPECIAL for ch in name)
        or (label.kind is LabelKind.TERMINAL and name == EPSILON)
    )
    if needs_quote:
        if label.kind is not LabelKind.TERMINAL:
            raise ValueError(f"nonterminal name {name!r} contains reserved characters")
        name = '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if label.substitution_marker:
        name += SUBSTITUTION_MARK
    if label.foot_marker:
        name += FOOT_MARK
    return name


def format_tree(tree: SyntacticTree) -> str:
    parts: list[str] = []
    stack: list[int | str] = [tree.root]  # node ids and pending punctuation
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(_format_label(tree.labels[item]))
        kids = tree.children[item]
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
    for tok in tokens:
        if tok.kind != "label" or tok.marker:
            raise TextFormatError("header symbols take no parentheses or markers", tok.pos)
    return [tok.text for tok in tokens]


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
        match = re.match(r"(initial|auxiliary)\s+([\w.\-]+)\s*=\s*(.+)$", line)
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


def format_grammar(grammar: Grammar) -> str:
    """The grammar format; header symbols are written as tree labels
    would be, so a nonterminal name the format cannot write raises
    ``ValueError`` as in :func:`format_tree`."""
    nonterminals = [NodeLabel.nonterminal(name) for name in sorted(grammar.nonterminals)]
    terminals = [NodeLabel.terminal(name) for name in sorted(grammar.terminals)]
    lines = [
        "nonterminals: " + " ".join([_format_label(label) for label in nonterminals]),
        "terminals: " + " ".join([_format_label(label) for label in terminals]),
        "start: " + _format_label(NodeLabel.nonterminal(grammar.start)),
    ]
    for entry in grammar.initials:
        lines.append(f"initial {entry.name} = {format_tree(entry.tree)}")
    for entry in grammar.auxiliaries:
        lines.append(f"auxiliary {entry.name} = {format_tree(entry.tree)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Derivation format
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[\w.\-]+")
_ADDRESS_RE = re.compile(rf"{EPSILON}|\d+(?:\.\d+)*")


def _address(text: str) -> tuple[int, ...]:
    return () if text == EPSILON else tuple(int(part) for part in text.split("."))


def _edge_head(scanner: _Scanner, name: str, edges: list[DerivationEdge]) -> tuple:
    """Read ``op@address ->`` of the next edge of node ``name``."""
    op_name = scanner.match(_NAME_RE, "an elementary-tree name")
    try:
        operation = Operation(op_name)
    except ValueError:
        raise TextFormatError(
            f"unknown operation {op_name!r} (expected sub/adj)", scanner.pos
        ) from None
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
        parts.append(item.tree_name)
        if item.edges:
            pending: list[DerivationTree | str] = ["]"]
            for edge in reversed(item.edges):
                head = f"{edge.operation.value}@{format_address(edge.address)} -> "
                pending += (edge.child, head, ", ")
            pending[-1] = "["
            stack += pending
    return "".join(parts)
