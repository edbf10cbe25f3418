"""Outcome parity and fuzzing of the three text parsers.

Each corpus is 10,000 short strings drawn with a fixed seed over one
format's alphabet: half are random sequences of its pieces, half are
generated well-formed texts with up to two random edits.  The digest
covers every outcome, either the formatted result or the exception type
and message, so any change in what the parsers accept, build or report
(including the position of an error) shows up as a mismatch.

The digests were captured from the recursive parsers that predate the
shared scanner.  The derivation digest was captured with one change
applied to them: an edge that breaks a rule of the derivation
constructors (a Gorn index 0, two edges at one address) raises
TextFormatError at the point of detection instead of a bare ValueError,
which changes 1,215 of its 10,000 outcomes.  The tree digest was
captured with one change applied to the parsers of the shared scanner:
a missing ``)`` is reported at the end of the text, where it is
missing, instead of at the last token, which changes 271 of its 10,000
outcomes.  The derivation digest was re-captured from the same parsers
with one change applied: where an operation is expected, a missing one
is reported as "expected an operation (sub/adj)" instead of as a missing
elementary-tree name, and an unknown operation is reported at its first
character instead of after its last, which changes 751 of its 10,000
outcomes.

The code-point digest feeds every character below 0x80, every
whitespace character, the markers, ``ε`` and 2,000 seeded code points
to the tree parser in six contexts (alone, inside a bare label, quoted,
escaped, as a child and before a marker); it was captured from the
character-loop lexer that predates the compiled token pattern.

Beyond the short strings, the readers must rebuild what the writers
wrote on large texts (100-term models, as large as the benchmark's) and
on every derivation of the model grammar within 4 adjunctions; there
the derivation reader, which builds through the trusted constructors,
must agree with a reference reader that builds through the checked
ones.  The tree lexer must split every corpus string into the token
spans of the pattern the tree digests were first captured with
(``oracles.REFERENCE_TREE_TOKEN_RE``).  The model reader reads each
production with one pattern; a second digest, over digit runs of every
length and a corpus with multi-digit ids and colons, pins the outcomes
of the stepwise reads that it replaced.  That digest was captured from
the stepwise reads alone, with the former patterns disabled; those
patterns misplaced the error after a multi-digit id and a colon.
"""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narmaxtag.generate import GenBounds, enumerate_derivations
from narmaxtag.models import (
    ModelError,
    Monomial,
    NarmaxModel,
    SignalKind,
    format_model_text,
    parse_model_text,
)
from narmaxtag.narmax import model_to_derivation
from narmaxtag.treeio import (
    _TREE_TOKEN_RE,
    TextFormatError,
    format_derivation,
    format_tree,
    parse_derivation,
    parse_tree,
)
from narmaxtag.trees import NodeLabel, SyntacticTree, derive

from oracles import REFERENCE_TREE_TOKEN_RE, reference_parse_derivation

TREE_LABELS = ("A", "expr0", "b", "ε", '"ε"', "q⁻¹", '"x y"', '"★"', '"a\\"b"')
TREE_PIECES = TREE_LABELS + ("(", ")", " ", "↓", "★", '"', "\\", "")
DERIVATION_PIECES = (
    "alpha1", "beta2", "b", "[", "]", "sub", "adj", "sup", "@", "ε", "0", "1", "2", ".",
    "->", "-", ",", " ", "",
)
MODEL_PIECES = (
    "c1", "c2", "c", ":", "-", "0.5", "1e3", "*", "u", "y", "xi", "[", "]", "0", "-1", "-2",
    "^", "2", "+", " ", "",
)
ALPHABETS = {"nonterminals": {"A", "expr0"}, "terminals": {"b", "q⁻¹", "★"}}


def random_tree(rng, depth):
    label = rng.choice(TREE_LABELS)
    if depth and rng.random() < 0.5:
        kids = " ".join(random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        return f"{label}({kids})"
    return label + rng.choice(("", "", "↓", "★"))


def random_derivation(rng, depth):
    name = rng.choice(("alpha1", "beta2", "b"))
    if depth and rng.random() < 0.5:
        edges = ", ".join(
            f"{rng.choice(('sub', 'adj'))}@{rng.choice(('ε', '1', '2.1', '1.3', '0'))} -> "
            + random_derivation(rng, depth - 1)
            for _ in range(rng.randint(1, 3))
        )
        return f"{name}[{edges}]"
    return name


def random_model(rng, depth):
    terms = []
    for _ in range(rng.randint(0, depth)):
        term = rng.choice(("c1", "c2", "c3:0.5", "c1:-2e1"))
        for _ in range(rng.randint(0, 3)):
            term += f"*{rng.choice(('u', 'y', 'xi'))}[{rng.choice(('0', '-1', '-2'))}]"
            term += rng.choice(("", "", "^2", "^0"))
        terms.append(term)
    return " + ".join(terms + ["xi"])


def corpus(generate, pieces, seed=7, size=10_000):
    rng = random.Random(seed)
    out = []
    for i in range(size):
        if i % 2:
            out.append("".join(rng.choice(pieces) for _ in range(rng.randint(0, 12))))
            continue
        text = generate(rng, 3)
        for _ in range(rng.randint(0, 2)):
            at = rng.randint(0, len(text))
            if rng.random() < 0.5:
                text = text[:at] + rng.choice(pieces) + text[at:]
            else:
                text = text[:at] + text[at + 1 :]
        out.append(text)
    return out


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # every outcome is recorded, escapes included
        return f"{type(exc).__name__}: {exc}"


def tree_outcome(text, **alphabets):
    tree = parse_tree(text, **alphabets)
    return f"{format_tree(tree)} {list(tree.pre_order())}"


def both_tree_outcomes(text):
    return outcome(tree_outcome, text) + " | " + outcome(
        lambda t: tree_outcome(t, **ALPHABETS), text
    )


CASES = {
    "tree": (random_tree, TREE_PIECES, both_tree_outcomes),
    "derivation": (
        random_derivation,
        DERIVATION_PIECES,
        lambda text: outcome(lambda t: format_derivation(parse_derivation(t)), text),
    ),
    "model": (
        random_model,
        MODEL_PIECES,
        lambda text: outcome(lambda t: format_model_text(parse_model_text(t)), text),
    ),
}

DIGESTS = {
    "tree": "2f2dc49f5c1799842cfc763b8f43b2a33d1e481be3424271eb6afbd26a3a87d6",
    "derivation": "3e78d6e67ce0d0648920d86bedcd1a10ec82bd80a206e23165ad5aa33c37f9f9",
    "model": "bfdb8ba5517acddfde976617f0e4f271b5f16f0e61ebed136bfca0c24ec60ff9",
}


@pytest.mark.parametrize("fmt", sorted(CASES))
def test_outcome_digest(fmt):
    generate, pieces, run = CASES[fmt]
    lines = [run(text) for text in corpus(generate, pieces)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGESTS[fmt]


def code_points():
    """Every code point below 0x80 and every whitespace code point, the
    markers and ``ε``, then 2,000 code points drawn with a fixed seed
    (surrogates skipped: they cannot be encoded for the digest)."""
    chars = [chr(c) for c in range(0x80)]
    chars += [chr(c) for c in range(0x110000) if chr(c).isspace()]
    chars += ["↓", "★", "ε"]
    rng = random.Random(0)
    drawn: list[str] = []
    while len(drawn) < 2000:
        c = rng.randrange(0x110000)
        if not 0xD800 <= c <= 0xDFFF:
            drawn.append(chr(c))
    return chars + drawn


CODE_POINT_CONTEXTS = ("{}", "x{}y", '"{}"', '"\\{}"', "A({})", "A({}↓ b)")
CODE_POINT_DIGEST = "f4574864570cb8e3a0518d4dbac2f97d9ab131c3796b15589638ca7017c1e4e5"


def test_code_point_outcome_digest():
    """Pins how the tree lexer treats each code point: as whitespace, as a
    bare-label character, inside quotes and after an escape."""
    lines = [
        both_tree_outcomes(context.format(c))
        for c in code_points()
        for context in CODE_POINT_CONTEXTS
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CODE_POINT_DIGEST


def test_tree_tokens_have_the_reference_spans():
    texts = corpus(random_tree, TREE_PIECES) + [
        context.format(c) for c in code_points() for context in CODE_POINT_CONTEXTS
    ]
    for text in texts:
        spans = [found.span() for found in REFERENCE_TREE_TOKEN_RE.finditer(text)]
        assert [found.span() for found in _TREE_TOKEN_RE.finditer(text)] == spans, repr(text)
        assert _TREE_TOKEN_RE.findall(text) == [text[a:b] for a, b in spans], repr(text)


def test_terminal_labels_round_trip():
    for c in code_points():
        label = NodeLabel.terminal("a" + c)
        tree = SyntacticTree(1, {1: NodeLabel.nonterminal("A"), 2: label}, {1: (2,)})
        back = parse_tree(format_tree(tree))
        assert back.labels == tree.labels and back.children == tree.children, repr(c)


def texts(pieces):
    return st.one_of(
        st.text(max_size=40),
        st.lists(st.sampled_from(pieces), max_size=25).map("".join),
    )


@settings(max_examples=300, deadline=None)
@given(texts(TREE_PIECES), st.booleans())
def test_tree_parser_raises_only_format_errors(text, with_alphabets):
    try:
        tree = parse_tree(text, **(ALPHABETS if with_alphabets else {}))
    except TextFormatError:
        return
    SyntacticTree(tree.root, tree.labels, tree.children)


@settings(max_examples=300, deadline=None)
@given(texts(DERIVATION_PIECES))
@example("a[adj@0 -> b]")
@example("a[sub@1 -> b, adj@1 -> c]")
@example("a[adj@" + "9" * 5000 + " -> b]")
def test_derivation_parser_raises_only_format_errors(text):
    try:
        parse_derivation(text)
    except TextFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(texts(MODEL_PIECES))
@example("c²*u[0] + xi")
@example("c" + "9" * 5000 + " + xi")
@example("c1:1e999*u[0] + xi")
def test_model_parser_raises_only_model_errors(text):
    try:
        model = parse_model_text(text)
    except ModelError:
        return
    assert parse_model_text(format_model_text(model)) == model


def preorder_maps(tree):
    """``labels`` and ``children`` with the node ids renumbered 1..n in
    pre-order, the numbering :func:`parse_tree` gives."""
    order = list(tree.pre_order())
    ids = {nid: index for index, nid in enumerate(order, 1)}
    labels = {ids[nid]: tree.labels[nid] for nid in order}
    children = {ids[nid]: tuple(ids[kid] for kid in tree.children[nid]) for nid in order}
    return labels, children


def assert_texts_round_trip(derivation, tree):
    text = format_derivation(derivation)
    back = parse_derivation(text)
    assert back == derivation  # tree names, operations, addresses and arities in pre-order
    assert back == reference_parse_derivation(text)
    read = parse_tree(format_tree(tree))
    assert read.root == 1
    assert (read.labels, read.children) == preorder_maps(tree)


def large_model(seed, n_terms=100, max_delay=10):
    """A model of ``n_terms`` distinct terms of 1-3 factors, exponents 1-2."""
    rng = random.Random(seed)
    grid = [
        (signal, delay)
        for signal in SignalKind
        for delay in range(1 if signal is SignalKind.OUTPUT else 0, max_delay + 1)
    ]
    seen, terms = set(), []
    while len(terms) < n_terms:
        keys = frozenset(rng.sample(grid, rng.randint(1, 3)))
        if keys not in seen:
            seen.add(keys)
            factors = {key: rng.randint(1, 2) for key in keys}
            terms.append(Monomial(len(terms) + 1, factors))
    return NarmaxModel(tuple(terms))


@pytest.mark.parametrize("seed", range(4))
def test_large_texts_round_trip(seed, narmax_catalog):
    derivation = model_to_derivation(large_model(seed))
    tree = derive(derivation, narmax_catalog.grammar)
    assert len(tree.labels) > 3000
    assert_texts_round_trip(derivation, tree)


def test_enumerated_texts_round_trip(narmax_catalog):
    grammar = narmax_catalog.grammar
    count = 0
    for derivation in enumerate_derivations(grammar, GenBounds(max_adjunctions=4)):
        assert_texts_round_trip(derivation, derive(derivation, grammar))
        count += 1
    assert count == 1201


def digit_run_texts():
    """Model texts with a digit run of each length in each number's place:
    the id, the value's integer part and exponent, the offset and the
    factor exponent; runs past the interpreter's digit limit included."""
    texts = []
    for length in (1, 2, 17, 18, 19, 20, 40, 4299, 4300, 4301):
        run = "9" * length
        for template in (
            "c{}*u[0] + xi",
            "c1:{} + xi",
            "c1:1e{} + xi",
            "c1*u[-{}] + xi",
            "c1*y[-{}]*u[0] + xi",
            "c1*u[0]^{} + xi",
            "c1*u[0]^{}*y[-1] + xi",
            "c1*xi[{}] + xi",
            "c1*u[0]^0{} + xi",
        ):
            texts.append(template.format(run))
    return texts


# multi-digit ids and a colon after them, bare or with a value that has no
# integer part
STEPWISE_MODEL_PIECES = MODEL_PIECES + ("c12", "c10:", "c23:.5")
STEPWISE_MODEL_DIGEST = "87e594ac49b64cbab0428167b6397ffb8e9d46200632227d3d8c8ecb6b67edcf"


def test_model_outcomes_are_the_stepwise_outcomes():
    texts = digit_run_texts() + corpus(random_model, STEPWISE_MODEL_PIECES, seed=3, size=20_000)
    run = CASES["model"][2]
    lines = [run(text) for text in texts]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == STEPWISE_MODEL_DIGEST
