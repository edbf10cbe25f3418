import pytest

from narmaxtag import DerivationTree, ElementaryTree, Grammar, LabelKind, Operation
from narmaxtag.trees import DerivationEdge, NodeLabel, SyntacticTree, TreeKind
from narmaxtag.treeio import (
    TextFormatError,
    format_derivation,
    format_grammar,
    format_tree,
    parse_derivation,
    parse_grammar,
    parse_tree,
)

from conftest import ADVERB_DERIVATION, PLAIN_DERIVATION, SENTENCE_GRAMMAR_TEXT
from oracles import structurally_equal, substitution_sites


class TestTreeFormat:
    def test_model_tree_shape(self):
        text = "expr0(expr1(par(c) op(×) expr2(u)) op(+) expr0★)"
        tree = parse_tree(text)
        assert format_tree(tree) == text
        foot = tree.foot_node()
        assert foot is not None
        assert tree.labels[foot].name == "expr0"

    def test_markers(self):
        tree = parse_tree("sentence(sub↓ pred↓)")
        assert len(substitution_sites(tree)) == 2
        assert format_tree(tree) == "sentence(sub↓ pred↓)"

    def test_whitespace_insensitive(self):
        a = parse_tree("A( b   c(d) )")
        b = parse_tree("A(b c(d))")
        assert structurally_equal(a, b)
        assert format_tree(a) == "A(b c(d))"

    def test_quoted_terminals(self):
        for text, names in (
            ('A("(" "two words" "★")', ["(", "two words", "★"]),
            # one quoted terminal at several leaves, read and written once
            ('A("a b" B("a b" "a\\"b") "a b")', ["a b", "a b", 'a"b', "a b"]),
        ):
            tree = parse_tree(text)
            assert [tree.labels[n].name for n in tree.leaves()] == names
            assert format_tree(tree) == text
            assert structurally_equal(parse_tree(text), tree)

    def test_epsilon_and_quoted_epsilon(self):
        tree = parse_tree('A(ε "ε")')
        kinds = [tree.labels[n].kind for n in tree.leaves()]
        assert kinds == [LabelKind.EPSILON, LabelKind.TERMINAL]
        assert format_tree(tree) == 'A(ε "ε")'

    def test_nonterminal_epsilon_leaf_is_refused(self):
        # read back without alphabets, a bare ``ε`` leaf is the empty leaf
        epsilon, reserved = NodeLabel.nonterminal("ε"), NodeLabel.nonterminal("a b")
        for labels, children, message in (
            ({1: NodeLabel.nonterminal("A"), 2: epsilon}, {1: (2,)}, "empty leaf"),
            # one label object at an internal node and then at a leaf: the
            # leaf is refused though the internal node was written
            ({1: epsilon, 2: epsilon}, {1: (2,)}, "empty leaf"),
            # two faults: the first node in pre-order decides
            ({1: NodeLabel.nonterminal("A"), 2: epsilon, 3: reserved}, {1: (2, 3)}, "empty leaf"),
            (
                {1: NodeLabel.nonterminal("A"), 2: reserved, 3: epsilon},
                {1: (2, 3)},
                "reserved characters",
            ),
        ):
            with pytest.raises(ValueError, match=message):
                format_tree(SyntacticTree(1, labels, children))
        # marked or internal, it reads back as a nonterminal
        for text in ("A(ε↓)", "A(ε★)", "ε(a)"):
            tree = parse_tree(text)
            (label,) = [label for label in tree.labels.values() if label.name == "ε"]
            assert label.kind is LabelKind.NONTERMINAL
            assert format_tree(tree) == text

    def test_one_label_object_internal_and_leaf(self):
        label = NodeLabel.nonterminal("A")
        tree = SyntacticTree(1, {1: label, 2: label, 3: label, 4: label}, {1: (2, 3), 3: (4,)})
        assert format_tree(tree) == "A(A A(A))"

    def test_kind_resolution_with_alphabets(self):
        tree = parse_tree("A(B)", nonterminals={"A", "B"}, terminals=set())
        leaf = next(iter(tree.leaves()))
        assert tree.labels[leaf].kind is LabelKind.NONTERMINAL
        bare = parse_tree("A(B)")
        assert bare.labels[next(iter(bare.leaves()))].kind is LabelKind.TERMINAL

    # one name as internal, leaf, quoted, ``↓`` and ``★``: each occurrence
    # keeps its own label kind, though the reader resolves each distinct
    # label token once
    MIXED = 'A(A "A" A↓ A★ B(A "A") A(A↓))'

    def test_one_name_in_every_role(self):
        tree = parse_tree(self.MIXED)
        nt, t = NodeLabel.nonterminal("A"), NodeLabel.terminal("A")
        site, foot = NodeLabel.nonterminal("A", site=True), NodeLabel.nonterminal("A", foot=True)
        assert [tree.labels[nid] for nid in tree.pre_order()] == [
            nt, t, t, site, foot, NodeLabel.nonterminal("B"), t, t, nt, site,
        ]
        assert format_tree(tree) == 'A(A A A↓ A★ B(A A) A(A↓))'

    def test_one_name_in_every_role_with_alphabets(self):
        tree = parse_tree(self.MIXED, nonterminals={"A", "B"}, terminals={"A"})
        nt, t = NodeLabel.nonterminal("A"), NodeLabel.terminal("A")
        site, foot = NodeLabel.nonterminal("A", site=True), NodeLabel.nonterminal("A", foot=True)
        assert [tree.labels[nid] for nid in tree.pre_order()] == [
            nt, nt, t, site, foot, NodeLabel.nonterminal("B"), nt, t, nt, site,
        ]

    def test_a_repeated_bad_label_is_reported_at_its_first_node(self):
        # the second "zz" is resolved from the same token as the first
        for text, position in (("A(b zz c zz)", 4), ("A(zz(b) zz)", 2)):
            with pytest.raises(TextFormatError, match="'zz' is not in the alphabets") as err:
                parse_tree(text, nonterminals={"A"}, terminals={"b", "c"})
            assert err.value.position == position
        with pytest.raises(TextFormatError, match="quoted labels denote terminals") as err:
            parse_tree('A("q" "q"(b) "q"(c))')
        assert err.value.position == 6

    ALPHABETS = {"nonterminals": {"A"}, "terminals": {"b", "c"}}

    @pytest.mark.parametrize(
        "text, alphabets, message, position",
        [
            # a label error comes first in the text, yet the lexical or
            # structural error after it is the one reported
            ('A("q"(b) c', False, "missing ')'", 10),
            ("A(zz(b) c", True, "missing ')'", 9),
            ('A("q"(b) c) d', False, "trailing tokens after tree", 12),
            ("A(zz(b) c↓ ())", True, "empty child list", 12),
            ('A(zz(b) "c)', True, "unterminated quoted label", 8),
            # with the structure whole, the first label error in node order
            ("A(zz yy(b))", True, "label 'zz' is not in the alphabets", 2),
            ("A(b↓ zz)", True, "terminal 'b' cannot carry a marker", 2),
            ('A("q"(b) "")', False, "quoted labels denote terminals", 2),
            ('A("" "q"(b))', False, "empty label", 2),
        ],
    )
    def test_error_precedence_in_one_pass(self, text, alphabets, message, position):
        kinds = self.ALPHABETS if alphabets else {}
        with pytest.raises(TextFormatError) as err:
            parse_tree(text, **kinds)
        assert (err.value.message, err.value.position) == (message, position)

    @pytest.mark.parametrize(
        "bad, alphabets, message",
        [
            ("a↓", True, "terminal 'a' cannot carry a marker"),
            ("zz", True, "label 'zz' is not in the alphabets"),
            ('"q"(a)', False, "quoted labels denote terminals"),
            ('""', False, "empty label"),
        ],
    )
    def test_label_errors_deep_in_a_large_tree(self, bad, alphabets, message):
        # a label error's position is looked up only once it is raised:
        # here, ~12,000 nodes in, at depth 6,000 and after whitespace
        top = "A(" * 6_000 + "a  a\t(a) " * 1_000
        text = top + bad + " a" * 1_000 + ")" * 6_000
        kinds = {"nonterminals": {"A"}, "terminals": {"a"}} if alphabets else {}
        assert len(parse_tree(top + "a" + text[len(top) + len(bad) :], **kinds).labels) > 10**4
        with pytest.raises(TextFormatError) as err:
            parse_tree(text, **kinds)
        assert (err.value.message, err.value.position) == (message, len(top))

    def test_unknown_label_with_alphabets(self):
        with pytest.raises(TextFormatError):
            parse_tree("A(z)", nonterminals={"A"}, terminals={"a"})

    def test_errors_carry_positions(self):
        with pytest.raises(TextFormatError) as err:
            parse_tree("A(b")
        assert "position" in str(err.value)
        with pytest.raises(TextFormatError):
            parse_tree("")
        with pytest.raises(TextFormatError):
            parse_tree("A()")
        with pytest.raises(TextFormatError):
            parse_tree("A(b) c")

    @pytest.mark.parametrize("text", ["S(a b", "S(a b  ", "S(a(b c)", "S("])
    def test_missing_paren_is_reported_at_the_end(self, text):
        with pytest.raises(TextFormatError, match="missing '\\)'") as info:
            parse_tree(text)
        assert info.value.position == len(text)

    def test_roundtrip_is_stable(self):
        for text in (
            "expr0(ξ)",
            "expr2(expr2★ q⁻¹)",
            "sentence(adv(yesterday) sentence★)",
            "A(B↓ ε c)",
        ):
            tree = parse_tree(text)
            once = format_tree(tree)
            again = format_tree(parse_tree(once))
            assert once == again == text

    def test_deep_nesting(self):
        text = "A(" * 10_000 + "b" + ")" * 10_000
        tree = parse_tree(text)
        assert len(tree.labels) == 10_001
        assert format_tree(tree) == text


class TestGrammarFormat:
    def test_sentence_grammar_roundtrip(self, sentence_grammar):
        text = format_grammar(sentence_grammar)
        parsed = parse_grammar(text)
        assert format_grammar(parsed) == text
        assert parsed.start == "sentence"
        assert {e.name for e in parsed.initials} == {"alpha1", "alpha2", "alpha3"}
        assert {e.name for e in parsed.auxiliaries} == {"beta1"}

    def test_model_grammar_roundtrip(self, narmax_catalog):
        text = format_grammar(narmax_catalog.grammar)
        assert format_grammar(parse_grammar(text)) == text

    def test_headers_required_before_trees(self):
        with pytest.raises(TextFormatError):
            parse_grammar("initial a = A(b)\nnonterminals: A\nterminals: b\nstart: A\n")

    @pytest.mark.parametrize(
        "text, char",
        [
            ("nonterminals: S\nterminals: a\n  start: S(T)\n", "("),
            ("nonterminals: S A\nterminals: a\nstart: S\n\n  initial t = S(A(a) x)\n", "x"),
            ("nonterminals: S\r\nterminals: a\r\nstart: S\r\nauxiliary b = S(S★ ★)\r\n", "★"),
        ],
    )
    def test_errors_carry_file_positions(self, text, char):
        with pytest.raises(TextFormatError) as info:
            parse_grammar(text)
        assert text[info.value.position] == char

    @pytest.mark.parametrize(
        "text, message, position",
        [
            (
                "nonterminals: S T\nterminals: a\n  start: S T\n",
                "start line needs exactly one symbol",
                33,
            ),
            (
                "nonterminals: S\nterminals: a\nstart: S\ninitial t S(a)\n",
                "cannot parse grammar line 'initial t S(a)'",
                38,
            ),
            ("nonterminals: S\nterminals: a\n", "grammar is missing header lines", 0),
        ],
    )
    def test_refused_lines(self, text, message, position):
        with pytest.raises(TextFormatError) as info:
            parse_grammar(text)
        assert (info.value.message, info.value.position) == (message, position)

    def test_missing_paren_is_reported_at_the_tree_block_end(self):
        text = "nonterminals: S\nterminals: a b\nstart: S\ninitial t = S(a b  \n"
        with pytest.raises(TextFormatError, match="missing") as info:
            parse_grammar(text)
        assert text[: info.value.position].endswith("initial t = S(a b")

    @pytest.mark.parametrize(
        "nonterminals, start", [({"A B", "S"}, "S"), ({"S"}, "A B"), ({"S", ""}, "S")]
    )
    def test_unwritable_header_names_are_rejected(self, nonterminals, start):
        # written unquoted, "A B" would read back as two nonterminals
        grammar = Grammar(nonterminals, {"a"}, start, (), ())
        with pytest.raises(ValueError, match="reserved characters"):
            format_grammar(grammar)

    @pytest.mark.parametrize("name", ["alpha 1", ""])
    def test_unreadable_tree_names_are_rejected(self, name):
        # "initial alpha 1 = S(a)" is a line parse_grammar cannot read
        tree = ElementaryTree(name, TreeKind.INITIAL, parse_tree("S(a)"))
        grammar = Grammar({"S"}, {"a"}, "S", (tree,), ())
        with pytest.raises(ValueError, match="tree name"):
            format_grammar(grammar)

    @pytest.mark.parametrize("terminal", ["x\ny", "x\u2028y", "x\r"])
    def test_terminals_with_line_breaks_are_rejected(self, terminal):
        # the quoted label would span two lines of the file
        grammar = Grammar({"S"}, {terminal}, "S", (), ())
        with pytest.raises(ValueError, match="line break"):
            format_grammar(grammar)

    @staticmethod
    def epsilon_grammar(leaf):
        # nonterminals {A, ε}: parse_grammar reads a bare ``ε`` leaf as
        # the nonterminal
        tree = SyntacticTree(
            1, {1: NodeLabel.nonterminal("A"), 2: leaf, 3: NodeLabel.terminal("a")}, {1: (2, 3)}
        )
        return Grammar({"A", "ε"}, {"a"}, "A", (ElementaryTree("t", TreeKind.INITIAL, tree),), ())

    def test_empty_leaf_beside_an_epsilon_nonterminal_is_refused(self):
        with pytest.raises(ValueError, match="reads back as the nonterminal"):
            format_grammar(self.epsilon_grammar(NodeLabel.epsilon()))
        # beside a leaf with another fault: the first node in pre-order decides
        for leaf, message in (
            (NodeLabel.terminal("a"), "reads back as the nonterminal"),
            (NodeLabel.nonterminal("a b"), "reserved characters"),
        ):
            tree = SyntacticTree(
                1,
                {1: NodeLabel.nonterminal("A"), 2: leaf, 3: NodeLabel.epsilon(), 4: leaf},
                {1: (2, 3, 4)},
            )
            entry = ElementaryTree("t", TreeKind.INITIAL, tree)
            grammar = Grammar({"A", "ε"}, {"a"}, "A", (entry,), ())
            with pytest.raises(ValueError, match=message):
                format_grammar(grammar)

    def test_epsilon_nonterminal_leaf_roundtrips(self):
        grammar = self.epsilon_grammar(NodeLabel.nonterminal("ε"))
        text = format_grammar(grammar)
        assert text.splitlines()[-1] == "initial t = A(ε a)"
        back = parse_grammar(text)
        assert structurally_equal(back.initials[0].tree, grammar.initials[0].tree)
        assert format_grammar(back) == text

    def test_header_marker_is_an_error(self):
        text = "nonterminals: S B↓\nterminals: a\nstart: S\n"
        with pytest.raises(TextFormatError, match="no parentheses or markers") as info:
            parse_grammar(text)
        assert text[info.value.position:].startswith("B↓")

    def test_quoted_terminals_roundtrip(self):
        text = (
            'nonterminals: S\nterminals: "(" a "two words"\nstart: S\n'
            'initial t = S("two words" "(" a)\n'
        )
        grammar = parse_grammar(text)
        assert grammar.terminals == {"(", "two words", "a"}
        assert format_grammar(grammar) == text
        assert format_grammar(parse_grammar(format_grammar(grammar))) == text

    def test_kind_assignment(self):
        grammar = parse_grammar(SENTENCE_GRAMMAR_TEXT)
        alpha1 = grammar.find("alpha1")
        sites = substitution_sites(alpha1.tree)
        assert len(sites) == 2
        assert all(
            alpha1.tree.labels[n].kind is LabelKind.NONTERMINAL for n in sites
        )


class TestDerivationFormat:
    def test_roundtrip(self):
        for text in (
            "alpha1",
            PLAIN_DERIVATION,
            ADVERB_DERIVATION,
            "alpha1[adj@ε -> beta3[adj@ε -> beta2[adj@1 -> beta5], adj@1.3 -> beta7]]",
        ):
            derivation = parse_derivation(text)
            assert format_derivation(derivation) == text

    def test_whitespace_insensitive(self):
        a = parse_derivation("alpha1[ sub@1  ->alpha2 ,sub@2-> alpha3 ]")
        b = parse_derivation(PLAIN_DERIVATION)
        assert a == b

    def test_addresses(self):
        derivation = parse_derivation("a[adj@1.2.3 -> b]")
        assert derivation.edges[0].address == (1, 2, 3)
        root = parse_derivation("a[adj@ε -> b]")
        assert root.edges[0].address == ()

    def test_bad_operation(self):
        with pytest.raises(TextFormatError):
            parse_derivation("a[sup@1 -> b]")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a[sub@1 -> b, ]", "expected an operation (sub/adj) (at position 14)"),
            ("a[ sup@1 -> b]", "unknown operation 'sup' (expected sub/adj) (at position 3)"),
        ],
    )
    def test_operation_errors_point_at_the_operation(self, text, message):
        with pytest.raises(TextFormatError) as err:
            parse_derivation(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "derivation",
        [
            DerivationTree("a b"),
            DerivationTree("a", (DerivationEdge(Operation.ADJUNCTION, (1,), DerivationTree("")),)),
        ],
    )
    def test_unreadable_tree_names_are_rejected(self, derivation):
        with pytest.raises(ValueError, match="tree name"):
            format_derivation(derivation)

    def test_trailing_junk(self):
        with pytest.raises(TextFormatError):
            parse_derivation("a[adj@ε -> b] c")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a[adj@0 -> b]", "Gorn address indices must be >= 1 (at position 12)"),
            ("a[sub@1 -> b, adj@1 -> c]", "two edges of 'a' share address 1 (at position 25)"),
            pytest.param(
                "a[adj@2." + "9" * 5000 + " -> b]",
                "a Gorn address is out of range (at position 6)",
                id="address-past-digit-limit",
            ),
        ],
    )
    def test_edge_rules_are_format_errors(self, text, message):
        with pytest.raises(TextFormatError) as err:
            parse_derivation(text)
        assert str(err.value) == message

    def test_deep_nesting(self):
        text = "a[adj@1 -> " * 10_000 + "b" + "]" * 10_000
        assert format_derivation(parse_derivation(text)) == text

    @pytest.mark.parametrize(
        "bottom, message, at",
        [
            ("a[adj@0 -> b]", "Gorn address indices must be >= 1", 12),
            ("a[sub@1 -> b, adj@1 -> c]", "two edges of 'a' share address 1", 25),
        ],
    )
    def test_edge_rules_at_the_bottom_of_a_deep_chain(self, bottom, message, at):
        # a chain 1,000 nodes deep with the fault in its last node: the
        # error is reported where that node alone reports it, shifted
        top = "a[adj@1.2 -> " * 999
        with pytest.raises(TextFormatError) as err:
            parse_derivation(top + bottom + "]" * 999)
        assert str(err.value) == f"{message} (at position {len(top) + at})"

    def test_operations_parsed(self):
        derivation = parse_derivation(ADVERB_DERIVATION)
        ops = [edge.operation for edge in derivation.edges]
        assert ops == [
            Operation.SUBSTITUTION,
            Operation.SUBSTITUTION,
            Operation.ADJUNCTION,
        ]
        assert isinstance(derivation, DerivationTree)
