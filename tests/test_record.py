"""The record classes keep the behaviour they had as frozen dataclasses.

Each case builds a class twice from one argument tuple.  The ``repr``
texts were captured from the dataclass versions of these classes.
Classes built with ``eq=False`` compare by identity, except
``DerivationTree``, which compares by its shape.  The classes are
slotted, and copies and pickles are rebuilt from the field values.
"""

import copy
import pickle

import pytest

from narmaxtag import (
    DerivationEdge,
    DerivationTree,
    Diagnostic,
    ElementaryTree,
    GenBounds,
    Grammar,
    LabelKind,
    Mode,
    Monomial,
    NarmaxModel,
    NbjModel,
    NodeLabel,
    Operation,
    SampleConfig,
    SignalKind,
    SyntacticTree,
    TreeKind,
)
from narmaxtag import trees
from narmaxtag.narmax import Catalog, SumRoles

A = NodeLabel(LabelKind.NONTERMINAL, "A")
TREE = SyntacticTree(0, {0: A}, {0: ()})
ALPHA = ElementaryTree("alpha", TreeKind.INITIAL, TREE)
GRAMMAR = Grammar(frozenset({"A"}), frozenset(), "A", (ALPHA,), ())
BETA = DerivationTree("beta")
TERM = Monomial(1, {(SignalKind.INPUT, 1): 2}, 0.5)
ROLES = SumRoles(
    {SignalKind.INPUT: "t"}, {}, "d", (1,), (2,), (3,), {"u": SignalKind.INPUT}, "end", (1,), {}
)

NODE_A = "NodeLabel(kind=<LabelKind.NONTERMINAL: 'nonterminal'>, name='A', "
NODE_A += "substitution_marker=False, foot_marker=False)"
TREE_TEXT = f"SyntacticTree(root=0, labels={{0: {NODE_A}}}, children={{0: ()}})"
ALPHA_TEXT = f"ElementaryTree(name='alpha', kind=<TreeKind.INITIAL: 'initial'>, tree={TREE_TEXT})"
GRAMMAR_TEXT = (
    "Grammar(nonterminals=frozenset({'A'}), terminals=frozenset(), start='A', "
    f"initials=({ALPHA_TEXT},), auxiliaries=())"
)
BETA_TEXT = "DerivationTree(tree_name='beta', edges=())"
EDGE_TEXT = (
    f"DerivationEdge(operation=<Operation.ADJUNCTION: 'adj'>, address=(1, 2), child={BETA_TEXT})"
)
TERM_TEXT = "Monomial(coeff_id=1, factors={(<SignalKind.INPUT: 'u'>, 1): 2}, coeff_value=0.5)"
ROLES_TEXT = (
    "SumRoles(additive={<SignalKind.INPUT: 'u'>: 't'}, multiplicative={}, delay_tree='d', "
    "term_slot=(1,), additive_factor_slot=(2,), mult_factor_slot=(3,), "
    "signal_tokens={'u': <SignalKind.INPUT: 'u'>}, end_token='end', slot=(1,), foreign={})"
)
BOUNDS_TEXT = (
    "GenBounds(max_adjunctions=1, max_terms=2, max_delay=3, max_exponent=4, "
    "mode=<Mode.STRICT: 'strict'>)"
)

# (class, every field's value in order, repr text, equal by fields)
CASES = [
    (NodeLabel, (LabelKind.NONTERMINAL, "A", False, False), NODE_A, True),
    (SyntacticTree, (0, {0: A}, {0: ()}), TREE_TEXT, False),
    (ElementaryTree, ("alpha", TreeKind.INITIAL, TREE), ALPHA_TEXT, False),
    (Grammar, (frozenset({"A"}), frozenset(), "A", (ALPHA,), ()), GRAMMAR_TEXT, False),
    (DerivationEdge, (Operation.ADJUNCTION, (1, 2), BETA), EDGE_TEXT, True),
    (DerivationTree, ("beta", ()), BETA_TEXT, True),
    (
        Diagnostic,
        ("E1", "bad", "alpha", "1.2"),
        "Diagnostic(code='E1', message='bad', tree='alpha', address='1.2')",
        True,
    ),
    (Monomial, (1, {(SignalKind.INPUT, 1): 2}, 0.5), TERM_TEXT, True),
    (
        NarmaxModel,
        ((TERM,), Mode.STRICT),
        f"NarmaxModel(terms=({TERM_TEXT},), mode=<Mode.STRICT: 'strict'>)",
        True,
    ),
    (
        NbjModel,
        ((TERM,), (), Mode.EXTENDED),
        f"NbjModel(process_terms=({TERM_TEXT},), noise_terms=(), "
        "mode=<Mode.EXTENDED: 'extended'>)",
        True,
    ),
    (
        SumRoles,
        (
            {SignalKind.INPUT: "t"}, {}, "d", (1,), (2,), (3,),
            {"u": SignalKind.INPUT}, "end", (1,), {},
        ),
        ROLES_TEXT,
        False,
    ),
    (
        Catalog,
        (GRAMMAR, (ROLES,)),
        f"Catalog(grammar={GRAMMAR_TEXT}, equations=({ROLES_TEXT},))",
        False,
    ),
    (GenBounds, (1, 2, 3, 4, Mode.STRICT), BOUNDS_TEXT, True),
    (
        SampleConfig,
        (GenBounds(1, 2, 3, 4, Mode.STRICT), 5),
        f"SampleConfig(bounds={BOUNDS_TEXT}, seed=5)",
        True,
    ),
]


@pytest.mark.parametrize(
    "cls, args, text, by_fields", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_semantics(cls, args, text, by_fields):
    names = list(cls.__annotations__)
    assert len(names) == len(args)
    first, second = cls(*args), cls(**dict(zip(names, args)))
    assert repr(first) == text

    if by_fields:
        assert first == second
        if cls in (Monomial, NarmaxModel, NbjModel):  # a term's factor map is a dict
            with pytest.raises(TypeError, match="unhashable"):
                hash(first)
        else:
            assert hash(first) == hash(second)
    else:
        assert first != second and first == first
    assert first != object()

    for change in (lambda: setattr(first, names[0], args[0]), lambda: delattr(first, names[0])):
        with pytest.raises(AttributeError):
            change()
    with pytest.raises(AttributeError):
        first.extra = 1
    assert getattr(first, names[0]) == args[0]

    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*args, None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*args, **{names[0]: args[0]})
    if cls not in (GenBounds, SampleConfig):  # every field has a default
        missing = f"missing \\d+ required positional arguments?: '{names[0]}'"
        with pytest.raises(TypeError, match=missing):
            cls()


def test_defaults_fill_the_trailing_fields():
    assert GenBounds() == GenBounds(4, 3, 3, 2, Mode.EXTENDED)
    assert GenBounds(5, mode=Mode.STRICT) == GenBounds(5, 3, 3, 2, Mode.STRICT)
    assert SampleConfig(seed=2) == SampleConfig(GenBounds(), 2)
    assert A == NodeLabel(LabelKind.NONTERMINAL, "A", False, False)
    assert DerivationTree("beta").edges == ()


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="max_terms must be >= 0"):
        GenBounds(max_terms=-1)
    with pytest.raises(ValueError, match="both markers"):
        NodeLabel(LabelKind.NONTERMINAL, "A", True, True)
    with pytest.raises(ValueError, match="share address"):
        DerivationTree("alpha", [DerivationEdge(Operation.ADJUNCTION, [1], BETA)] * 2)
    # and normalise their fields
    assert Grammar({"A"}, set(), "A", [ALPHA], []).initials == (ALPHA,)
    assert NarmaxModel([TERM]).terms == (TERM,)


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize(
    "cls, args, text, by_fields", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_copies_are_rebuilt_from_the_fields(cls, args, text, by_fields, how):
    first = cls(*args)
    second = COPIES[how](first)
    assert type(second) is cls and second is not first
    assert repr(second) == text
    if by_fields:
        assert second == first


@pytest.mark.parametrize(
    "cls, args", [case[:2] for case in CASES], ids=[case[0].__name__ for case in CASES]
)
def test_slotted(cls, args):
    # only a class with a cached property keeps a __dict__, to store it in
    value = cls(*args)
    assert cls.__slots__[: len(args)] == tuple(cls.__annotations__)
    assert hasattr(value, "__dict__") == (cls in (ElementaryTree, Grammar))


def test_cached_properties_compute_once(monkeypatch):
    made = []
    table = trees._Table
    monkeypatch.setattr(trees, "_Table", lambda entry: made.append(entry) or table(entry))
    checked = []
    validate = trees.validate_grammar
    monkeypatch.setattr(trees, "validate_grammar", lambda g: checked.append(g) or validate(g))
    entry = ElementaryTree("alpha", TreeKind.INITIAL, TREE)
    grammar = Grammar(frozenset({"A"}), frozenset(), "A", (entry,), ())
    assert grammar._tables is grammar._tables
    assert grammar._tables["alpha"] is entry._table is entry._table
    assert (made, checked) == ([entry], [grammar])
    assert vars(entry) == {"_table": entry._table}
    with pytest.raises(AttributeError):
        entry._table = None
