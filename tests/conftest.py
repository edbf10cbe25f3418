import pytest
from hypothesis import settings

from narmaxtag import build_narmax_grammar, build_nbj_grammar
from narmaxtag.treeio import parse_derivation, parse_grammar

SENTENCE_GRAMMAR_TEXT = """\
nonterminals: sentence sub pred art N V adv
terminals: a man saw mary yesterday
start: sentence
initial alpha1 = sentence(sub↓ pred↓)
initial alpha2 = sub(art(a) N(man))
initial alpha3 = pred(V(saw) N(mary))
auxiliary beta1 = sentence(adv(yesterday) sentence★)
"""

# Tier-1 must not depend on examples saved by earlier local runs; a known
# failing input is pinned with @example on its test instead.
settings.register_profile("tier1", database=None)
settings.load_profile("tier1")

PLAIN_DERIVATION = "alpha1[sub@1 -> alpha2, sub@2 -> alpha3]"
ADVERB_DERIVATION = "alpha1[sub@1 -> alpha2, sub@2 -> alpha3, adj@ε -> beta1]"


@pytest.fixture(scope="session")
def sentence_grammar():
    return parse_grammar(SENTENCE_GRAMMAR_TEXT)


@pytest.fixture(scope="session")
def plain_derivation():
    return parse_derivation(PLAIN_DERIVATION)


@pytest.fixture(scope="session")
def adverb_derivation():
    return parse_derivation(ADVERB_DERIVATION)


@pytest.fixture(scope="session")
def narmax_catalog():
    return build_narmax_grammar()


@pytest.fixture(scope="session")
def nbj_catalog():
    return build_nbj_grammar()
