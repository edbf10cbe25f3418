"""Byte-level golden outputs of the grammar catalogs, the sampler, the
model-to-derivation direction, the yield parsers, grammar validation and
the simulate command.

The digests were captured from the implementation that predates the
shared sum-family table and derivation builder; any change to a
catalog's text, to the sampler's random-call sequence or to the shape
of a built derivation shows up here as a digest mismatch.  The
yield-parser and validation digests were captured from the
implementation with separate NARMAX and NBJ correspondences and a
per-diagnostic address search.
"""

import hashlib
import io
import itertools
import random

import pytest

from narmaxtag.cli import main
from narmaxtag.generate import (
    GenBounds,
    SampleConfig,
    enumerate_derivations,
    enumerate_models,
    sample_derivation,
)
from narmaxtag.models import Mode, ModelError, Monomial, NarmaxModel, SignalKind
from narmaxtag.narmax import (
    GrammarPreset,
    YieldError,
    build_narmax_grammar,
    build_nbj_grammar,
    derived_to_model,
    model_to_derivation,
    nbj_derived_to_model,
    nbj_model_to_derivation,
    restrict,
)
from narmaxtag.treeio import format_derivation
from narmaxtag.trees import NodeLabel, SyntacticTree, derive, validate_grammar, yield_of

from oracles import random_grammar

NARMAX_SHOW = """\
nonterminals: expr0 expr1 expr2 op par
terminals: + c q⁻¹ u y × ξ
start: expr0
initial alpha1 = expr0(ξ)
auxiliary beta1 = expr0(expr1(par(c) op(×) expr2(u)) op(+) expr0★)
auxiliary beta2 = expr0(expr1(par(c) op(×) expr2(y q⁻¹)) op(+) expr0★)
auxiliary beta3 = expr0(expr1(par(c) op(×) expr2(ξ)) op(+) expr0★)
auxiliary beta4 = expr1(expr1★ op(×) expr2(u))
auxiliary beta5 = expr1(expr1★ op(×) expr2(y q⁻¹))
auxiliary beta6 = expr1(expr1★ op(×) expr2(ξ))
auxiliary beta7 = expr2(expr2★ q⁻¹)
"""

NBJ_SHOW = """\
nonterminals: expr0f expr0g expr1f expr1g expr2f expr2g exprbj op par
terminals: + , 0 c q⁻¹ u v × ŷ ξ
start: exprbj
initial alpha1 = exprbj(expr0f(0) , expr0g(ξ))
auxiliary betaf1 = expr0f(expr1f(par(c) op(×) expr2f(u)) op(+) expr0f★)
auxiliary betaf2 = expr0f(expr1f(par(c) op(×) expr2f(ŷ q⁻¹)) op(+) expr0f★)
auxiliary betaf4 = expr1f(expr1f★ op(×) expr2f(u))
auxiliary betaf5 = expr1f(expr1f★ op(×) expr2f(ŷ q⁻¹))
auxiliary betaf7 = expr2f(expr2f★ q⁻¹)
auxiliary betag1 = expr0g(expr1g(par(c) op(×) expr2g(u)) op(+) expr0g★)
auxiliary betag2 = expr0g(expr1g(par(c) op(×) expr2g(v q⁻¹)) op(+) expr0g★)
auxiliary betag3 = expr0g(expr1g(par(c) op(×) expr2g(ξ)) op(+) expr0g★)
auxiliary betag4 = expr1g(expr1g★ op(×) expr2g(u))
auxiliary betag5 = expr1g(expr1g★ op(×) expr2g(v q⁻¹))
auxiliary betag6 = expr1g(expr1g★ op(×) expr2g(ξ))
auxiliary betag7 = expr2g(expr2g★ q⁻¹)
"""

SHOW_DIGESTS = {
    "arx": "a49b3fc19c291f0daf3863600959c151084df354b6b89dc46ecab284266cc42c",
    "narx": "a3e3005f081dc87246b037bfc672ff05708f3a23e5c4e269673c33d29f172e12",
    "fir": "4f97097201bc343bc1148d86f9998031c464a9b58fd9baa98aeb881459bb5320",
    "volterra": "3991afa3eb7db988883114ad637582d26af0174f459215726f25277e1a2b15fe",
}

# sample --count 200 at the default bounds, then at wider bounds from seed 1000
WIDE_BOUNDS = [
    "--max-adjunctions", "12", "--max-terms", "4",
    "--max-delay", "5", "--max-exponent", "3", "--seed", "1000",
]
SAMPLE_DIGESTS = {
    ("narmax", "extended"): (
        "3a2e9426a341726efc2c493887009def00ba4f2aabe435d821edf7ed851d2c08",
        "f4055dd1965ad2ada8dbcd318f7776d257b6b1a483bd804f0afaeadd776c02d4",
    ),
    ("narmax", "strict"): (
        "718819ca70aeb2819998d7d37b3c6a815f2b74bb5d67154e8ca136ff2264d01c",
        "67e0b38d4a568d433f10b65b7b7c09a807efccbd0e90e014499748459fbc3763",
    ),
    ("arx", "extended"): (
        "dd1e64a839464a56560be8fdc62cb275c8c2795a5ba7a9b1b8e06771fed59339",
        "3076e52c928f1dbcb788e59dc0c5b2b4f993e045413ebfaeae053996ea4174aa",
    ),
    ("arx", "strict"): (
        "dd1e64a839464a56560be8fdc62cb275c8c2795a5ba7a9b1b8e06771fed59339",
        "3076e52c928f1dbcb788e59dc0c5b2b4f993e045413ebfaeae053996ea4174aa",
    ),
    ("narx", "extended"): (
        "3c21efb2f78a1fb7096acc2ea11a7bc1fc44291c804dc5755f91c4f74c209c7b",
        "8b39ff7628633c766763957e5b9c3df703bcc9348f10274df376716317eba035",
    ),
    ("narx", "strict"): (
        "3c21efb2f78a1fb7096acc2ea11a7bc1fc44291c804dc5755f91c4f74c209c7b",
        "8b39ff7628633c766763957e5b9c3df703bcc9348f10274df376716317eba035",
    ),
    ("fir", "extended"): (
        "21ed716b48463a75819c8082ad0edb47976f65068150da5054b4afc04f199fce",
        "134558d3675081e3bf5c657b1daa80ce8b3c83e7283b70122067730ede82fb19",
    ),
    ("fir", "strict"): (
        "21ed716b48463a75819c8082ad0edb47976f65068150da5054b4afc04f199fce",
        "134558d3675081e3bf5c657b1daa80ce8b3c83e7283b70122067730ede82fb19",
    ),
    ("volterra", "extended"): (
        "3f07f66c7f2be4b5f94ab2df0c7a6cb4f8a0450899388b91e481c502b6e688cd",
        "295908a833ca6dcc5b404d3ac9865da7f85b64ceee04581b79baa1b70c124b70",
    ),
    ("volterra", "strict"): (
        "3f07f66c7f2be4b5f94ab2df0c7a6cb4f8a0450899388b91e481c502b6e688cd",
        "295908a833ca6dcc5b404d3ac9865da7f85b64ceee04581b79baa1b70c124b70",
    ),
}

# format_derivation(sample_derivation(...)) over seeds 0-199, newline-joined
DERIVATION_DIGESTS = {
    ("narmax", "extended"): "715cfacc67b9954cf4dae672a3505125e3e02817df4e2f0035880a8aba7cec1e",
    ("narmax", "strict"): "343ff673e5f796cc72625f1f7ff78d4ac8b20ba97f6197ece97f9084dc21ca71",
    ("arx", "extended"): "576e2d9d4ec6ad8d6c705b64445eab4ae71cf9b49d9157331d77f75d15eb7069",
    ("arx", "strict"): "576e2d9d4ec6ad8d6c705b64445eab4ae71cf9b49d9157331d77f75d15eb7069",
    ("narx", "extended"): "3c2c1a8564ba890d0e4bfc44032b3d086dde67ce6ba4d5a3ea572c2795ed51b2",
    ("narx", "strict"): "3c2c1a8564ba890d0e4bfc44032b3d086dde67ce6ba4d5a3ea572c2795ed51b2",
    ("fir", "extended"): "d0b380f37f5f601dd7b4b5798a18761da00d5feb1835f41fbd4d7c70974a3a5f",
    ("fir", "strict"): "d0b380f37f5f601dd7b4b5798a18761da00d5feb1835f41fbd4d7c70974a3a5f",
    ("volterra", "extended"): "dea21cbf7c3c2f5b188abbdfc1f5218799400b8299d394fa8159882236a4732c",
    ("volterra", "strict"): "dea21cbf7c3c2f5b188abbdfc1f5218799400b8299d394fa8159882236a4732c",
}

# simulate --n 2000 --noise-seed 3 stdout per model (captured before
# simulate lowered models to a flat plan); the target is the ea_search
# benchmark's true model
SIMULATE_TARGET = ["c1*u[-1] + c2*y[-1] + c3*xi[-1] + c4*u[-2]*y[-1] + xi",
                   "--coeffs", "0.5,-0.2,0.1,0.1"]
SIMULATE_DIGESTS = {
    "target": (
        SIMULATE_TARGET,
        "d2250412d9e555cdccd1062bca422c5ab710914ed94acb7d4a5fd4efddea9e63",
    ),
    "squared-feedback": (
        ["c1*u[0] + c2*y[-1]^2 + c3*y[-2]^3 + xi", "--coeffs", "1.0,0.1,-0.02"],
        "4d0f36ab1462a1f82fdabf4dd0dcec96cab60f64c08575972dfec3ae27b3ec2e",
    ),
    "noise-product": (
        ["c1*y[-1] + c2*xi[0]*xi[-1] + c3*u[-1]*xi[-2]^2 + xi", "--coeffs", "0.6,0.3,0.5"],
        "67686dafa6dfdac7d36f41d8369bb5f480571d9f944bf127c61d203ec52a0a2c",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stdout_of(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_grammar_show_narmax(capsys):
    assert stdout_of(capsys, "grammar-show", "--preset", "narmax") == NARMAX_SHOW


def test_grammar_show_nbj(capsys):
    assert stdout_of(capsys, "grammar-show", "--preset", "nbj") == NBJ_SHOW


@pytest.mark.parametrize("preset", sorted(SHOW_DIGESTS))
def test_grammar_show_presets(capsys, preset):
    out = stdout_of(capsys, "grammar-show", "--preset", preset)
    assert sha256(out) == SHOW_DIGESTS[preset]


@pytest.mark.parametrize("preset, mode", sorted(SAMPLE_DIGESTS))
def test_sample_stdout(capsys, preset, mode):
    base = ["sample", "--preset", preset, "--mode", mode, "--count", "200"]
    default, wide = SAMPLE_DIGESTS[(preset, mode)]
    assert sha256(stdout_of(capsys, *base)) == default
    assert sha256(stdout_of(capsys, *base, *WIDE_BOUNDS)) == wide


@pytest.mark.parametrize("preset, mode", sorted(DERIVATION_DIGESTS))
def test_sample_derivation_text(preset, mode):
    bounds = GenBounds(max_adjunctions=8, mode=Mode(mode))
    text = "\n".join(
        format_derivation(sample_derivation(SampleConfig(bounds, seed), GrammarPreset(preset)))
        for seed in range(200)
    )
    assert sha256(text) == DERIVATION_DIGESTS[(preset, mode)]


def test_sample_derivation_text_at_edge_bounds():
    # every preset and mode over small and zero bounds, where the
    # sampler's option list is empty, cut short or missing whole kinds
    lines = [
        format_derivation(sample_derivation(
            SampleConfig(GenBounds(adjunctions, terms, delay, exponent, mode), seed), preset
        ))
        for preset, mode, adjunctions, terms, delay, exponent, seed in itertools.product(
            GrammarPreset, Mode, (0, 1, 2, 5, 9), (0, 1, 3), (0, 1, 3), (0, 1, 2), range(6)
        )
    ]
    assert len(lines) == 8100
    assert sha256("\n".join(lines)) == (
        "caea7fc4414762276dfe41f59114bd1095d56d345046c6eea4d20d3b12ea8907"
    )


def test_model_to_derivation_over_enumeration():
    grammar = restrict(GrammarPreset.NARMAX)
    lines = [
        format_derivation(model_to_derivation(model))
        for model in enumerate_models(grammar, GenBounds(max_adjunctions=4))
    ]
    assert len(lines) == 1201
    assert sha256("\n".join(lines)) == (
        "b5fbf84d280f2afb9ca4abff368e969b2723c48daded033964d78524a180dc09"
    )


# enumerate --derivations --max 3 per preset: (lines, stdout sha256)
ENUMERATE_DERIVATION_DIGESTS = {
    "narmax": (172, "4c0fc9e0be60461187eec8dc81da27a3b9455c91595e01c7b02164a140478e41"),
    "arx": (27, "5fbd80fa5b17d4fa601a5cfd4087b88d7b932bc3594b9e1e4e7d057612272ed0"),
    "narx": (63, "e45345ce43eae81809c8e9aeb61bdc8a27070eaf494495cf38abcbdf655263cc"),
    "fir": (8, "b68d0b8af7e38e5fb85d1098a1e8cf8953176a98bb0f6eab2495e9041a7ae437"),
    "volterra": (14, "511710adfab1b9ed19c3097ca9a4fc052401e069157d116ce11c48dc55ed0a9d"),
}


@pytest.mark.parametrize("preset", sorted(ENUMERATE_DERIVATION_DIGESTS))
def test_enumerate_derivations_stdout(capsys, preset):
    out = stdout_of(capsys, "enumerate", "--preset", preset, "--max", "3", "--derivations")
    assert (len(out.splitlines()), sha256(out)) == ENUMERATE_DERIVATION_DIGESTS[preset]


# enumerate --max 4 (model text) per preset: (lines, stdout sha256),
# captured from the implementation that read every enumerated model
# through derived_leaves
ENUMERATE_MODEL_DIGESTS = {
    "narmax": (1201, "4f69ec64bf302ecbe820aa54d53bc57e6c7dabfabdd55d7acdd5c7d91b95e9a8"),
    "arx": (81, "8070971e38164f0565d38d30eb241abdfad339c176fa8f8207b8b88bcdb25177"),
    "narx": (313, "b20b78880b57529c0fd59227c367fa522652d10612c7113bd2527386401df20d"),
    "fir": (16, "06fceaa8c08999aa1e13ee658837cb14f96149e612b00c234978912ee80d2cdb"),
    "volterra": (41, "b07841ce12457b61beb196308cd219a5fe94d0ef38dbd274797710067c081dfb"),
}


@pytest.mark.parametrize("preset", sorted(ENUMERATE_MODEL_DIGESTS))
def test_enumerate_models_stdout(capsys, preset):
    out = stdout_of(capsys, "enumerate", "--preset", preset, "--max", "4")
    assert (len(out.splitlines()), sha256(out)) == ENUMERATE_MODEL_DIGESTS[preset]


# enumerate --max 5 (model text) per preset: (lines, stdout sha256),
# captured from the implementation that read every enumerated model off
# checked parts through the yield reader
ENUMERATE_MODEL_DIGESTS_5 = {
    "narmax": (8404, "111ab657b4a61fe4ad0366d88387b7cf6b724f4f036089204aefaaf1a372d5c0"),
    "arx": (243, "fde56a7377d10a23f2c3bfb9abc9fb2777580e3e06df17778a53515d7f14caac"),
    "narx": (1563, "2ba4a998c6c75e4249d0b8dadf54b341dabd7ce75452a0506ec8bae63c96b54f"),
    "fir": (32, "8a5204f875ff35f6748c6f39449ffef7427b3bd0d1755ba08be7e171b0c3a788"),
    "volterra": (122, "96f8dfa6dfa32d375268de55d9f2d1ec9d6cb15f66cb66409c129b27868ecaa2"),
}


@pytest.mark.parametrize("preset", sorted(ENUMERATE_MODEL_DIGESTS_5))
def test_enumerate_models_stdout_max5(capsys, preset):
    out = stdout_of(capsys, "enumerate", "--preset", preset, "--max", "5")
    assert (len(out.splitlines()), sha256(out)) == ENUMERATE_MODEL_DIGESTS_5[preset]


def test_enumerate_classify_pipeline(capsys):
    # enumerate --max 4 | classify --all: 1,201 rows over 246 distinct models
    listing = stdout_of(capsys, "enumerate", "--max", "4")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdin", io.StringIO(listing))
        out = stdout_of(capsys, "classify", "--all")
    assert len(out.splitlines()) == 1201
    assert len(set(listing.splitlines())) == 246
    assert sha256(out) == (
        "bed0b8033cd9269c60f31c3860a9969da9cb4f6bf27bc06ba964a1e6b9cdbf41"
    )


def _random_term_models(count: int, seed: int) -> list[NarmaxModel]:
    """Models of 1-4 terms, each of 1-3 factors over all three signals,
    with delays 0-6 (output 1-6) and exponents 1-3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = []
        for coeff_id in range(1, rng.randint(1, 4) + 1):
            factors = {}
            for _ in range(rng.randint(1, 3)):
                signal = rng.choice(list(SignalKind))
                low = 1 if signal is SignalKind.OUTPUT else 0
                factors[(signal, rng.randint(low, 6))] = rng.randint(1, 3)
            terms.append(Monomial(coeff_id, factors))
        out.append(NarmaxModel(tuple(terms)))
    return out


def test_model_to_derivation_over_random_models():
    # pins each term's factor order and the shape of the built chains
    # beyond the small enumerated space above
    lines = [
        format_derivation(model_to_derivation(model))
        for model in _random_term_models(2000, seed=8)
    ]
    assert sha256("\n".join(lines)) == (
        "987691b41e353c61a64802e7356bb6ca79d4f1b3d67bf14c9875743d42469dcd"
    )


def test_nbj_model_to_derivation_over_enumeration():
    grammar = build_nbj_grammar().grammar
    lines = [
        format_derivation(nbj_model_to_derivation(nbj_derived_to_model(derive(d, grammar))))
        for d in enumerate_derivations(grammar, GenBounds(max_adjunctions=3))
    ]
    assert len(lines) == 312
    assert sha256("\n".join(lines)) == (
        "c1bc36927cbc1f0cad2ea452ed4a37dfca787a648377e3cce3b5c01da9bcee2d"
    )


@pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
def test_simulate_stdout(capsys, name):
    argv, digest = SIMULATE_DIGESTS[name]
    out = stdout_of(capsys, "simulate", *argv, "--n", "2000", "--noise-seed", "3")
    assert sha256(out) == digest


def test_simulate_stdout_from_files(capsys, tmp_path):
    rng = random.Random(5)
    u = tmp_path / "u.txt"
    xi = tmp_path / "xi.txt"
    u.write_text("".join(f"{rng.uniform(-1, 1)!r}\n" for _ in range(500)), encoding="utf-8")
    xi.write_text("".join(f"{rng.gauss(0, 0.1)!r}\n" for _ in range(500)), encoding="utf-8")
    out = stdout_of(capsys, "simulate", *SIMULATE_TARGET, "--u", str(u), "--xi", str(xi))
    assert sha256(out) == (
        "435f2336275cdda0469d399c77b573e5a4aed146e1f7e0beca9bd2b0ecb76bb6"
    )


def _yield_corpus() -> list[tuple[str, ...]]:
    """The yields of every derivation with at most 3 adjunctions of both
    built-in grammars, each followed by three seeded mutants: one token
    deleted, one inserted and one replaced, the new tokens drawn from the
    union of both grammars' terminals."""
    catalogs = (build_narmax_grammar(), build_nbj_grammar())
    alphabet = sorted(set().union(*(c.grammar.terminals for c in catalogs)))
    rng = random.Random(20261018)
    corpus = []
    for catalog in catalogs:
        grammar = catalog.grammar
        for derivation in enumerate_derivations(grammar, GenBounds(max_adjunctions=3)):
            tokens = yield_of(derive(derivation, grammar))
            i = rng.randrange(len(tokens))
            j = rng.randrange(len(tokens) + 1)
            k = rng.randrange(len(tokens))
            corpus += [
                tokens,
                tokens[:i] + tokens[i + 1:],
                tokens[:j] + (rng.choice(alphabet),) + tokens[j:],
                tokens[:k] + (rng.choice(alphabet),) + tokens[k + 1:],
            ]
    return corpus


def _flat_tree(tokens: tuple[str, ...]) -> SyntacticTree:
    labels = {0: NodeLabel.nonterminal("root")}
    labels.update((i, NodeLabel.terminal(token)) for i, token in enumerate(tokens, 1))
    return SyntacticTree(0, labels, {0: tuple(range(1, len(tokens) + 1))})


def test_yield_parsers_over_mutated_yields():
    # pins what both yield parsers accept, build and report (error type,
    # message and token index) on near-miss yields in both modes
    lines = []
    for tokens in _yield_corpus():
        tree = _flat_tree(tokens)
        for parse, mode in itertools.product(
            (derived_to_model, nbj_derived_to_model), (Mode.STRICT, Mode.EXTENDED)
        ):
            try:
                outcome = repr(parse(tree, mode=mode))
            except (YieldError, ModelError) as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            lines.append(" ".join(tokens) + " => " + outcome)
    assert len(lines) == 7744
    assert sha256("\n".join(lines)) == (
        "b277606934976220c01b5610bddc61c875b30a639fe30f3e30975d227fd037e8"
    )


def test_validate_grammar_over_random_grammars():
    # diagnostic order, codes, messages, tree names and addresses on
    # grammars with missing, doubled and inner feet and repeated names
    rng = random.Random(2000)
    lines = []
    for index in range(2000):
        diagnostics = validate_grammar(random_grammar(rng))
        lines += [f"{index}: {diagnostic}" for diagnostic in diagnostics]
    assert len(lines) == 5743
    assert sha256("\n".join(lines)) == (
        "19c724bb37d5f751580daf8f0175189458a8dc07ec8a6d856b19e491af023821"
    )
