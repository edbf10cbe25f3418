"""The three benchmark workloads.

Each workload makes its inputs from the workload seed, runs one
operation (the timed part) through ``narmaxtag.cli.main`` or the public
library functions, and checks the operation's outputs against
``oracles``.  Program functions are looked up on their modules at call
time, so the traced run sees every call once its wrappers are in place.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass

import oracles

# ---------------------------------------------------------------------------
# In-process command-line runs
# ---------------------------------------------------------------------------


def run_cli(cli, argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    """``narmaxtag ARGV < stdin_text`` in this process: (exit code, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _exit_problems(results: dict[str, tuple[int, str, str]]) -> list[str]:
    return [
        f"{step} exited {code}: {err.strip()[:200]}"
        for step, (code, _, err) in results.items()
        if code != 0
    ]


# ---------------------------------------------------------------------------
# Workload sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    enum_max: int = 4  # enum_closure: adjunction budget of the NARMAX pass
    candidates: int = 100  # ea_search: sampled candidates per generation
    samples: int = 1000  # ea_search: length of the shared record
    large_terms: int = 100  # cli_large: terms per model


FULL = Sizes()
TINY = Sizes(enum_max=2, candidates=5, samples=200, large_terms=12)


class Workload:
    """One workload.  ``make_input(i)`` builds the input of operation
    ``i`` from the seed, ``run`` does the program's work (the timed part),
    ``check`` lists the problems in its output (empty when correct) and
    ``items`` counts what one operation handles."""

    name = ""

    def __init__(self, nt, cli, seed: int, sizes: Sizes):
        self.nt = nt
        self.cli = cli
        self.seed = seed
        self.sizes = sizes
        self.setup_problems: list[str] = []  # failed checks outside any operation

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def items(self, inp) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# enum_closure: enumerate --preset narmax --max 4 | classify --all
# ---------------------------------------------------------------------------


class EnumClosure(Workload):
    """The search-space closure.  Its input is the same for every seed."""

    name = "enum_closure"

    def __init__(self, nt, cli, seed, sizes):
        super().__init__(nt, cli, seed, sizes)
        self.expected_count = oracles.derivation_count(sizes.enum_max)
        self.expected_tags = oracles.models_within_cost(sizes.enum_max)

    def make_input(self, index):
        return ["enumerate", "--preset", "narmax", "--max", str(self.sizes.enum_max)]

    def items(self, inp):
        return self.expected_count

    def run(self, inp):
        listing = run_cli(self.cli, inp)
        return {"enumerate": listing, "classify": run_cli(self.cli, ["classify", "--all"], listing[1])}

    def check(self, inp, out):
        problems = _exit_problems(out)
        models = out["enumerate"][1].splitlines()
        rows = out["classify"][1].splitlines()
        if len(models) != self.expected_count:
            problems.append(f"{len(models)} derivations, expected {self.expected_count}")
        if set(models) != set(self.expected_tags):
            problems.append(
                f"{len(set(models))} distinct models differ from the "
                f"{len(self.expected_tags)} of the model-space enumeration"
            )
        if len(rows) != len(models):
            problems.append(f"classify printed {len(rows)} rows for {len(models)} models")
        for model, row in zip(models, rows):
            text, _, tags = row.partition("\t")
            if text != model or tags != self.expected_tags.get(model):
                problems.append(f"classify row {row!r} for {model!r}")
                break
        return problems


# ---------------------------------------------------------------------------
# ea_search: one generation of an evolutionary structure search
# ---------------------------------------------------------------------------

# The target system, in canonical term order, with sum |c| = 0.9.
TRUE_MODEL = "c1*u[-1] + c2*y[-1] + c3*xi[-1] + c4*u[-2]*y[-1] + xi"
TRUE_COEFFS = (0.5, -0.2, 0.1, 0.1)
COEFF_SUM = 0.9  # every candidate's sum |c|, so |u| <= 1 and |xi| <= 0.1 give |y| <= 1
NOISE_BOUND = 0.1
# the growth sampler's bounds for every candidate
SAMPLE_BOUNDS = dict(max_adjunctions=12, max_terms=4, max_delay=5, max_exponent=2)


def terms_of(model) -> list[list[tuple[str, int]]]:
    """A program model as oracle terms: factor occurrences per term."""
    return [
        [(sig.value, delay) for (sig, delay), exp in term.factors.items() for _ in range(exp)]
        for term in model.terms
    ]


def derivation_nodes(derivation) -> int:
    stack, count = [derivation], 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(edge.child for edge in node.edges)
    return count


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class EaSearch(Workload):
    name = "ea_search"

    def __init__(self, nt, cli, seed, sizes):
        super().__init__(nt, cli, seed, sizes)
        rng = random.Random(f"ea_search:{seed}")
        self.inputs = [rng.uniform(-1.0, 1.0) for _ in range(sizes.samples)]
        self.noise = [rng.uniform(-NOISE_BOUND, NOISE_BOUND) for _ in range(sizes.samples)]
        self.bounds = nt.GenBounds(**SAMPLE_BOUNDS)
        self.true_model = nt.parse_model_text(TRUE_MODEL)
        self.true_terms = terms_of(self.true_model)
        if nt.format_model_text(self.true_model) != TRUE_MODEL:
            self.setup_problems.append("the target model text is not in canonical form")
        self.target = nt.simulate(self.true_model, TRUE_COEFFS, self.inputs, self.noise)
        reference = oracles.reference_simulate(
            self.true_terms, TRUE_COEFFS, self.inputs, self.noise
        )
        if not all(map(_close, self.target, reference)):
            self.setup_problems.append("simulate disagrees with the reference on the target model")

    def make_input(self, index):
        rng = random.Random(f"ea_search:{self.seed}:{index}")
        return [
            (rng.getrandbits(32), [rng.uniform(-1.0, 1.0) for _ in range(SAMPLE_BOUNDS["max_terms"])])
            for _ in range(self.sizes.candidates)
        ]

    def items(self, inp):
        return len(inp) + 1

    def _evaluate(self, model, coeffs):
        nt = self.nt
        genotype = nt.model_to_derivation(model)
        tags = nt.classify(model)
        output = nt.simulate(model, coeffs, self.inputs, self.noise)
        score = sum((a - b) ** 2 for a, b in zip(output, self.target))
        return {"model": model, "genotype": genotype, "tags": tags,
                "coeffs": coeffs, "output": output, "score": score}

    def run(self, inp):
        nt = self.nt
        population = []
        for seed, weights in inp:
            model = nt.sample_model(nt.SampleConfig(self.bounds, seed), nt.GrammarPreset.NARMAX)
            weights = weights[: len(model.terms)]
            scale = COEFF_SUM / (sum(map(abs, weights)) or 1.0)
            population.append(self._evaluate(model, [w * scale for w in weights]))
        population.append(self._evaluate(self.true_model, list(TRUE_COEFFS)))
        return population

    def check(self, inp, population):
        if len(population) != len(inp) + 1:
            return [f"{len(population)} candidates evaluated, expected {len(inp) + 1}"]
        problems = []
        bounds = SAMPLE_BOUNDS
        for index, cand in enumerate(population):
            terms = terms_of(cand["model"])
            cost = oracles.adjunction_cost(terms)
            if index < len(inp) and (
                len(terms) > bounds["max_terms"]
                or cost > bounds["max_adjunctions"]
                or any(d > bounds["max_delay"] for term in terms for _, d in term)
                or any(e > bounds["max_exponent"] for t in cand["model"].terms for e in t.factors.values())
            ):
                problems.append(f"candidate {index} exceeds the sampling bounds")
            if derivation_nodes(cand["genotype"]) != cost + 1:
                problems.append(f"candidate {index} genotype is not minimal ({cost} adjunctions)")
            tags = " ".join(t for t in oracles.CLASS_TAG_ORDER if t in cand["tags"])
            if tags != oracles.class_tags(terms):
                problems.append(f"candidate {index} classified {tags!r}")
            reference = oracles.reference_simulate(terms, cand["coeffs"], self.inputs, self.noise)
            output = cand["output"]
            if len(output) != len(reference) or not all(map(_close, output, reference)):
                problems.append(f"candidate {index} simulation differs from the reference")
            if problems:
                break
        # scores are sums of squares, so a true model scoring 0 ranks first
        true_score = population[-1]["score"]
        if true_score != 0.0:
            problems.append(f"the true model scores {true_score!r}, not 0")
        return problems


# ---------------------------------------------------------------------------
# cli_large: parse | derive | yield, to-model on a ~100-term model
# ---------------------------------------------------------------------------

LARGE_DELAY = 10  # the largest delay of a large model's factors


def large_model_terms(rng: random.Random, n_terms: int, max_delay: int):
    """A model of ``n_terms`` distinct terms with 1-3 factors each.

    The arity mix and the multiset of factor occurrences are fixed by
    ``n_terms``; the seed only shuffles them over the terms.  So every
    model of one size has the same derivation size and derived-tree
    node count, and only the structure differs between seeds.
    """
    singles = n_terms // 5
    triples = (n_terms - singles) // 2
    arities = [1] * singles + [2] * (n_terms - singles - triples) + [3] * triples
    rng.shuffle(arities)
    pool = []
    for j in range(sum(arities)):
        sig = oracles.SIGNALS[j % 3]
        low = 1 if sig == "y" else 0
        pool.append((sig, low + (j // 3) % (max_delay + 1 - low)))
    rng.shuffle(pool)
    terms, at = [], 0
    for arity in arities:
        terms.append(pool[at : at + arity])
        at += arity
    # swap factors between terms until no two terms share a factor map
    for _ in range(100_000):
        seen: set = set()
        duplicate = None
        for index, term in enumerate(terms):
            key = frozenset(Counter(term).items())
            if key in seen:
                duplicate = index
                break
            seen.add(key)
        if duplicate is None:
            return terms
        other = rng.randrange(n_terms - 1)
        other += other >= duplicate
        a = rng.randrange(len(terms[duplicate]))
        b = rng.randrange(len(terms[other]))
        terms[duplicate][a], terms[other][b] = terms[other][b], terms[duplicate][a]
    raise RuntimeError("could not draw distinct terms")


@dataclass(frozen=True)
class LargeModel:
    text: str
    adjunctions: int
    tokens: Counter


class CliLarge(Workload):
    name = "cli_large"

    def make_input(self, index):
        rng = random.Random(f"cli_large:{self.seed}:{index}")
        terms = large_model_terms(rng, self.sizes.large_terms, LARGE_DELAY)
        return LargeModel(
            oracles.canonical_text(terms),
            oracles.adjunction_cost(terms),
            oracles.yield_tokens(terms),
        )

    def items(self, inp):
        return 1

    def run(self, inp):
        parsed = run_cli(self.cli, ["parse", inp.text])
        derived = run_cli(self.cli, ["derive", "-"], parsed[1])
        return {
            "parse": parsed,
            "derive": derived,
            "yield": run_cli(self.cli, ["yield", "-"], derived[1]),
            "to-model": run_cli(self.cli, ["to-model", "-"], derived[1]),
        }

    def check(self, inp, out):
        problems = _exit_problems(out)
        derivation = out["parse"][1]
        if not derivation.startswith("alpha1") or derivation.count("beta") != inp.adjunctions:
            problems.append(
                f"derivation has {derivation.count('beta')} auxiliary trees, "
                f"expected {inp.adjunctions}"
            )
        tokens = out["yield"][1].split()
        if Counter(tokens) != inp.tokens or tokens[-1:] != ["ξ"]:
            problems.append("yield tokens differ from the model's token multiset")
        if out["to-model"][1] != inp.text + "\n":
            problems.append("to-model did not return the input text")
        return problems


WORKLOADS = {w.name: w for w in (EnumClosure, EaSearch, CliLarge)}
