"""Independent reference computations for the benchmark's output checks.

Nothing here calls into ``narmaxtag``.  Each function restates a
definition of the polynomial-model grammar (README, "The model
grammar") or of the model class directly, so a check built on it
compares the program against a second, separate computation rather
than against a stored copy of earlier output.

A model is written here as a list of terms, each term a list of factor
occurrences ``(signal, delay)`` with ``signal`` one of ``"u"``, ``"y"``,
``"xi"`` and ``delay >= 0`` (``>= 1`` for ``"y"``).  A factor repeated
within a term is a power.
"""

from __future__ import annotations

from collections import Counter

SIGNALS = ("u", "y", "xi")
_RANK = {"u": 0, "y": 1, "xi": 2}
YIELD_SIGNAL = {"u": "u", "y": "y", "xi": "ξ"}
CLASS_TAG_ORDER = ("FIR", "Volterra", "ARX", "ARMAX", "NARX", "NARMAX")

# ---------------------------------------------------------------------------
# Derivation count: a recurrence over the grammar's adjunction slots
# ---------------------------------------------------------------------------

# Root label of every elementary tree of the full model grammar, and the
# labels of its internal nonterminal nodes that some auxiliary tree can
# adjoin at (``op`` and ``par`` nodes have no auxiliary tree).
TREE_ROOT = {
    "alpha1": "expr0",
    "beta1": "expr0",
    "beta2": "expr0",
    "beta3": "expr0",
    "beta4": "expr1",
    "beta5": "expr1",
    "beta6": "expr1",
    "beta7": "expr2",
}
ADJUNCTION_SLOTS = {
    "alpha1": ("expr0",),
    "beta1": ("expr0", "expr1", "expr2"),
    "beta2": ("expr0", "expr1", "expr2"),
    "beta3": ("expr0", "expr1", "expr2"),
    "beta4": ("expr1", "expr2"),
    "beta5": ("expr1", "expr2"),
    "beta6": ("expr1", "expr2"),
    "beta7": ("expr2",),
}


def _poly_mul(a: list[int], b: list[int], degree: int) -> list[int]:
    out = [0] * (degree + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(degree + 1 - i):
                out[i + j] += x * b[j]
    return out


def derivation_count(max_adjunctions: int) -> int:
    """Derivations of the full grammar with at most ``max_adjunctions``
    adjunctions.

    Every slot holds at most one adjunction, so the generating function
    of a tree is the product over its slots of ``1 + x * sum(F_C)``, the
    sum running over the auxiliary trees ``C`` rooted at the slot label.
    Iterating that system ``n + 1`` times fixes the coefficients up to
    degree ``n``.
    """
    n = max_adjunctions
    series = {name: [1] + [0] * n for name in TREE_ROOT}
    for _ in range(n + 1):
        updated = {}
        for name, slots in ADJUNCTION_SLOTS.items():
            product = [1] + [0] * n
            for label in slots:
                factor = [1] + [0] * n
                for child, root in TREE_ROOT.items():
                    if root == label and child != "alpha1":
                        for k in range(n):
                            factor[k + 1] += series[child][k]
                product = _poly_mul(product, factor, n)
            updated[name] = product
        series = updated
    return sum(series["alpha1"])


# ---------------------------------------------------------------------------
# Canonical model text, adjunction cost and class tags
# ---------------------------------------------------------------------------


def factor_map(term) -> dict[tuple[str, int], int]:
    counts: dict[tuple[str, int], int] = {}
    for key in term:
        counts[key] = counts.get(key, 0) + 1
    return counts


def _term_key(counts: dict[tuple[str, int], int]) -> tuple:
    ordered = tuple(
        sorted((_RANK[sig], delay, exp) for (sig, delay), exp in counts.items())
    )
    return (sum(counts.values()), ordered)


def canonical_text(terms) -> str:
    """Model text in canonical form: terms by total degree then sorted
    factor keys (signal order u < y < xi, then delay, then exponent),
    duplicate factor maps merged, coefficient slots numbered c1..cp."""
    maps: dict[tuple, dict] = {}
    for term in terms:
        counts = factor_map(term)
        maps[_term_key(counts)] = counts
    parts = []
    for index, key in enumerate(sorted(maps), start=1):
        text = f"c{index}"
        counts = maps[key]
        for sig, delay in sorted(counts, key=lambda k: (_RANK[k[0]], k[1])):
            text += f"*{sig}[{-delay if delay else 0}]"
            if counts[(sig, delay)] > 1:
                text += f"^{counts[(sig, delay)]}"
        parts.append(text)
    parts.append("xi")
    return " + ".join(parts)


def delay_trees(signal: str, delay: int) -> int:
    """Delay trees a factor needs; output factors bring one backshift."""
    return delay - 1 if signal == "y" else delay


def adjunction_cost(terms) -> int:
    """Minimal adjunctions of a model: per factor occurrence one
    additive or multiplicative tree plus its delay chain."""
    return sum(1 + delay_trees(sig, delay) for term in terms for sig, delay in term)


def class_tags(terms) -> str:
    """Space-joined class tags, recomputed from the class definitions.

    FIR: linear in inputs only; Volterra: inputs only; ARX: linear and
    noise-free; ARMAX: linear; NARX: noise-free; every model is NARMAX.
    """
    signals = {sig for term in terms for sig, _ in term}
    linear = all(len(term) <= 1 for term in terms)
    input_only = signals <= {"u"}
    noise_free = "xi" not in signals
    tags = {"NARMAX"}
    if noise_free:
        tags.add("NARX")
    if linear:
        tags.add("ARMAX")
    if linear and noise_free:
        tags.add("ARX")
    if input_only:
        tags.add("Volterra")
    if input_only and linear:
        tags.add("FIR")
    return " ".join(tag for tag in CLASS_TAG_ORDER if tag in tags)


def yield_tokens(terms) -> Counter:
    """Token multiset of a derived tree's yield: per term ``c`` and
    ``+``, per factor occurrence ``×`` and its signal token plus one
    ``q⁻¹`` per unit of delay, then the closing ``ξ``."""
    tokens: Counter = Counter()
    for term in terms:
        tokens["c"] += 1
        tokens["+"] += 1
        for sig, delay in term:
            tokens["×"] += 1
            tokens[YIELD_SIGNAL[sig]] += 1
            tokens["q⁻¹"] += delay
    tokens["ξ"] += 1
    return tokens


# ---------------------------------------------------------------------------
# Direct model-space enumeration by minimal adjunction cost
# ---------------------------------------------------------------------------


def models_within_cost(budget: int) -> dict[str, str]:
    """Every extended-mode model whose minimal derivation fits the budget,
    enumerated in model space: canonical text -> class tags."""
    singles = []
    for sig in SIGNALS:
        for delay in range(1 if sig == "y" else 0, budget + 1):
            cost = 1 + delay_trees(sig, delay)
            if cost <= budget:
                singles.append(((sig, delay), cost))

    monomials: list[tuple[tuple, int]] = []

    def grow(term: list, cost: int, start: int) -> None:
        if term:
            monomials.append((tuple(term), cost))
        for i in range(start, len(singles)):
            key, key_cost = singles[i]
            if cost + key_cost <= budget:
                term.append(key)
                grow(term, cost + key_cost, i)
                term.pop()

    grow([], 0, 0)

    out: dict[str, str] = {}

    def choose(start: int, remaining: int, chosen: list) -> None:
        out[canonical_text(chosen)] = class_tags(chosen)
        for i in range(start, len(monomials)):
            term, cost = monomials[i]
            if cost <= remaining:
                chosen.append(term)
                choose(i + 1, remaining - cost, chosen)
                chosen.pop()

    choose(0, budget, [])
    return out


# ---------------------------------------------------------------------------
# Reference simulation
# ---------------------------------------------------------------------------


def reference_simulate(terms, coefficients, inputs, noise) -> list[float]:
    """The model recursion ``y[k] = xi[k] + sum_i c_i * prod(factors)``,
    with pre-record samples read as zero."""
    out: list[float] = []
    for k in range(len(noise)):
        total = noise[k]
        for coefficient, term in zip(coefficients, terms):
            product = coefficient
            for sig, delay in term:
                j = k - delay
                if j < 0:
                    product = 0.0
                elif sig == "u":
                    product *= inputs[j]
                elif sig == "y":
                    product *= out[j]
                else:
                    product *= noise[j]
            total += product
        out.append(total)
    return out
