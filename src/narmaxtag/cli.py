"""Command-line surface.

Every command is a pure function of its arguments (seeded noise
included): identical invocations print identical bytes.  Exit codes are
0 on success, 1 on a domain error (a diagnostic goes to stderr) and 2
on a usage error.  A reader that closes stdout early ends the run
quietly with 0.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import random
import sys
from typing import Iterable, Sequence

from .generate import GenBounds, SampleConfig, enumerate_derivations, enumerate_models, sample_model
from .models import (
    CLASS_TAG_ORDER,
    Mode,
    _finite,
    classify,
    format_model_text,
    parse_model_text,
    simulate,
)
from .narmax import (
    GrammarPreset,
    _roundtrip,
    build_narmax_grammar,
    build_nbj_grammar,
    derived_to_model,
    model_to_derivation,
    restrict,
)
from .treeio import (
    format_derivation,
    format_grammar,
    format_tree,
    parse_derivation,
    parse_grammar,
    parse_tree,
)
from .trees import TagError, derive, validate_grammar, yield_of

# every domain error of the package (models, yields, text formats, bounds)
# subclasses ValueError
_DOMAIN_ERRORS = (TagError, ValueError, OSError)

# distinct lines `classify --all` remembers, which bounds its memory on
# long streams
_CLASSIFY_CACHE_LINES = 65_536


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _numbers(tokens: Iterable[str], what: str) -> list[float]:
    """The tokens as finite floats; ``what`` names them in the message
    for a token that is not one."""
    values = []
    for token in tokens:
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"{what} must be numbers, got {token!r}") from None
        values.append(_finite(value, what))
    return values


def _read_numbers(path: str) -> list[float]:
    what = "values in " + ("standard input" if path == "-" else path)
    return _numbers(_read(path).split(), what)


def _cmd_grammar_show(args: argparse.Namespace) -> int:
    if args.preset == "nbj":
        print(format_grammar(build_nbj_grammar().grammar), end="")
    else:
        print(format_grammar(restrict(GrammarPreset(args.preset))), end="")
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    model = parse_model_text(args.model, mode=Mode(args.mode))
    print(format_derivation(model_to_derivation(model)))
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    if args.grammar:
        grammar = parse_grammar(_read(args.grammar))
    else:
        grammar = restrict(GrammarPreset(args.preset))
    derivation = parse_derivation(_read(args.derivation_file))
    print(format_tree(derive(derivation, grammar)))
    return 0


def _cmd_yield(args: argparse.Namespace) -> int:
    tree = parse_tree(_read(args.tree_file))
    print(" ".join(yield_of(tree)))
    return 0


def _cmd_to_model(args: argparse.Namespace) -> int:
    tree = parse_tree(_read(args.tree_file))
    print(format_model_text(derived_to_model(tree, mode=Mode(args.mode))))
    return 0


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    model = parse_model_text(args.model, mode=Mode(args.mode))
    derivation = _roundtrip(build_narmax_grammar(), (model,), model.mode)
    if derivation is None:
        print("MISMATCH", file=sys.stderr)
        return 1
    print("OK")
    print(format_derivation(derivation))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    # one classification per distinct line; an error is not cached, so
    # the first bad line still ends the run
    @functools.lru_cache(maxsize=_CLASSIFY_CACHE_LINES)
    def tags_of(text: str) -> str:
        model = parse_model_text(text, mode=Mode(args.mode))
        tags = classify(model)
        return " ".join(tag for tag in CLASS_TAG_ORDER if tag in tags)

    if args.all:
        for line in sys.stdin:
            line = line.strip()
            if line:
                print(f"{line}\t{tags_of(line)}")
    elif args.model is not None:
        print(tags_of(args.model))
    else:
        print("classify: provide a model or --all for stdin batches", file=sys.stderr)
        return 2
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = parse_model_text(args.model, mode=Mode(args.mode))
    coeffs = None
    if args.coeffs is not None:
        tokens = [tok.strip() for tok in args.coeffs.split(",")]
        coeffs = _numbers(filter(None, tokens), "coefficient values")
    inputs = _read_numbers(args.u) if args.u else None
    if args.xi:
        noise = _read_numbers(args.xi)
        length = len(noise)
        if args.n is not None and args.n != length:
            raise ValueError(f"--n {args.n} differs from the {length} samples in --xi")
        if inputs is not None and len(inputs) != length:
            raise ValueError(
                f"the {len(inputs)} samples in --u differ from the {length} samples in --xi"
            )
    else:
        length = args.n
        if length is None and inputs is not None:
            length = len(inputs)
        if length is None:
            print(
                "simulate: need --xi, --n or --u to fix the record length",
                file=sys.stderr,
            )
            return 2
        if length < 0:
            raise ValueError("--n must be >= 0")
        if inputs is not None and len(inputs) != length:
            raise ValueError(f"--n {length} differs from the {len(inputs)} samples in --u")
        if not 0 <= args.noise_std <= sys.float_info.max:
            raise ValueError("--noise-std must be finite and >= 0")
        rng = random.Random(args.noise_seed)
        noise = [rng.gauss(0.0, args.noise_std) for _ in range(length)]
    if inputs is None:
        inputs = [0.0] * length
    outputs = simulate(model, coeffs, inputs, noise)
    if not args.xi:  # echoed once the run has succeeded, so a failure is one line
        print(f"noise-seed={args.noise_seed} noise-std={args.noise_std!r}", file=sys.stderr)
    sys.stdout.write("".join(f"{v!r}\n" for v in outputs))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    grammar = restrict(GrammarPreset(args.preset))
    bounds = GenBounds(max_adjunctions=args.max)
    if args.derivations:
        for derivation in enumerate_derivations(grammar, bounds):
            print(format_derivation(derivation))
    else:
        for model in enumerate_models(grammar, bounds):
            print(format_model_text(model))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    bounds = GenBounds(
        max_adjunctions=args.max_adjunctions,
        max_terms=args.max_terms,
        max_delay=args.max_delay,
        max_exponent=args.max_exponent,
        mode=Mode(args.mode),
    )
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    for i in range(args.count):
        config = SampleConfig(bounds=bounds, seed=args.seed + i)
        print(format_model_text(sample_model(config, GrammarPreset(args.preset))))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    grammar = parse_grammar(_read(args.grammar_file))
    diagnostics = validate_grammar(grammar)
    if not diagnostics:
        print("OK")
        return 0
    for diagnostic in diagnostics:
        print(diagnostic)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narmaxtag",
        description="Tree-adjoining-grammar toolkit for polynomial dynamic "
        "model structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    presets = [p.value for p in GrammarPreset]

    def add_mode(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=[m.value for m in Mode],
            default=Mode.EXTENDED.value,
            help="noise-delay discipline inside products",
        )

    p = sub.add_parser("grammar-show", help="print a grammar in file format")
    p.add_argument("--preset", choices=presets + ["nbj"], default="narmax")
    p.set_defaults(func=_cmd_grammar_show)

    p = sub.add_parser("parse", help="model text -> derivation")
    p.add_argument("model")
    add_mode(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("derive", help="derivation file -> derived tree")
    p.add_argument("derivation_file")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--grammar", help="grammar file (default: the full model grammar)")
    source.add_argument("--preset", choices=presets, default="narmax")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("yield", help="tree file -> leaf tokens")
    p.add_argument("tree_file")
    p.set_defaults(func=_cmd_yield)

    p = sub.add_parser("to-model", help="derived-tree file -> model text")
    p.add_argument("tree_file")
    add_mode(p)
    p.set_defaults(func=_cmd_to_model)

    p = sub.add_parser("roundtrip", help="check model -> derivation -> model")
    p.add_argument("model")
    add_mode(p)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("classify", help="structural class tags of a model")
    p.add_argument("model", nargs="?")
    p.add_argument("--all", action="store_true", help="classify stdin lines")
    add_mode(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="run a model over input/noise records")
    p.add_argument("model")
    p.add_argument("--coeffs", help="comma-separated coefficient values")
    p.add_argument("--u", help="input record file (default: zeros)")
    p.add_argument("--xi", help="noise record file")
    p.add_argument("--n", type=int, help="record length for generated noise")
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--noise-std", type=float, default=1.0)
    add_mode(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("enumerate", help="all models up to an adjunction budget")
    p.add_argument("--preset", choices=presets, default="narmax")
    p.add_argument("--max", type=int, required=True, help="adjunction budget")
    p.add_argument(
        "--derivations", action="store_true", help="print derivations instead"
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="seeded random models")
    p.add_argument("--preset", choices=presets, default="narmax")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-adjunctions", type=int, default=8)
    p.add_argument("--max-terms", type=int, default=3)
    p.add_argument("--max-delay", type=int, default=3)
    p.add_argument("--max-exponent", type=int, default=2)
    add_mode(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("validate", help="diagnose a grammar file")
    p.add_argument("grammar_file")
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parsing leaves no state in
    # it, so every call of `main` reuses it
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    # The package's trees, derivations and models hold no reference
    # cycles, so on large inputs the cyclic collector only rescans live
    # objects (two fifths of a 10⁵-adjunction round trip).  It is paused
    # for the command, and the caller's setting is restored afterwards.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): that ends the run quietly.
        # Output still buffered goes to devnull, so the flush at exit
        # cannot fail again (the "Note on SIGPIPE" in the signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # leaving the handler frees the traceback and all the command built
    print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
