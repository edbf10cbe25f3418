import gc
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from narmaxtag import cli, narmax
from narmaxtag.cli import main
from narmaxtag.models import NarmaxModel
from narmaxtag.narmax import MAX_ADJUNCTIONS
from narmaxtag.treeio import format_derivation

from conftest import SENTENCE_GRAMMAR_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoundtripCommand:
    def test_quadratic_example(self, capsys):
        code, out, err = run(capsys, "roundtrip", "c1*y[-1]^2 + c2*u[0] + xi")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "OK"
        assert lines[1].startswith("alpha1[")

    def test_long_delay(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "c1*u[-5000] + xi")
        assert code == 0
        assert out.splitlines()[0] == "OK"

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run(capsys, "roundtrip", "c1*y[0] + xi")
        assert code == 1
        assert "error:" in err

    def test_builds_one_derivation(self, capsys, monkeypatch):
        calls = []
        build = narmax._derivation

        def counted(*args):
            calls.append(build(*args))
            return calls[-1]

        monkeypatch.setattr(narmax, "_derivation", counted)
        code, out, _ = run(capsys, "roundtrip", "c1*y[-1]^2 + c2*u[0] + xi")
        assert (code, len(calls)) == (0, 1)
        assert out.splitlines()[1] == format_derivation(calls[0])

    def test_mismatch(self, capsys, monkeypatch):
        # a yield reader that loses a term makes the round trip fail
        read = narmax._to_parts

        def lossy(*args):
            return [NarmaxModel(part.terms[1:], part.mode) for part in read(*args)]

        monkeypatch.setattr(narmax, "_to_parts", lossy)
        assert run(capsys, "roundtrip", "c1*u[0] + c2*y[-1] + xi") == (1, "", "MISMATCH\n")


class TestPipeline:
    @pytest.mark.parametrize(
        "model",
        [
            "c1*u[0] + c2*y[-1] + xi",
            "c1*u[0] + c2*y[-1]^2 + xi",
            "c1*u[0] + c2*y[-1]^2 + c3*xi[0]*xi[-1]*xi[-2] + xi",
            "xi",
            "c1*u[-900] + xi",
            "c1*u[-1000] + xi",
            "c1*u[-5000] + xi",
        ],
    )
    def test_parse_derive_yield_to_model(self, capsys, tmp_path, model):
        code, derivation, _ = run(capsys, "parse", model)
        assert code == 0
        derivation_file = tmp_path / "derivation.txt"
        derivation_file.write_text(derivation, encoding="utf-8")

        code, tree_text, _ = run(capsys, "derive", str(derivation_file))
        assert code == 0
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text(tree_text, encoding="utf-8")

        code, tokens, _ = run(capsys, "yield", str(tree_file))
        assert code == 0
        assert tokens.strip().endswith("ξ")

        code, back, _ = run(capsys, "to-model", str(tree_file))
        assert code == 0
        assert back.strip() == model

    def test_yield_of_initial_tree(self, capsys, tmp_path):
        tree_file = tmp_path / "alpha1.txt"
        tree_file.write_text("expr0(ξ)", encoding="utf-8")
        code, out, _ = run(capsys, "yield", str(tree_file))
        assert code == 0
        assert out.strip() == "ξ"

    def test_derive_with_grammar_file(self, capsys, tmp_path):
        grammar_file = tmp_path / "sentence.grammar"
        grammar_file.write_text(SENTENCE_GRAMMAR_TEXT, encoding="utf-8")
        derivation_file = tmp_path / "derivation.txt"
        derivation_file.write_text(
            "alpha1[sub@1 -> alpha2, sub@2 -> alpha3, adj@ε -> beta1]",
            encoding="utf-8",
        )
        code, tree_text, _ = run(
            capsys, "derive", str(derivation_file), "--grammar", str(grammar_file)
        )
        assert code == 0
        tree_file = tmp_path / "tree.txt"
        tree_file.write_text(tree_text, encoding="utf-8")
        code, tokens, _ = run(capsys, "yield", str(tree_file))
        assert tokens.strip() == "yesterday a man saw mary"

    def test_derive_takes_a_grammar_file_or_a_preset(self, capsys, tmp_path):
        derivation_file = tmp_path / "derivation.txt"
        derivation_file.write_text("alpha1", encoding="utf-8")
        code, out, err = run(
            capsys, "derive", str(derivation_file), "--grammar", "g.txt", "--preset", "arx"
        )
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --preset: not allowed with argument --grammar\n")


    @pytest.mark.parametrize(
        "grammar, derivation, message",
        [
            (  # an auxiliary tree with two feet
                "initial a = S(A(x))\nauxiliary b = A(A★ A★)\n",
                "a[adj@1 -> b]",
                "multiple-foot: 2 foot-marked nodes [b@2]",
            ),
            (  # an initial tree name used twice
                "initial a = S(A(x))\ninitial a = S(x)\n",
                "a",
                "duplicate-tree-name: tree name 'a' appears more than once [a]",
            ),
        ],
    )
    def test_derive_refuses_a_malformed_grammar(
        self, capsys, tmp_path, grammar, derivation, message
    ):
        grammar_file = tmp_path / "bad.grammar"
        grammar_file.write_text(
            "nonterminals: S A\nterminals: x\nstart: S\n" + grammar, encoding="utf-8"
        )
        derivation_file = tmp_path / "derivation.txt"
        derivation_file.write_text(derivation, encoding="utf-8")
        code, out, err = run(
            capsys, "derive", str(derivation_file), "--grammar", str(grammar_file)
        )
        assert (code, out, err) == (1, "", f"error: malformed grammar: {message}\n")


class TestClassifyCommand:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "classify", "c1*y[-1] + c2*u[0] + xi")
        assert code == 0
        assert out.strip() == "ARX ARMAX NARX NARMAX"

    def test_batch_over_stdin(self, capsys, monkeypatch):
        lines = "c1*u[0] + xi\nc1*u[0]*u[-1] + xi\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run(capsys, "classify", "--all")
        assert code == 0
        rows = out.splitlines()
        assert rows[0].endswith("FIR Volterra ARX ARMAX NARX NARMAX")
        assert rows[1].endswith("Volterra NARX NARMAX")

    def test_usage_error_without_input(self, capsys):
        code, out, err = run(capsys, "classify")
        assert code == 2


ALL_TAGS = "FIR Volterra ARX ARMAX NARX NARMAX"
# duplicates, blank and padded lines, a line strict mode refuses, then a
# line no mode accepts, then one that is never reached
CLASSIFY_STDIN = (
    "c1*u[0] + xi\n"
    "\n"
    "   \n"
    "  c1*u[0] + xi\t\n"
    "c1*xi[0]*xi[-1] + xi\n"
    "c1*u[0] + xi\n"
    "c1*y[0] + xi\n"
    "c1*u[-1] + xi\n"
)


class TestClassifyAll:
    def classify_all(self, capsys, monkeypatch, stdin, *argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        return run(capsys, "classify", "--all", *argv)

    def test_first_bad_line_ends_the_run(self, capsys, monkeypatch):
        code, out, err = self.classify_all(capsys, monkeypatch, CLASSIFY_STDIN)
        assert code == 1
        assert out == (
            f"c1*u[0] + xi\t{ALL_TAGS}\n"
            f"c1*u[0] + xi\t{ALL_TAGS}\n"
            "c1*xi[0]*xi[-1] + xi\tNARMAX\n"
            f"c1*u[0] + xi\t{ALL_TAGS}\n"
        )
        assert err == "error: y[0] violates causality (position 3)\n"

    def test_strict_mode(self, capsys, monkeypatch):
        # the extended run before it must not answer for strict mode
        self.classify_all(capsys, monkeypatch, CLASSIFY_STDIN)
        code, out, err = self.classify_all(capsys, monkeypatch, CLASSIFY_STDIN, "--mode", "strict")
        assert code == 1
        assert out == f"c1*u[0] + xi\t{ALL_TAGS}\n" * 2
        assert err == "error: strict mode forbids the current noise sample in products\n"

    def test_a_bad_line_seen_again_fails_again(self, capsys, monkeypatch):
        stdin = "c1*u[0] + xi\nc1*u[0] +\nc1*u[0] + xi\n"
        for _ in range(2):
            code, out, err = self.classify_all(capsys, monkeypatch, stdin)
            assert (code, out, err) == (
                1, f"c1*u[0] + xi\t{ALL_TAGS}\n", "error: expected 'c' (at position 9)\n"
            )

    def test_empty_stdin(self, capsys, monkeypatch):
        assert self.classify_all(capsys, monkeypatch, "") == (0, "", "")


class TestEnumerateCommand:
    def test_arx_lines_all_arx(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--preset", "arx", "--max", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 27
        for line in lines:
            run_code, tags, _ = run(capsys, "classify", line)
            assert run_code == 0
            assert "ARX" in tags

    def test_derivation_output(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--preset", "fir", "--max", "1", "--derivations"
        )
        assert code == 0
        assert out.splitlines() == ["alpha1", "alpha1[adj@ε -> beta1]"]

    def test_byte_stability(self, capsys):
        first = run(capsys, "enumerate", "--preset", "narx", "--max", "2")
        second = run(capsys, "enumerate", "--preset", "narx", "--max", "2")
        assert first == second


class TestSimulateCommand:
    def test_with_files(self, capsys, tmp_path):
        u = tmp_path / "u.txt"
        xi = tmp_path / "xi.txt"
        u.write_text("1\n1\n", encoding="utf-8")
        xi.write_text("0\n0\n", encoding="utf-8")
        # coefficients bind to canonical term order: c1 on u[0], c2 on y[-1]
        code, out, err = run(
            capsys,
            "simulate",
            "c1*y[-1] + c2*u[0] + xi",
            "--coeffs",
            "2.0,0.5",
            "--u",
            str(u),
            "--xi",
            str(xi),
        )
        assert code == 0
        assert out.splitlines() == ["2.0", "3.0"]

    def test_seeded_noise_is_echoed_and_stable(self, capsys):
        argv = [
            "simulate",
            "xi",
            "--n",
            "4",
            "--noise-seed",
            "7",
            "--noise-std",
            "0.5",
        ]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert "noise-seed=7" in err
        assert "noise-std=0.5" in err
        code2, out2, err2 = run(capsys, *argv)
        assert (code, out, err) == (code2, out2, err2)

    def test_length_must_match_noise_file(self, capsys, tmp_path):
        xi = tmp_path / "xi.txt"
        xi.write_text("0\n0\n", encoding="utf-8")
        code, out, err = run(capsys, "simulate", "xi", "--xi", str(xi), "--n", "5")
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: --n 5 differs from the 2 samples in --xi"]
        code, out, _ = run(capsys, "simulate", "xi", "--xi", str(xi), "--n", "2")
        assert code == 0
        assert out.splitlines() == ["0.0", "0.0"]

    @pytest.mark.parametrize(
        "records, extra, message",
        [
            ({"u": "1\n2\n"}, ["--n", "5"], "--n 5 differs from the 2 samples in --u"),
            (
                {"u": "1\n2\n", "xi": "0\n0\n0\n"},
                [],
                "the 2 samples in --u differ from the 3 samples in --xi",
            ),
            ({"u": "1\nnan\n"}, [], "values in {u} must be finite, got nan"),
            ({"u": "1\n-inf\n"}, ["--n", "2"], "values in {u} must be finite, got -inf"),
            ({"xi": "1e400\n0\n"}, [], "values in {xi} must be finite, got inf"),
            ({"u": "0\n0\n", "xi": "0\nnan\n"}, [], "values in {xi} must be finite, got nan"),
        ],
    )
    def test_bad_records_fail_before_the_noise_echo(self, capsys, tmp_path, records, extra, message):
        # a domain error with one line, before any output or noise echo
        argv = ["simulate", "c1:0.5*u[0] + xi", *extra]
        paths = {}
        for flag, text in records.items():
            paths[flag] = tmp_path / f"{flag}.txt"
            paths[flag].write_text(text, encoding="utf-8")
            argv += [f"--{flag}", str(paths[flag])]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: " + message.format(**paths)]

    def test_missing_length_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "xi")
        assert code == 2

    def test_zero_noise_std_is_silent_noise(self, capsys):
        code, out, err = run(capsys, "simulate", "xi", "--n", "2", "--noise-std", "0")
        assert code == 0
        assert out.splitlines() == ["0.0", "0.0"]
        assert err.splitlines() == ["noise-seed=0 noise-std=0.0"]

    def test_zero_length_is_an_empty_record(self, capsys):
        code, out, err = run(capsys, "simulate", "xi", "--n", "0")
        assert code == 0
        assert out == ""
        assert "noise-seed=0" in err

    def test_divergence_is_domain_error(self, capsys):
        code, out, err = run(
            capsys,
            "simulate",
            "c1*y[-1]^2 + c2*u[0] + xi",
            "--coeffs",
            "2.0,1.0",
            "--n",
            "50",
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: simulation diverged at step 21"]


class TestSampleCommand:
    def test_reproducible(self, capsys):
        argv = ["sample", "--preset", "narmax", "--seed", "11", "--count", "3"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert len(first[1].splitlines()) == 3


class TestValidateCommand:
    def test_clean_grammar(self, capsys, tmp_path):
        grammar_file = tmp_path / "ok.grammar"
        grammar_file.write_text(SENTENCE_GRAMMAR_TEXT, encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(grammar_file))
        assert code == 0
        assert out.strip() == "OK"

    def test_broken_grammar(self, capsys, tmp_path):
        grammar_file = tmp_path / "bad.grammar"
        grammar_file.write_text(
            "nonterminals: A\nterminals: a\nstart: Z\ninitial t = A(a)\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "validate", str(grammar_file))
        assert code == 1
        assert "start-not-nonterminal" in out


class TestGrammarShow:
    def test_full_catalog(self, capsys):
        code, out, _ = run(capsys, "grammar-show")
        assert code == 0
        assert "initial alpha1 = expr0(ξ)" in out
        assert out.count("auxiliary beta") == 7

    def test_nbj_catalog(self, capsys):
        code, out, _ = run(capsys, "grammar-show", "--preset", "nbj")
        assert code == 0
        assert "exprbj" in out
        assert out.count("auxiliary beta") == 12


class TestDomainErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["enumerate", "--max", "-1"], "max_adjunctions must be >= 0"),
            (["sample", "--max-delay", "-1"], "max_delay must be >= 0"),
            (["sample", "--count", "-1"], "--count must be >= 0"),
            (["simulate", "xi", "--n", "-2"], "--n must be >= 0"),
            (
                ["simulate", "c1*u[0] + xi", "--coeffs", "abc", "--n", "3"],
                "coefficient values must be numbers, got 'abc'",
            ),
            # past narmax.MAX_ADJUNCTIONS; these fail before anything is built
            (
                ["parse", "c1*u[0]^9223372036854775808 + xi"],
                "the model needs 9223372036854775808 adjunctions, more than the limit of 500000",
            ),
            (
                ["roundtrip", "c1*u[0]^9223372036854775808 + xi"],
                "the model needs 9223372036854775808 adjunctions, more than the limit of 500000",
            ),
            (
                ["parse", "c1*u[-99999999999999999999] + xi"],
                "the model needs 100000000000000000000 adjunctions, more than the limit of 500000",
            ),
            (
                ["roundtrip", "c1*xi[-9223372036854775807] + xi"],
                "the model needs 9223372036854775808 adjunctions, more than the limit of 500000",
            ),
            (
                ["parse", "c1*y[-9223372036854775808] + xi"],
                "the model needs 9223372036854775808 adjunctions, more than the limit of 500000",
            ),
            # a multi-digit id and a colon without a number: placed after the colon
            (["classify", "c12: + xi"], "expected a number (at position 5)"),
            # checked before the noise-seed line goes to stderr
            (
                ["simulate", "xi", "--n", "3", "--noise-std", "-1"],
                "--noise-std must be finite and >= 0",
            ),
            (
                ["simulate", "xi", "--n", "3", "--noise-std", "nan"],
                "--noise-std must be finite and >= 0",
            ),
            (
                ["simulate", "xi", "--n", "3", "--noise-std", "inf"],
                "--noise-std must be finite and >= 0",
            ),
            (
                ["simulate", "c1*u[0] + xi", "--coeffs", "1e400", "--n", "2"],
                "coefficient values must be finite, got inf",
            ),
            (
                ["simulate", "c1*u[0] + xi", "--coeffs", "nan", "--n", "2"],
                "coefficient values must be finite, got nan",
            ),
            # a merge that leaves the finite floats
            (
                ["classify", "c1:1e308*u[0] + c2:1e308*u[0] + xi"],
                "coefficient values must be finite, got inf",
            ),
            (
                ["roundtrip", "c1:-1e308*u[0] + c2:-1e308*u[0] + xi"],
                "coefficient values must be finite, got -inf",
            ),
            # failures inside the simulation, before the noise-seed line too
            (
                ["simulate", "c1*u[0] + xi", "--n", "2"],
                "model has coefficient slots without numeric values",
            ),
            (
                ["simulate", "c1*u[0] + xi", "--n", "2", "--coeffs", "1,2"],
                "expected 1 coefficients, got 2",
            ),
            # float ** int converts the exponent: past the float range it
            # is refused when the model is built, not read as divergence
            (
                ["simulate", "c1:0.5*u[0]^1" + "0" * 400 + " + xi", "--n", "2"],
                "the exponent of u[0] is past the float range",
            ),
        ],
    )
    def test_exit_one_with_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]


    def test_missing_input_file(self, capsys, tmp_path):
        missing = tmp_path / "u.txt"
        code, out, err = run(capsys, "simulate", "xi", "--u", str(missing))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: [Errno 2] No such file or directory: {str(missing)!r}"
        ]

    @pytest.mark.parametrize("option", ["--u", "--xi"])
    def test_non_numeric_record_value(self, capsys, tmp_path, option):
        record = tmp_path / "record.txt"
        record.write_text("1\nabc\n", encoding="utf-8")
        code, out, err = run(capsys, "simulate", "c1:0.5*u[0] + xi", option, str(record))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: values in {record} must be numbers, got 'abc'"]

    def test_out_of_memory(self):
        # a parse at the adjunction limit peaks near 130 MiB resident
        outcome = _capped_main(100, ["parse", f"c1*u[0]^{MAX_ADJUNCTIONS} + xi"])
        assert outcome == (1, "", "error: out of memory\n")

    def test_out_of_memory_reported_after_the_command_is_freed(self, capsys, monkeypatch):
        # what the failed command built is freed before the message is
        # printed, so the print does not compete with it for memory
        class Held:
            pass

        def command(args):
            held = Held()
            weakref.finalize(held, print, "freed", file=sys.stderr)
            raise MemoryError

        parser = SimpleNamespace(parse_args=lambda argv: SimpleNamespace(func=command))
        monkeypatch.setattr(cli, "_parser", lambda: parser)
        assert run(capsys, "parse", "xi") == (1, "", "freed\nerror: out of memory\n")

    @pytest.mark.parametrize(
        "model", [f"c1*u[0]^{MAX_ADJUNCTIONS} + xi", f"c1*u[-{MAX_ADJUNCTIONS - 1}] + xi"]
    )
    def test_roundtrip_out_of_memory(self, model):
        # a round trip at the adjunction limit peaks at ~258 / ~276 MiB
        # resident, so 200 MiB is about three quarters of its peak
        assert _capped_main(200, ["roundtrip", model]) == (1, "", "error: out of memory\n")


def _capped_main(cap_mib, argv):
    """Exit code, stdout and stderr of ``main(argv)`` in a child that caps
    its own address space at ``cap_mib`` MiB before it imports the package."""
    script = (
        "import resource, sys\n"
        f"cap = {cap_mib} * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from narmaxtag.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


# A child that caps its own address space before it imports the package,
# as `_capped_main` does, runs each argv of its first argument through
# `main` and prints, per argv, the exit code, stdout, stderr and the
# seconds `main` took, as JSON.
_CAPPED_RUNS = """\
import contextlib, io, json, resource, sys, time
cap = 400 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from narmaxtag.cli import main
from narmaxtag.narmax import MAX_ADJUNCTIONS
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - start
    results.append([code, out.getvalue(), err.getvalue(), seconds])
print(json.dumps(results))
"""

_PAST_LIMIT = [
    ("c1*u[-100000000] + xi", 100000001),
    ("c1*u[0]^100000000 + xi", 100000000),
    ("c1*xi[-4611686018427387904] + xi", 4611686018427387905),
]
_WITHIN_LIMIT = [
    ["parse", "c1*u[-100000] + xi"],
    ["classify", "c1*u[-100000000] + xi"],
    ["simulate", "c1:0.5*u[-100000000] + xi", "--n", "3"],
]


@pytest.fixture(scope="module")
def capped_runs():
    argvs = [[command, model] for model, _ in _PAST_LIMIT for command in ("parse", "roundtrip")]
    argvs += _WITHIN_LIMIT
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUNS, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {tuple(argv): result for argv, result in zip(argvs, json.loads(done.stdout))}


class TestAdjunctionLimit:
    """Commands that build a derivation refuse a model past
    ``narmax.MAX_ADJUNCTIONS`` before they build anything; the others
    take it as any model."""

    @pytest.mark.parametrize("command", ["parse", "roundtrip"])
    @pytest.mark.parametrize("model, needed", _PAST_LIMIT)
    def test_past_limit_fails_at_once(self, capped_runs, command, model, needed):
        code, out, err, seconds = capped_runs[(command, model)]
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: the model needs {needed} adjunctions, "
            f"more than the limit of {MAX_ADJUNCTIONS}"
        ]
        assert seconds < 1

    def test_deep_delay_still_accepted(self, capped_runs):
        code, out, err, _ = capped_runs[tuple(_WITHIN_LIMIT[0])]
        assert (code, err) == (0, "")
        assert out.startswith("alpha1[adj@ε -> beta1[adj@1.3 -> beta7")
        assert out.count("beta7") == 100000

    def test_classify_and_simulate_take_any_model(self, capped_runs):
        code, out, err, _ = capped_runs[tuple(_WITHIN_LIMIT[1])]
        assert (code, out, err) == (0, "FIR Volterra ARX ARMAX NARX NARMAX\n", "")
        code, out, err, _ = capped_runs[tuple(_WITHIN_LIMIT[2])]
        assert (code, len(out.splitlines()), err) == (0, 3, "noise-seed=0 noise-std=1.0\n")


class TestClosedStdout:
    """A reader that stops early (`| head -1`) ends the run quietly."""

    @pytest.mark.parametrize("command", ["enumerate", "simulate"])
    def test_reader_closes_after_one_line(self, tmp_path, command):
        if command == "enumerate":
            argv = ["enumerate", "--max", "5"]
        else:
            # far more output than a pipe buffers, and no noise echo on stderr
            xi = tmp_path / "xi.txt"
            xi.write_text("0.25\n" * 20000, encoding="utf-8")
            argv = ["simulate", "c1:0.5*y[-1] + xi", "--xi", str(xi)]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        child = subprocess.Popen(
            [sys.executable, "-m", "narmaxtag.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert child.stdout.readline()
        child.stdout.close()
        try:
            err = child.stderr.read()
            code = child.wait(timeout=60)
        finally:
            child.kill()
            child.stderr.close()
        assert err == b""
        assert code == 0


class TestHashSeedStability:
    """Stdout does not depend on the interpreter's string hash seed, so no
    output follows the iteration order of a set of strings or of enum
    members (whose hashes are their identities)."""

    MODEL = " + ".join(
        ["c1*u[0]", "c2*u[-1]", "c3*y[-1]", "c4*y[-2]^2", "c5*xi[-1]", "c6*u[0]*y[-1]",
         "c7*u[-2]*xi[-1]", "c8*y[-1]*xi[-2]", "c9*u[-1]^2*y[-3]", "c10*xi[0]*u[-3]", "xi"]
    )

    def run(self, seed, argv, stdin=b""):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        )
        done = subprocess.run(
            [sys.executable, "-m", "narmaxtag.cli", *argv],
            input=stdin, capture_output=True, env=env, timeout=120, check=True,
        )
        return done.stdout

    def outputs(self, seed):
        listing = self.run(seed, ["enumerate", "--max", "3"])
        return [
            listing,
            self.run(seed, ["classify", "--all"], listing),
            self.run(seed, ["sample", "--count", "20", "--seed", "3"]),
            self.run(seed, ["parse", self.MODEL]),
        ]

    def test_same_bytes_under_two_seeds(self):
        first = self.outputs("0")
        assert all(first)
        assert first == self.outputs("12345")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_argument(self, capsys):
        assert run(capsys, "parse")[0] == 2


class TestRepeatedCalls:
    """`main` keeps no state between calls in one process: each call
    prints what it prints as the only call of a process."""

    MODEL = "c1*u[0]*xi[0] + xi"

    def call(self, capsys, monkeypatch, argv, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        return run(capsys, *argv)

    def test_mode_does_not_carry_over(self, capsys, monkeypatch):
        assert self.call(capsys, monkeypatch, ["parse", "--mode", "strict", self.MODEL]) == (
            1, "", "error: strict mode forbids the current noise sample in products\n"
        )
        assert self.call(capsys, monkeypatch, ["parse", self.MODEL]) == (
            0, "alpha1[adj@ε -> beta1[adj@1 -> beta6]]\n", ""
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["parse", "--bogus"], "the following arguments are required: model"),
            (["parse", "c1*u[0] + xi", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_error_then_a_good_call(self, capsys, monkeypatch, argv, message):
        code, out, err = self.call(capsys, monkeypatch, argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: narmaxtag") and err.endswith(f"error: {message}\n")
        assert self.call(capsys, monkeypatch, ["parse", "c1*u[0] + xi"]) == (
            0, "alpha1[adj@ε -> beta1]\n", ""
        )

    def test_classify_all_after_simulate_with_options(self, capsys, monkeypatch):
        simulate = [
            "simulate", "c1*u[0] + xi", "--n", "3", "--noise-seed", "4",
            "--noise-std", "0.5", "--mode", "strict", "--coeffs", "0.5",
        ]
        assert self.call(capsys, monkeypatch, simulate) == (
            0,
            "0.020427972396552023\n0.23243271006973606\n-0.23044891781958698\n",
            "noise-seed=4 noise-std=0.5\n",
        )
        stdin = f"c1*u[0] + xi\n{self.MODEL}\nc1*y[-1]*xi[-1] + xi\n"
        assert self.call(capsys, monkeypatch, ["classify", "--all"], stdin) == (
            0,
            "c1*u[0] + xi\tFIR Volterra ARX ARMAX NARX NARMAX\n"
            f"{self.MODEL}\tNARMAX\n"
            "c1*y[-1]*xi[-1] + xi\tNARMAX\n",
            "",
        )


class TestCollectorPause:
    """``main`` pauses the cyclic collector for the command and gives the
    caller back the setting it had, on every way out."""

    CALLS = [
        (["parse", "c1*u[0] + xi"], 0),
        (["parse", "c1*y[0] + xi"], 1),
        (["parse", "--bogus"], 2),
    ]

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, expected", CALLS, ids=["success", "domain", "usage"])
    def test_setting_restored(self, capsys, monkeypatch, collector, enabled, argv, expected):
        seen = []
        real = cli._parser

        def parser():
            seen.append(gc.isenabled())
            return real()

        monkeypatch.setattr(cli, "_parser", parser)
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, *argv)[0] == expected
        assert seen == [False]
        assert gc.isenabled() is enabled
