"""Seconds-long self-check of the benchmark harness.

Runs every workload at tiny sizes through its checks, shows that each
check rejects a corrupted output, confirms the oracles' reference
counts and runs one traced operation per workload.  Exit code 0 when
all of that holds.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import oracles
import spans
import workloads

# derivations of the full grammar and distinct models, by adjunction budget
REFERENCE_COUNTS = {4: (1201, 246), 5: (8404, 888), 6: (58825, 3084)}


def _replace(out: dict, step: str, stdout: str | None = None, code: int | None = None) -> dict:
    bad = dict(out)
    old = bad[step]
    bad[step] = (old[0] if code is None else code, old[1] if stdout is None else stdout, old[2])
    return bad


def _enum_corruptions(out, nt):
    listing = out["enumerate"][1]
    rows = out["classify"][1]
    lines = listing.splitlines(keepends=True)
    first = lines[0].rstrip("\n")
    other = "c1*u[-9] + xi"
    tag_row = rows.splitlines(keepends=True)
    model, _, tags = tag_row[0].rstrip("\n").partition("\t")
    tag_row[0] = f"{model}\t{'FIR ' + tags if 'FIR' not in tags else tags.replace('FIR ', '')}\n"
    return {
        "one derivation missing": _replace(out, "enumerate", "".join(lines[:-1])),
        "foreign model": _replace(
            _replace(out, "enumerate", listing.replace(first, other, 1)),
            "classify",
            rows.replace(first, other, 1),
        ),
        "wrong class tag": _replace(out, "classify", "".join(tag_row)),
        "failed exit code": _replace(out, "classify", code=1),
    }


def _ea_corruptions(out, nt):
    def mutate(edit):
        bad = copy.deepcopy(out)
        edit(bad)
        return bad

    def nudge(bad):
        output = bad[0]["output"]
        output[-1] *= 1 + 1e-6

    def retag(bad):
        cand = bad[0]
        cand["tags"] = cand["tags"] ^ {"FIR"}

    def rescore(bad):
        bad[-1]["score"] = 1e-3

    def regenotype(bad):
        bad[-1]["genotype"] = bad[-1]["genotype"].edges[0].child

    def oversize(bad):
        bad[0]["model"] = nt.parse_model_text("c1*u[-6] + xi")

    return {
        "simulation off by 1e-6": mutate(nudge),
        "wrong class tags": mutate(retag),
        "true model scored above 0": mutate(rescore),
        "genotype with a subtree missing": mutate(regenotype),
        "candidate beyond the sampling bounds": mutate(oversize),
    }


def _large_corruptions(out, nt):
    text = out["to-model"][1]
    tokens = out["yield"][1]
    derivation = out["parse"][1]
    return {
        "to-model text changed": _replace(out, "to-model", text.replace("c1*", "c1 * ", 1)),
        "one backshift missing": _replace(out, "yield", tokens.replace(" q⁻¹", "", 1)),
        "one auxiliary tree missing": _replace(out, "parse", derivation.replace("beta", "gamma", 1)),
        "failed exit code": _replace(out, "derive", code=1),
    }


CORRUPTIONS = {
    "enum_closure": _enum_corruptions,
    "ea_search": _ea_corruptions,
    "cli_large": _large_corruptions,
}


def main(program) -> int:
    nt, cli = program
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for budget, (derivations, models) in REFERENCE_COUNTS.items():
        expect(oracles.derivation_count(budget) == derivations,
               f"recurrence gives {derivations} derivations at {budget} adjunctions")
    expect(len(oracles.models_within_cost(4)) == REFERENCE_COUNTS[4][1],
           "model-space enumeration gives 246 models at 4 adjunctions")

    built = {}
    for name, factory in workloads.WORKLOADS.items():
        workload = factory(nt, cli, 1, workloads.TINY)
        built[name] = workload
        expect(not workload.setup_problems, f"{name}: set-up checks {workload.setup_problems}")
        for index in range(2):
            inp = workload.make_input(index)
            out = workload.run(inp)
            problems = workload.check(inp, out)
            expect(not problems, f"{name}: operation {index} passes its checks {problems}")
        for what, bad in CORRUPTIONS[name](out, nt).items():
            expect(bool(workload.check(inp, bad)), f"{name}: check rejects '{what}'")

    tracer = spans.Tracer()
    tracer.install()
    for name, workload in built.items():
        before = tracer.ops
        tracer.op(workload.run, workload.make_input(0))
        metrics = tracer.metrics()
        expect(tracer.ops == before + 1 and 0.0 < metrics["trace.attributed_pct"][0] <= 100.0,
               f"{name}: traced operation attributes its time to layers")
    expect(metrics["cli.main.calls"][0] > 0 and metrics["models.simulate.calls"][0] > 0,
           "traced calls reach cli.main and models.simulate")
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    declared = {m["name"] for m in json.loads(spec.read_text(encoding="utf-8"))["per_layer"]}
    reported = set(metrics) | {
        "setup.import_ms", "setup.grammar_ms", "trace.overhead_pct", "speed.ref_ms"
    }
    expect(declared == reported, "traced metrics match the per-layer list of BENCHMARK.json")

    print(f"self-check {'FAILED' if failures else 'passed'}: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit("run through: python3 bench/run.py --self-check")
