"""Benchmark for narmaxtag: three closed-loop workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each workload runs its operations one after the
other in this process (one client, closed loop) until ``--seconds``
have passed and at least 40 operations were timed, and checks every
operation's outputs against the independent computations in
``oracles.py``.  Every time is scaled to the machine's current speed
with the reference passes of ``speed.py`` run between operations.
``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics from a run with spans around every layer
call.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record goes to ``bench/out/``.  ``--self-check`` runs every workload at
tiny sizes and shows that each check rejects a corrupted output.

Workloads: ``enum_closure``, ``ea_search``, ``cli_large`` (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 40  # op_tail_ms needs at least 40 timed operations
MIN_TRACE_OPS = 10  # traced operations of a traced run
TAIL_BEYOND = 10  # operations above the reported tail percentile


class SetupError(Exception):
    """The checkout cannot be benchmarked: no result is printed."""


def load_program():
    package = SRC / "narmaxtag"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no narmaxtag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import narmaxtag
    import narmaxtag.cli

    if Path(narmaxtag.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported narmaxtag from {narmaxtag.__file__}, not {package}")
    return narmaxtag, narmaxtag.cli


class SetupProbes:
    """Import and catalog-building time of fresh interpreters.

    One probe is launched after every second timed operation, so the
    probes spread over the whole run like the operations do, and the
    median is reported.  Each probe is scaled to the machine speed like
    the operation before it (``speed.py``).  The first launch may write
    bytecode caches; it is not counted.
    """

    def __init__(self) -> None:
        self.samples: list[dict] = []
        self.launch()
        self.samples.clear()

    def launch(self) -> dict:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if Path(sample["module"]).resolve().parent != (SRC / "narmaxtag").resolve():
            raise SetupError(f"setup probe imported {sample['module']}")
        self.samples.append(sample)
        return sample

    def median(self, key: str) -> float:
        return statistics.median(s[key] * s["scale"] for s in self.samples)

    def setup_s(self) -> float:
        return statistics.median(
            (s["import_ms"] + s["grammar_ms"]) * s["scale"] for s in self.samples
        ) / 1e3


@dataclass
class Loop:
    times: list[float] = field(default_factory=list)  # scaled to the machine speed
    raw: list[float] = field(default_factory=list)  # as measured
    attempted: int = 0
    items: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def items_per_s(self) -> float:
        return self.items / sum(self.times)

    def add_time(self, elapsed: float, scale: float) -> None:
        self.raw.append(elapsed)
        self.times.append(elapsed * scale)

    def record(self, workload, inp, issues: list[str]) -> None:
        self.attempted += 1
        if issues:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(issues[:3])
        else:
            self.items += workload.items(inp)


def run_op(workload, inp, loop: Loop, call=None) -> float:
    """Time one operation, check it and record it in ``loop``; return
    its time in seconds."""
    start = time.perf_counter()
    try:
        out = call(workload.run, inp) if call else workload.run(inp)
        elapsed = time.perf_counter() - start
        issues = workload.check(inp, out)
    except Exception as exc:
        # a crashing operation is a failed operation; the run goes on
        elapsed = time.perf_counter() - start
        issues = [f"{type(exc).__name__}: {str(exc)[:200]}"]
    loop.record(workload, inp, issues)
    return elapsed


class SpeedScale:
    """Reference passes between operations (``speed.py``).  ``step()``
    runs the next one and returns the scale for the work done since the
    previous one: ``NOMINAL_MS`` over the mean of the two."""

    def __init__(self) -> None:
        self.refs = [speed.reference_ms()]

    def step(self) -> float:
        self.refs.append(speed.reference_ms())
        return speed.NOMINAL_MS / ((self.refs[-2] + self.refs[-1]) / 2)


def run_loop(workload, seconds: float, probes: SetupProbes, scale: SpeedScale) -> Loop:
    """Operations on inputs 1, 2, ... until ``seconds`` have passed and
    ``MIN_OPS`` were run, with the set-up probes in between."""
    loop = Loop()
    start = time.perf_counter()
    index = 1
    while loop.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        elapsed = run_op(workload, workload.make_input(index), loop)
        probe = probes.launch() if index % 2 == 0 else None
        factor = scale.step()
        loop.add_time(elapsed, factor)
        if probe is not None:
            probe["scale"] = factor
        index += 1
    return loop


def peak_alloc_mb(workload, loop: Loop) -> float:
    """tracemalloc peak of one operation (the first input), untimed; the
    operation is checked and counted in ``loop``."""
    inp = workload.make_input(0)
    gc.collect()  # so collections during the pass fall at the same points every run
    tracemalloc.start()
    try:
        out = workload.run(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    loop.record(workload, inp, workload.check(inp, out))
    return peak / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(times: list[float]) -> float:
    """The highest order statistic with ``TAIL_BEYOND`` operations above it."""
    ordered = sorted(times)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    nt, cli = load_program()
    probes = SetupProbes()
    workload = workloads.WORKLOADS[name](nt, cli, seed, workloads.FULL)
    warm = Loop()
    run_op(workload, workload.make_input(0), warm)  # fills lazy caches
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    scale = SpeedScale()
    if not trace:
        loop = run_loop(workload, seconds, probes, scale)
        timed = loop.times
        alloc = Loop()
        metrics = {
            "setup_s": (probes.setup_s(), "s"),
            "items_per_s": (loop.items_per_s(), "items/s"),
            "op_p50_ms": (statistics.median(timed) * 1e3, "ms"),
            "op_tail_ms": (tail(timed) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "peak_alloc_mb": (peak_alloc_mb(workload, alloc), "MiB"),
        }
        record["op_ms"] = [t * 1e3 for t in timed]
        record["op_ms_raw"] = [t * 1e3 for t in loop.raw]
        record["tail_percentile"] = 100.0 * (len(timed) - TAIL_BEYOND) / len(timed)
        loops = [warm, loop, alloc]
    else:
        # traced and untraced runs of each input alternate, so a change in
        # machine speed during the run touches both sides of the overhead
        plain, traced = Loop(), Loop()
        tracer = spans.Tracer()
        start = time.perf_counter()
        index = 1
        while traced.attempted < MIN_TRACE_OPS or time.perf_counter() - start < seconds:
            inp = workload.make_input(index)
            plain_s = run_op(workload, inp, plain)
            tracer.install()
            try:
                traced_s = run_op(workload, inp, traced, tracer.op)
            finally:
                tracer.uninstall()
            probe = probes.launch()
            factor = scale.step()
            plain.add_time(plain_s, factor)
            traced.add_time(traced_s, factor)
            probe["scale"] = factor
            index += 1
        # span times are scaled by the run's mean factor, so that they
        # add up to the scaled operation time
        layer_scale = sum(traced.times) / sum(traced.raw)
        metrics = {
            "setup.import_ms": (probes.median("import_ms"), "ms"),
            "setup.grammar_ms": (probes.median("grammar_ms"), "ms"),
            **{
                name: (value * layer_scale if unit == "ms" else value, unit)
                for name, (value, unit) in tracer.metrics().items()
            },
            "trace.overhead_pct": (
                100.0 * (plain.items_per_s() / traced.items_per_s() - 1.0),
                "%",
            ),
            "speed.ref_ms": (statistics.median(scale.refs), "ms"),
        }
        record["spans_first_op"] = tracer.first_op
        loops = [warm, plain, traced]
    record["ref_ms"] = scale.refs
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    record["setup_probes"] = probes.samples
    record["problems"] = workload.setup_problems + [p for loop in loops for p in loop.problems]
    record["python"] = platform.python_version()
    record["cpu"] = cpu_model()
    result = {
        "correct": not workload.setup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            import selfcheck

            return selfcheck.main(load_program())
        if args.workload is None:
            parser.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    print(f"attempted {result['attempted']}  failed {result['failed']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
