"""Benchmark of the nordenlight verdict path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of dense_d10, sparse_d12, batch_small, or `all` to run each in
turn in its own process.

Run from the root of a source checkout; the engine is imported from its
`src/` directory and nowhere else. Each verdict is the public path
`parse_manifold_file` -> `run_pipeline` -> `emit_report` (structured and
text), driven as a closed loop by one client in one thread, and every
verdict is checked against the closed forms in `oracle.py`.

With `--trace 0` the run measures the end-to-end metrics with no
instrumentation. With `--trace 1` it measures per-layer metrics in three
separate phases over the same inputs: a traced phase (spans from
`spans.py`), an untraced replay (for the tracing overhead) and a `cProfile`
replay (for the share of time spent in `fractions.py`). The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; spans are written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import family
import oracle
import spans

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
BATCH_BLOCKS = 20
WORKLOADS = ("dense_d10", "sparse_d12", "batch_small")


def _import_engine(root: Path):
    """The engine modules, imported from the checkout's `src/`."""
    src = root / "src"
    if not (src / "nordenlight" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine sources under {src}")
    sys.path.insert(0, str(src))
    from nordenlight import ambient, hypersurface, manifold_file, pipeline, symmetry

    if Path(pipeline.__file__).resolve().parent != (src / "nordenlight").resolve():
        raise SystemExit(f"error: nordenlight was imported from {pipeline.__file__}, not {src}")
    return manifold_file, pipeline, ambient, hypersurface, symmetry


def make_cases(workload: str, seed: int, root: Path):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense_d10":
        return [family.dense_case(rng, 5) for _ in range(2)]
    if workload == "sparse_d12":
        return [family.family_case(6)]
    return family.batch_cases(rng, root, BATCH_BLOCKS)


class Runner:
    """Runs verdicts, checks them with the oracle and counts failures."""

    def __init__(self, modules):
        self.manifold_file, self.pipeline = modules[0], modules[1]
        self.first_rss_kb: int | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[int, str] = {}

    def verdict(self, text: str):
        """The timed unit: parse, pipeline, both emissions."""
        mf = self.manifold_file.parse_manifold_file(text)
        report = self.pipeline.run_pipeline(mf)
        structured = self.pipeline.emit_report(report, "structured")
        rendered = self.pipeline.emit_report(report, "text")
        return report.data, report.exit_code, structured, rendered

    def run(self, index: int, case, call=None) -> float:
        """One checked verdict of input `index`; returns its wall seconds.
        `call(verdict, text)`, when given, runs the verdict under a tracer
        or profiler."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if call is None:
                data, code, structured, rendered = self.verdict(case.text)
            else:
                data, code, structured, rendered = call(self.verdict, case.text)
            error = None
        except Exception as exc:  # an uncaught engine exception is a failed verdict
            error = exc
        elapsed = time.perf_counter() - start
        if self.first_rss_kb is None and index >= 0:
            self.first_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if error is not None:
            self._fail(f"{case.kind}: uncaught {type(error).__name__}: {error}")
            return elapsed
        try:
            problems = oracle.check(case, data, code)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems = [f"report does not have the expected shape: {type(exc).__name__}: {exc}"]
        if not rendered:
            problems.append("empty text report")
        digest = hashlib.sha256(structured.encode()).hexdigest()
        if self._digests.setdefault(index, digest) != digest:
            problems.append("structured report differs from an earlier emission of the same input")
        if problems:
            self._fail(f"{case.kind}: " + "; ".join(problems))
        return elapsed

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def closed_loop(runner: Runner, cases, seconds: float, call=None) -> tuple[list[float], list[int], float]:
    """Verdicts back to back, cycling through the inputs, until `seconds`
    have passed (at least one). Returns the verdict times, the input indices
    in order and the wall time of the loop."""
    times, order = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        order.append(len(order) % len(cases))
        times.append(runner.run(order[-1], cases[order[-1]], call))
    return times, order, time.perf_counter() - start


def setup(workload: str, seed: int, root: Path):
    """Import the engine, build the inputs and warm up on the fixture;
    returns what the run needs and the set-up seconds."""
    start = time.perf_counter()
    modules = _import_engine(root)
    cases = make_cases(workload, seed, root)
    runner = Runner(modules)
    warm = family.fixture_cases(root)[0]
    runner.run(-1, warm)
    return modules, cases, runner, time.perf_counter() - start


def setup_seconds(args, own: float) -> float:
    """Median set-up time: this process and fresh child processes."""
    samples = [own]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd.append("--setup-only")
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def timed_run(args, runner: Runner, cases, setup_s: float) -> dict:
    times, _, wall = closed_loop(runner, cases, args.seconds)
    print(f"timed verdicts: {len(times)} (the samples of verdict_s and verdict_s_p90)")
    return {
        "verdict_s": (statistics.median(times), "s"),
        "verdict_s_p90": (p90(times), "s"),
        "verdicts_per_s": (len(times) / wall, "1/s"),
        "peak_rss_mb": (runner.first_rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced_run(args, root: Path, modules, runner: Runner, cases) -> dict:
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        _, order, _ = closed_loop(runner, cases, args.seconds / 3, call=tracer.verdict)
    finally:
        tracer.uninstall()
    untraced = [runner.run(index, cases[index]) for index in order]
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (tracer.verdict_time() / sum(untraced), "ratio")

    profiler = cProfile.Profile()
    profiled = 0
    start = time.perf_counter()
    while profiled < len(order) and (not profiled or time.perf_counter() - start < args.seconds / 4):
        runner.run(order[profiled], cases[order[profiled]], call=profiler.runcall)
        profiled += 1
    stats = pstats.Stats(profiler).stats
    total = sum(entry[2] for entry in stats.values())
    in_fractions = sum(entry[2] for (path, _, _), entry in stats.items() if path.endswith("fractions.py"))
    metrics["exact.fraction_share"] = (in_fractions / total, "ratio")
    print(f"traced verdicts: {len(order)}, untraced replay: {len(untraced)}, profiled: {profiled}")

    out = root / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.dump()}))
    print(f"spans: {path.relative_to(root)}")
    return metrics


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak RSS is
    not carried over; fails when any of them fails."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args)

    modules, cases, runner, own_setup = setup(args.workload, args.seed, root)
    if args.setup_only:
        print(own_setup)
        return 0
    if args.trace:
        metrics = traced_run(args, root, modules, runner, cases)
    else:
        metrics = timed_run(args, runner, cases, setup_seconds(args, own_setup))

    early = sum(1 for c in cases if c.exit_code != 0) / len(cases)
    print(f"workload {args.workload}: {len(cases)} distinct inputs, early-exit share {early:.2f}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"failed_ratio: {runner.failed}/{runner.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
