"""orthobox benchmark: seeded CLI workloads, end-to-end metrics and a traced run.

    python3 benchmarks/run.py --workload sample --seed 1 --seconds 38 --trace 0

With ``--trace 0`` the workload's batch of ``orthobox`` invocations runs as
subprocesses, closed loop (one client, one child at a time), repeated round
robin until ``--seconds`` is used up (the last pass may stop part way);
every output is judged by the oracle and repeats must be byte-identical.  With ``--trace 1`` the batch runs once as
subprocesses and then three times in-process through ``orthobox.cli.main``:
a warm-up pass, a timed untraced pass and a pass with every layer wrapped
(see tracing.py).  Every in-process pass must print exactly what the
subprocesses printed.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine metadata
and sample counts.  Generated inputs and the span dump go to
``.bench_out/<workload>-<seed>/`` in the checkout.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cmd_p50_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_networkx_s": "s",
    "cli.self_s": "s",
    "rng.draws": "count",
    "rng.draw_ns": "ns",
    "models.step.calls": "count",
    "models.step.self_s": "s",
    "models.step.repeat_ratio": "ratio",
    "models.enumerate.calls": "count",
    "models.enumerate.histories": "count",
    "models.enumerate.self_s": "s",
    "models.sample.trials": "count",
    "models.sample.forbidden": "count",
    "models.sample.self_s": "s",
    "scenario.self_s": "s",
    "behavior.self_s": "s",
    "behavior.assignments": "count",
    "linprog.calls": "count",
    "linprog.rows": "count",
    "linprog.columns": "count",
    "linprog.feasible_s": "s",
    "linprog.infeasible_s": "s",
    "linprog.support_ratio": "ratio",
    "theorem.points": "count",
    "theorem.self_s": "s",
    "protocols.bob_marginal.calls": "count",
    "protocols.self_s": "s",
    "quantumref.self_s": "s",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORTTIME_REPEATS = 5
DRAW_BLOCKS, DRAW_BLOCK_SIZE = 5, 100_000
CHILD_TIMEOUT_S = 120
IMPORT_CLI = "import orthobox.cli"


class ChildRunner:
    """Runs orthobox children one at a time and reaps each with wait4."""

    def __init__(self, workdir: Path):
        self.env = {k: v for k, v in os.environ.items() if k != "ORTHOBOX_COLOR"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.stdout = open(workdir / "child.stdout", "w+b")
        self.stderr = open(workdir / "child.stderr", "w+b")

    def close(self) -> None:
        self.stdout.close()
        self.stderr.close()

    def run(self, args: list[str]) -> tuple[float, int, float, str, str]:
        """(wall seconds, exit code, max RSS in MB, stdout, stderr) of one child."""
        for f in (self.stdout, self.stderr):
            f.seek(0)
            f.truncate()
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=self.stdout, stderr=self.stderr,
            env=self.env, cwd=ROOT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        outputs = []
        for f in (self.stdout, self.stderr):
            f.seek(0)
            outputs.append(f.read().decode("utf-8", "replace"))
        # ru_maxrss is in KiB on Linux.
        return wall, proc.returncode, usage.ru_maxrss / 1024, outputs[0], outputs[1]

    def cli(self, argv: list[str]):
        return self.run(["-m", "orthobox.cli", *argv])


def read_outputs(inv: workloads.Invocation) -> dict[str, bytes]:
    return {p: Path(p).read_bytes() if Path(p).is_file() else b"" for p in inv.outputs}


class Judge:
    """Counts attempted and failed invocations; repeats must match the first run byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, tuple[str, str, dict]] = {}
        self.verdict: dict[int, list[str]] = {}
        self.problems: list[str] = []

    def record(self, index: int, inv, exit_code: int, stdout: str, stderr: str, files: dict, where: str) -> None:
        self.attempted += 1
        output = (stdout, stderr, files)
        if index not in self.reference:
            self.reference[index] = output
            self.verdict[index] = oracle.judge(inv, exit_code, stdout, stderr, files)
            problems = list(self.verdict[index])
        else:
            problems = list(self.verdict[index])
            if output != self.reference[index]:
                problems.append("output differs from the first run of the same argv")
            if exit_code != inv.expect_exit:
                problems.append(f"exit code {exit_code}, expected {inv.expect_exit}")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"[{where}] orthobox {' '.join(inv.argv)}: {'; '.join(problems)}")


def time_imports(runner: ChildRunner) -> list[float]:
    runner.run(["-c", IMPORT_CLI])  # compile bytecode before timing
    return [runner.run(["-c", IMPORT_CLI])[0] for _ in range(SETUP_REPEATS)]


def measure(batch, runner: ChildRunner, judge: Judge, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: repeat the batch as subprocesses until the time is used.

    The batch's wall time is the sum over its invocations of each one's
    median across passes, so a burst of load on the machine during one pass
    does not decide the figure.
    """
    setup = time_imports(runner)
    walls: list[list[float]] = [[] for _ in batch]
    peak_rss = 0.0
    start = perf_counter()
    count = 0
    # Round robin over the batch until the time is used up; the last pass may
    # stop part way, so the whole run is measured. At least MIN_PASSES full
    # passes, so every argv is repeated for the determinism check and each
    # invocation has a median of several samples.
    while count < MIN_PASSES * len(batch) or perf_counter() - start < seconds:
        index = count % len(batch)
        inv = batch[index]
        wall, code, rss, out, err = runner.cli(inv.argv)
        walls[index].append(wall)
        peak_rss = max(peak_rss, rss)
        judge.record(index, inv, code, out, err, read_outputs(inv), f"pass {count // len(batch) + 1}")
        count += 1
    wall = sum(statistics.median(w) for w in walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "cmd_p50_s": statistics.median(w for ws in walls for w in ws),
        "trials_per_s": sum(inv.items for inv in batch) / wall,
        "peak_rss_mb": peak_rss,
    }
    samples = {
        "passes": count / len(batch),
        "measured_s": perf_counter() - start,
        "cmd_samples": count,
        "setup_samples": len(setup),
    }
    return metrics, samples


# ---------------------------------------------------------------------------
# Traced run


def import_times(runner: ChildRunner) -> dict[str, float]:
    """Median import cost of orthobox.cli, numpy and networkx from -X importtime (seconds)."""
    runs = []
    runner.run(["-c", IMPORT_CLI])
    for _ in range(IMPORTTIME_REPEATS):
        _, _, _, _, err = runner.run(["-X", "importtime", "-c", IMPORT_CLI])
        found = {"cli": 0.0}
        for line in err.splitlines():
            m = re.fullmatch(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", line)
            if not m:
                continue
            cumulative, level, name = int(m.group(1)) / 1e6, len(m.group(2)) // 2, m.group(3)
            if level == 0 and name in ("orthobox", "orthobox.cli"):
                found["cli"] += cumulative
            if name in ("numpy", "networkx") and name not in found:
                found[name] = cumulative
        runs.append(found)
    return {
        "cli.import_s": statistics.median(r["cli"] for r in runs),
        "cli.import_numpy_s": statistics.median(r.get("numpy", 0.0) for r in runs),
        "cli.import_networkx_s": statistics.median(r.get("networkx", 0.0) for r in runs),
    }


def draw_ns(seed: int) -> float:
    """Median cost of one direct SplitMix64.next_u64 call, in nanoseconds."""
    from orthobox.rng import SplitMix64

    draw = SplitMix64(seed).next_u64
    blocks = []
    for _ in range(DRAW_BLOCKS):
        start = perf_counter()
        for _ in range(DRAW_BLOCK_SIZE):
            draw()
        blocks.append((perf_counter() - start) / DRAW_BLOCK_SIZE * 1e9)
    return statistics.median(blocks)


def in_process_pass(batch, judge: Judge, where: str, tracer: Tracer | None = None) -> float:
    """Run the batch through orthobox.cli.main; returns its wall time."""
    from orthobox import cli

    cli_name = tracer.name_id("cli/main") if tracer else None
    start = perf_counter()
    for index, inv in enumerate(batch):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer:
                tracer.invocation_id = index
                span = tracer.open(cli_name)
            try:
                code = cli.main(list(inv.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # An escaped exception is a failed invocation, not a benchmark crash;
                # the traceback lands in the captured stderr the oracle rejects.
                traceback.print_exc()
                code = 1
            finally:
                if tracer:
                    tracer.close(span)
        judge.record(index, inv, code, out.getvalue(), err.getvalue(), read_outputs(inv), where)
    return perf_counter() - start


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    self_s, spans = tracer.layer_totals()
    c = tracer.counters
    step_calls = spans["models.step"]
    return {
        "cli.self_s": self_s["cli"],
        "rng.draws": tracer.draws,
        "models.step.calls": step_calls,
        "models.step.self_s": self_s["models.step"],
        "models.step.repeat_ratio": 1 - len(tracer.step_keys) / step_calls if step_calls else 0.0,
        "models.enumerate.calls": tracer.span_count("models.enumerate/enumerate_histories"),
        "models.enumerate.histories": c["models.enumerate.histories"],
        "models.enumerate.self_s": self_s["models.enumerate"],
        "models.sample.trials": c["models.sample.trials"],
        "models.sample.forbidden": c["models.sample.forbidden"],
        "models.sample.self_s": self_s["models.sample"],
        "scenario.self_s": self_s["scenario"],
        "behavior.self_s": self_s["behavior"],
        "behavior.assignments": c["behavior.assignments"],
        "linprog.calls": spans["linprog"],
        "linprog.rows": c["linprog.rows"],
        "linprog.columns": c["linprog.columns"],
        "linprog.feasible_s": c["linprog.feasible_s"],
        "linprog.infeasible_s": c["linprog.infeasible_s"],
        "linprog.support_ratio": (
            c["linprog.support"] / c["linprog.feasible_columns"] if c["linprog.feasible_columns"] else 0.0
        ),
        "theorem.points": c["theorem.points"],
        "theorem.self_s": self_s["theorem"],
        "protocols.bob_marginal.calls": tracer.span_count("protocols/bob_marginal"),
        "protocols.self_s": self_s["protocols"],
        "quantumref.self_s": self_s["quantumref"],
    }


def trace(batch, runner: ChildRunner, judge: Judge, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Per-layer metrics: one subprocess pass, then warm-up, untraced and traced in-process passes."""
    for index, inv in enumerate(batch):
        _, code, _, out, err = runner.cli(inv.argv)
        judge.record(index, inv, code, out, err, read_outputs(inv), "subprocess")
    metrics = import_times(runner)
    sys.path.insert(0, str(SRC))
    import orthobox.cli  # noqa: F401  (imported before timing either pass)

    metrics["rng.draw_ns"] = draw_ns(seed)
    in_process_pass(batch, judge, "in-process warm-up")  # first calls fill lazy caches
    untraced = in_process_pass(batch, judge, "in-process")
    tracer = Tracer()
    with instrument(tracer):
        traced = in_process_pass(batch, judge, "traced", tracer)
    metrics.update(layer_metrics(tracer))
    metrics["trace.overhead_s"] = traced - untraced
    tracer.write(workdir / "spans.csv.gz")
    samples = {"spans": len(tracer.start), "untraced_s": untraced, "traced_s": traced}
    return metrics, samples


# ---------------------------------------------------------------------------


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orthobox" / "cli.py").is_file():
        print(f"error: no orthobox sources under {SRC}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "loadavg_start": loadavg(),
    }
    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    batch = workloads.build(args.workload, args.seed, workdir)
    judge = Judge()
    runner = ChildRunner(workdir)
    try:
        if args.trace:
            metrics, samples = trace(batch, runner, judge, args.seed, workdir)
            units = PER_LAYER_UNITS
        else:
            metrics, samples = measure(batch, runner, judge, args.seconds)
            units = END_TO_END_UNITS
    finally:
        runner.close()
    meta.update(
        samples,
        batch=len(batch),
        fail_ratio=judge.failed / judge.attempted,
        loadavg_end=loadavg(),
        problems=judge.problems,
    )
    for problem in judge.problems:
        print(problem, file=sys.stderr)
    print(json.dumps(meta))
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
