"""Smoke self-test of the benchmark itself.

    python3 benchmarks/selftest.py

1. The oracle accepts real outputs and rejects deliberately corrupted ones:
   a changed witness weight, a wrong separating functional, a broken total,
   a far-off sampled frequency, a lost fable trial, a flipped assumption
   verdict, a wrong exit code and a repeat that differs from its first run.
2. Short runs of run.py emit exactly the metrics BENCHMARK.json names, each
   with its unit, with correct outputs; the traced runs confirm the layers
   each workload bypasses.

Takes a few minutes; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def corrupted(inv, code: int, out: str, err: str, files: dict, old: str, new: str, what: str) -> None:
    """The oracle must flag ``out`` once the first ``old`` is replaced by ``new``."""
    expect(old in out, f"{what}: the text to corrupt is present")
    judge = run.Judge()
    judge.record(0, inv, code, out.replace(old, new, 1), err, files, "corrupted")
    expect(judge.failed == 1, f"oracle counts {what} as failed")


def oracle_checks(workdir: Path) -> None:
    runner = run.ChildRunner(workdir)
    try:
        feasible = workloads.build("feasibility", 0, workdir / "feasibility")
        by_name = {inv.facts["name"]: inv for inv in feasible}
        sample = workloads.build("sample", 0, workdir / "sample")
        battery = workloads.build("battery", 0, workdir / "battery")
        cases = {
            "feasible": by_name["cycle9_boundary"],
            "infeasible": by_name["cycle9_half"],
            "simulate": sample[1],
            "fable": sample[0],
            "assumptions": battery[0],
        }
        for label in ("simulate", "fable"):
            cases[label].argv[cases[label].argv.index("--trials") + 1] = "2000"
            cases[label].trials = 2000
        outputs = {}
        for label, inv in cases.items():
            _, code, _, out, err = runner.cli(inv.argv)
            outputs[label] = (inv, code, out, err, run.read_outputs(inv))
            expect(oracle.judge(inv, code, out, err, outputs[label][4]) == [], f"oracle accepts the real {label} output")
    finally:
        runner.close()

    inv, code, out, err, files = outputs["feasible"]
    weight = re.search(r"  weight (\S+) on", out).group(1)
    corrupted(inv, code, out, err, files, f"  weight {weight} on", "  weight 1/1000 on", "a changed witness weight")
    judge = run.Judge()
    judge.record(0, inv, 1, out, err, files, "wrong exit")
    expect(judge.failed == 1, "oracle counts a wrong exit code as failed")

    inv, code, out, err, files = outputs["infeasible"]
    const = re.search(r"\+ \((\S+)\) > 0 at the marginals", out).group(1)
    corrupted(inv, code, out, err, files, f"+ ({const}) > 0", "+ (1) > 0", "a functional positive on the empty set")
    corrupted(inv, code, out, err, files, "joint distribution: infeasible", "joint distribution: feasible", "a flipped verdict")

    inv, code, out, err, files = outputs["simulate"]
    corrupted(inv, code, out, err, files, "total probability: 1", "total probability: 1/2", "a broken total")
    freq = re.search(r"\d+/\d+  (0\.\d{6})", out).group(1)
    far = "0.999999" if float(freq) < 0.5 else "0.000001"
    corrupted(inv, code, out, err, files, f"  {freq} ", f"  {far} ", "a far-off sampled frequency")

    inv, code, out, err, files = outputs["fable"]
    corrupted(inv, code, out, err, files, "daniel success rate: 1\n", "daniel success rate: 0.9995\n", "a lost fable trial")

    inv, code, out, err, files = outputs["assumptions"]
    corrupted(inv, code, out, err, files, "pass", "FAIL", "a flipped assumption verdict")

    judge = run.Judge()
    judge.record(0, inv, code, out, err, files, "first")
    judge.record(0, inv, code, out + "\n", err, files, "repeat")
    expect((judge.attempted, judge.failed) == (2, 1), "a repeat that differs from its first run counts as failed")


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180,
    )
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_checks() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]}, 1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(wanted[0] == run.END_TO_END_UNITS and wanted[1] == run.PER_LAYER_UNITS, "BENCHMARK.json lists the metrics run.py emits")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json lists every workload")
    result = run_bench("battery", 0)
    traced = {w: run_bench(w, 1) for w in workloads.WORKLOADS}
    for label, res, names in [("battery trace=0", result, wanted[0])] + [(f"{w} trace=1", r, wanted[1]) for w, r in traced.items()]:
        if not res:
            continue
        expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result has exactly the four keys")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{label}: every output is correct")
        got = {name: m.get("unit") for name, m in res["metrics"].items()}
        expect(got == names, f"{label}: every metric is emitted with its unit")
        expect(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()), f"{label}: values are numbers")
    value = lambda w, name: traced[w]["metrics"][name]["value"] if traced.get(w) else None
    expect(value("battery", "rng.draws") == 0 and value("battery", "linprog.calls") == 0, "battery draws nothing and solves no LP")
    expect(value("feasibility", "rng.draws") == 0 and (value("feasibility", "linprog.calls") or 0) > 0, "feasibility draws nothing and solves LPs")
    expect(value("sample", "linprog.calls") == 0 and (value("sample", "rng.draws") or 0) > 0, "sample solves no LP and draws")


def main() -> int:
    workdir = run.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    oracle_checks(workdir)
    metric_checks()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
