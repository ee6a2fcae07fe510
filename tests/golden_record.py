"""Record the golden CLI corpus that ``tests/test_golden.py`` replays.

Run from the repository root, and only when a change of output is intended:

    PYTHONPATH=src python3 tests/golden_record.py

It writes the seeded random plans to ``tests/golden/plans/``, the odd-cycle
scenarios to ``tests/golden/scenarios/``, each case's stdout to
``tests/golden/<case>.out``, each file a case writes to
``tests/golden/<case>.<file>``, and every case's argv, exit code and written
files to ``tests/golden/cases.json``.  Plan and scenario paths in argv are
stored as ``{plans}/<name>.plan`` and ``{scenarios}/<name>.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from orthobox.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PLANS = GOLDEN / "plans"
SCENARIOS = GOLDEN / "scenarios"

BOXES = ("A", "B", "C")
PAIRS = ("AB", "BC", "CA")
FLAVORS = ("mirror", "alice_cuts_bob_local", "alice_cuts_bob_mirror")
VARIANTS = (("seer", None), ("lsw", None)) + tuple(("firefly", f) for f in FLAVORS)
BUNDLED_PLANS = ("fable", "lsw_collapse", "firefly_ca_bc")
SAMPLED_TRIALS = 1000


def _keys(model: str, target: str) -> list[str]:
    if model == "firefly":
        return list(target)
    words = ("full", "empty")
    if len(target) == 1:
        return list(words)
    return [f"{x},{y}" for x in words for y in words]


def random_plan(rng: random.Random, model: str, depth: int = 4) -> str:
    """A plan tree ``depth`` steps deep on every path, each outcome followed up."""
    targets = PAIRS if model == "firefly" else BOXES + PAIRS
    lines: list[str] = []

    def emit(level: int, left: int) -> None:
        target = rng.choice(targets)
        lines.append("  " * level + f"{rng.choice(('alice', 'bob'))} {target}")
        if left > 1:
            for key in _keys(model, target):
                lines.append("  " * (level + 1) + f"on {key}:")
                emit(level + 2, left - 1)

    emit(0, depth)
    return "\n".join(lines) + "\n"


def cycle_scenario(n: int, marginal: str) -> str:
    """The n-cycle p0 - p1 - ... - p(n-1) - p0 with one marginal everywhere."""
    nodes = [f"p{i}" for i in range(n)]
    data = {
        "propositions": nodes,
        "joint_sets": [sorted((nodes[i], nodes[(i + 1) % n])) for i in range(n)],
        "marginals": [marginal] * n,
    }
    return json.dumps(data, indent=1) + "\n"


def _simulate(model: str, flavor: str | None, plan: str, seed: int | None) -> list[str]:
    argv = ["simulate", model, "--plan", plan]
    if flavor:
        argv += ["--flavor", flavor]
    if seed is not None:
        argv += ["--trials", str(SAMPLED_TRIALS), "--seed", str(seed)]
    return argv


def cases() -> dict[str, dict]:
    """Case name -> {"argv", "files"}; writes the random plans as a side effect."""
    found: dict[str, dict] = {}

    def add(name: str, argv: list[str], files: tuple[str, ...] = ()) -> None:
        found[name] = {"argv": argv, "files": list(files)}

    for model, flavor in VARIANTS:
        label = model + (f"-{flavor}" if flavor else "")
        for plan in BUNDLED_PLANS:
            add(f"simulate-{label}-{plan}-exact", _simulate(model, flavor, plan, None))
            add(f"simulate-{label}-{plan}-sampled", _simulate(model, flavor, plan, 11))

    PLANS.mkdir(exist_ok=True)
    rng = random.Random(2305)
    for model, flavor in VARIANTS:
        label = model + (f"-{flavor}" if flavor else "")
        for i in range(3 if model == "seer" else 2):
            name = f"random-{label}-{i}"
            (PLANS / f"{name}.plan").write_text(random_plan(rng, model))
            plan = "{plans}/" + f"{name}.plan"
            add(f"simulate-{name}-exact", _simulate(model, flavor, plan, None))
            add(f"simulate-{name}-sampled", _simulate(model, flavor, plan, 100 + i))

    add("fable-per-trial", ["fable", "--trials", "400", "--seed", "5", "--per-trial", "trials.csv"], ("trials.csv",))
    add("assumptions-all-text", ["assumptions", "all"])
    add("assumptions-all-csv", ["assumptions", "all", "--format", "csv"])
    add("assumptions-firefly-variants", ["assumptions", "firefly-variants"])
    for model in ("seer", "firefly", "lsw"):
        add(f"pr-boxes-{model}", ["pr-boxes", "--model", model])
    add("verify-theorem-csv-exact", ["verify-theorem", "--grid", "12", "--csv", "sweep.csv", "--exact"], ("sweep.csv",))
    for scenario in ("specker_triple", "firefly", "lsw"):
        add(f"check-{scenario}-verbose", ["check", scenario, "--verbose"])
    # Odd cycles on the feasible odd-cycle facet, (n-1)/2n, and past it at 1/2:
    # hundreds of degenerate pivots pin the simplex's witness and functional.
    SCENARIOS.mkdir(exist_ok=True)
    for n, marginal, kind in ((11, "5/11", "boundary"), (13, "6/13", "boundary"), (13, "1/2", "half")):
        name = f"cycle{n}_{kind}"
        (SCENARIOS / f"{name}.json").write_text(cycle_scenario(n, marginal))
        add(f"check-{name}-verbose", ["check", "{scenarios}/" + f"{name}.json", "--verbose"])
    return found


def run_case(argv: list[str], workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call run inside ``workdir``."""
    argv = [a.replace("{plans}", str(PLANS)).replace("{scenarios}", str(SCENARIOS)) for a in argv]
    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(previous)
    return code, out.getvalue()


def record() -> None:
    os.environ.pop("ORTHOBOX_COLOR", None)
    manifest = cases()
    for name, case in manifest.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout = run_case(case["argv"], Path(tmp))
            case["exit"] = code
            (GOLDEN / f"{name}.out").write_text(stdout)
            for file in case["files"]:
                (GOLDEN / f"{name}.{file}").write_text((Path(tmp) / file).read_text())
    seer_outputs = [(GOLDEN / f"simulate-random-seer-{i}-exact.out").read_text() for i in range(3)]
    if not any("[forbidden]" in text for text in seer_outputs):
        sys.exit("no random seer plan reaches a forbidden branch; pick another seed")
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(manifest)} cases in {GOLDEN}")


if __name__ == "__main__":
    record()
