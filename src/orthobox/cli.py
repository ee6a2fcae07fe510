"""Command-line front end.

Subcommands map one-to-one onto the library modules: ``check`` loads and
classifies a scenario file, ``verify-theorem`` sweeps the signalling gap
over a rational grid, ``simulate`` enumerates or samples a query plan
against a model, ``fable`` runs the prophecy game, ``assumptions`` prints
the per-model battery, ``pr-boxes`` reports box realizations, and
``quantum-ref`` runs the matrix reference checks.

Exit codes: 0 success, 1 a check or assertion failed, 2 bad input.  Output
is byte-identical for identical inputs and seeds; set ORTHOBOX_COLOR=1 for
ANSI colors (0 or unset keeps output plain).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from . import quantumref
from .behavior import (
    CertificateError,
    check_exclusivity,
    chsh,
    correlators_csv,
    enumerate_pr_boxes,
    is_pr_box,
    joint_feasibility,
    no_signalling_check,
)
from .models import (
    BranchMassError,
    FLAVORS,
    InadmissibleQuery,
    InconsistentHistory,
    MODEL_NAMES,
    compile_plan,
    enumerate_histories,
    group_histories,
    history_signature,
    load_plan,
    make_model,
)
from .protocols import (
    DEFAULT_PAIR_INTERPRETATION,
    LSW_SINGLE_INTERPRETATION,
    assumption_report,
    realize_pr_box,
    simulate_fable,
    sweep_pr_interpretations,
)
from .rational import format_decimal, format_rational
from .rng import SplitMix64
from .scenario import (
    ScenarioError,
    find_all_minimal_non_specker,
    load_scenario_file,
    orthogonality_graph,
)
from .theorem import (
    TheoremError,
    TripleMarginals,
    signalling_gap,
    sweep_csv,
    sweep_gap,
    worst_case_params,
)

def _color(text: str, code: str) -> str:
    if os.environ.get("ORTHOBOX_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _good(text: str) -> str:
    return _color(text, "32")


def _bad(text: str) -> str:
    return _color(text, "31")


def _resolve_input(kind: str, name: str, suffix: str) -> Path:
    """A file at ``name``, else the bundled ``data/<kind>/<name><suffix>``."""
    path = Path(name)
    if path.is_file():
        return path
    bundled = Path(__file__).parent / "data" / kind / (name if name.endswith(suffix) else name + suffix)
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(f"no such file and no bundled {kind[:-1]} named {name!r}")


def _output_file(path: str | None):
    """``path`` opened for writing before anything is printed, so an
    unwritable one fails with nothing on stdout; without a path, a context
    giving None.  Callers open it only after the computation that checks
    their inputs, so a bad input leaves no file."""
    return open(path, "w") if path else nullcontext()


def cmd_check(args) -> int:
    path = _resolve_input("scenarios", args.scenario, ".json")
    scenario, marginals = load_scenario_file(path)
    print(f"scenario: {path.stem} ({len(scenario.propositions)} propositions)")
    graph = orthogonality_graph(scenario)
    print(f"orthogonality graph: {sum(map(len, graph.values())) // 2} edges")
    # Non-Specker exactly when some pairwise-orthogonal set is minimally non-joint.
    minimal = find_all_minimal_non_specker(scenario)
    specker = not minimal
    print(f"pairwise-implies-joint: {'YES' if specker else 'NO'}")
    # With marginals the verdict is about them; bare structure fails on its own.
    failed = not specker and marginals is None
    if minimal:
        chosen = minimal[0]
        print(f"minimal non-Specker set: {{{','.join(chosen)}}}")
        if args.verbose and len(minimal) > 1:
            for extra in minimal[1:]:
                print(f"  also minimal: {{{','.join(extra)}}}")
    if marginals is not None:
        rendered = " ".join(f"{p}={format_rational(marginals[p])}" for p in scenario.propositions)
        print(f"marginals: {rendered}")
        excl = check_exclusivity(marginals, graph)
        if excl.ok:
            print("exclusivity: " + _good("ok"))
        else:
            failed = True
            print(
                "exclusivity: "
                + _bad(f"violated by {{{','.join(excl.clique)}}} (sum {format_rational(excl.total)})")
            )
        cert = joint_feasibility(graph, marginals)
        if cert.feasible:
            print("joint distribution: " + _good("feasible"))
            if args.verbose:
                for assignment in sorted(cert.witness, key=sorted):
                    label = "{" + ",".join(sorted(assignment)) + "}"
                    print(f"  weight {format_rational(cert.witness[assignment])} on {label}")
        else:
            failed = True
            coeffs, const = cert.farkas
            terms = " + ".join(
                f"{format_rational(c)}*{v}" for v, c in sorted(coeffs.items()) if c != 0
            )
            print("joint distribution: " + _bad("infeasible"))
            print(f"  separating functional: {terms} + ({format_rational(const)}) > 0 at the marginals")
    if failed:
        print(_bad("check failed: non-Specker scenario" + (
            ": infeasible joint distribution" if marginals is not None and not specker else ""
        )))
        return 1
    print(_good("check passed"))
    return 0


def cmd_verify_theorem(args) -> int:
    rows = sweep_gap(args.grid)
    with _output_file(args.csv) as csv_file:
        worst = min(rows, key=lambda r: (r.gap, r.p1, r.p2, r.p3))
        print(f"grid: denominator {args.grid}, {len(rows)} valid points")
        print(
            "min gap: "
            + format_rational(worst.gap)
            + f" at (p1,p2,p3)=({format_rational(worst.p1)},{format_rational(worst.p2)},{format_rational(worst.p3)})"
        )
        for probe in (Fraction(1, 3), Fraction(1, 2)):
            t = TripleMarginals(probe, probe, probe)
            wc = worst_case_params(t)
            print(
                f"p={format_rational(probe)} each: gap {format_rational(signalling_gap(t))}"
                f" (alpha {format_rational(wc.alpha)}, beta {format_rational(wc.beta)})"
            )
        if args.csv:
            csv_file.write(sweep_csv(rows, exact=args.exact))
            print(f"wrote {len(rows)} rows to {args.csv}")
        if all(row.gap > 0 for row in rows):
            print(_good("signalling gap positive on the whole grid"))
            return 0
        print(_bad("found a grid point with nonpositive gap"))
        return 1


def cmd_simulate(args) -> int:
    model = make_model(args.model, flavor=args.flavor)
    plan_path = _resolve_input("plans", args.plan, ".plan")
    try:  # parsing a plan recurses once per nesting level
        plan = load_plan(plan_path)
    except RecursionError:
        raise ValueError(f"{plan_path.name}: plan nests too deeply") from None
    if not plan:
        raise ValueError(f"{plan_path.name}: plan has no steps")
    tree = compile_plan(model, plan)  # sampling builds only the branches it draws
    histories = enumerate_histories(model, plan)
    grouped = group_histories(histories, lambda h: history_signature(h, model))
    rng = SplitMix64(args.seed)
    counts = Counter(tree.sample(rng).signature for _ in range(args.trials))

    print(f"model: {model.name}" + (f" ({args.flavor})" if args.model == "firefly" else ""))
    print(f"plan: {plan_path.stem} ({len(histories)} branches, {len(grouped)} distinct outcomes)")
    header = "probability  outcome"
    if args.trials:
        header = f"probability  sampled(n={args.trials})  outcome"
    print(header)
    for sig in sorted(grouped, key=str):
        rendered = " ".join(f"{side}:{target}={key}" for side, target, key in sig)
        mark = "  [forbidden]" if any(key == "forbidden" for _, _, key in sig) else ""
        if args.trials:
            freq = counts[sig] / args.trials
            print(f"{format_rational(grouped[sig]):>11}  {freq:<17.6f}  {rendered}{mark}")
        else:
            print(f"{format_rational(grouped[sig]):>11}  {rendered}{mark}")
    total = sum(grouped.values(), Fraction(0))
    print(f"total probability: {format_rational(total)}")
    return 0


def cmd_fable(args) -> int:
    stats = simulate_fable(args.trials, seed=args.seed, keep_rows=bool(args.per_trial))
    with _output_file(args.per_trial) as rows_file:
        print(f"trials: {stats.trials}")
        print(f"daniel success rate: {format_decimal(stats.daniel_success)}")
        print(f"sandu first-prophecy rate: {format_decimal(stats.sandu_first_success)}")
        print(f"sandu second-prophecy rate: {format_decimal(stats.sandu_second_success)}")
        if args.per_trial:
            lines = ["trial,daniel_success,sandu_first,sandu_second"]
            lines += [f"{t},{int(d)},{int(f1)},{int(f2)}" for t, d, f1, f2 in stats.rows]
            rows_file.write("\n".join(lines) + "\n")
            print(f"wrote per-trial rows to {args.per_trial}")
        if stats.daniel_success != 1:
            print(_bad("daniel failed a trial; the boxes are broken"))
            return 1
        return 0


def _battery_models(name: str, flavor: str):
    if name == "all":
        return [make_model(model) for model in MODEL_NAMES]
    if name == "firefly-variants":
        return [make_model("firefly", flavor=f) for f in FLAVORS]
    return [make_model(name, flavor=flavor)]


def cmd_assumptions(args) -> int:
    reports = []
    for model in _battery_models(args.model, args.flavor):
        label = model.name if model.name != "firefly" else f"firefly[{model.flavor}]"
        reports.append((label, assumption_report(model)))

    if args.format == "csv":
        lines = ["model,assumption,verdict,witness_plan"]
        for label, report in reports:
            for key, verdict in zip("abc", report):
                witness = verdict.witness.describe() if verdict.witness else ""
                lines.append(f"{label},{key},{'pass' if verdict.holds else 'fail'},\"{witness}\"")
        print("\n".join(lines))
        return 0

    width = max(len(label) for label, _ in reports)
    print(f"{'model':<{width}}  (a) correlation  (b) composability  (c) no-signalling")
    for label, report in reports:
        cells = [_good("pass") if verdict.holds else _bad("FAIL") for verdict in report]
        print(f"{label:<{width}}  {cells[0]:<15}  {cells[1]:<17}  {cells[2]}")
    for label, report in reports:
        for key, verdict in zip("abc", report):
            if not verdict.holds:
                print(f"{label} ({key}): {verdict.witness.describe()}")
    return 0


def cmd_pr_boxes(args) -> int:
    if args.model is None:
        boxes = enumerate_pr_boxes()
        print(f"canonical boxes: {len(boxes)}")
        distinct = set(boxes)
        print(f"distinct: {len(distinct)}")
        for i, box in enumerate(boxes):
            result = chsh(box)
            ns = no_signalling_check(box)
            anti = sum(1 for combo in box.table if box.correlator(combo) == -1)
            print(
                f"box {i}: S = {format_rational(result.value)},"
                f" no-signalling {'yes' if ns.ok else 'NO'},"
                f" anticorrelated pairs {anti}"
            )
        return 0

    model = make_model(args.model, flavor=args.flavor)
    interpretation = LSW_SINGLE_INTERPRETATION if args.model == "lsw" else DEFAULT_PAIR_INTERPRETATION
    box = realize_pr_box(model, interpretation)
    result = chsh(box)
    ns = no_signalling_check(box)
    print(f"model: {args.model}")
    print("correlators:")
    sys.stdout.write(correlators_csv(box))
    print(f"S = {format_rational(result.value)} with signs {result.signs}")
    print(f"no-signalling: {'yes' if ns.ok else 'NO'}")
    print(f"matches a canonical box: {'yes' if is_pr_box(box) else 'NO'}")
    if args.model in ("seer", "firefly"):
        sweep = sweep_pr_interpretations(model)
        seen = Counter(swept for _, swept in sweep)
        all_pr = all(is_pr_box(b) for _, b in sweep)
        print(
            f"sweep over {len(sweep)} interpretations: {len(seen)} distinct boxes, "
            f"multiplicities {sorted(seen.values())}, all canonical: {'yes' if all_pr else 'NO'}"
        )
        if not (len(seen) == 8 and all_pr):
            return 1
    if result.value != 4 or not ns.ok:
        return 1
    return 0


def cmd_quantum_ref(args) -> int:
    with _output_file(args.csv) as csv_file:
        rng = quantumref.seeded_generator(args.seed)
        rows = []

        worst_povm = 0.0
        for _ in range(args.trials):
            dim = int(rng.integers(2, 5))
            triple = [quantumref.random_projector_pair(dim, rng) for _ in range(3)]
            dev = quantumref.povm_identity_check(*triple)
            worst_povm = max(worst_povm, dev)
            rows.append(("povm_identity", dim, dev))
        print(f"povm identity over {args.trials} random triples: max deviation {worst_povm:.3e}")

        frame = quantumref.SpinOneFrame.canonical()
        worst_order = 0.0
        for _ in range(50):
            state = quantumref.random_density(3, rng)
            dists = [
                quantumref.luders_sequence(frame, order, state)
                for order in ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")
            ]
            for other in dists[1:]:
                for key in dists[0]:
                    worst_order = max(worst_order, abs(dists[0][key] - other[key]))
        rows.append(("luders_order", 3, worst_order))
        print(f"sequential-measurement order invariance over 50 states: max deviation {worst_order:.3e}")

        worst_corr = 0.0
        for pairing in ("matched", "conjugate"):
            report = quantumref.entangled_spin1_correlations(frame, pairing)
            marg_dev = max(abs(m - 1 / 3) for m in report.marginals)
            corr_dev = max(abs(abs(c) - 1) for c in report.correlations)
            worst_corr = max(worst_corr, marg_dev, corr_dev)
            rows.append((f"entangled_{pairing}", 3, max(marg_dev, corr_dev)))
            print(
                f"entangled correlations ({pairing}): marginals deviate {marg_dev:.3e},"
                f" correlation {'perfect' if report.perfectly_correlated else 'imperfect'}"
            )

        if args.csv:
            lines = ["check,dimension,deviation"]
            lines += [f"{name},{dim},{dev:.3e}" for name, dim, dev in rows]
            csv_file.write("\n".join(lines) + "\n")

        worst = max(worst_povm, worst_order, worst_corr)
        if worst <= quantumref.TOLERANCE:
            print(_good(f"all reference checks within {quantumref.TOLERANCE:g}"))
            return 0
        print(_bad(f"worst deviation {worst:.3e} exceeds {quantumref.TOLERANCE:g}"))
        return 1


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthobox",
        description="Exact orthogonality-scenario checks and toy-model simulations.",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a scenario file (bundled: specker_triple, firefly, lsw)")
    p.add_argument("scenario")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-theorem", help="sweep the signalling gap over a rational grid")
    p.add_argument("--grid", type=int, default=20, help="grid denominator (default 20)")
    p.add_argument("--csv", help="write the sweep table to this path")
    p.add_argument("--exact", action="store_true", help="render CSV entries as num/den")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("simulate", parents=[seeded], help="run a query plan against a model")
    p.add_argument("model", choices=MODEL_NAMES)
    p.add_argument("--plan", required=True, help="plan file (bundled: fable, lsw_collapse, firefly_ca_bc)")
    p.add_argument("--flavor", default="mirror", help="firefly flavor")
    p.add_argument("--trials", type=nonnegative_int, default=0, help="also sample this many runs")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fable", parents=[seeded], help="run the prophecy game on the retrocausal boxes")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--per-trial", help="write per-trial CSV to this path")
    p.set_defaults(func=cmd_fable)

    p = sub.add_parser("assumptions", help="evaluate the three assumptions per model")
    p.add_argument("model", choices=(*MODEL_NAMES, "all", "firefly-variants"))
    p.add_argument("--flavor", default="mirror")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_assumptions)

    p = sub.add_parser("pr-boxes", help="canonical boxes, or a model's box realization")
    p.add_argument("--model", choices=MODEL_NAMES)
    p.add_argument("--flavor", default="mirror")
    p.set_defaults(func=cmd_pr_boxes)

    p = sub.add_parser("quantum-ref", parents=[seeded], help="run the complex-matrix reference checks")
    p.add_argument("--trials", type=nonnegative_int, default=100)
    p.add_argument("--csv", help="write check results to this path")
    p.set_defaults(func=cmd_quantum_ref)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TheoremError, InadmissibleQuery, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistentHistory as exc:
        print(f"inconsistent history: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"certificate check failed: {exc}", file=sys.stderr)
        return 1
    except BranchMassError as exc:
        print(f"model fault: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
