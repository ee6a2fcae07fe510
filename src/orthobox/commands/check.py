"""``orthobox check``: classify a scenario file by its minimal non-Specker
sets, then, with marginals, by exclusivity and joint feasibility."""

from __future__ import annotations

from .. import behavior, scenario
from ..rational import format_rational
from . import _bad, _good, _resolve_input


def run(args) -> int:
    path = _resolve_input("scenarios", args.scenario, ".json")
    scen, marginals = scenario.load_scenario_file(path)
    print(f"scenario: {path.stem} ({len(scen.propositions)} propositions)")
    graph = scenario.orthogonality_graph(scen)
    print(f"orthogonality graph: {sum(map(len, graph.values())) // 2} edges")
    # Non-Specker exactly when some pairwise-orthogonal set is minimally non-joint.
    minimal = scenario.find_all_minimal_non_specker(scen, graph)
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
        rendered = " ".join(f"{p}={format_rational(marginals[p])}" for p in scen.propositions)
        print(f"marginals: {rendered}")
        excl = behavior.check_exclusivity(marginals, graph)
        if excl.ok:
            print("exclusivity: " + _good("ok"))
        else:
            failed = True
            print(
                "exclusivity: "
                + _bad(f"violated by {{{','.join(excl.clique)}}} (sum {format_rational(excl.total)})")
            )
        cert = behavior.joint_feasibility(graph, marginals)
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
