"""Output oracle: judges each CLI invocation without trusting the program.

Every check here is recomputed from the generated inputs or from the
statement being verified (brute force over subsets, the closed-form gap,
the CHSH sign placements), never read back from orthobox itself.
``judge`` returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product

from workloads import Invocation, cliques, independent_sets

SIGMAS = 5
# Sampled frequencies are printed with six decimals.
PRINT_SLACK = 5e-7
QUANTUM_TOLERANCE = 1e-12


class Mismatch(Exception):
    """The output contradicts what the oracle expects."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def judge(inv: Invocation, exit_code: int, stdout: str, stderr: str, files: dict[str, bytes]) -> list[str]:
    """Problems with one invocation's exit code, stderr, stdout and written files."""
    problems = []
    if exit_code != inv.expect_exit:
        problems.append(f"exit code {exit_code}, expected {inv.expect_exit}")
    if stderr:
        problems.append(f"unexpected stderr: {stderr.strip()[:200]!r}")
    try:
        CHECKERS[inv.kind](inv, stdout.splitlines(), files)
    except Mismatch as exc:
        problems.append(str(exc))
    except (ValueError, KeyError, IndexError, ZeroDivisionError, AttributeError) as exc:
        problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return problems


def _set(text: str) -> frozenset:
    need(text.startswith("{") and text.endswith("}"), f"not a set: {text!r}")
    inner = text[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def _render(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


# ---------------------------------------------------------------------------
# check


def _minimal_non_specker(nodes, edges, joint_sets) -> list[tuple[str, ...]]:
    joint = [frozenset(s) for s in joint_sets]

    def is_joint(s: frozenset) -> bool:
        return len(s) <= 1 or any(s <= j for j in joint)

    found = [
        tuple(sorted(c))
        for c in cliques(nodes, edges, 3)
        if not is_joint(c) and all(is_joint(c - {p}) for p in c)
    ]
    return sorted(found, key=lambda s: (len(s), s))


def verify_certificate(lines: list[str], nodes, edges, marginals: dict[str, Fraction], feasible: bool) -> None:
    """Re-verify the --verbose certificate: witness or separating functional."""
    if feasible:
        witness = {}
        for line in lines:
            m = re.fullmatch(r"  weight (\S+) on (\{.*\})", line)
            if m:
                s = _set(m.group(2))
                need(s not in witness, f"witness lists {sorted(s)} twice")
                witness[s] = Fraction(m.group(1))
        need(bool(witness), "feasible verdict without a witness")
        need(sum(witness.values()) == 1, f"witness weights sum to {sum(witness.values())}")
        for s, w in witness.items():
            need(w > 0, f"witness weight {w} on {sorted(s)} is not positive")
            need(s <= set(nodes), f"witness set {sorted(s)} has unknown propositions")
            need(not any(frozenset(e) <= s for e in edges), f"witness set {sorted(s)} is not independent")
        for v in nodes:
            mass = sum((w for s, w in witness.items() if v in s), Fraction(0))
            need(mass == marginals[v], f"witness gives {v} mass {mass}, marginal is {marginals[v]}")
        return
    functional = [
        m for m in (re.fullmatch(r"  separating functional: (.*) \+ \((\S+)\) > 0 at the marginals", line) for line in lines) if m
    ]
    need(len(functional) == 1, "infeasible verdict without exactly one separating functional")
    terms, const = functional[0].group(1), Fraction(functional[0].group(2))
    coeffs = {v: Fraction(0) for v in nodes}
    for term in terms.split(" + ") if terms else ():
        coeff, _, var = term.partition("*")
        need(var in coeffs, f"functional names unknown proposition {var!r}")
        coeffs[var] = Fraction(coeff)
    for s in independent_sets(nodes, set(map(frozenset, edges))):
        value = sum((coeffs[v] for v in s), Fraction(0)) + const
        need(value <= 0, f"functional is {value} > 0 on independent set {sorted(s)}")
    at_marginals = sum((coeffs[v] * marginals[v] for v in nodes), Fraction(0)) + const
    need(at_marginals > 0, f"functional is {at_marginals} <= 0 at the marginals")


def check_check(inv: Invocation, lines: list[str], files) -> None:
    f = inv.facts
    nodes, edges = f["nodes"], {frozenset(e) for e in f["edges"]}
    marginals = {v: Fraction(p) for v, p in f["marginals"].items()}
    need(lines[0] == f"scenario: {f['name']} ({len(nodes)} propositions)", f"bad header {lines[0]!r}")
    need(lines[1] == f"orthogonality graph: {len(edges)} edges", f"bad edge count {lines[1]!r}")
    minimal = _minimal_non_specker(nodes, edges, f["joint_sets"])
    need(lines[2] == f"pairwise-implies-joint: {'NO' if minimal else 'YES'}", f"bad Specker verdict {lines[2]!r}")
    printed = [l for l in lines if l.startswith(("minimal non-Specker set: ", "  also minimal: "))]
    expected = [("minimal non-Specker set: " if i == 0 else "  also minimal: ") + "{" + ",".join(s) + "}" for i, s in enumerate(minimal)]
    need(printed == expected, f"minimal sets {printed} differ from {expected}")
    rendered = " ".join(f"{v}={_render(marginals[v])}" for v in nodes)
    need(f"marginals: {rendered}" in lines, "marginals line missing or wrong")

    all_cliques = cliques(nodes, edges, 2)
    violations = sorted(
        (tuple(sorted(c)), total)
        for c in all_cliques
        if (total := sum(marginals[v] for v in c)) > 1 and not any(c < d for d in all_cliques)
    )
    if violations:
        clique, total = violations[0]
        want = f"exclusivity: violated by {{{','.join(clique)}}} (sum {_render(total)})"
    else:
        want = "exclusivity: ok"
    need(want in lines, f"expected {want!r}")

    verdict = "feasible" if f["feasible"] else "infeasible"
    need(f"joint distribution: {verdict}" in lines, f"verdict is not {verdict}")
    verify_certificate(lines, nodes, edges, marginals, f["feasible"])
    last = "check passed" if f["feasible"] else "check failed"
    need(lines[-1].startswith(last), f"last line {lines[-1]!r} is not {last!r}")


# ---------------------------------------------------------------------------
# simulate


def _walk(plan: list[dict], path: list[tuple[str, str, str]]) -> bool:
    """Follow an outcome path through the plan; True if it stops at a forbidden step."""
    queue = list(plan)
    for i, (side, target, key) in enumerate(path):
        need(bool(queue), f"path {path} is longer than the plan")
        step = queue.pop(0)
        need((side, target) == (step["side"], step["target"]), f"path step {side} {target} is not the plan's {step['side']} {step['target']}")
        if key == "forbidden":
            need(i == len(path) - 1, f"path {path} continues after a forbidden step")
            return True
        queue[:0] = [sub for k, sub in step["branches"] if k == key]
    need(not queue, f"path {path} stops before the plan ends")
    return False


def _outcome_key_ok(model: str, target: str, key: str) -> bool:
    if key == "forbidden":
        return model == "seer"
    if model == "firefly":
        return len(key) == 1 and key in target
    words = key.split(",")
    return len(words) == len(target) and all(w in ("full", "empty") for w in words)


def check_simulate(inv: Invocation, lines: list[str], files) -> None:
    f = inv.facts
    label = f["model"] + (f" ({f['flavor'] or 'mirror'})" if f["model"] == "firefly" else "")
    need(lines[0] == f"model: {label}", f"bad model line {lines[0]!r}")
    m = re.fullmatch(r"plan: \S+ \((\d+) branches, (\d+) distinct outcomes\)", lines[1])
    need(m is not None, f"bad plan line {lines[1]!r}")
    distinct = int(m.group(2))
    trials = inv.trials
    header = f"probability  sampled(n={trials})  outcome" if trials else "probability  outcome"
    need(lines[2] == header, f"bad header {lines[2]!r}")
    body, total_line = lines[3:-1], lines[-1]
    need(len(body) == distinct, f"{len(body)} outcome lines, header says {distinct}")
    need(total_line == "total probability: 1", f"bad total line {total_line!r}")

    total = Fraction(0)
    seen = set()
    for line in body:
        forbidden_mark = line.endswith("  [forbidden]")
        fields = line.removesuffix("  [forbidden]").split()
        p = Fraction(fields[0])
        need(0 < p <= 1, f"probability {p} out of range")
        total += p
        tokens = fields[2:] if trials else fields[1:]
        path = []
        for token in tokens:
            side, rest = token.split(":", 1)
            target, key = rest.split("=", 1)
            need(_outcome_key_ok(f["model"], target, key), f"impossible outcome {token!r} for {f['model']}")
            path.append((side, target, key))
        need(tuple(path) not in seen, f"outcome {tokens} listed twice")
        seen.add(tuple(path))
        need(_walk(f["plan"], path) == forbidden_mark, f"forbidden mark wrong on {tokens}")
        if trials:
            freq = float(fields[1])
            sigma = math.sqrt(float(p * (1 - p)) / trials)
            need(abs(freq - float(p)) <= SIGMAS * sigma + PRINT_SLACK, f"frequency {freq} is more than {SIGMAS} sigma from {p}")
    need(total == 1, f"listed probabilities sum to {total}")


def check_fable(inv: Invocation, lines: list[str], files) -> None:
    n = inv.trials
    need(lines[0] == f"trials: {n}", f"bad trials line {lines[0]!r}")
    need(lines[1] == "daniel success rate: 1", f"daniel did not always win: {lines[1]!r}")
    first = float(lines[2].removeprefix("sandu first-prophecy rate: "))
    need(abs(first - 0.5) <= SIGMAS * math.sqrt(0.25 / n), f"sandu's first guess rate {first} is not a fair coin")
    need(lines[3] == "sandu second-prophecy rate: 1", f"bad second-prophecy line {lines[3]!r}")
    need(len(lines) == 4, "unexpected extra output")


# ---------------------------------------------------------------------------
# battery


# Which assumption each model gives up: seer (c), firefly (b), lsw (a); the
# firefly variant whose partner keeps following also signals.
ASSUMPTION_FAILURES = {
    "seer": "c",
    "firefly[mirror]": "b",
    "lsw": "a",
    "firefly[alice_cuts_bob_local]": "b",
    "firefly[alice_cuts_bob_mirror]": "bc",
}
ASSUMPTION_SETS = {
    "all": ["seer", "firefly[mirror]", "lsw"],
    "firefly-variants": ["firefly[mirror]", "firefly[alice_cuts_bob_local]", "firefly[alice_cuts_bob_mirror]"],
}


def check_assumptions(inv: Invocation, lines: list[str], files) -> None:
    labels = ASSUMPTION_SETS[inv.facts["set"]]
    need(lines[0].split() == ["model", "(a)", "correlation", "(b)", "composability", "(c)", "no-signalling"], "bad header")
    rows = lines[1 : 1 + len(labels)]
    reasons = lines[1 + len(labels) :]
    expected_reasons = []
    for label, row in zip(labels, rows):
        cells = row.split()
        need(cells[0] == label, f"row {row!r} is not {label}")
        failed = "".join(k for k, cell in zip("abc", cells[1:]) if cell == "FAIL")
        need(cells[1:] == ["FAIL" if k in failed else "pass" for k in "abc"], f"bad cells in {row!r}")
        need(failed == ASSUMPTION_FAILURES[label], f"{label} fails ({failed}), expected ({ASSUMPTION_FAILURES[label]})")
        expected_reasons += [f"{label} ({k}): " for k in failed]
    need(len(reasons) == len(expected_reasons), f"{len(reasons)} witness lines, expected {len(expected_reasons)}")
    for line, prefix in zip(reasons, expected_reasons):
        need(line.startswith(prefix) and len(line) > len(prefix), f"witness line {line!r} is not for {prefix!r}")


def chsh_value(correlators: dict[tuple[str, str], Fraction], a: tuple[str, str], b: tuple[str, str]):
    """Best |s1 E(ab) + s2 E(ab') + s3 E(a'b) + s4 E(a'b')| over odd sign placements."""
    es = [correlators[(a[0], b[0])], correlators[(a[0], b[1])], correlators[(a[1], b[0])], correlators[(a[1], b[1])]]
    return max(
        abs(sum(s * e for s, e in zip(signs, es)))
        for signs in product((1, -1), repeat=4)
        if signs[0] * signs[1] * signs[2] * signs[3] == -1
    )


def check_pr_boxes(inv: Invocation, lines: list[str], files) -> None:
    model = inv.facts["model"]
    if model is None:
        need(lines[:2] == ["canonical boxes: 8", "distinct: 8"], f"bad header {lines[:2]}")
        need(len(lines) == 10, "expected eight box lines")
        for i, line in enumerate(lines[2:]):
            m = re.fullmatch(rf"box {i}: S = 4, no-signalling yes, anticorrelated pairs (\d)", line)
            # A PR box anticorrelates an odd number of the four setting pairs.
            need(m is not None and int(m.group(1)) % 2 == 1, f"bad box line {line!r}")
        return
    need(lines[:3] == [f"model: {model}", "correlators:", "setting_a,setting_b,E"], "bad header")
    correlators = {}
    for line in lines[3:7]:
        sa, sb, e = line.split(",")
        correlators[(sa, sb)] = Fraction(e)
        need(abs(correlators[(sa, sb)]) == 1, f"correlator {line!r} is not perfect")
    need(chsh_value(correlators, ("b", "b'"), ("a", "a'")) == 4, "correlators do not reach S = 4")
    m = re.fullmatch(r"S = 4 with signs \((-?1), (-?1), (-?1), (-?1)\)", lines[7])
    need(m is not None, f"bad S line {lines[7]!r}")
    signs = [int(x) for x in m.groups()]
    es = [correlators[k] for k in (("b", "a"), ("b", "a'"), ("b'", "a"), ("b'", "a'"))]
    need(abs(sum(s * e for s, e in zip(signs, es))) == 4, "printed signs do not give S = 4")
    need(lines[8:10] == ["no-signalling: yes", "matches a canonical box: yes"], f"bad verdict lines {lines[8:10]}")
    if model in ("seer", "firefly"):
        need(
            lines[10:] == [
                "sweep over 16 interpretations: 8 distinct boxes, multiplicities [2, 2, 2, 2, 2, 2, 2, 2], all canonical: yes"
            ],
            f"bad sweep line {lines[10:]}",
        )
    else:
        need(len(lines) == 10, "unexpected extra output")


def gap_row(p1: Fraction, p2: Fraction, p3: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(beta, alpha, Bob's p1, gap) for the adversarial conditionals, in closed form."""
    beta = p1 / ((1 - p2) * (1 - p3))
    alpha = Fraction(0)
    if beta > 1:
        beta, alpha = Fraction(1), (p1 / (1 - p2) - (1 - p3)) / p3
    bob = beta * (1 - p2 - p3)
    return beta, alpha, bob, p1 - bob


def check_theorem(inv: Invocation, lines: list[str], files) -> None:
    n = inv.facts["grid"]
    points = [
        (Fraction(a, n), Fraction(b, n), Fraction(c, n))
        for a in range(1, n)
        for b in range(1, n)
        for c in range(1, n)
        if a + b <= n and a + c <= n and b + c <= n
    ]
    need(lines[0] == f"grid: denominator {n}, {len(points)} valid points", f"bad grid line {lines[0]!r}")
    rows = files[inv.facts["csv"]].decode().splitlines()
    need(rows[0] == "p1,p2,p3,beta_worst,alpha_worst,bob_p1,gap", "bad CSV header")
    need(len(rows) == len(points) + 1, f"CSV has {len(rows) - 1} rows, expected {len(points)}")
    best = None
    for point, row in zip(points, rows[1:]):
        values = [Fraction(x) for x in row.split(",")]
        p1, p2, p3 = point
        need(tuple(values[:3]) == point, f"CSV row {row!r} is not point {point}")
        beta, alpha, bob, gap = gap_row(p1, p2, p3)
        need(values[3:] == [beta, alpha, bob, gap], f"CSV row {row!r} differs from the closed form")
        # The adversary's conditionals must satisfy the no-signalling average.
        need(p3 * alpha + (1 - p3) * beta == p1 / (1 - p2) and 0 <= alpha <= 1 and 0 <= beta <= 1, f"row {row!r} breaks the constraint")
        need(gap > 0, f"nonpositive gap at {row!r}")
        if best is None or (gap, *point) < best:
            best = (gap, *point)
    gap, p1, p2, p3 = best
    need(lines[1] == f"min gap: {_render(gap)} at (p1,p2,p3)=({_render(p1)},{_render(p2)},{_render(p3)})", f"bad min line {lines[1]!r}")
    for line, p in zip(lines[2:4], (Fraction(1, 3), Fraction(1, 2))):
        beta, alpha, _, gap = gap_row(p, p, p)
        need(line == f"p={_render(p)} each: gap {_render(gap)} (alpha {_render(alpha)}, beta {_render(beta)})", f"bad probe line {line!r}")
    need(lines[4:] == [f"wrote {len(points)} rows to {inv.facts['csv']}", "signalling gap positive on the whole grid"], "bad tail")


def check_quantum(inv: Invocation, lines: list[str], files) -> None:
    trials = inv.facts["trials"]
    need(len(lines) == 5, "expected five lines")
    need(lines[0].startswith(f"povm identity over {trials} random triples: max deviation "), f"bad line {lines[0]!r}")
    need(lines[1].startswith("sequential-measurement order invariance over 50 states: max deviation "), f"bad line {lines[1]!r}")
    for line, pairing in zip(lines[2:4], ("matched", "conjugate")):
        m = re.fullmatch(rf"entangled correlations \({pairing}\): marginals deviate (\S+), correlation perfect", line)
        need(m is not None and float(m.group(1)) <= QUANTUM_TOLERANCE, f"bad line {line!r}")
    for line in lines[:2]:
        need(float(line.rsplit(" ", 1)[1]) <= QUANTUM_TOLERANCE, f"deviation too large in {line!r}")
    need(lines[4] == "all reference checks within 1e-12", f"bad verdict {lines[4]!r}")
    rows = files[inv.facts["csv"]].decode().splitlines()
    need(rows[0] == "check,dimension,deviation" and len(rows) == trials + 4, "bad CSV shape")
    for row in rows[1:]:
        need(float(row.rsplit(",", 1)[1]) <= QUANTUM_TOLERANCE, f"CSV row {row!r} exceeds the tolerance")


CHECKERS = {
    "check": check_check,
    "simulate": check_simulate,
    "fable": check_fable,
    "assumptions": check_assumptions,
    "pr_boxes": check_pr_boxes,
    "theorem": check_theorem,
    "quantum": check_quantum,
}
