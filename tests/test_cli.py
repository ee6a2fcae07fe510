import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthobox
from orthobox.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_bundled_triple_fails_with_message(self, capsys):
        code, out, _ = run(capsys, "check", "specker_triple")
        assert code == 1
        assert "infeasible" in out
        assert "non-Specker" in out

    def test_feasible_scenario_passes(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "propositions": ["A", "B", "C"],
            "joint_sets": [["A", "B"], ["B", "C"], ["C", "A"]],
            "marginals": ["1/3", "1/3", "1/3"],
        }))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "check passed" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "check", "no_such_scenario")
        assert code == 2
        assert "error:" in err

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "bad.json:2" in err

    def test_verbose_lists_witness(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "propositions": ["A", "B"],
            "joint_sets": [["A", "B"]],
            "marginals": ["1/4", "1/2"],
        }))
        code, out, _ = run(capsys, "check", str(path), "--verbose")
        assert code == 0
        assert "weight" in out

    @pytest.mark.parametrize("member", [["A"], {"x": 1}], ids=["list", "object"])
    def test_non_string_joint_set_member_is_input_error(self, capsys, tmp_path, member):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"propositions": ["A", "B"], "joint_sets": [[member, "B"]]}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "'joint_sets' must be a list of lists of strings" in err


class TestVerifyTheorem:
    def test_small_grid_passes_and_reports_examples(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--grid", "8")
        assert code == 0
        assert "gap 1/12" in out
        assert "gap 1/2" in out
        assert "positive on the whole grid" in out

    def test_csv_written(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "verify-theorem", "--grid", "6", "--csv", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "p1,p2,p3,beta_worst,alpha_worst,bob_p1,gap"
        assert len(lines) > 1

    def test_nonpositive_gap_is_a_certificate_fault(self, capsys, monkeypatch):
        # No valid grid point has p1 = 0, so the sweep is patched to reach one.
        from orthobox import theorem

        monkeypatch.setattr(theorem, "sweep_gap", lambda denominator: [theorem._worst_case(0, 1, 1, 3)])
        code, out, err = run(capsys, "verify-theorem", "--grid", "3")
        assert (code, out) == (1, "")
        assert err == "certificate check failed: signalling gap 0 is not positive\n"


class TestSimulate:
    def test_bundled_plan_enumeration(self, capsys):
        code, out, _ = run(capsys, "simulate", "seer", "--plan", "fable")
        assert code == 0
        assert "total probability: 1" in out

    def test_sampling_column(self, capsys):
        code, out, _ = run(capsys, "simulate", "lsw", "--plan", "lsw_collapse",
                           "--trials", "200", "--seed", "4")
        assert code == 0
        assert "sampled" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "simulate", "firefly", "--plan", "firefly_ca_bc",
                          "--trials", "100", "--seed", "9")
        _, second, _ = run(capsys, "simulate", "firefly", "--plan", "firefly_ca_bc",
                           "--trials", "100", "--seed", "9")
        assert first == second

    def test_impossible_branch_key_is_input_error(self, capsys, tmp_path):
        plan = tmp_path / "typo.plan"
        plan.write_text("alice AB\n  on ful,empty: bob C\n")
        code, out, err = run(capsys, "simulate", "seer", "--plan", str(plan))
        assert code == 2
        assert out == ""
        assert "'ful,empty'" in err

    def test_duplicate_branch_key_is_input_error(self, capsys, tmp_path):
        plan = tmp_path / "dup.plan"
        plan.write_text("alice C\n  on full: bob A\n  on full: bob B\n")
        code, _, err = run(capsys, "simulate", "lsw", "--plan", str(plan), "--trials", "10")
        assert code == 2
        assert "duplicate" in err

    @pytest.mark.parametrize("branch", ["\t\ton full:\n\t\t\t\talice B", "\ton full: alice B", "  \ton full: alice B"])
    def test_tab_in_indentation_is_input_error(self, capsys, tmp_path, branch):
        # Two tabs once counted as two spaces, so this plan ran and exited 0.
        plan = tmp_path / "tab.plan"
        plan.write_text(f"alice C\n{branch}\n")
        code, out, err = run(capsys, "simulate", "lsw", "--plan", str(plan))
        assert code == 2
        assert out == ""
        assert "tab.plan:2: indentation must be spaces, not tabs" in err

    def test_plan_without_steps_is_input_error(self, capsys, tmp_path):
        plan = tmp_path / "blank.plan"
        plan.write_text("# only a comment\n\n   \n")
        code, out, err = run(capsys, "simulate", "seer", "--plan", str(plan))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "blank.plan" in err

    def test_negative_trials_rejected(self, capsys):
        for argv in (
            ["simulate", "seer", "--plan", "fable", "--trials", "-5"],
            ["quantum-ref", "--trials", "-3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "at least 0" in captured.err

    def test_zero_trials_means_exact_only(self, capsys):
        _, exact, _ = run(capsys, "simulate", "lsw", "--plan", "lsw_collapse")
        code, zero, _ = run(capsys, "simulate", "lsw", "--plan", "lsw_collapse", "--trials", "0")
        assert code == 0
        assert zero == exact

    def test_long_sequential_plan_enumerates(self, capsys, tmp_path):
        # Three times the interpreter's default recursion limit.
        plan = tmp_path / "long.plan"
        plan.write_text("alice A\n" * 3000)
        code, out, _ = run(capsys, "simulate", "lsw", "--plan", str(plan))
        assert code == 0
        assert "(2 branches, 2 distinct outcomes)" in out

    @staticmethod
    def nested_plan(path, levels):
        """``alice A`` under ``on full:`` ``levels`` times, two indents a level."""
        lines = [f"{'    ' * level}alice A\n{'    ' * level}  on full:\n" for level in range(levels)]
        path.write_text("".join(lines) + "    " * levels + "alice A\n")
        return str(path)

    def test_nested_plan_enumerates(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "lsw", "--plan", self.nested_plan(tmp_path / "deep.plan", 300))
        assert code == 0
        assert "(2 branches, 2 distinct outcomes)" in out

    def test_plan_nested_700_levels_enumerates(self, capsys, tmp_path):
        # A plan hashes in C; only parsing recurses once per level (to about 990).
        code, out, _ = run(capsys, "simulate", "lsw", "--plan", self.nested_plan(tmp_path / "deep.plan", 700))
        assert code == 0
        assert "(2 branches, 2 distinct outcomes)" in out

    def test_too_deeply_nested_plan_is_input_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "simulate", "lsw", "--plan", self.nested_plan(tmp_path / "deep.plan", 1200))
        assert code == 2
        assert out == ""
        assert err == "error: deep.plan: plan nests too deeply\n"

    def test_plan_is_checked_once_and_compiled_once(self, capsys, monkeypatch):
        # Enumeration and sampling both run the one tree simulate compiled.
        models = orthobox.cli.models

        def spy(calls, fn):
            def wrapper(*args):
                calls.append((args, fn(*args)))
                return calls[-1][1]
            return wrapper

        compiled, enumerated, checks = [], [], []
        monkeypatch.setattr(models, "compile_plan", spy(compiled, models.compile_plan))
        monkeypatch.setattr(models, "enumerate_histories", spy(enumerated, models.enumerate_histories))
        monkeypatch.setattr(models.Model, "check_admissible", spy(checks, models.Model.check_admissible))
        code, out, _ = run(capsys, "simulate", "seer", "--plan", "fable", "--trials", "2500")
        assert code == 0 and "total probability: 1" in out
        [(_, tree)] = compiled
        [(args, _)] = enumerated
        assert len(args) == 1 and args[0] is tree
        assert len(checks) == 4  # once per step of the plan

    def test_inadmissible_plan_is_input_error(self, capsys, tmp_path):
        plan = tmp_path / "bad.plan"
        plan.write_text("alice A\n")
        code, _, err = run(capsys, "simulate", "firefly", "--plan", str(plan))
        assert code == 2
        assert "approach a side" in err


class TestFable:
    def test_success_and_per_trial_csv(self, capsys, tmp_path):
        target = tmp_path / "trials.csv"
        code, out, _ = run(capsys, "fable", "--trials", "300", "--seed", "2",
                           "--per-trial", str(target))
        assert code == 0
        assert "daniel success rate: 1" in out
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "trial,daniel_success,sandu_first,sandu_second"
        assert len(lines) == 301
        assert all(line.split(",")[1] == "1" for line in lines[1:])


class TestAssumptions:
    def test_matrix_text(self, capsys):
        code, out, _ = run(capsys, "assumptions", "all")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("model")
        assert any(line.startswith("seer") and "FAIL" in line for line in lines)
        assert any(line.startswith("lsw") and "FAIL" in line for line in lines)

    def test_matrix_csv(self, capsys):
        code, out, _ = run(capsys, "assumptions", "seer", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model,assumption,verdict,witness_plan"
        assert len(lines) == 4


class TestPrBoxes:
    def test_canonical_listing(self, capsys):
        code, out, _ = run(capsys, "pr-boxes")
        assert code == 0
        assert "canonical boxes: 8" in out
        assert "distinct: 8" in out

    def test_model_realization(self, capsys):
        code, out, _ = run(capsys, "pr-boxes", "--model", "firefly")
        assert code == 0
        assert "S = 4" in out
        assert "8 distinct boxes" in out


class TestQuantumRef:
    def test_reference_checks_pass(self, capsys, tmp_path):
        target = tmp_path / "ref.csv"
        code, out, _ = run(capsys, "quantum-ref", "--trials", "10", "--seed", "3",
                           "--csv", str(target))
        assert code == 0
        assert "all reference checks within" in out
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "check,dimension,deviation"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-theorem", "--grid", "4", "--csv"),
        ("fable", "--trials", "10", "--per-trial"),
        ("quantum-ref", "--trials", "2", "--csv"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_path_is_input_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, str(tmp_path))  # a directory, not a file
    assert code == 2
    assert out == ""  # the path fails before any report is printed
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fable", "--trials", "0", "--per-trial"), "need at least one trial"),
        (("verify-theorem", "--grid", "1", "--csv"), "grid denominator must be at least 2"),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else None,
)
def test_bad_input_leaves_no_output_file(capsys, tmp_path, argv, message):
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, str(target))
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""
    assert not target.exists()


def scenario_bytes(propositions, joint_sets, marginals=None):
    data = {"propositions": propositions, "joint_sets": joint_sets}
    if marginals is not None:
        data["marginals"] = marginals
    return json.dumps(data).encode()


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "name, content, message",
    [
        (
            "huge.json",
            scenario_bytes(["A", "B"], [["A", "B"]], ["1e400", "0"]),
            f"marginal of A 1{'0' * 400} outside [0, 1]",
        ),
        (
            "pair.json",
            scenario_bytes(["A", "B"], [["A", "B"]], ["2/3", "2/3"]),
            "orthogonal pair (A, B) has marginals summing to 4/3 > 1",
        ),
        ("twice.json", scenario_bytes(["A", "A"], []), "duplicate proposition labels"),
        (
            "unknown.json",
            scenario_bytes(["A", "B"], [["A", "Z"]]),
            "joint set ['A', 'Z'] mentions unknown propositions ['Z']",
        ),
        ("latin1.json", b"\xff", NOT_UTF8),
        ("deep.json", b"[" * 100_000, "JSON nests too deeply"),
        ("latin1.plan", b"\xff", NOT_UTF8),
    ],
    ids=[
        "marginal-range",
        "pair-bound",
        "duplicate-labels",
        "unknown-label",
        "scenario-not-utf8",
        "scenario-too-deep",
        "plan-not-utf8",
    ],
)
def test_loader_error_names_its_file(capsys, tmp_path, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    argv = ("check", str(path)) if name.endswith(".json") else ("simulate", "seer", "--plan", str(path))
    assert run(capsys, *argv) == (2, "", f"error: {name}: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "seer", "--plan", "fable", "--flavor", "bogus"),
        ("simulate", "lsw", "--plan", "lsw_collapse", "--flavor", "mirror"),
        ("pr-boxes", "--model", "lsw", "--flavor", "alice_cuts_bob_local"),
        ("pr-boxes", "--flavor", "mirror"),
        ("assumptions", "all", "--flavor", "bogus"),
        ("assumptions", "firefly-variants", "--flavor", "mirror"),
    ],
    ids=["simulate-seer", "simulate-lsw", "pr-boxes-lsw", "pr-boxes-canonical", "assumptions-all", "assumptions-variants"],
)
def test_flavor_for_another_model_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: --flavor applies only to the firefly model\n")


FAULTS = [orthobox.Fault, orthobox.InconsistentHistory, orthobox.BranchMassError, orthobox.CertificateError]


class TestFaults:
    @pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
    def test_fault_exits_one_with_its_label(self, capsys, monkeypatch, fault):
        def run_faulty(args):
            print("partial")
            raise fault("the message")

        monkeypatch.setattr(importlib.import_module("orthobox.commands.fable"), "run", run_faulty)
        code, out, err = run(capsys, "fable")
        assert (code, out, err) == (1, "partial\n", f"{fault.label}: the message\n")

    def test_labels_and_homes(self):
        assert [fault.label for fault in FAULTS] == [
            "fault", "inconsistent history", "model fault", "certificate check failed",
        ]
        assert all(issubclass(fault, RuntimeError) for fault in FAULTS)
        # The modules that raise them re-export the package root's classes.
        assert orthobox.models.InconsistentHistory is orthobox.InconsistentHistory
        assert orthobox.models.BranchMassError is orthobox.BranchMassError
        assert orthobox.behavior.CertificateError is orthobox.CertificateError

    def test_other_runtime_error_propagates(self, monkeypatch):
        def run_broken(args):
            raise RuntimeError("not a fault")

        monkeypatch.setattr(importlib.import_module("orthobox.commands.fable"), "run", run_broken)
        with pytest.raises(RuntimeError, match="not a fault"):
            main(["fable"])


class TestHelpAndColor:
    # The parser's model names come from the package root, not from the
    # models; these pin its printed text byte for byte, at a fixed width, as
    # argparse prints it on the Pythons CI runs (3.10 and 3.11).
    TOP_HELP = """\
usage: orthobox [-h]
                {check,verify-theorem,simulate,fable,assumptions,pr-boxes,quantum-ref}
                ...

Exact orthogonality-scenario checks and toy-model simulations.

positional arguments:
  {check,verify-theorem,simulate,fable,assumptions,pr-boxes,quantum-ref}
    check               classify a scenario file (bundled: specker_triple,
                        firefly, lsw)
    verify-theorem      sweep the signalling gap over a rational grid
    simulate            run a query plan against a model
    fable               run the prophecy game on the retrocausal boxes
    assumptions         evaluate the three assumptions per model
    pr-boxes            canonical boxes, or a model's box realization
    quantum-ref         run the complex-matrix reference checks

options:
  -h, --help            show this help message and exit
"""
    SIMULATE_USAGE = """\
usage: orthobox simulate [-h] [--seed SEED] --plan PLAN [--flavor FLAVOR]
                         [--trials TRIALS]
                         {seer,firefly,lsw}
"""

    @staticmethod
    def parser_exit(capsys, monkeypatch, *argv):
        """Exit code, stdout and stderr of a call that the parser ends."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def test_help_exits_zero(self, capsys, monkeypatch):
        assert self.parser_exit(capsys, monkeypatch, "--help") == (0, self.TOP_HELP, "")

    def test_simulate_help_lists_models(self, capsys, monkeypatch):
        help_text = self.SIMULATE_USAGE + """
positional arguments:
  {seer,firefly,lsw}

options:
  -h, --help          show this help message and exit
  --seed SEED         seed for all randomness (default 0)
  --plan PLAN         plan file (bundled: fable, lsw_collapse, firefly_ca_bc)
  --flavor FLAVOR     firefly flavor
  --trials TRIALS     also sample this many runs
"""
        assert self.parser_exit(capsys, monkeypatch, "simulate", "--help") == (0, help_text, "")

    def test_unknown_model_is_usage_error(self, capsys, monkeypatch):
        message = "orthobox simulate: error: argument model: invalid choice: 'bogus' (choose from 'seer', 'firefly', 'lsw')\n"
        result = self.parser_exit(capsys, monkeypatch, "simulate", "bogus", "--plan", "fable")
        assert result == (2, "", self.SIMULATE_USAGE + message)

    def test_color_env_toggles_ansi(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOBOX_COLOR", "1")
        _, colored, _ = run(capsys, "assumptions", "seer")
        monkeypatch.setenv("ORTHOBOX_COLOR", "0")
        _, plain, _ = run(capsys, "assumptions", "seer")
        assert "\x1b[" in colored
        assert "\x1b[" not in plain


def child_env() -> dict:
    """The environment for a child interpreter that imports this orthobox."""
    src = str(Path(orthobox.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def probe(code: str, expression: str):
    """The value of ``expression`` after a fresh interpreter runs ``code``."""
    script = f"import sys\n{code}\nprint(repr({expression}))"
    result = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, check=True)
    return ast.literal_eval(result.stdout.strip().splitlines()[-1])


def modules_loaded(code: str, package: str) -> list[str]:
    """``package`` and its submodules in ``sys.modules`` after a fresh interpreter runs ``code``."""
    return probe(code, f"sorted(m for m in sys.modules if m.split('.')[0] == {package!r})")


def modules_not_run(code: str) -> list[str]:
    """The orthobox modules registered but not yet run after a fresh
    interpreter runs ``code``: ``type()`` reads no module attribute, so it
    leaves a lazily bound module unloaded."""
    return probe(
        code,
        "sorted(m for m, mod in sys.modules.items()"
        " if m.startswith('orthobox.') and type(mod).__name__ == '_LazyModule')",
    )


def test_cli_import_leaves_networkx_out():
    assert modules_loaded("import orthobox.cli", "networkx") == []


def test_cli_import_leaves_dataclasses_and_inspect_out():
    assert modules_loaded("import orthobox.cli", "dataclasses") == []
    assert modules_loaded("import orthobox.cli", "inspect") == []


def test_cli_import_leaves_numpy_unloaded():
    # quantumref imports numpy, and only quantum-ref runs quantumref.
    assert modules_loaded("import orthobox.cli", "numpy") == []
    assert modules_loaded("import orthobox.cli; orthobox.cli.main(['check', 'specker_triple'])", "numpy") == []
    used = modules_loaded("import orthobox.cli; orthobox.cli.main(['quantum-ref', '--trials', '1'])", "numpy")
    assert "numpy.linalg" in used


LAZY = [
    "orthobox.behavior", "orthobox.linprog", "orthobox.models", "orthobox.protocols",
    "orthobox.quantumref", "orthobox.rng", "orthobox.scenario", "orthobox.theorem",
]


def lazy_except(*run: str) -> list[str]:
    return [m for m in LAZY if m.split(".")[1] not in run]


@pytest.mark.parametrize(
    "argv, not_run",
    [
        (None, LAZY),
        (["check", "specker_triple"], lazy_except("scenario", "behavior", "linprog")),
        (["verify-theorem", "--grid", "6"], lazy_except("theorem")),
        (["simulate", "seer", "--plan", "fable", "--trials", "10"], lazy_except("models", "rng")),
        # protocols reaches behavior, and behavior its siblings, through the
        # package, so the CLI's lazy bindings stay unrun where they are unused.
        (["fable", "--trials", "10"], lazy_except("models", "rng", "protocols")),
        (["assumptions", "lsw"], lazy_except("models", "rng", "protocols")),
        (["pr-boxes"], lazy_except("behavior")),
    ],
    ids=["import", "check", "verify-theorem", "simulate", "fable", "assumptions", "pr-boxes"],
)
def test_each_command_runs_only_its_modules(argv, not_run):
    code = "import orthobox.cli" + (f"; orthobox.cli.main({argv!r})" if argv else "")
    assert modules_not_run(code) == not_run


COMMANDS = {
    "check": ["check", "specker_triple"],
    "verify_theorem": ["verify-theorem", "--grid", "4"],
    "simulate": ["simulate", "seer", "--plan", "fable", "--trials", "10"],
    "fable": ["fable", "--trials", "10"],
    "assumptions": ["assumptions", "lsw"],
    "pr_boxes": ["pr-boxes"],
    "quantum_ref": ["quantum-ref", "--trials", "1"],
}
HANDLERS = "sorted(m for m in sys.modules if m.startswith('orthobox.commands.'))"


@pytest.mark.parametrize("name", [None, *COMMANDS])
def test_each_command_compiles_only_its_own_handler(name):
    code = "import orthobox.cli" + (f"; orthobox.cli.main({COMMANDS[name]!r})" if name else "")
    assert probe(code, HANDLERS) == ([f"orthobox.commands.{name}"] if name else [])


@pytest.mark.parametrize("name", ["simulate", "check"])
def test_handler_under_python_m_leaves_cli_unimported(name):
    # Under python -m the CLI runs as __main__; a handler that imported
    # orthobox.cli would compile and run it a second time.
    code = (
        f"import runpy; sys.argv = ['orthobox', *{COMMANDS[name]!r}]\n"
        "try:\n    runpy.run_module('orthobox.cli', run_name='__main__')\nexcept SystemExit:\n    pass"
    )
    assert probe(code, f"({HANDLERS}, 'orthobox.cli' in sys.modules)") == ([f"orthobox.commands.{name}"], False)


def test_lazy_binding_keeps_one_module_object():
    # A second behavior or models module would be a second copy of its
    # functions, which a patch of the CLI's binding would not reach.
    for name in ("behavior", "models"):
        code = f"import orthobox.{name} as first; import orthobox.cli"
        assert probe(code, f"orthobox.cli.{name} is first is sys.modules['orthobox.{name}'] is orthobox.{name}")
        # Imported the other way round, the package attribute is set as a plain import sets it.
        assert probe(f"import orthobox.cli, orthobox.{name}", f"orthobox.{name} is orthobox.cli.{name}")


def test_failed_certificate_loads_no_model_code():
    # main() classifies a fault by the package root's classes, so a failed
    # certificate in check runs neither models nor anything it imports.
    script = (
        "import contextlib, io\n"
        "from orthobox import cli, linprog\n"
        "solve = linprog.feasible_combination\n"
        "def corrupted(columns, target):\n"
        "    solution, y = solve(columns, target)\n"
        "    return solution, tuple(-c for c in y)\n"
        "linprog.feasible_combination = corrupted\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "    code = cli.main(['check', 'specker_triple'])"
    )
    code, err, loaded = probe(script, "(code, err.getvalue(), 'orthobox.models.base' in sys.modules)")
    assert (code, loaded) == (1, False)
    assert err == "certificate check failed: separating functional is not positive at the marginals\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_one_quietly(unbuffered):
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # no reader, so the child's first write to stdout fails
    try:
        child = subprocess.run(
            [sys.executable, "-m", "orthobox.cli", "verify-theorem", "--grid", "6"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (1, b"")


def test_library_modules_load_only_their_imports():
    assert modules_loaded("import orthobox.theorem", "orthobox") == ["orthobox", "orthobox.rational", "orthobox.theorem"]
    scenario = set(modules_loaded("import orthobox.scenario", "orthobox"))
    assert not scenario & {"orthobox.models", "orthobox.behavior", "orthobox.protocols"}
    models = set(modules_loaded("import orthobox.models", "orthobox"))
    assert not models & {"orthobox.protocols", "orthobox.behavior", "orthobox.scenario", "orthobox.theorem"}


def test_cli_import_loads_every_traced_module():
    # The benchmark's tracer instruments the MODULE_LAYERS modules only if they
    # are in sys.modules once the CLI is imported.  The CLI binds them lazily,
    # so they are registered there without having run.
    tracing = ast.parse((Path(__file__).parents[1] / "benchmarks" / "tracing.py").read_text())
    layers = next(
        ast.literal_eval(node.value) for node in tracing.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MODULE_LAYERS"
    )
    assert set(layers) <= set(modules_loaded("import orthobox.cli", "orthobox"))
