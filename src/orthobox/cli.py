"""Command-line front end: the parser, and the exit code of each error.

Subcommands map one-to-one onto the library modules: ``check`` loads and
classifies a scenario file, ``verify-theorem`` sweeps the signalling gap
over a rational grid, ``simulate`` enumerates or samples a query plan
against a model, ``fable`` runs the prophecy game, ``assumptions`` prints
the per-model battery, ``pr-boxes`` reports box realizations, and
``quantum-ref`` runs the matrix reference checks.  Each command's body is
``run(args)`` in its own ``orthobox.commands`` module, imported only when
the command is parsed.  This module runs no library module: the parser's
model names and the fault types come from the package root, and the
library modules are bound lazily, so each call runs only the modules its
command uses.  ``--flavor`` applies only to the firefly model.

Exit codes: 0 success; 1 a check failed, a fault (printed with its label,
such as "certificate check failed: ..."), or a closed stdout (printing
nothing more); 2 bad input.  Output is byte-identical for identical inputs
and seeds; set ORTHOBOX_COLOR=1 for ANSI colors (0 or unset keeps output
plain).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys

from . import MODEL_NAMES, Fault


def _lazy(name: str):
    """``orthobox.<name>``, registered now but run on its first attribute
    read (the stdlib ``LazyLoader`` recipe), so each command runs only the
    modules it uses; the module itself when it is already loaded."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# Registered here, before any command module imports them, so that the
# commands, which read them as ``from .. import name``, find them lazy.
behavior = _lazy("behavior")
linprog = _lazy("linprog")  # run by behavior; bound so that behavior finds it lazy too
models = _lazy("models")
protocols = _lazy("protocols")
quantumref = _lazy("quantumref")
rng = _lazy("rng")
scenario = _lazy("scenario")
theorem = _lazy("theorem")


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

    p = sub.add_parser("verify-theorem", help="sweep the signalling gap over a rational grid")
    p.add_argument("--grid", type=int, default=20, help="grid denominator (default 20)")
    p.add_argument("--csv", help="write the sweep table to this path")
    p.add_argument("--exact", action="store_true", help="render CSV entries as num/den")

    p = sub.add_parser("simulate", parents=[seeded], help="run a query plan against a model")
    p.add_argument("model", choices=MODEL_NAMES)
    p.add_argument("--plan", required=True, help="plan file (bundled: fable, lsw_collapse, firefly_ca_bc)")
    p.add_argument("--flavor", help="firefly flavor")
    p.add_argument("--trials", type=nonnegative_int, default=0, help="also sample this many runs")

    p = sub.add_parser("fable", parents=[seeded], help="run the prophecy game on the retrocausal boxes")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--per-trial", help="write per-trial CSV to this path")

    p = sub.add_parser("assumptions", help="evaluate the three assumptions per model")
    p.add_argument("model", choices=(*MODEL_NAMES, "all", "firefly-variants"))
    p.add_argument("--flavor")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("pr-boxes", help="canonical boxes, or a model's box realization")
    p.add_argument("--model", choices=MODEL_NAMES)
    p.add_argument("--flavor")

    p = sub.add_parser("quantum-ref", parents=[seeded], help="run the complex-matrix reference checks")
    p.add_argument("--trials", type=nonnegative_int, default=100)
    p.add_argument("--csv", help="write check results to this path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "flavor" in args:  # None unless given, so that one given for another model is refused
        if args.flavor is None:
            args.flavor = "mirror"
        elif args.model != "firefly":
            parser.error("--flavor applies only to the firefly model")
    command = importlib.import_module(f"{__package__}.commands.{args.command.replace('-', '_')}")
    try:
        code = command.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: as the signal module's docs advise, point
        # it at devnull so that the flush at exit cannot fail again.
        with contextlib.suppress(io.UnsupportedOperation):  # an in-process caller's StringIO
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Fault as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
