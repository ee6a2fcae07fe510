"""The CLI's subcommands, one module each with ``run(args)``: ``check``,
``verify_theorem``, ``simulate``, ``fable``, ``assumptions``, ``pr_boxes``
and ``quantum_ref``.  ``orthobox.cli`` imports only the module of the
command it parsed, so a call compiles no other command's body.  Each module
reaches the library as ``from .. import name``, so under the CLI it gets
the lazily bound module; none imports ``orthobox.cli``, which runs as
``__main__`` under ``python -m`` and would run a second time.

This package holds the helpers the commands share: colored verdicts,
bundled-input lookup and output files.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from pathlib import Path


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
    bundled = Path(__file__).parents[1] / "data" / kind / (name if name.endswith(suffix) else name + suffix)
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(f"no such file and no bundled {kind[:-1]} named {name!r}")


def _output_file(path: str | None):
    """``path`` opened for writing before anything is printed, so an
    unwritable one fails with nothing on stdout; without a path, a context
    giving None.  Callers open it only after the computation that checks
    their inputs, so a bad input leaves no file."""
    return open(path, "w") if path else nullcontext()
