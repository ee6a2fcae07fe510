"""Byte-for-byte replay of the golden CLI corpus in ``tests/golden/``.

Every case runs one CLI invocation in-process and must reproduce the
recorded exit code, stdout and written files exactly.  The corpus is
re-recorded with ``tests/golden_record.py`` only when an output change is
intended.
"""

import json

import pytest

from golden_record import GOLDEN, run_case

CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ORTHOBOX_COLOR", raising=False)
    case = CASES[name]
    code, stdout = run_case(case["argv"], tmp_path)
    assert stdout == (GOLDEN / f"{name}.out").read_text()
    assert code == case["exit"]
    for file in case["files"]:
        assert (tmp_path / file).read_text() == (GOLDEN / f"{name}.{file}").read_text()
