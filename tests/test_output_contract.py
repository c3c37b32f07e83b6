"""The CLI output contract, byte for byte.

``verify --format json`` must reproduce the benchmark's committed reference
reports, and ``tests/golden/cli_outputs.json`` pins the ``verify`` text
report and the ``bbw``, ``koszul``, ``chern`` and ``fm`` outputs in table and
JSON form.  A case that holds ``stderr`` pins that too, with its exit code:
the one-line errors of exit 1 and 2 and argparse's usage errors, whose lines
are wrapped at an 80-column terminal.  A difference here is a change to the
CLI contract, not a test to refresh.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from spinorcalc.cli import SUITES, run

HERE = Path(__file__).resolve().parent
REFERENCES = HERE.parent / "perfbench" / "references"
GOLDEN = json.loads((HERE / "golden" / "cli_outputs.json").read_text())


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_json_matches_reference(suite):
    expected = (REFERENCES / f"verify-{suite}.json").read_text()
    assert _run(["verify", "--suite", suite, "--format", "json"]) == (0, expected, "")


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_pinned_output(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _run(case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    if "stderr" in case:
        assert err == case["stderr"]
