"""Byte-for-byte golden run of every README CLI example.

Each example runs in text mode and under ``--machine``; its stdout and
exit code must match ``tests/golden/<name>.txt`` (first line ``exit=N``,
then stdout verbatim).  The examples run inside a temporary directory
holding ``f4.scheme``, written the way the README writes it, because
``scheme info`` echoes the path it was given.

To re-record after an intended output change:
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from geodouble.cli import main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES: dict[str, list[str]] = {
    "family_verify": ["family", "verify", "--n", "4"],
    "family_report": ["family", "report", "--n-min", "4", "--n-max", "13",
                      "--epsilon", "0.1"],
    "scheme_family": ["scheme", "family", "--n", "4"],
    "scheme_info": ["scheme", "info", "f4.scheme"],
    "fg_fold": ["fg", "fold", "--rank", "2", "--gens", "aa,b,abA"],
    "fg_rep": ["fg", "rep", "--rank", "2", "--gens", "aa,b,abA", "--word", "aaa"],
    "double_nf": ["double", "nf", "--rank", "2", "--H", "aa,b,abA",
                  "--word", "u:abA p:bb u:a"],
    "double_fixtest": ["double", "fixtest", "--rank", "2", "--H", "aa,b,abA",
                       "--samples", "1000", "--seed", "7"],
    "iso_classify": ["iso", "classify", "--m", "1,1;0,1"],
    "iso_commute": ["iso", "commute", "--m1", "i,0;0,-i", "--m2", "0,1;-1,0"],
    "iso_table": ["iso", "table", "--reversing", "--phi2-id"],
    "pres_from_scheme": ["pres", "from-scheme", "f4.scheme"],
    "audit_case": ["audit", "--g", "2", "--m", "1", "--l", "0", "--orientable",
                   "--separating"],
    "audit_sweep": ["audit", "--sweep"],
}

CASES = [(name, machine) for name in EXAMPLES for machine in (False, True)]


def _golden_path(name: str, machine: bool) -> Path:
    return GOLDEN / f"{name}{'.machine' if machine else ''}.txt"


def _run(argv: list[str]) -> str:
    """Run the CLI in-process; return ``exit=N`` plus captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit={code}\n{out.getvalue()}"


def _write_scheme() -> None:
    # geodouble scheme family --n 4 > f4.scheme
    Path("f4.scheme").write_text(_run(EXAMPLES["scheme_family"]).split("\n", 1)[1])


@pytest.mark.parametrize("name,machine", CASES,
                         ids=[f"{n}{'-machine' if m else ''}" for n, m in CASES])
def test_readme_example_matches_golden(name, machine, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GEODOUBLE_SEED", raising=False)
    _write_scheme()
    argv = (["--machine"] if machine else []) + EXAMPLES[name]
    assert _run(argv) == _golden_path(name, machine).read_text()


if __name__ == "__main__":
    os.environ.pop("GEODOUBLE_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_scheme()
        for name, machine in CASES:
            argv = (["--machine"] if machine else []) + EXAMPLES[name]
            _golden_path(name, machine).write_text(_run(argv))
