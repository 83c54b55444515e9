"""Byte-for-byte golden run of every README CLI example.

Each example runs in text mode and under ``--machine``; its stdout and
exit code must match ``tests/golden/<name>.txt`` (first line ``exit=N``,
then stdout verbatim).  The examples run inside a temporary directory
holding ``f4.scheme``, written the way the README writes it, because
``scheme info`` echoes the path it was given.

``SCHEME_EXAMPLES`` pins ``scheme info`` and ``pres from-scheme`` the same
way on schemes beyond the family: the identity and crossed doubles, a
complex whose vertex link is non-orientable, and a partial scheme.  Their
files are written beside ``f4.scheme``.  ``REPORT_EXAMPLES`` pins
``family report`` on edge ranges of n, and ``BRANCH_EXAMPLES`` pins output
branches that no README example reaches.

To re-record after an intended output change:
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from geodouble.cli import main

from test_triangulation import CROSSED_DOUBLE, IDENTITY_DOUBLE, NONORIENTABLE_LINK

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

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
    "pres_simplify": ["pres", "simplify", "--scheme", "f4.scheme"],
    "audit_case": ["audit", "--g", "2", "--m", "1", "--l", "0", "--orientable",
                   "--separating"],
    "audit_sweep": ["audit", "--sweep"],
}

# Three tetrahedra, eight of their twelve faces paired.
PARTIAL = """tets 3
pair 1.132 2.453
pair 1.264 2.516 edgeorder 6 5 1
pair 2.132 3.264
pair 3.453 3.516 edgeorder 1 6 5
"""

SCHEMES = {"identity_double": IDENTITY_DOUBLE, "crossed_double": CROSSED_DOUBLE,
           "nonorientable_link": NONORIENTABLE_LINK, "partial": PARTIAL}

SCHEME_EXAMPLES: dict[str, list[str]] = {
    f"{row.replace(' ', '_').replace('-', '_')}.{name}": [*row.split(), f"{name}.scheme"]
    for row in ("scheme info", "pres from-scheme") for name in SCHEMES}

# ``family report`` on edge ranges: below the family (no rows, a vacuous
# pass), reversed (empty), a single inadmissible n, and a longer range
# with ``--epsilon``.
REPORT_EXAMPLES: dict[str, list[str]] = {
    f"family_report.{name}": ["family", "report", *flags]
    for name, flags in {
        "below_family": ["--n-min", "1", "--n-max", "3"],
        "reversed": ["--n-min", "20", "--n-max", "10"],
        "inadmissible_only": ["--n-min", "6", "--n-max", "6"],
        "epsilon_range": ["--n-min", "4", "--n-max", "40", "--epsilon", "0.05"],
    }.items()}

# Output branches no README example reaches: the circle and the line that a
# reversing involution fixes, an audit step tagged [assumed, strict], and
# generators past z, named [27] and [28].
BRANCH_EXAMPLES: dict[str, list[str]] = {
    "iso_classify.circle": ["iso", "classify", "--m", "0,1;1,0", "--rev"],
    "iso_classify.line": ["iso", "classify", "--m", "1,0;0,1", "--rev"],
    "audit_case.rank_gap_witness": ["audit", "--g", "2", "--orientable", "--separating"],
    "pres_h1rank.past_z": ["pres", "h1rank", "--gens", "28", "--relators", "ab"],
}

ALL_EXAMPLES = {**EXAMPLES, **SCHEME_EXAMPLES, **REPORT_EXAMPLES, **BRANCH_EXAMPLES}
CASES = [(name, machine) for name in ALL_EXAMPLES for machine in (False, True)]


def _golden_path(name: str, machine: bool) -> Path:
    return GOLDEN / f"{name}{'.machine' if machine else ''}.txt"


def _run(argv: list[str]) -> str:
    """Run the CLI in-process; return ``exit=N`` plus captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit={code}\n{out.getvalue()}"


def _write_schemes() -> None:
    # geodouble scheme family --n 4 > f4.scheme
    Path("f4.scheme").write_text(_run(EXAMPLES["scheme_family"]).split("\n", 1)[1])
    for name, text in SCHEMES.items():
        Path(f"{name}.scheme").write_text(text)


@pytest.mark.parametrize("name,machine", CASES,
                         ids=[f"{n}{'-machine' if m else ''}" for n, m in CASES])
def test_readme_example_matches_golden(name, machine, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_schemes()
    argv = (["--machine"] if machine else []) + ALL_EXAMPLES[name]
    assert _run(argv) == _golden_path(name, machine).read_text()


def test_readme_examples_are_exactly_the_golden_examples():
    """Every ``geodouble ...`` line of the README's CLI block is one EXAMPLES entry."""
    block = README.read_text().split("## CLI examples", 1)[1].split("```", 2)[1]
    argvs = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] != ["geodouble"]:
            continue
        if ">" in words:
            words = words[:words.index(">")]
        argvs.append(words[1:])
    assert sorted(argvs) == sorted(EXAMPLES.values())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_schemes()
        for name, machine in CASES:
            argv = (["--machine"] if machine else []) + ALL_EXAMPLES[name]
            _golden_path(name, machine).write_text(_run(argv))
