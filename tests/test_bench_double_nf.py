"""The benchmark's own checks: ``double_nf`` on one warm and one full
round, and ``subgroup_fold``, ``family_sweep`` and ``algebra_mix`` on one
full round each, so a wrong normal form, fold, coset representative,
glued complex, family row, invariant factor, abelianization, Tietze
output, audit or isometry answer fails here before the benchmark reports it;
and a smoke run of every workload's warm round and of the tracer's
install, so a removed name the benchmark uses or traces fails here too.

``perfbench/`` is only read: its oracles are loaded under their own module
name, since ``oracles`` already names this suite's oracles, and the
workload is handed the ``geodouble`` modules already imported, so the
classes the other tests use stay the same objects.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("triangulation", "construction", "freegroups", "doubling", "isometries",
           "presentations", "cli")
SEED = 7


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_workloads():
    # workloads.py runs ``import oracles as orc`` once, at load.
    saved = sys.modules.get("oracles")
    sys.modules["oracles"] = load("perfbench_oracles", BENCH / "oracles.py")
    try:
        return load("perfbench_workloads", BENCH / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["oracles"]
        else:
            sys.modules["oracles"] = saved


def package():
    return SimpleNamespace(MODULES=MODULES,
                           **{m: importlib.import_module(f"geodouble.{m}") for m in MODULES})


def test_double_nf_rounds_pass_the_bench_checks():
    workloads = bench_workloads()
    pkg = package()
    cls = workloads.WORKLOADS["double_nf"]
    notes = {}
    workload = cls(pkg, random.Random(f"double_nf/{SEED}/setup"), notes)
    kinds = set()
    for label, warm in (("warm", True), (0, False)):
        for op in workload.round(random.Random(f"double_nf/{SEED}/{label}"), warm=warm):
            assert op.check(op.run()) is None, (op.kind, op.size)
            kinds.add(op.kind)
    assert kinds == {"nf.finite", "nf.infinite", "cli.double_fixtest"}
    assert notes["tail.finite_index"] and notes["tail.infinite_index"]


def test_subgroup_fold_round_passes_the_bench_checks():
    # One full round: folds of long words and of Schreier generators up to
    # degree 1024, with membership, coset representatives of probes and
    # the graph adopted from the permutations' adjacency.
    workloads = bench_workloads()
    cls = workloads.WORKLOADS["subgroup_fold"]
    workload = cls(package(), random.Random(f"subgroup_fold/{SEED}/setup"), {})
    kinds = set()
    for op in workload.round(random.Random(f"subgroup_fold/{SEED}/0"), warm=False):
        assert op.check(op.run()) is None, (op.kind, op.size)
        kinds.add(op.kind)
    assert kinds == {"fold.long", "fold.schreier", "cli.fg_fold"}


def test_family_sweep_round_passes_the_bench_checks():
    # One full round: the library pipeline up to n = 4096 (parse, glue,
    # boundary, handles, angles, presentation and its abelianization),
    # `family verify` up to n = 512 and `family report` up to n = 4096.
    workloads = bench_workloads()
    cls = workloads.WORKLOADS["family_sweep"]
    workload = cls(package(), random.Random(f"family_sweep/{SEED}/setup"), {})
    sizes = {}
    for op in workload.round(random.Random(f"family_sweep/{SEED}/0"), warm=False):
        assert op.check(op.run()) is None, (op.kind, op.size)
        sizes.setdefault(op.kind, set()).add(op.size)
    assert sizes == {"family": set(cls.LIB_N), "cli.family_verify": set(cls.VERIFY_N),
                     "cli.family_report": set(cls.REPORT_N)}


def test_algebra_mix_round_passes_the_bench_checks():
    # One full round: dense SNF up to 9 x 9, abelianization and Tietze up
    # to 20 generators, audits and their CLI sweeps up to 10/5/5, isometry
    # batches of every kind and `pres h1rank` up to 20 generators.
    workloads = bench_workloads()
    cls = workloads.WORKLOADS["algebra_mix"]
    workload = cls(package(), random.Random(f"algebra_mix/{SEED}/setup"), {})
    sizes = {}
    for op in workload.round(random.Random(f"algebra_mix/{SEED}/0"), warm=False):
        assert op.check(op.run()) is None, (op.kind, op.size)
        sizes.setdefault(op.kind, set()).add(op.size)
    generators = set(cls.PRESENTATION_GENERATORS)
    assert sizes == {"snf": set(cls.SNF_SIZES), "abelianization": generators,
                     "tietze": generators, "audit": {s[0] for s in cls.AUDIT_SIZES},
                     "cli.audit_sweep": {s[0] for s in cls.AUDIT_SIZES},
                     **{f"iso.{kind}": set(cls.ISO_BATCHES) for kind in cls.ISO_KINDS},
                     "cli.pres_h1rank": set(cls.CLI_H1_GENERATORS)}


def test_warm_rounds_pass_and_the_tracer_installs():
    workloads = bench_workloads()
    pkg = package()
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(pkg, random.Random(f"{name}/{SEED}/setup"), {})
        for op in workload.round(random.Random(f"{name}/{SEED}/warm"), warm=True):
            assert op.check(op.run()) is None, (name, op.kind, op.size)
    tracing = load("perfbench_tracing", BENCH / "tracing.py")
    normal_form = pkg.doubling.Double.__dict__["normal_form"]
    uninstall = tracing.Tracer().install(pkg)
    try:
        assert pkg.doubling.Double.__dict__["normal_form"] is not normal_form
    finally:
        uninstall()
    assert pkg.doubling.Double.__dict__["normal_form"] is normal_form
