"""Command-line interface.

Subcommands mirror the library: ``family`` (generate/verify the cyclic
tetrahedron family and its ratio table), ``scheme`` (inspect scheme
files), ``fg`` (subgroup graphs), ``double`` (normal forms and the
fixed-element property run), ``iso`` (isometry classification), ``pres``
(presentations), ``audit`` (rank-inequality chains).

Reports are plain text with a stable field order; ``--machine`` switches
to line-oriented ``key=value`` records.  Randomised subcommands take a
``--seed`` (default 0) which is echoed in the report, so every output is
a function of the arguments and the files they name.
Exit status: 0 all checks passed, 1 a check or domain error failed,
2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import random
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import construction, doubling, isometries, presentations, triangulation
from .freegroups import stallings_graph, word_from_str, word_to_str


class Report:
    """A command's report; each line is rendered in the output mode as it is
    added.  An entry of ``lines`` may hold several lines joined by newlines."""

    def __init__(self, command: str, machine: bool):
        self.command = command
        self.machine = machine
        self.lines: list[str] = []
        self.failed = False

    def kv(self, key: str, value) -> None:
        self.kvs(key, (("", value),))

    def kvs(self, prefix: str, pairs) -> None:
        """Add one key/value line per (name, value) pair, keyed prefix + name,
        as a single entry of ``lines``."""
        sep = "=" if self.machine else " = "
        self.lines.append("\n".join([f"{prefix}{name}{sep}{value}" for name, value in pairs]))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.failed = self.failed or not ok
        if self.machine:
            self.lines.append(f"check.{name}={'pass' if ok else 'fail'}")
        else:
            detail = f"  ({detail})" if detail else ""
            self.lines.append(f"{'PASS' if ok else 'FAIL'} {name}{detail}")

    def text(self, line: str) -> None:
        if not self.machine:
            self.lines.append(line)

    def render(self) -> str:
        head = f"command={self.command}" if self.machine else f"command: {self.command}"
        return "\n".join([head, *self.lines]) + "\n"


# An i that no digit or point precedes stands for 1i.
_BARE_I = re.compile(r"(?<![\d.])i")
# What complex() reads beyond an ASCII literal: digits of other scripts,
# digit-group underscores and enclosing parentheses.
_NOT_LITERAL = re.compile(r"[^\x00-\x7f]|[_()]")


def parse_complex_number(text: str) -> complex:
    """Parse finite ASCII complex literals written with i, e.g. ``1+2i``,
    ``-0.5i``, ``3``."""
    cleaned = _BARE_I.sub("1i", text.strip().replace(" ", "")).replace("i", "j")
    try:
        if _NOT_LITERAL.search(text):
            raise ValueError("not an ASCII literal")
        value = complex(cleaned)
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


def parse_matrix(text: str) -> list[list[complex]]:
    rows = [row for row in text.split(";") if row.strip()]
    if len(rows) != 2:
        raise ValueError("matrix needs two ';'-separated rows")
    out = []
    for row in rows:
        entries = [e for e in row.split(",") if e.strip()]
        if len(entries) != 2:
            raise ValueError("each matrix row needs two ','-separated entries")
        out.append([parse_complex_number(e) for e in entries])
    return out


def _read_scheme(path: str) -> triangulation.GluingScheme:
    with open(path, encoding="utf-8") as fh:
        return triangulation.parse_scheme(fh.read())


# -- command table -------------------------------------------------------------


def _arg(*flags, **kwargs):
    """One ``add_argument`` call, as data."""
    return flags, kwargs


class _OneOf(NamedTuple):
    """Argument specs that form one mutually exclusive group."""
    specs: tuple
    required: bool = False


_RANK = _arg("--rank", type=int, required=True)
_GENS = _arg("--gens", type=str, required=True, help="comma-separated generator words")
_WORD = _arg("--word", type=str, required=True)
_H = _arg("--H", type=str, required=True)
_TOL = _arg("--tol", type=float, default=isometries.DEFAULT_TOL)
_PRES_INPUT = (_arg("--scheme", type=str, default=None), _arg("--gens", type=int, default=0),
               _arg("--relators", type=str, default=""))

# Help string of each top-level subcommand.
GROUP_HELP = {
    "family": "cyclic tetrahedron family",
    "scheme": "scheme files",
    "fg": "free-group subgroup graphs",
    "double": "amalgamated double",
    "iso": "isometry classification",
    "pres": "finite presentations",
    "audit": "rank-inequality audit",
}

# Subcommand path -> (argument specs, handler), in help order; ``@command``
# adds each row.  A handler fills the Report that ``main`` hands it, or
# returns text for ``main`` to print as it is (the scheme emitters).
COMMANDS: dict[str, tuple] = {}


def command(path: str, *specs):
    """Register the decorated handler as the row for ``path``."""
    def register(handler):
        COMMANDS[path] = (specs, handler)
        return handler
    return register


def _ratio(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for p >= 0 and q > 0, with one gcd."""
    g = math.gcd(p, q)
    return f"{p // g}" if g == q else f"{p // g}/{q // g}"


@command("family report", _arg("--n-min", type=int, default=4),
         _arg("--n-max", type=int, default=13, help="one row per admissible n in "
              "[n-min, n-max] (7 lines each under --machine): cost is linear in the range"),
         _arg("--epsilon", type=str, default=None))
def cmd_family_report(args, rep: Report) -> None:
    rep.command += f" --n-min {args.n_min} --n-max {args.n_max}"
    rep.kv("columns", "n bgenus rank_bound fix_rank ratio ratio_dec "
                      "cusped_fix cusped_bound cusped_ratio cusped_ratio_dec")
    # Checked before the rows, which an invalid epsilon would waste.
    min_n = None if args.epsilon is None else construction.min_n_for_ratio(args.epsilon)
    strict = True
    for n in range(args.n_min, args.n_max + 1):
        if not construction.is_admissible(n):
            continue
        bgenus, bound, fix, cbound, cfix = construction.family_ranks(n)
        # Each ratio is below 2 exactly when fix < 2 * bound, for bound > 0.
        strict = strict and 0 < bound and fix < 2 * bound and 0 < cbound and cfix < 2 * cbound
        ratio, cratio = _ratio(fix, bound), _ratio(cfix, cbound)
        if rep.machine:
            rep.kvs(f"row.{n}.", (
                ("boundary_genus", bgenus), ("rank_upper_closed", bound),
                ("fix_rank_closed", fix), ("ratio_closed", ratio), ("fix_rank_cusped", cfix),
                ("rank_upper_cusped", f"<{cbound}"), ("ratio_cusped", cratio)))
        else:
            rep.text(f"{n:5d} {bgenus:6d} {bound:10d} {fix:8d} {ratio:>9s} {fix / bound:.6f} "
                     f"{cfix:10d} {'<' + str(cbound):>12s} {cratio:>12s} {cfix / cbound:.6f}")
    rep.check("all_ratios_below_two", strict)
    if min_n is not None:
        rep.kv("epsilon", Fraction(args.epsilon))
        rep.kv("min_n_for_ratio", min_n)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


@command("family verify", _arg("--n", type=int, required=True))
def cmd_family_verify(args, rep: Report) -> None:
    rep.command += f" --n {args.n}"
    report = construction.verify_family(args.n)
    rep.kv("n", args.n)
    for chk in report.checks:
        rep.check(chk.name, chk.ok,
                  f"expected {_fmt(chk.expected)}, got {_fmt(chk.actual)}")


@command("scheme info", _arg("file"))
def cmd_scheme_info(args, rep: Report) -> None:
    rep.command += f" {args.file}"
    complex = triangulation.glue(_read_scheme(args.file))
    rep.kv("tets", complex.scheme.tet_count)
    rep.kv("pairings", len(complex.scheme.a_tets))
    rep.kv("closed", complex.scheme.is_closed)
    rep.kv("edge_classes", len(complex.valences))
    rep.kv("edge_valences", ",".join(map(str, complex.valences)))
    rep.kv("vertex_classes", complex.vertex_class_count)
    rep.kv("orientable", complex.orientable)
    rep.kv("connected", complex.connected)
    for entry in triangulation.dihedral_report(complex):
        rep.kv(f"dihedral.{entry.edge_class}",
               f"valence={entry.valence} angle_deg={entry.angle_degrees} "
               f"admissible={entry.admissible}")
    if complex.scheme.is_closed:
        stats = triangulation.boundary_surfaces(complex)
        for comp in stats.components:
            rep.kv(f"boundary.{comp.vertex_class}",
                   f"F={comp.triangle_count} E={comp.edge_count} "
                   f"V={comp.vertex_count} chi={comp.euler_characteristic} "
                   f"orientable={comp.orientable} genus={comp.genus}")
        if complex.connected:
            genus, handles = triangulation.handle_structure(complex)
            rep.kv("handlebody_genus", genus)
            rep.kv("two_handles", handles)


@command("scheme canon", _arg("file"))
def cmd_scheme_canon(args, rep: Report) -> str:
    return triangulation.render_scheme(_read_scheme(args.file))


@command("scheme family", _arg("--n", type=int, required=True))
def cmd_scheme_family(args, rep: Report) -> str:
    return triangulation.render_scheme(construction.family_scheme(args.n))


def _fg(args, rep: Report):
    """The folded graph of ``--gens`` that every ``fg`` row reports on."""
    rep.command += f" --rank {args.rank} --gens {args.gens}"
    return stallings_graph(args.gens.split(","), args.rank)


@command("fg fold", _RANK, _GENS)
def cmd_fg_fold(args, rep: Report) -> None:
    graph = _fg(args, rep)
    rep.kv("vertices", graph.vertex_count)
    rep.kv("edges", graph.edge_count)
    for line in graph.export_edge_list().splitlines():
        rep.text(line)


@command("fg member", _RANK, _GENS, _WORD)
def cmd_fg_member(args, rep: Report) -> None:
    graph = _fg(args, rep)
    w = word_from_str(args.word, args.rank)
    rep.kv("word", word_to_str(w))
    rep.kv("member", graph.contains(w))


@command("fg rank", _RANK, _GENS)
def cmd_fg_rank(args, rep: Report) -> None:
    graph = _fg(args, rep)
    rep.kv("rank", graph.subgroup_rank())


@command("fg index", _RANK, _GENS)
def cmd_fg_index(args, rep: Report) -> None:
    graph = _fg(args, rep)
    idx = graph.index()
    rep.kv("index", "infinite" if idx is None else idx)


@command("fg rep", _RANK, _GENS, _WORD)
def cmd_fg_rep(args, rep: Report) -> None:
    graph = _fg(args, rep)
    w = word_from_str(args.word, args.rank)
    rep.kv("word", word_to_str(w))
    rep.kv("representative", word_to_str(graph.coset_representative(w)))


@command("double nf", _RANK, _H,
         _arg("--word", type=str, required=True, help="syllables like 'u:abA p:bb u:a'"))
def cmd_double_nf(args, rep: Report) -> None:
    rep.command += f" --rank {args.rank} --H {args.H} --word {args.word}"
    dbl = doubling.Double.from_generators(args.H.split(","), args.rank)
    word = doubling.DoubleWord.from_str(args.word, args.rank)
    nf = dbl.normal_form(word)
    rep.kv("normal_form", str(nf))
    rep.kv("syllables", nf.syllable_count)
    rep.kv("tail", word_to_str(nf.tail))
    rep.kv("fixed_by_swap", dbl.is_fixed(word))


@command("double fixtest", _RANK, _H, _arg("--samples", type=int, default=1000),
         _arg("--seed", type=int, default=0,
              help="seed of the sample stream, echoed in the report"))
def cmd_double_fixtest(args, rep: Report) -> None:
    if args.rank < 1:
        raise ValueError(f"--rank must be at least 1, got {args.rank}")
    if args.samples < 0:
        raise ValueError(f"--samples must be non-negative, got {args.samples}")
    rep.command += (
        f" --rank {args.rank} --H {args.H} "
        f"--samples {args.samples} --seed {args.seed}")
    dbl = doubling.Double.from_generators(args.H.split(","), args.rank)
    rng = random.Random(args.seed)
    rep.kv("seed", args.seed)
    rep.kv("samples", args.samples)
    agree = 0
    fixed_count = 0
    for i in range(args.samples):
        in_h = rng.random() < 0.3
        w = doubling.random_double_word(rng, args.rank, dbl.subgroup, in_subgroup=in_h)
        nf = dbl.normal_form(w)
        fixed = dbl.is_fixed(w)
        zero = nf.syllable_count == 0
        valid = dbl.subgroup.contains(nf.tail) and all(
            not dbl.subgroup.contains(word) for _, word in nf.syllables)
        same_element = dbl.project(w) == dbl.project(dbl.nf_as_element(nf))
        if fixed == zero and valid and same_element:
            agree += 1
        if fixed:
            fixed_count += 1
    rep.kv("fixed_elements", fixed_count)
    rep.kv("agreements", f"{agree}/{args.samples}")
    rep.check("fixed_iff_zero_syllables", agree == args.samples)


def _unsigned(z: complex) -> complex:
    # z with its zero parts unsigned: -0.0 + 0.0 is 0.0, and inf stays inf.
    return complex(z.real + 0.0, z.imag + 0.0)


@command("iso classify", _arg("--m", type=str, required=True, help='matrix "a,b;c,d"'),
         _arg("--rev", action="store_true"), _TOL)
def cmd_iso_classify(args, rep: Report) -> None:
    rep.command += f" --m {args.m}" + (" --rev" if args.rev else "")
    top, bottom = parse_matrix(args.m)
    g = isometries.Isometry(*top, *bottom, args.rev)
    if args.rev:
        rep.kv("reversing", True)
    else:
        rep.kv("class", isometries.classify(g, args.tol).value)
    # Preserving maps fix points; reversing ones fix a circle, a line or nothing.
    fps = isometries.fixed_points(g, args.tol)
    rep.kv("fixed_set", fps.kind)
    if fps.points:
        rep.kv("fixed_points", " ".join(str(_unsigned(p)) for p in fps.points))
    if fps.kind == "circle":
        rep.kv("center", _unsigned(fps.center))
        rep.kv("radius", fps.radius)
    elif fps.kind == "line":
        rep.kv("line_point", _unsigned(fps.line_point))
        rep.kv("line_direction", _unsigned(fps.line_direction))


@command("iso commute", _arg("--m1", type=str, required=True),
         _arg("--m2", type=str, required=True), _TOL)
def cmd_iso_commute(args, rep: Report) -> None:
    rep.command += f" --m1 {args.m1} --m2 {args.m2}"
    g1, g2 = (isometries.Isometry(*top, *bottom)
              for top, bottom in map(parse_matrix, (args.m1, args.m2)))
    com = isometries.commute(g1, g2, args.tol)
    rep.kv("commute", com)
    tag = isometries.commuting_criterion(g1, g2, args.tol)
    rep.kv("criterion", tag.value)
    rep.check("commute_iff_criterion", com == (tag is not isometries.CommutingCase.NONE))


@command("iso table",
         _OneOf((_arg("--preserving", action="store_true"),
                 _arg("--reversing", action="store_true")), required=True),
         _OneOf((_arg("--closed", dest="closed", action="store_true", default=True),
                 _arg("--cusped", dest="closed", action="store_false"))),
         _OneOf((_arg("--phi2-id", dest="phi2_id", action="store_true", default=False),
                 _arg("--phi2-nonid", dest="phi2_id", action="store_false"))))
def cmd_iso_table(args, rep: Report) -> None:
    preserving = not args.reversing
    rep.command += (f" --{'preserving' if preserving else 'reversing'}"
                    f" --{'closed' if args.closed else 'cusped'}"
                    f" --{'phi2-id' if args.phi2_id else 'phi2-nonid'}")
    types = isometries.fix_type_table(preserving, args.phi2_id, args.closed)
    rep.kv("fix_types", " ".join(sorted(t.value for t in types)))


def _pres(args, rep: Report) -> presentations.Presentation:
    """The input presentation, which every ``pres`` row reports first.

    ``pres from-scheme`` always reads its scheme file; the other rows read
    ``--scheme`` only when it is non-empty, else ``--gens``/``--relators``.
    """
    if args.scheme or "gens" not in args:
        complex = triangulation.glue(_read_scheme(args.scheme))
        p = presentations.presentation_from_complex(complex)
    else:
        relators = [word_from_str(tok, args.gens)
                    for tok in (args.relators or "").split(",") if tok.strip()]
        p = presentations.Presentation(args.gens, tuple(relators))
    rep.kv("presentation", str(p))
    return p


@command("pres from-scheme", _arg("scheme"))
def cmd_pres_from_scheme(args, rep: Report) -> None:
    p = _pres(args, rep)
    rep.kv("generators", p.generator_count)
    rep.kv("relators", len(p.relators))


@command("pres simplify", *_PRES_INPUT)
def cmd_pres_simplify(args, rep: Report) -> None:
    p = _pres(args, rep)
    simplified = presentations.tietze_simplify(p)
    rep.kv("simplified", str(simplified))
    rep.kv("generators", simplified.generator_count)
    rep.kv("relators", len(simplified.relators))


@command("pres h1rank", *_PRES_INPUT)
def cmd_pres_h1rank(args, rep: Report) -> None:
    p = _pres(args, rep)
    inv = presentations.abelianization(p)
    rep.kv("h1_rank", inv.rank)
    rep.kv("torsion", ",".join(map(str, inv.torsion)) or "none")


# The defaults of audit's single-case and sweep options; the parser's are
# None, so that an option given at its default value counts as given.
_AUDIT_CASE = {"g": 0, "m": 0, "l": 0, "orientable": True, "separating": False,
               "same_component": False}
_AUDIT_SWEEP = {"g_max": 10, "m_max": 5, "l_max": 5}


@command("audit", _arg("--g", type=int), _arg("--m", type=int), _arg("--l", type=int),
         _arg("--orientable", dest="orientable", action="store_const", const=True),
         _arg("--non-orientable", dest="orientable", action="store_const", const=False),
         _arg("--separating", action="store_const", const=True),
         _arg("--same-component", dest="same_component", action="store_const", const=True),
         _arg("--sweep", action="store_true"), _arg("--g-max", type=int),
         _arg("--m-max", type=int), _arg("--l-max", type=int))
def cmd_audit(args, rep: Report) -> None:
    for dest in _AUDIT_CASE if args.sweep else _AUDIT_SWEEP:
        value = getattr(args, dest)
        if value is not None:
            flag = "--non-orientable" if value is False else "--" + dest.replace("_", "-")
            args.usage_error(f"argument {flag}: not allowed "
                             f"{'with' if args.sweep else 'without'} argument --sweep")
    for dest, default in (_AUDIT_CASE | _AUDIT_SWEEP).items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if args.sweep:
        rep.command += (f" sweep --g-max {args.g_max} --m-max {args.m_max} "
                        f"--l-max {args.l_max}")
        total, all_strict = presentations.audit_sweep(args.g_max, args.m_max, args.l_max)
        rep.kv("cases", total)
        rep.check("all_final_inequalities_strict", all_strict)
        return
    case = presentations.AuditCase(
        genus=args.g, torus_pairs=args.m, single_circles=args.l,
        orientable=args.orientable, separating=args.separating,
        same_component=args.same_component)
    rep.command += (f" --g {args.g} --m {args.m} --l {args.l}"
                    f"{' --orientable' if args.orientable else ' --non-orientable'}"
                    f"{' --separating' if args.separating else ''}"
                    f"{' --same-component' if args.same_component else ''}")
    report = presentations.rank_audit(case)
    for line in report.lines():
        rep.text(line)
    rep.check("final_inequality_strict", report.strict,
              f"margin {report.margin}")


# -- parser and entry point ------------------------------------------------------


def _add_arguments(parser, specs) -> None:
    for spec in specs:
        if isinstance(spec, _OneOf):
            group = parser.add_mutually_exclusive_group(required=spec.required)
            _add_arguments(group, spec.specs)
        else:
            flags, kwargs = spec
            parser.add_argument(*flags, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every row of ``COMMANDS``, built once per process."""
    parser = argparse.ArgumentParser(prog="geodouble")
    parser.add_argument("--machine", action="store_true",
                        help="emit line-oriented key=value output")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (specs, handler) in COMMANDS.items():
        group, _, name = path.partition(" ")
        if not name:
            sub = top.add_parser(group, help=GROUP_HELP[group])
        else:
            if group not in groups:
                parent = top.add_parser(group, help=GROUP_HELP[group])
                groups[group] = parent.add_subparsers(dest=f"{group}_cmd", required=True)
            sub = groups[group].add_parser(name)
        _add_arguments(sub, specs)
        # A handler reports a usage error through its own parser's ``error``.
        sub.set_defaults(func=handler, path=path, usage_error=sub.error)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        rep = Report(args.path, args.machine)
        text = args.func(args, rep)
    except SystemExit as exc:  # a usage error, from the parser or a handler
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(rep.render() if text is None else text)
    return 1 if rep.failed else 0
