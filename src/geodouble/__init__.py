"""geodouble: exact combinatorial kernels for tetrahedron gluings, free-group
subgroup graphs, amalgamated doubles, isometry classification, and rank audits."""

from .construction import (
    FamilyReport,
    FamilyStats,
    InadmissibleFamilyError,
    family_scheme,
    family_stats,
    is_admissible,
    min_n_for_ratio,
    verify_family,
)
from .doubling import Double, DoubleWord, NormalForm, random_double_word
from .freegroups import (
    SubgroupGraph,
    Word,
    concat,
    free_reduce,
    inverse_word,
    stallings_graph,
    word_from_str,
    word_to_str,
)
from .isometries import (
    CommutingCase,
    ElementClass,
    FixType,
    Isometry,
    classify,
    commute,
    commuting_criterion,
    fix_type_table,
    fixed_points,
)
from .presentations import (
    AuditCase,
    Presentation,
    abelianization,
    audit_sweep,
    enumerate_audit_cases,
    presentation_from_complex,
    rank_audit,
    smith_normal_form,
    surface_rank,
    tietze_simplify,
)
from .triangulation import (
    BoundarySurfaceStats,
    FacePairing,
    FaceSlot,
    GluedComplex,
    GluingError,
    GluingScheme,
    SchemeError,
    boundary_surfaces,
    dihedral_report,
    glue,
    handle_structure,
    parse_scheme,
    render_scheme,
)

__version__ = "0.1.0"
