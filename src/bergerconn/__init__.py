"""Invariant metric connections with skew torsion on Berger spheres.

Computes the su(n)-equivariant connection spaces on S^{2n+1} =
SU(n+1)/SU(n), the closed-form connection families, their torsion /
curvature / Ricci tensors via the generic reductive-space calculus, and
the classification of Einstein-with-skew-torsion connections for any
deformation parameter eps of the Berger metric.
"""

from .algebra import Metric
from .einstein import (
    CanonicalEquation,
    EinsteinVariety,
    VarietyClass,
    classify,
    einstein_defect_at,
    einstein_equation,
    flat_connection_check,
    ricci_flat_locus,
    scalar_curvature_formula,
    solve_numeric,
    variety,
)
from .families import (
    FamilyParams,
    alpha_general,
    alpha_lc,
    closed_curvature,
    closed_ricci,
    closed_torsion,
    skew_family,
)
from .nomizu import (
    CurvTensor,
    Rank2Tensor,
    curvature,
    einstein_defect,
    ricci,
    s_tensor,
    sym,
    torsion,
    torsion_form,
)
from .spaces import (
    Bilin,
    LinearSpace,
    RankGapError,
    invariant_bilinear_space,
    levi_civita_generic,
    metric_connection_space,
    skew_torsion_space,
)

__version__ = "0.1.0"
