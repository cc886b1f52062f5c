"""Invariant metric connections with skew torsion on Berger spheres.

Computes the su(n)-equivariant connection spaces on S^{2n+1} =
SU(n+1)/SU(n), the closed-form connection families, their torsion /
curvature / Ricci tensors via the generic reductive-space calculus, and
the classification of Einstein-with-skew-torsion connections for any
deformation parameter eps of the Berger metric.

Importing the package loads none of its modules.  Each public name below,
and each submodule, is imported on its first access (PEP 562), so a
command loads only the layers it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "algebra": ("Metric",),
    "einstein": (
        "CanonicalEquation", "EinsteinVariety", "VarietyClass", "classify",
        "einstein_defect_at", "einstein_equation", "flat_connection_check",
        "ricci_flat_locus", "scalar_curvature_formula", "solve_numeric", "variety",
    ),
    "families": (
        "FamilyParams", "alpha_general", "alpha_lc", "closed_curvature", "closed_ricci",
        "closed_torsion", "skew_family",
    ),
    "nomizu": (
        "CurvTensor", "Rank2Tensor", "curvature", "einstein_defect", "ricci", "s_tensor",
        "sym", "torsion", "torsion_form",
    ),
    "spaces": (
        "Bilin", "LinearSpace", "RankGapError", "invariant_bilinear_space",
        "levi_civita_generic", "metric_connection_space", "skew_torsion_space",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("algebra", "cli", "config", "einstein", "families", "nomizu", "spaces")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
