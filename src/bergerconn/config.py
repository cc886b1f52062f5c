"""Numerical tolerances used throughout the package.

The environment variables BERGER_TOL_NUM and BERGER_TOL_SOL override the
defaults (1e-9 and 1e-8) of TOL_NUM and TOL_SOL, the derived-identity and
Einstein-solution tolerances.  They are read once, when this module is
first imported: set them before the process starts (or before the first
import of bergerconn); changing them afterwards has no effect.  A value
that is not a finite float > 0 is refused with a ValueError naming the
variable.
"""

import math
import os


def _positive_env(name: str, default: str) -> float:
    """The environment variable name (default if unset) as a finite float > 0."""
    raw = os.environ.get(name, default)
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name}={raw!r} is not a finite float > 0")
    return value


#: structural invariants of constructed matrices (anti-Hermitian, traceless, ...)
TOL_EXACT = 1e-12

#: derived identities (oracle agreement, equivariance residuals, ...)
TOL_NUM = _positive_env("BERGER_TOL_NUM", "1e-9")

#: agreement of the generic Levi-Civita map with its closed form
TOL_LC = 1e-10

#: Einstein-defect and flatness zero tests
TOL_SOL = _positive_env("BERGER_TOL_SOL", "1e-8")

#: relative singular-value cutoff for numerical rank decisions
TOL_RANK = 1e-8

#: required ratio (smallest kept)/(largest discarded) singular value
TOL_GAP = 1e6
