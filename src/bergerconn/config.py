"""Numerical tolerances used throughout the package.

The environment variables BERGER_TOL_NUM and BERGER_TOL_SOL override the
defaults (1e-9 and 1e-8) of TOL_NUM and TOL_SOL, the derived-identity and
Einstein-solution tolerances.  They are read once, when this module is
first imported: set them before the process starts (or before the first
import of bergerconn); changing them afterwards has no effect.
"""

import os

#: structural invariants of constructed matrices (anti-Hermitian, traceless, ...)
TOL_EXACT = 1e-12

#: derived identities (oracle agreement, equivariance residuals, ...)
TOL_NUM = float(os.environ.get("BERGER_TOL_NUM", "1e-9"))

#: agreement of the generic Levi-Civita map with its closed form
TOL_LC = 1e-10

#: Einstein-defect and flatness zero tests
TOL_SOL = float(os.environ.get("BERGER_TOL_SOL", "1e-8"))

#: relative singular-value cutoff for numerical rank decisions
TOL_RANK = 1e-8

#: required ratio (smallest kept)/(largest discarded) singular value
TOL_GAP = 1e6
