"""Numerical tolerances used throughout the package.

They are fixed constants: no environment variable, option or keyword
argument changes them, so every zero test (the dimension counts, the
variety table, the flat and Ricci-flat loci) is made against the same
thresholds.  Functions read them when they are called.
"""

#: structural invariants of constructed matrices (anti-Hermitian, traceless, ...)
TOL_EXACT = 1e-12

#: derived identities (oracle agreement, equivariance residuals, ...)
TOL_NUM = 1e-9

#: agreement of the generic Levi-Civita map with its closed form
TOL_LC = 1e-10

#: Einstein-defect and flatness zero tests
TOL_SOL = 1e-8

#: relative singular-value cutoff for numerical rank decisions
TOL_RANK = 1e-8

#: required ratio (smallest kept)/(largest discarded) singular value
TOL_GAP = 1e6
