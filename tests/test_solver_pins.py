"""Samples of solve_numeric, pinned as literals or to the normal form.

The 16 table cells, eps next to -1 at n = 4, and two Ricci-flat or
one-sheet cells, at seeds 0 and 1 with count = 4.  The literals were
recorded from the earlier Newton solvers and are reproduced exactly by the
normal-form sampler: the empty cells and the n = 1 line.  Every other cell
is pinned to its canonical equation instead, with the same sample count:
each sample is distinct, passes the generic check and lies on
einstein_equation; a 1-pt. sample is the exact centre, the origin, with
+0.0 entries, and a 2-pt. sample has |s| = sqrt(c/a) within 1e-12 relative.  Next
to eps = -1 the generic constant term carries an absolute rounding error of
about 1e-16 against c of 1e-6 or 1e-7, so there |s| is held to 1e-9 relative,
below the 2.5e-9 and 7.4e-8 of the 10-digit literals it replaces.
"""

import numpy as np
import pytest

from bergerconn.config import TOL_SOL
from bergerconn.einstein import (
    VarietyClass,
    classify,
    einstein_defect_at,
    einstein_equation,
    solve_numeric,
)

PINNED = {
    (1, -2.0, 0): [],
    (1, -2.0, 1): [],
    (1, -1.0, 0): [
        (-2.0,),
        (-0.6666666666666667,),
        (0.6666666666666665,),
        (2.0,),
    ],
    (1, -1.0, 1): [
        (-2.0,),
        (-0.6666666666666667,),
        (0.6666666666666665,),
        (2.0,),
    ],
    (4, -0.5, 0): [],
    (4, -0.5, 1): [],
    (2, -0.5, 0): [],
    (2, -0.5, 1): [],
    (1, -0.5, 0): [],
    (1, -0.5, 1): [],
    (1, 2.0, 0): [],
    (1, 2.0, 1): [],
    (4, -0.999999, 0): [],
    (4, -0.999999, 1): [],
}

# cells pinned to their canonical equation: (n, eps, seed) -> sample count
NORMAL_FORM = {
    (4, -2.0, 0): 2,
    (4, -2.0, 1): 2,
    (3, -2.0, 0): 4,
    (3, -2.0, 1): 4,
    (2, -2.0, 0): 4,
    (2, -2.0, 1): 4,
    (5, -1.0, 0): 1,
    (5, -1.0, 1): 1,
    (3, -1.0, 0): 4,
    (3, -1.0, 1): 4,
    (2, -1.0, 0): 1,
    (2, -1.0, 1): 1,
    (3, -0.5, 0): 4,
    (3, -0.5, 1): 4,
    (5, 1.0, 0): 2,
    (5, 1.0, 1): 2,
    (3, 2.0, 0): 4,
    (3, 2.0, 1): 4,
    (2, 0.5, 0): 4,
    (2, 0.5, 1): 4,
    (4, -1.000001, 0): 2,
    (4, -1.000001, 1): 2,
    (4, -1.0000001, 0): 2,
    (4, -1.0000001, 1): 2,
    (2, -1.5, 0): 4,
    (2, -1.5, 1): 4,
}

# |s| against sqrt(c/a) at 2 pt., relative; 1e-12 away from eps = -1
ROOT_RTOL = {-1.000001: 1e-9, -1.0000001: 1e-9}


@pytest.mark.parametrize("n,eps,seed", list(PINNED) + list(NORMAL_FORM))
def test_samples_match_pinned(n, eps, seed):
    sols = solve_numeric(n, eps, count=4, seed=seed)
    assert solve_numeric(n, eps, count=4, seed=seed) == sols
    if (n, eps, seed) in PINNED:
        assert sols == PINNED[(n, eps, seed)]
        return
    assert len(set(sols)) == len(sols) == NORMAL_FORM[(n, eps, seed)]
    eq = einstein_equation(n, eps)
    kind = classify(n, eps)
    for x in sols:
        assert einstein_defect_at(n, eps, x) <= TOL_SOL
        assert eq.residual(x) <= TOL_SOL
        if kind is VarietyClass.ONE_POINT:
            assert all(v == 0.0 and np.copysign(1.0, v) == 1.0 for v in x)
        if kind is VarietyClass.TWO_POINTS:
            root = np.sqrt(eq.c / eq.a)
            assert abs(abs(x[0]) - root) <= ROOT_RTOL.get(eps, 1e-12) * root
