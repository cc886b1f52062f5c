"""Einstein-with-skew-torsion condition over the skew-torsion parameters.

For each (n, eps) the skew-torsion connections form an affine space through
the Levi-Civita map, with direction coordinates s (all n), (s1, s2) for
n = 3 and (s3, s4) for n = 2.  The Einstein condition cuts out a quadric:

    n > 3:  s^2 = ((n+1)/(n-1)) (eps+1)/eps
    n = 3:  eps s^2 + s1^2 + s2^2 = 2(eps+1)
    n = 2:  s^2 + s3^2 + s4^2 = 3(eps+1)/eps
    n = 1:  0 s^2 = eps + 1: solvable iff eps = -1, and then every s works.

This module renders those equations, classifies the solution variety
(reproducing the four-row table of regimes), and checks the Ricci-flat and
flatness loci.  On the skew family Sym(Ric) = Ric_LC - S(T)/4 (Agricola,
The Srni lectures on non-integrable geometries with torsion, 2006), so the
generic Einstein residual is exactly r(x) = m(x) @ M over the monomials
m(x) = (1, x_i x_j), even around the Levi-Civita offset (_residual_rows:
E(Ric_LC) and the S pairs).  The rows have rank one, so r(x) = v q(x) with
q a scalar quadric (generic_quadric, a guarded rank decision), and samples
are read off q's normal form.  Only those returned get the generic check,
through the full curvature (nomizu.einstein_defect), as does the Ricci-flat
check.  The curvature, exactly quadratic in x, is polarized (_polarize);
one singular-value floor of such rows (_floor) excludes flat connections,
and of _residual_rows gives the n = 1 minimum defect.

Every generic curvature evaluation here takes its family members as one
stack (_members, LinearSpace.elements of the named skew space): the flat
polarization points, the flat circle, the Ricci-flat samples of one eps,
and the solver's sample checks, a block at a time (einstein_defects).  Each
row keeps the bytes of a lone call (einstein_defect_at), whose skew_family
member goes through the same element map and the same defect pipeline.
The points are read by families' one rule: each has exactly
param_count(n) coordinates, and any other width is refused with
ValueError.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import families, nomizu
from .algebra import Metric
from .config import TOL_GAP, TOL_NUM, TOL_SOL
from .spaces import RankGapError, _guarded_rank, _torsion_difference

_log = logging.getLogger(__name__)


class VarietyClass(enum.Enum):
    EMPTY = "empty"
    ONE_POINT = "1 pt."
    TWO_POINTS = "2 pt."
    LINE = "line"
    ELLIPSOID = "ellipsoid"
    CONE = "cone"
    HYPERBOLOID_ONE_SHEET = "hyperboloid 1-sheet"
    HYPERBOLOID_TWO_SHEETS = "hyperboloid 2-sheets"


_PARAM_NAMES = {1: ("s",), 2: ("s", "s3", "s4"), 3: ("s", "s1", "s2")}
#: the one (n, eps) whose skew family holds flat connections, a circle
FLAT_CELL = (3, -1.0)


def param_names(n: int) -> tuple[str, ...]:
    return _PARAM_NAMES.get(n, ("s",))


def param_count(n: int) -> int:
    return len(param_names(n))


@dataclass(frozen=True)
class CanonicalEquation:
    """The defining quadric a*s^2 + b*(aux1^2 + aux2^2) = c.

    For n = 1 it is the zero form 0*s^2 = eps + 1 (a = b = 0, c = eps + 1):
    the whole s-line when eps = -1 and empty otherwise.
    """

    n: int
    eps: float
    a: float
    b: float
    c: float
    names: tuple[str, ...]

    def residual(self, params) -> float:
        # in floats, the sums and products np.sum and the array forms gave
        s, *aux = np.atleast_1d(np.asarray(params, dtype=float)).tolist()
        aux2 = 0.0
        for v in aux:
            aux2 += v * v
        return abs(self.a * s * s + self.b * aux2 - self.c)

    @property
    def lam(self) -> tuple[float, ...]:
        """(a, b, b)[:param_count(n)]: the equation is -c + sum_i lam_i u_i^2 = 0."""
        return (self.a, self.b, self.b)[:len(self.names)]


def einstein_equation(n: int, eps: float) -> CanonicalEquation:
    if n < 1 or eps == 0 or not np.isfinite(eps):
        raise ValueError("need n >= 1 and a finite eps != 0")
    names = param_names(n)
    if n == 1:
        # at eps = -1, -1.0 + 1.0 is +0.0
        return CanonicalEquation(n, eps, 0.0, 0.0, eps + 1.0, names)
    # at eps = -1, (eps + 1) / eps is 0 / -1 = -0.0; adding 0.0 makes it +0.0
    if n == 2:
        return CanonicalEquation(n, eps, 1.0, 1.0, 3.0 * (eps + 1.0) / eps + 0.0, names)
    if n == 3:
        return CanonicalEquation(n, eps, eps, 1.0, 2.0 * (eps + 1.0), names)
    return CanonicalEquation(
        n, eps, 1.0, 0.0, ((n + 1.0) / (n - 1.0)) * (eps + 1.0) / eps + 0.0, names
    )


def classify(n: int, eps: float) -> VarietyClass:
    """Variety type of the Einstein set: _quadric_class of the canonical
    equation, -c + sum_i lam_i u_i^2 = 0, for every n (S^3's zero form
    included)."""
    eq = einstein_equation(n, eps)
    return _quadric_class(eq.lam, -eq.c)


def _quadric_class(lam, c: float) -> VarietyClass:
    """Class of {c + sum_i lam_i u_i^2 = 0}, lam of length 1 or 3, on Python
    floats, by the inertia of lam and the sign of c (Sylvester, Phil. Mag. 4
    (1852) 138-142).  The zero form (S^3's lam = (0,)) gives the whole line
    at c = 0 and nothing otherwise.  A definite form gives one point at
    c = 0, none where c has lam's sign, else two points or an ellipsoid; an
    indefinite one the cone at c = 0, else a hyperboloid of two sheets where
    c and the lone-sign axis differ in sign, of one where they agree."""
    if not any(lam):
        return VarietyClass.LINE if c == 0 else VarietyClass.EMPTY
    positive = sum(v > 0 for v in lam)
    if positive in (0, len(lam)):
        if c == 0:
            return VarietyClass.ONE_POINT
        if (c > 0) == (positive > 0):
            return VarietyClass.EMPTY
        return VarietyClass.TWO_POINTS if len(lam) == 1 else VarietyClass.ELLIPSOID
    if c == 0:
        return VarietyClass.CONE
    two_sheets = (c > 0) != (positive == 1)  # positive == 1: the lone axis is positive
    return VarietyClass.HYPERBOLOID_TWO_SHEETS if two_sheets else VarietyClass.HYPERBOLOID_ONE_SHEET


def einstein_defect_at(n: int, eps: float, params) -> float:
    """Einstein defect of the skew family member with the given parameters,
    through the full generic curvature (nomizu.einstein_defect), with the
    bytes of einstein_defects' row.  The parameters are read as
    families.skew_family reads them."""
    return nomizu.einstein_defect(families.skew_family(n, eps, params), Metric(n, eps))


def einstein_defects(n: int, eps: float, points) -> np.ndarray:
    """Einstein defects of the skew family members at the rows of points,
    shape (p, param_count(n)): one stacked nomizu.einstein_defect call,
    each entry the bytes of einstein_defect_at.  ValueError where a row is
    not param_count(n) wide."""
    return nomizu.einstein_defect(_members(n, eps, points), Metric(n, eps))


def _members(n: int, eps: float, points) -> np.ndarray:
    """Coefficient stack (p, d, d, d) of the skew family members at the rows
    of points, shape (p, param_count(n)), each the bytes of
    families.skew_family, with its refusal of a row of any other width."""
    space = families.skew_direction_basis(n, eps)
    return space.elements(families._parameter_rows(n, points, space.dim))


def _polarize(f, k: int) -> np.ndarray:
    """Coefficient rows M of a map f quadratic in x in R^k, so that
    f(x) = m(x) @ M exactly (up to rounding), with m(x) the monomials
    (1, x_i, x_i x_j for i <= j) and the pairs (i, j) in _pairs order.

    The rows follow by polarization from f(0), f(+-e_i) and f(e_i + e_j):
    1 + 2k + k(k-1)/2 points, as many as there are monomials (3 for k = 1,
    10 for k = 3).  f maps the points as one (p, k) array to their values,
    one row each, in a single call.
    """
    E = np.eye(k)
    i, j = _pairs(k)
    pair = i != j
    F = f(np.concatenate([np.zeros((1, k)), E, -E, E[i[pair]] + E[j[pair]]]))
    c0, plus, minus = F[0], F[1:k + 1], F[k + 1:2 * k + 1]
    # as many rows as points: c0, the k linear rows, then the quadratic ones
    M = np.empty_like(F)
    M[0] = c0
    M[1:k + 1] = (plus - minus) / 2.0
    quad = M[k + 1:]
    quad[~pair] = (plus + minus) / 2.0 - c0
    quad[pair] = F[2 * k + 1:] - plus[i[pair]] - plus[j[pair]] + c0
    return M


def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i <= j < k in np.triu_indices(k) order, the layout of
    the quadratic monomials, built directly: np.triu_indices's own set-up
    costs several times as much at these small k."""
    r = np.arange(k)
    return np.nonzero(r[:, None] <= r)


def _floor(M: np.ndarray) -> tuple[int, float, float, float]:
    """A lower bound on |m(x) @ M| over all x, for rows M on any monomials
    m(x) whose first entry is the constant 1: _polarize's (1, x_i, x_i x_j)
    or _residual_rows' (1, x_i x_j).

    Returns (rank, sigma, gap, c): the guarded rank of M, its smallest kept
    singular value sigma, the gap sigma / (largest discarded) and c, the
    norm of the constant monomial e_0 projected on M's left null space N.
    Since m(x) has constant entry 1, dist(m(x), N) >= 1 - c |m(x)|, so
    |m(x) @ M| >= sigma (1 - c |m(x)|) for every x; where c is rounding,
    sigma is the bound.  M = R^T Q^T from a thin QR of M^T shares its left
    singular vectors with R^T, so only a p x p SVD runs and V never forms.
    """
    U, s, _ = np.linalg.svd(np.linalg.qr(M.T, mode="r").T)
    rank, gap = _guarded_rank(s)
    sigma = float(s[rank - 1]) if rank else 0.0
    return rank, sigma, gap, float(np.linalg.norm(U[0, rank:]))


def _residual_rows(n: int, eps: float) -> np.ndarray:
    """Rows M of the flattened generic Einstein residual, r(x) = m(x) @ M on
    the monomials m(x) = (1, x_i x_j for i <= j) in _pairs order.

    The family is nabla^g + T(x)/2, T(x) = sum_a x_a T_a with T_a = D_a - D_a^t
    the torsion of the direction D_a, and Sym(Ric) = Ric_LC - S(T(x))/4: r
    has no linear row.  The constant row is E(Ric_LC), one einstein_residual
    call on the offset; the x_i x_j row is -E(S_ij + S_ji)/4 (-E(S_ii)/4 for
    i = j), S_ab from nomizu._s_pairs and E = Sym - (s / dim) g.
    """
    space = families.skew_direction_basis(n, eps)
    g = Metric(n, eps)
    i, j = _pairs(space.dim)
    pair = i != j
    # a subnormal eps overflows the residual; generic_quadric refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        S = nomizu._s_pairs(_torsion_difference(space.maps), g)
        Q = S[i, j]
        Q[pair] += S[j[pair], i[pair]]
        M = np.empty((1 + len(i), g.dim * g.dim))
        M[0] = nomizu.einstein_residual(space.offset, g).ravel()
        M[1:] = -0.25 * nomizu._einstein_form(Q, g)[0].reshape(len(i), -1)
    return M


@dataclass(frozen=True)
class GenericQuadric:
    """The generic Einstein residual as r(x) = v q(x): v a unit vector and
    q(x) = c + x @ A @ x a scalar quadric (A symmetric), read off the generic
    calculus; gap is sigma1/sigma2 of the rank-one decision."""

    v: np.ndarray
    c: float
    A: np.ndarray
    gap: float


def generic_quadric(n: int, eps: float) -> GenericQuadric:
    """The scalar quadric q with r(x) = v q(x), for n >= 2.

    The rows M of _residual_rows have rank one, all multiples of one vector
    v; their projections on v, the top right-singular vector of M, are q's
    coefficients, each x_i x_j row (i < j) halved over A[i, j] and A[j, i].
    The rank is a guarded decision: RankGapError unless it is one with a
    clear gap, or where M is not finite (a subnormal eps overflows it).
    """
    M = _residual_rows(n, eps)
    if not np.isfinite(M).all():
        raise RankGapError("generic Einstein residual is not finite")
    _, sv, vt = np.linalg.svd(M, full_matrices=False)
    rank, gap = _guarded_rank(sv)
    if rank != 1:
        raise RankGapError(f"generic Einstein residual has rank {rank}, not one")
    v = vt[0]
    k = param_count(n)
    i, j = _pairs(k)
    A = np.empty((k, k))
    A[i, j] = A[j, i] = M[1:] @ v / np.where(i == j, 1.0, 2.0)
    return GenericQuadric(v, float(M[0] @ v), A, gap)


#: seeded draws per requested sample on a positive-dimensional cell
_DRAWS = 64
#: |c'| <= _CONST_TOL max|lam| is rounding (|c'| read up to 4 ulps of max|lam|
#: one ulp either side of eps = -1, n = 2..6)
_CONST_TOL = 16 * np.finfo(float).eps


def _dot(a, b) -> float:
    """sum_i a_i b_i in Python floats, added in index order from 0.0.  Not
    sum(): from Python 3.12 it compensates float sums, and so rounds
    otherwise than 3.10 and 3.11."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def solve_numeric(n: int, eps: float, count: int = 8, seed: int = 0) -> list[tuple[float, ...]]:
    """Up to `count` parameter tuples with Einstein defect <= TOL_SOL, in
    sorted order, from the normal form of q (generic_quadric): q is even
    around the Levi-Civita offset x = 0, so with eigh(A) = P diag(lam) P^T
    (A is nonsingular as eps != 0) and c' = q.c, q(P u) = c' + sum_i lam_i
    u_i^2, and a sample is x = P u.

    q is classed by classify's rule, _quadric_class, and must be of the
    paper's class.  Where c' is rounding (|c'| <= _CONST_TOL max|lam|, a few
    ulps from eps = -1) both are classed at c' = 0: a 2-pt. cell or ellipsoid
    gives the origin alone, a hyperboloid the cone's draws, an empty cell
    nothing.  A 1-pt. class is 0, a 2-pt. class -+ P sqrt(-c'/lam); elsewhere
    u runs over up to _DRAWS * count draws z in parameter coordinates, u =
    P^T z, each z param_count(n) normals from random.Random(seed).gauss, so
    neither eigh's frame of a repeated eigenvalue nor the sign of q moves a
    sample.  On the cone each is solved for the axis whose eigenvalue sign
    no other shares, otherwise unit directions are scaled by
    sqrt(-c'/(u diag(lam) u)) where it is real.

    The candidates are drawn and mapped one at a time, in Python floats, as
    the checks reach them, so no draw is made past the last candidate
    examined and a candidate's bytes do not depend on those beside it.  The
    generic check goes in blocks, each the next count - (samples kept) real
    candidates in one einstein_defects call, so exactly the candidates a
    one-by-one check would reach are checked; on a positive-dimensional cell
    one that fails gives way to the next draw.  RuntimeError where q's class
    is not the paper's (naming both), an isolated point fails, or a
    non-empty cell yields no sample; RankGapError from generic_quadric.

    One DEBUG record per call on the bergerconn.einstein logger, also as its
    `solve` attribute, carries the rank-one gap and its margin to TOL_GAP,
    lam, c' (0 where taken as 0), the candidates examined (draws), the
    generic checks, the wall time of generic_quadric (model_s) and that of
    the checks (checks_s) (all but the checks and checks_s None where n = 1
    has no quadric).  ValueError, before any computation, where count < 0
    or seed is not a non-negative int (random.Random would take -5 as 5, and
    a float or None as a seed of its own).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    kind = classify(n, eps)
    if n == 1:
        # the whole s-line solves the condition at eps = -1
        line = kind is VarietyClass.LINE
        out = [(s,) for s in np.linspace(-2.0, 2.0, count).tolist()] if line else []
        t0 = time.perf_counter()
        if out and (einstein_defects(1, eps, out) > TOL_SOL).any():
            raise RuntimeError("line solution fails the defect check")
        _log_solve(n, eps, checks=len(out), checks_s=time.perf_counter() - t0)
        return out

    t0 = time.perf_counter()
    q = generic_quadric(n, eps)
    model_s = time.perf_counter() - t0
    lam, P = np.linalg.eigh(q.A)
    const, expected = q.c, kind
    if abs(const) <= _CONST_TOL * np.abs(lam).max():
        const, expected = 0.0, _quadric_class(einstein_equation(n, eps).lam, 0.0)
    shape = _quadric_class(lam.tolist(), const)
    if shape is not expected:
        raise RuntimeError(f"{expected.value} predicted, but the generic quadric is {shape.value}")
    isolated = shape in (VarietyClass.ONE_POINT, VarietyClass.TWO_POINTS)
    L, F = lam.tolist(), P.tolist()
    if kind is VarietyClass.EMPTY:
        frames = []
    elif isolated:
        frames = [[0.0] * len(L)] if shape is VarietyClass.ONE_POINT else [[-1.0], [1.0]]
    else:
        gauss = random.Random(seed).gauss
        normals = ([gauss(0.0, 1.0) for _ in range(len(L))] for _ in range(_DRAWS * count))
        frames = ([_dot(z, column) for column in zip(*F)] for z in normals)  # u = P^T z
    if shape is VarietyClass.CONE:
        # the axis whose eigenvalue sign no other shares
        negative = [v < 0 for v in L]
        lone = negative.index(negative.count(True) == 1)

    def place(u):
        """x = P u on q = 0 from the frame coordinates u, or None where the
        candidate is not real."""
        if shape is VarietyClass.CONE:
            rest = _dot([v * v for v in u[:lone] + u[lone + 1:]], L[:lone] + L[lone + 1:])
            u[lone] = math.copysign(math.sqrt(-rest / L[lone]), u[lone])
        elif shape is not VarietyClass.ONE_POINT:
            norm = math.sqrt(_dot(u, u))
            u = [v / norm for v in u]
            t = -const / _dot([v * v for v in u], L)
            if not t > 0:
                return None
            root = math.sqrt(t)
            u = [v * root for v in u]
        return tuple(_dot(row, u) for row in F)

    candidates = map(place, frames)
    keep, checks, draws, checks_s = [], 0, 0, 0.0
    while len(keep) < count:
        # a block: the next count - len(keep) real candidates, and the
        # unreal ones among them, checked in one stacked call
        need, block, live = count - len(keep), [], []
        for x in candidates:
            block.append(x)
            if x is not None:
                live.append(x)
                if len(live) == need:
                    break
        if not block:
            break
        t0 = time.perf_counter()
        passed = iter((einstein_defects(n, eps, live) <= TOL_SOL).tolist())
        checks_s += time.perf_counter() - t0
        for x in block:
            if x is not None and next(passed):
                keep.append(x)
            elif isolated:
                raise RuntimeError(f"{kind.value} predicted, but {x} fails")
        checks += len(live)
        draws += len(block)
    _log_solve(n, eps, checks, q.gap, q.gap / TOL_GAP, tuple(L), const, draws,
               model_s, checks_s)
    if not keep and count > 0 and kind is not VarietyClass.EMPTY:
        raise RuntimeError(f"classification predicts {kind.value} but no numeric solution found")
    return sorted(keep)


def _log_solve(n: int, eps: float, checks: int, gap=None, margin=None, eigenvalues=None,
               centred_constant=None, draws=None, model_s=None, checks_s=None) -> None:
    record = dict(n=n, eps=eps, gap=gap, tol_gap=TOL_GAP, margin=margin, eigenvalues=eigenvalues,
                  centred_constant=centred_constant, draws=draws, checks=checks,
                  model_s=model_s, checks_s=checks_s)
    _log.debug("solve_numeric n=%d eps=%r: %s", n, eps, record, extra={"solve": record})


@dataclass(frozen=True)
class EinsteinVariety:
    """Classification outcome for one (n, eps), with confirmed samples."""

    n: int
    eps: float
    kind: VarietyClass
    equation: CanonicalEquation
    sample_points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for x in self.sample_points:
            if self.equation.residual(x) > 10 * TOL_SOL:
                raise ValueError(f"sample {x} violates the canonical equation")


def variety(n: int, eps: float, count: int = 4, seed: int = 0) -> EinsteinVariety:
    """The class, canonical equation and up to count samples of the cell
    (n, eps), the samples from solve_numeric at every cell: each n >= 2
    cell, an empty one included, has its generic quadric classed against
    the paper's class.  ValueError, before any computation, where
    count < 0 or seed is not a non-negative int (solve_numeric's first
    checks)."""
    samples = tuple(solve_numeric(n, eps, count=count, seed=seed))
    return EinsteinVariety(n, eps, classify(n, eps), einstein_equation(n, eps), samples)


def scalar_curvature_formula(n: int, eps: float, params) -> float:
    """Closed-form scalar curvature of an Einstein solution.

    2n(2n+1) eps (s^2 - 1) for n != 2 and 20 eps (s^2+s3^2+s4^2-1) for
    n = 2; valid on the solution variety.
    """
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if n == 2:
        return 20.0 * eps * (float(np.sum(params**2)) - 1.0)
    return 2 * n * (2 * n + 1) * eps * (params[0] ** 2 - 1.0)


@dataclass(frozen=True)
class RicciFlatLocus:
    """Ricci-flat Einstein solutions: locus description plus verified samples."""

    n: int
    description: str
    samples: tuple[tuple[float, tuple[float, ...]], ...]  # (eps, params)
    ricci_norms: tuple[float, ...]


def ricci_flat_exists(n: int, eps: float) -> bool:
    """Whether eps holds the Ricci-flat connections of ricci_flat_locus(n)."""
    if n == 3:
        return eps != 0 and eps >= -2.0
    return eps == {1: -1.0, 2: -1.5}.get(n, -(n + 1.0) / 2.0)


def ricci_flat_locus(n: int) -> RicciFlatLocus:
    """The Ricci-flat Einstein-with-skew-torsion connections for each n.

    Emitted samples have vanishing full Ricci tensor.  For n = 2 the locus
    is the unit sphere in (s, s3, s4) at eps = -3/2; only the poles
    (s, s3, s4) = (+-1, 0, 0) have fully zero Ricci (elsewhere an
    antisymmetric Ricci part of size 6*sqrt(s3^2+s4^2) remains while the
    symmetric part and the scalar vanish), so the samples are the poles.
    The samples of one eps are checked in one stacked curvature call.
    """
    if n == 1:
        desc = "eps = -1, s = +-1"
        samples = [(-1.0, (1.0,)), (-1.0, (-1.0,))]
    elif n == 2:
        desc = "eps = -3/2, s^2 + s3^2 + s4^2 = 1"
        samples = [(-1.5, (1.0, 0.0, 0.0)), (-1.5, (-1.0, 0.0, 0.0))]
    elif n == 3:
        desc = "any eps >= -2 (eps != 0), s = +-1, s1^2 + s2^2 = eps + 2"
        samples = []
        for eps in (-2.0, -1.0, -0.5, 1.0, 2.0):
            r = np.sqrt(eps + 2.0)
            samples.append((eps, (1.0, r, 0.0)))
            samples.append((eps, (-1.0, 0.0, r)))
    else:
        eps = -(n + 1.0) / 2.0
        desc = f"eps = -(n+1)/2 = {eps}, s = +-1"
        samples = [(eps, (1.0,)), (eps, (-1.0,))]

    norms = []
    for eps, group in itertools.groupby(samples, key=lambda sample: sample[0]):
        group = [params for _, params in group]
        Ric = nomizu.ricci(nomizu.curvature(_members(n, eps, group)), Metric(n, eps))
        for params, r in zip(group, Ric):
            norm = float(np.linalg.norm(r))
            if norm > TOL_SOL:
                raise RuntimeError(f"sample {(eps, params)} is not Ricci-flat: {norm:.2e}")
            norms.append(norm)
    return RicciFlatLocus(n, desc, tuple(samples), tuple(norms))


@dataclass(frozen=True)
class FlatnessReport:
    """Existence of flat skew-torsion connections, or their exclusion.

    Off the flat circle, min_norm_on_grid holds sigma, a certified lower
    bound of |R(x)| over every parameter x, not a grid minimum
    (flat_connection_check); 0.0 on the circle.
    """

    n: int
    eps: float
    flat_exists: bool
    flat_samples: tuple[tuple[float, ...], ...]
    max_norm_on_flat_set: float
    min_norm_on_grid: float


def flat_connection_check(n: int, eps: float) -> FlatnessReport:
    """Flat connections in the skew-torsion family, or a floor excluding them.

    Only n = 3 with the round metric admits them: the circle s = 1,
    s1^2 + s2^2 = 1, checked by 17 generic curvature evaluations.  The
    curvature map is one stacked nomizu.curvature call on the family
    members at the rows of its points.

    Elsewhere the curvature R(x), exactly quadratic in the parameters, is
    polarized once (3 generic evaluations at k = 1, 10 at k = 3) into rows M
    with R(x) = m(x) @ M.  Where e_0 is orthogonal to M's left null space
    (c <= TOL_NUM in _floor), |R(x)| >= sigma for every x, and sigma is the
    reported min_norm_on_grid.  Otherwise flat points may exist and the
    call raises RuntimeError (RankGapError where the rank has no clear gap).

    One DEBUG record per call on the bergerconn.einstein logger, also as the
    record's `flatness` attribute, carries n, eps, the maps evaluated by the
    generic curvature (curvature_calls: 3, 10 or 17), and _floor's rank,
    sigma (as sigma_plus), gap, its margin gap / TOL_GAP and c (these five
    None on the circle).
    """
    if n not in (3, 4, 5, 6):
        raise ValueError("supported for n in {3, 4, 5, 6}")

    def curv(X):
        return nomizu.curvature(_members(n, eps, X)).reshape(len(X), -1)

    if (n, eps) == FLAT_CELL:
        angles = np.linspace(0.0, 2 * np.pi, 17)
        circle = tuple((1.0, float(np.cos(t)), float(np.sin(t))) for t in angles)
        worst = float(np.linalg.norm(curv(circle), axis=1).max())
        _log_flatness(n, eps, len(circle))
        if worst > TOL_SOL:
            raise RuntimeError(f"flat circle fails: max |R| = {worst:.2e}")
        return FlatnessReport(n, eps, True, circle, worst, 0.0)

    M = _polarize(curv, param_count(n))
    rank, sigma, gap, c = _floor(M)
    _log_flatness(n, eps, len(M), rank, sigma, gap, c)
    if c > TOL_NUM:
        raise RuntimeError(f"flat points may exist: constant monomial {c:.2e} in the null space")
    return FlatnessReport(n, eps, False, (), float("nan"), sigma)


def _log_flatness(n: int, eps: float, calls: int, rank=None, sigma=None, gap=None,
                  c=None) -> None:
    record = {
        "n": n, "eps": eps, "curvature_calls": calls, "rank": rank, "sigma_plus": sigma,
        "gap": gap, "margin": None if gap is None else gap / TOL_GAP, "c": c,
    }
    _log.debug("flat_connection_check n=%d eps=%r: %s", n, eps, record,
               extra={"flatness": record})


def min_defect_n1(eps: float) -> float:
    """Minimum Einstein defect over s in R for n = 1.

    The residual is exactly m(s) @ M with M = _residual_rows(1, eps) on the
    monomials (1, s^2), and _floor of M bounds its norm from below over
    every s; the bound is attained, since on S^3 the torsion is s vol,
    S = 2 s^2 g and the traceless Ricci does not depend on s (the s^2 row
    of M is rounding).  0.0 where the bound is not certified (c > TOL_NUM,
    as at eps = -1 where the residual vanishes).
    """
    _, sigma, _, c = _floor(_residual_rows(1, eps))
    return sigma if c <= TOL_NUM else 0.0
