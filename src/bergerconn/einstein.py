"""Einstein-with-skew-torsion condition over the skew-torsion parameters.

For each (n, eps) the skew-torsion connections form an affine space through
the Levi-Civita map, with direction coordinates s (all n), (s1, s2) for
n = 3 and (s3, s4) for n = 2.  The Einstein condition cuts out a quadric:

    n > 3:  s^2 = ((n+1)/(n-1)) (eps+1)/eps
    n = 3:  eps s^2 + s1^2 + s2^2 = 2(eps+1)
    n = 2:  s^2 + s3^2 + s4^2 = 3(eps+1)/eps
    n = 1:  solvable iff eps = -1, and then every s works.

This module renders those equations, classifies the solution variety
(reproducing the four-row table of regimes), and checks the Ricci-flat and
flatness loci.  Since the family is affine in its parameters, the generic
Einstein residual is an exact quadratic map r(x) = m(x) @ M over the
monomials m(x) = (1, x_i, x_i x_j); its rows M, read off the generic
calculus by polarization (_polarize, through _residual_rows), have rank
one, so r(x) = v q(x) with q a scalar quadric (generic_quadric, a guarded
rank decision).  The polarization evaluates its 1 + 2k + k(k-1)/2 points as
one stack: the residual is one call of nomizu.einstein_residual on the
stacked family members, a Ricci trace that never forms the full curvature.
Samples are read off q's normal form, and only those returned get the
generic check, which goes through the full curvature
(nomizu.einstein_defect), as does the Ricci-flat check.  The same helper
gives the curvature as an exact quadratic map; one singular-value floor of
such rows (_floor) excludes flat connections and gives the n = 1 minimum
defect.

Every generic evaluation here takes its family members as one stack
(_members, LinearSpace.elements of the named skew space): the polarization
points, the flat circle, the Ricci-flat samples of one eps, and the
solver's sample checks, a block at a time (einstein_defects).  Each row
keeps the bytes of a lone call (einstein_defect_at), whose skew_family
member goes through the same element map and the same defect pipeline.
The points are read by families' one rule: each has exactly
param_count(n) coordinates, and any other width is refused with
ValueError.
"""

from __future__ import annotations

import enum
import itertools
import logging
import time
from dataclasses import dataclass

import numpy as np

from . import families, nomizu
from .algebra import Metric
from .config import TOL_GAP, TOL_NUM, TOL_SOL
from .spaces import RankGapError, _guarded_rank

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


def param_names(n: int) -> tuple[str, ...]:
    return _PARAM_NAMES.get(n, ("s",))


def param_count(n: int) -> int:
    return len(param_names(n))


@dataclass(frozen=True)
class CanonicalEquation:
    """The defining quadric a*s^2 + b*(aux1^2 + aux2^2) = c.

    For n = 1 the set is not a quadric: it is the whole s-line when
    eps = -1 and empty otherwise (encoded by the `line` flag; a = b = c = 0).
    """

    n: int
    eps: float
    a: float
    b: float
    c: float
    names: tuple[str, ...]
    line: bool = False

    def residual(self, params) -> float:
        if self.n == 1:
            return 0.0 if self.line else abs(self.eps + 1.0)
        # in floats, the sums and products np.sum and the array forms gave
        s, *aux = np.atleast_1d(np.asarray(params, dtype=float)).tolist()
        aux2 = 0.0
        for v in aux:
            aux2 += v * v
        return abs(self.a * s * s + self.b * aux2 - self.c)


def einstein_equation(n: int, eps: float) -> CanonicalEquation:
    if n < 1 or eps == 0 or not np.isfinite(eps):
        raise ValueError("need n >= 1 and a finite eps != 0")
    names = param_names(n)
    if n == 1:
        return CanonicalEquation(n, eps, 0.0, 0.0, 0.0, names, line=(eps == -1.0))
    # at eps = -1, (eps + 1) / eps is 0 / -1 = -0.0; adding 0.0 makes it +0.0
    if n == 2:
        return CanonicalEquation(n, eps, 1.0, 1.0, 3.0 * (eps + 1.0) / eps + 0.0, names)
    if n == 3:
        return CanonicalEquation(n, eps, eps, 1.0, 2.0 * (eps + 1.0), names)
    return CanonicalEquation(
        n, eps, 1.0, 0.0, ((n + 1.0) / (n - 1.0)) * (eps + 1.0) / eps + 0.0, names
    )


def classify(n: int, eps: float) -> VarietyClass:
    """Variety type of the Einstein solution set in the skew parameters."""
    eq = einstein_equation(n, eps)
    if n == 1:
        return VarietyClass.LINE if eq.line else VarietyClass.EMPTY
    if n == 2:
        if eq.c > 0:
            return VarietyClass.ELLIPSOID
        return VarietyClass.ONE_POINT if eq.c == 0 else VarietyClass.EMPTY
    if n == 3:
        if eps > 0:
            return VarietyClass.ELLIPSOID
        if eq.c < 0:
            return VarietyClass.HYPERBOLOID_TWO_SHEETS
        return VarietyClass.CONE if eq.c == 0 else VarietyClass.HYPERBOLOID_ONE_SHEET
    if eq.c > 0:
        return VarietyClass.TWO_POINTS
    return VarietyClass.ONE_POINT if eq.c == 0 else VarietyClass.EMPTY


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
    """A lower bound on |m(x) @ M| over all x, for _polarize's rows M.

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
    """_polarize's rows M of the flattened generic Einstein residual, so that
    r(x) = m(x) @ M: the skew family is affine in its parameters x and the
    residual quadratic in the connection.  One call of
    nomizu.einstein_residual on the stack of the polarization's family
    members (10 at k = 3)."""
    g = Metric(n, eps)

    def residuals(X):
        return nomizu.einstein_residual(_members(n, eps, X), g).reshape(len(X), -1)

    # a subnormal eps overflows the residual; generic_quadric refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        return _polarize(residuals, param_count(n))


@dataclass(frozen=True)
class GenericQuadric:
    """The generic Einstein residual as r(x) = v q(x): v a unit vector and
    q(x) = c + l @ x + x @ A @ x a scalar quadric (A symmetric), read off the
    generic calculus; gap is sigma1/sigma2 of the rank-one decision."""

    v: np.ndarray
    c: float
    l: np.ndarray
    A: np.ndarray
    gap: float

    def __call__(self, X) -> np.ndarray:
        """q at each row of X."""
        X = np.asarray(X, dtype=float)
        XX = (X[:, :, None] * X[:, None, :]).reshape(len(X), self.A.size)
        return self.c + X @ self.l + XX @ self.A.ravel()


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
    A[i, j] = A[j, i] = M[k + 1:] @ v / np.where(i == j, 1.0, 2.0)
    return GenericQuadric(v, float(M[0] @ v), M[1:k + 1] @ v, A, gap)


#: seeded draws per requested sample on a positive-dimensional cell
_DRAWS = 64
#: |c'| <= _CONST_TOL max|lam| is rounding (c' was off by up to 3.1 ulps of
#: max|lam| next to eps = -1, n = 2..6)
_CONST_TOL = 16 * np.finfo(float).eps


def _require_count(count: int) -> None:
    """ValueError where a sample count is negative."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")


def solve_numeric(n: int, eps: float, count: int = 8, seed: int = 0) -> list[tuple[float, ...]]:
    """Up to `count` parameter tuples with Einstein defect <= TOL_SOL, in
    sorted order, from the normal form of q (generic_quadric): with
    eigh(A) = P diag(lam) P^T (A is nonsingular as eps != 0), centre
    x0 = -A^-1 l / 2 and c' = q(x0), q(x0 + P u) = c' + sum_i lam_i u_i^2.

    A 1-pt. cell is x0, a 2-pt. cell x0 -+ P sqrt(-c'/lam).  Elsewhere u runs
    over _DRAWS * count seeded draws z, made in parameter coordinates and
    mapped into the frame (u = P^T z), so neither the frame eigh picks for a
    repeated eigenvalue nor the sign of q moves a sample.  On the cone (c'
    taken as 0) each is solved for the axis whose eigenvalue sign no other
    shares, otherwise unit directions are scaled by
    sqrt(-c'/(u diag(lam) u)) where it is real.
    Where c' is rounding (_CONST_TOL, a few ulps from eps = -1) it is taken
    as 0: a 2-pt. cell or ellipsoid gives x0 alone, a hyperboloid the cone.
    The candidates get the generic check in blocks, each the next
    count - (samples kept) real candidates in one einstein_defects call, so
    exactly the candidates a one-by-one check would reach are checked; on
    a positive-dimensional cell one that fails gives way to the next draw.
    RuntimeError where an isolated point is not real or fails, the cone has
    no lone sign, or a non-empty cell yields no sample; RankGapError from
    generic_quadric.

    One DEBUG record per call on the bergerconn.einstein logger, also as its
    `solve` attribute, carries the rank-one gap and its margin to TOL_GAP,
    lam, x0, c' (0 where taken as 0), the candidates examined (draws), the
    generic checks, the wall time of generic_quadric (model_s) and that of
    the checks (checks_s) (all but the checks and checks_s None where n = 1
    has no quadric).  ValueError, before any computation, where count < 0.
    """
    _require_count(count)
    kind = classify(n, eps)
    if n == 1:
        # the whole s-line solves the condition at eps = -1
        line = kind is not VarietyClass.EMPTY
        out = [(s,) for s in np.linspace(-2.0, 2.0, count).tolist()] if line else []
        t0 = time.perf_counter()
        if (einstein_defects(1, eps, out) > TOL_SOL).any():
            raise RuntimeError("line solution fails the defect check")
        _log_solve(n, eps, checks=len(out), checks_s=time.perf_counter() - t0)
        return out

    t0 = time.perf_counter()
    q = generic_quadric(n, eps)
    model_s = time.perf_counter() - t0
    lam, P = np.linalg.eigh(q.A)
    centre = -0.5 * P @ (P.T @ q.l / lam)
    const = float(q.c + 0.5 * q.l @ centre)
    shape = kind
    if kind is VarietyClass.CONE or abs(const) <= _CONST_TOL * np.abs(lam).max():
        # c' is rounding: an indefinite cell is sampled as the cone, a definite one as x0
        const = 0.0
        if kind not in (VarietyClass.EMPTY, VarietyClass.CONE):
            shape = VarietyClass.CONE if lam.min() < 0 < lam.max() else VarietyClass.ONE_POINT
    isolated = shape in (VarietyClass.ONE_POINT, VarietyClass.TWO_POINTS)
    if isolated or shape is VarietyClass.EMPTY:
        U = {VarietyClass.ONE_POINT: np.zeros((1, len(lam))),
             VarietyClass.TWO_POINTS: np.array([[-1.0], [1.0]])}.get(shape, np.empty((0, len(lam))))
    else:
        U = np.random.default_rng(seed).standard_normal((_DRAWS * count, len(lam))) @ P
    if shape is VarietyClass.CONE:
        lone = lam < 0 if (lam < 0).sum() == 1 else lam > 0
        if lone.sum() != 1:
            raise RuntimeError(f"cone predicted, but the eigenvalues are {lam}")
        rest = U[:, ~lone] ** 2 @ lam[~lone]
        U[:, lone] = np.copysign(np.sqrt(-rest / lam[lone])[:, None], U[:, lone])
    elif shape is not VarietyClass.ONE_POINT:
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        t = -const / (U**2 @ lam)
        U *= np.sqrt(np.where(t > 0, t, np.nan))[:, None]
    X = centre + U @ P.T
    real = ~np.isnan(X).any(axis=1)
    keep, checks, draws, checks_s = [], 0, 0, 0.0
    while len(keep) < count and draws < len(X):
        # a block: the next count - len(keep) real candidates, and the
        # unreal ones among them, checked in one stacked call
        need = count - len(keep)
        block = slice(draws, draws + int(np.searchsorted(np.cumsum(real[draws:]), need)) + 1)
        live = real[block]
        t0 = time.perf_counter()
        passed = np.zeros(len(live), dtype=bool)
        passed[live] = einstein_defects(n, eps, X[block][live]) <= TOL_SOL
        checks_s += time.perf_counter() - t0
        for x, ok in zip(map(tuple, X[block].tolist()), passed):
            if ok:
                keep.append(x)
            elif isolated:
                raise RuntimeError(f"{kind.value} predicted, but {x} fails")
        checks += int(live.sum())
        draws += len(live)
    _log_solve(n, eps, checks, q.gap, q.gap / TOL_GAP, tuple(lam.tolist()),
               tuple(centre.tolist()), const, draws, model_s, checks_s)
    if not keep and count > 0 and kind is not VarietyClass.EMPTY:
        raise RuntimeError(f"classification predicts {kind.value} but no numeric solution found")
    return sorted(keep)


def _log_solve(n: int, eps: float, checks: int, gap=None, margin=None, eigenvalues=None,
               centre=None, centred_constant=None, draws=None, model_s=None,
               checks_s=None) -> None:
    record = dict(n=n, eps=eps, gap=gap, tol_gap=TOL_GAP, margin=margin, eigenvalues=eigenvalues,
                  centre=centre, centred_constant=centred_constant, draws=draws, checks=checks,
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
    (n, eps); ValueError, before any computation, where count < 0, also at
    an empty cell, which draws no sample."""
    _require_count(count)
    eq = einstein_equation(n, eps)
    kind = classify(n, eps)
    samples = () if kind is VarietyClass.EMPTY else tuple(
        solve_numeric(n, eps, count=count, seed=seed)
    )
    return EinsteinVariety(n, eps, kind, eq, samples)


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

    if n == 3 and eps == -1.0:
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

    The residual is exactly m(s) @ M with M = _residual_rows(1, eps), and
    _floor of M bounds its norm from below over every s; the bound is
    attained, since on S^3 the torsion is s vol, S = 2 s^2 g and the
    traceless Ricci does not depend on s (the s and s^2 rows of M are
    rounding).  0.0 where the bound is not certified (c > TOL_NUM, as at
    eps = -1 where the residual vanishes).
    """
    _, sigma, _, c = _floor(_residual_rows(1, eps))
    return sigma if c <= TOL_NUM else 0.0
