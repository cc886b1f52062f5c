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
Einstein residual is an exact quadratic map r(x) = c0 + L x + Q(x, x); its
coefficients, read off the generic calculus by polarization, have rank one,
so r(x) = v q(x) with q a scalar quadric (generic_quadric, a guarded rank
decision).  Samples are read off q's normal form, and only those returned
get the generic check; the n = 1 defect gets its exact minimum.  The same
polarization helper (_polarize) gives the curvature as an exact quadratic
map, through which the flatness grid is ranked.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from . import families, nomizu
from .algebra import Metric
from .config import TOL_GAP, TOL_SOL
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
        params = np.atleast_1d(np.asarray(params, dtype=float))
        s = params[0]
        aux2 = float(np.sum(params[1:] ** 2))
        return abs(self.a * s * s + self.b * aux2 - self.c)


def einstein_equation(n: int, eps: float) -> CanonicalEquation:
    if n < 1 or eps == 0 or not np.isfinite(eps):
        raise ValueError("need n >= 1 and a finite eps != 0")
    names = param_names(n)
    if n == 1:
        return CanonicalEquation(n, eps, 0.0, 0.0, 0.0, names, line=(eps == -1.0))
    if n == 2:
        return CanonicalEquation(n, eps, 1.0, 1.0, 3.0 * (eps + 1.0) / eps, names)
    if n == 3:
        return CanonicalEquation(n, eps, eps, 1.0, 2.0 * (eps + 1.0), names)
    return CanonicalEquation(
        n, eps, 1.0, 0.0, ((n + 1.0) / (n - 1.0)) * (eps + 1.0) / eps, names
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


#: the skew family member at variety coordinates x: the named affine space's
#: element, so one tabulation per (n, eps) serves every call
_family_member = families.skew_family


def einstein_defect_at(n: int, eps: float, params) -> float:
    """Einstein defect of the skew family member with the given parameters."""
    return nomizu.einstein_defect(_family_member(n, eps, params), Metric(n, eps))


def _monomials(X) -> np.ndarray:
    """The monomials (1, x_i, x_i x_j for i <= j) of each row of X, shape
    (N, 1 + k + k(k+1)/2); the pairs (i, j) run in np.triu_indices order."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    i, j = np.triu_indices(X.shape[1])
    return np.hstack([np.ones((len(X), 1)), X, X[:, i] * X[:, j]])


def _polarize(f, k: int) -> np.ndarray:
    """Coefficient rows M of a map f quadratic in x in R^k, so that
    f(x) = _monomials(x) @ M exactly (up to rounding).

    The rows follow by polarization from f(0), f(+-e_i) and f(e_i + e_j):
    1 + 2k + k(k-1)/2 evaluations, as many as there are monomials (3 for
    k = 1, 10 for k = 3).
    """
    E = np.eye(k)
    c0 = f(np.zeros(k))
    plus = np.array([f(e) for e in E])
    minus = np.array([f(-e) for e in E])
    square = (plus + minus) / 2.0 - c0
    quad = [square[i] if i == j else f(E[i] + E[j]) - plus[i] - plus[j] + c0
            for i, j in zip(*np.triu_indices(k))]
    return np.vstack([c0, (plus - minus) / 2.0, quad])


def _residual_quadratic(n: int, eps: float):
    """Coefficients (c0, L, Q) of the flattened generic Einstein residual.

    The skew family is affine in its parameters x and the residual is
    quadratic in the connection, so r(x) = c0 + x @ L + Q(x, x) exactly, with
    Q(x, x) = einsum("i,j,ijm->m", x, x, Q) and Q symmetric in (i, j): the
    rows of _polarize, each x_i x_j coefficient (i < j) split in half over
    Q[i, j] and Q[j, i].  At most 10 evaluations of nomizu.einstein_residual
    for k <= 3.
    """
    g = Metric(n, eps)
    k = param_count(n)
    # a subnormal eps overflows the residual; generic_quadric refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        M = _polarize(lambda x: nomizu.einstein_residual(_family_member(n, eps, x), g).ravel(), k)
    i, j = np.triu_indices(k)
    Q = np.empty((k, k, M.shape[1]))
    Q[i, j] = Q[j, i] = M[k + 1:] / np.where(i == j, 1.0, 2.0)[:, None]
    return M[0], M[1:k + 1], Q


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

    The stacked coefficients (c0, L, Q) of _residual_quadratic have rank
    one, all multiples of one vector v; their projections on v, the top
    right-singular vector of the stack, are q's coefficients.  The rank is
    a guarded decision: RankGapError unless it is one with a clear gap, or
    where the stack is not finite (a subnormal eps overflows it).
    """
    c0, L, Q = _residual_quadratic(n, eps)
    k = len(L)
    stack = np.vstack([c0, L, Q.reshape(k * k, -1)])
    if not np.all(np.isfinite(stack)):
        raise RankGapError("generic Einstein residual is not finite")
    _, sv, vt = np.linalg.svd(stack, full_matrices=False)
    rank = _guarded_rank(sv)
    if rank != 1:
        raise RankGapError(f"generic Einstein residual has rank {rank}, not one")
    v = vt[0]
    gap = sv[0] / sv[1] if sv[1] > 0 else np.inf
    return GenericQuadric(v, float(c0 @ v), L @ v, Q @ v, float(gap))


#: seeded draws per requested sample on a positive-dimensional cell
_DRAWS = 64
#: |c'| <= _CONST_TOL max|lam| is rounding (c' was off by up to 3.1 ulps of
#: max|lam| next to eps = -1, n = 2..6)
_CONST_TOL = 16 * np.finfo(float).eps


def solve_numeric(n: int, eps: float, count: int = 8, seed: int = 0) -> list[tuple[float, ...]]:
    """Up to `count` parameter tuples with Einstein defect <= TOL_SOL, in
    sorted order, from the normal form of q (generic_quadric): with
    eigh(A) = P diag(lam) P^T (A is nonsingular as eps != 0), centre
    x0 = -A^-1 l / 2 and c' = q(x0), q(x0 + P u) = c' + sum_i lam_i u_i^2.

    A 1-pt. cell is x0, a 2-pt. cell x0 -+ P sqrt(-c'/lam).  Elsewhere u runs
    over _DRAWS * count seeded draws: on the cone (c' taken as 0) each is
    solved for the axis whose eigenvalue sign no other shares, otherwise
    unit directions are scaled by sqrt(-c'/(u diag(lam) u)) where it is real.
    Where c' is rounding (_CONST_TOL, a few ulps from eps = -1) it is taken
    as 0: a 2-pt. cell or ellipsoid gives x0 alone, a hyperboloid the cone.
    Each sample gets the generic check in turn; on a positive-dimensional
    cell one that fails gives way to the next draw.  RuntimeError where an
    isolated point is not real or fails, the cone has no lone sign, or a
    non-empty cell yields no sample; RankGapError from generic_quadric.

    One DEBUG record per call on the bergerconn.einstein logger, also as its
    `solve` attribute, carries the rank-one gap and its margin to TOL_GAP,
    lam, x0, c' (0 where taken as 0), the candidates examined (draws) and
    the generic checks (None where n = 1 has no quadric).
    """
    kind = classify(n, eps)
    if n == 1:
        # the whole s-line solves the condition at eps = -1
        line = kind is not VarietyClass.EMPTY
        out = [(s,) for s in np.linspace(-2.0, 2.0, count).tolist()] if line else []
        if any(einstein_defect_at(1, eps, x) > TOL_SOL for x in out):
            raise RuntimeError("line solution fails the defect check")
        _log_solve(n, eps, checks=len(out))
        return out

    q = generic_quadric(n, eps)
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
        U = np.random.default_rng(seed).standard_normal((_DRAWS * count, len(lam)))
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
    keep, checks, draws = [], 0, 0
    for x in map(tuple, (centre + U @ P.T).tolist()):
        if len(keep) >= count:
            break
        draws += 1
        real = not np.isnan(x).any()
        checks += real
        if real and einstein_defect_at(n, eps, x) <= TOL_SOL:
            keep.append(x)
        elif isolated:
            raise RuntimeError(f"{kind.value} predicted, but {x} fails")
    _log_solve(n, eps, checks, q.gap, q.gap / TOL_GAP, tuple(lam.tolist()),
               tuple(centre.tolist()), const, draws)
    if not keep and count > 0 and kind is not VarietyClass.EMPTY:
        raise RuntimeError(f"classification predicts {kind.value} but no numeric solution found")
    return sorted(keep)


def _log_solve(n: int, eps: float, checks: int, gap=None, margin=None, eigenvalues=None,
               centre=None, centred_constant=None, draws=None) -> None:
    record = dict(n=n, eps=eps, gap=gap, tol_gap=TOL_GAP, margin=margin, eigenvalues=eigenvalues,
                  centre=centre, centred_constant=centred_constant, draws=draws, checks=checks)
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
    for eps, params in samples:
        alpha = _family_member(n, eps, params)
        Ric = nomizu.ricci(nomizu.curvature(alpha), Metric(n, eps))
        norm = float(np.linalg.norm(Ric.coeffs))
        if norm > TOL_SOL:
            raise RuntimeError(f"sample {(eps, params)} is not Ricci-flat: {norm:.2e}")
        norms.append(norm)
    return RicciFlatLocus(n, desc, tuple(samples), tuple(norms))


@dataclass(frozen=True)
class FlatnessReport:
    """Existence (or exclusion margin) of flat skew-torsion connections."""

    n: int
    eps: float
    flat_exists: bool
    flat_samples: tuple[tuple[float, ...], ...]
    max_norm_on_flat_set: float
    min_norm_on_grid: float


def flat_connection_check(n: int, eps: float) -> FlatnessReport:
    """Search for flat connections in the skew-torsion family.

    Only n = 3 with the round metric admits them: the circle s = 1,
    s1^2 + s2^2 = 1, checked by 17 generic curvature evaluations.  Otherwise
    the minimum curvature norm over a parameter grid (121 points on [-3, 3],
    13 x 9 x 9 on [-3, 3]^3 at n = 3) is reported as an exclusion margin.

    The curvature R(x) is exactly quadratic in the parameters, so it is
    polarized once (3 generic evaluations at k = 1, 10 at k = 3) into rows M
    with R(x) = m(x) @ M, m = _monomials.  The grid is ranked by the Gram
    form |R(x)|^2 = m(x) (M M^T) m(x), and the generic curvature norm at its
    argmin is the reported minimum.  With rho = |M|_2 |m(x)| / |R(x)| >= 1
    and u = 2^-53, the model norm differs from the generic one by at most
    about 4 u (rho + rho^2) relative: rho^2 from cancellation in the Gram
    form, rho from the rounding of M and of the generic evaluation.  Away
    from the flat circle the grid norms are large (|R(x)| >= 10 with
    |M|_2 |m(x)| <= 2e3 at the table's eps, so rho <= 200 and the difference
    stays below 2e-11), and near it the generic value at the argmin decides
    the near-flat refusal.

    One DEBUG record per call on the bergerconn.einstein logger carries n,
    eps, the grid size, the generic curvature calls, the model's minimum and
    its argmin, the generic norm there and their relative difference, also as
    the record's `flatness` attribute (None for the model fields on the
    circle, whose grid is its 17 points).
    """
    if n not in (3, 4, 5, 6):
        raise ValueError("supported for n in {3, 4, 5, 6}")

    def curv(params):
        return nomizu.curvature(_family_member(n, eps, params)).coeffs.ravel()

    def curv_norm(params):
        return float(np.linalg.norm(curv(params)))

    if n == 3 and eps == -1.0:
        angles = np.linspace(0.0, 2 * np.pi, 17)
        circle = tuple((1.0, float(np.cos(t)), float(np.sin(t))) for t in angles)
        worst = max(curv_norm(x) for x in circle)
        _log_flatness(n, eps, len(circle), len(circle))
        if worst > TOL_SOL:
            raise RuntimeError(f"flat circle fails: max |R| = {worst:.2e}")
        return FlatnessReport(n, eps, True, circle, worst, 0.0)

    if n == 3:
        axes = (np.linspace(-3, 3, 13), np.linspace(-3, 3, 9), np.linspace(-3, 3, 9))
    else:
        axes = (np.linspace(-3, 3, 121),)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    M = _polarize(curv, len(axes))
    m = _monomials(grid)
    model = np.sqrt(np.maximum(np.einsum("ip,pq,iq->i", m, M @ M.T, m), 0.0))
    best = int(np.argmin(model))
    argmin = tuple(float(v) for v in grid[best])
    lowest = curv_norm(argmin)
    _log_flatness(n, eps, len(grid), len(M) + 1, float(model[best]), argmin, lowest)
    if lowest <= 1e-3:
        raise RuntimeError(f"unexpected near-flat point: min |R| = {lowest:.2e}")
    return FlatnessReport(n, eps, False, (), float("nan"), lowest)


def _log_flatness(n: int, eps: float, grid: int, calls: int, model_min=None, argmin=None,
                  generic_min=None) -> None:
    rel_diff = None if not generic_min else abs(model_min - generic_min) / generic_min
    record = {
        "n": n, "eps": eps, "grid": grid, "curvature_calls": calls, "model_min": model_min,
        "argmin": argmin, "generic_min": generic_min, "rel_diff": rel_diff,
    }
    _log.debug("flat_connection_check n=%d eps=%r: %s", n, eps, record,
               extra={"flatness": record})


def min_defect_n1(eps: float, lo: float = -10.0, hi: float = 10.0) -> float:
    """Minimum Einstein defect over s in [lo, hi] for n = 1.

    The residual is exactly c0 + s L + s^2 Q, so the squared defect is a
    quartic in s.  Its minimum over [lo, hi] lies at an endpoint or at a
    critical point; the generic defect is evaluated at that argmin.
    """
    c0, (l,), ((q,),) = _residual_quadratic(1, eps)
    quartic = [q @ q, 2 * l @ q, l @ l + 2 * c0 @ q, 2 * c0 @ l, c0 @ c0]
    crit = np.roots(np.polyder(quartic)).real
    cands = np.clip(np.append(crit, (lo, hi)), lo, hi)
    best = cands[np.argmin(np.polyval(quartic, cands))]
    return einstein_defect_at(1, eps, (best,))
