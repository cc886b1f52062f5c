"""Spaces of su(n)-equivariant bilinear maps m x m -> m, as explicit nullspaces.

An invariant affine connection corresponds to a bilinear map alpha with

    [h, alpha(X, Y)] = alpha([h, X], Y) + alpha(X, [h, Y])    for all h in h.

This module computes, over the standard basis of m, the space of all such
maps, the subspace of metric-compatible ones (alpha(X, -) skew-adjoint for
g_eps) and the affine subspace whose torsion 3-form is totally skew.  It is
the generic side of the cross-check and imports nothing from the closed
forms: the skew space's offset is the torsion-free metric map solved here,
and its directions are the raw nullspace, not the named family.

The invariant maps are found in three steps, none of which forms an
operator on all d^3 = (2n+1)^3 coefficients:

1. Torus weights.  A generic element of the diagonal (Cartan) part of h is
   diagonalised on m with a unitary eigenbasis.  A rank-3 tensor of
   eigenvectors has a weight, and an invariant map lives on the weight-zero
   slot triples only: 25, 31 and 6n + 1 of them for n = 2, 3 and >= 4.
2. Root constraints.  The equivariance constraints of the 2(n - 1)
   first-row generators Gamma (real and imaginary parts of E_1j,
   j = 2..n), each supported on 4 coordinates, are written on those
   columns by index arithmetic, keeping only their nonzero rows; their
   nullspace is mapped back to the standard basis and its real and
   imaginary parts orthonormalised.
3. Certified check.  Every h-basis element is at most one bracket of
   Gamma, so the residual over the whole h basis is at most 2 kappa times
   the residual on Gamma, with kappa = 3 at every n (see
   _invariant_basis_raw).  When that bound exceeds TOL_NUM, the build
   raises RankGapError.

Each build logs one DEBUG record on the "bergerconn.spaces" logger: the
number of weight-zero columns, the residual on Gamma, kappa, the certified
bound and its margin to TOL_NUM.

Every rank decision (the zero weights, both nullspaces) uses a relative
cutoff and a guarded gap, and raises RankGapError when there is none.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import algebra
from .algebra import Metric, MVec
from .config import TOL_GAP, TOL_NUM, TOL_RANK

_log = logging.getLogger(__name__)

#: estimated bytes per d^3 that an invariant nullspace build holds at large n,
#: almost all of it in _real_span (peak RSS growth measured about 765 at n = 25
#: and 835 at n = 30; below n = 10 a fixed 20 MB dominates)
BYTES_PER_CUBE = 1250


class RankGapError(RuntimeError):
    """The singular-value spectrum has no safe gap at the rank decision."""


@dataclass(frozen=True)
class Bilin:
    """Bilinear map m x m -> m as a real rank-3 coefficient tensor.

    coeffs[i, j, k] is the coefficient of e_k in alpha(e_i, e_j) over the
    standard basis.  The map keeps a read-only copy, so a cached map cannot
    be changed through its coefficients.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        d = 2 * self.n + 1
        c = np.array(self.coeffs, dtype=float)
        c.flags.writeable = False
        if c.shape != (d, d, d):
            raise ValueError(f"coeffs must have shape {(d, d, d)}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, n: int) -> "Bilin":
        d = 2 * n + 1
        return cls(n, np.zeros((d, d, d)))

    @classmethod
    def from_function(cls, n: int, f) -> "Bilin":
        """Tabulate f(X, Y) -> MVec on all standard basis pairs."""
        basis = algebra.standard_basis(n)
        d = 2 * n + 1
        c = np.empty((d, d, d))
        for i, X in enumerate(basis):
            for j, Y in enumerate(basis):
                c[i, j] = f(X, Y).coords()
        return cls(n, c)

    def apply(self, X: MVec, Y: MVec) -> MVec:
        if self.n != X.n or X.n != Y.n:
            raise ValueError("dimension mismatch")
        v = np.einsum("i,j,ijk->k", X.coords(), Y.coords(), self.coeffs)
        return MVec.from_coords(self.n, v)

    def __add__(self, other: "Bilin") -> "Bilin":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return Bilin(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "Bilin") -> "Bilin":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return Bilin(self.n, self.coeffs - other.coeffs)

    def __rmul__(self, c: float) -> "Bilin":
        return Bilin(self.n, float(c) * self.coeffs)


@dataclass(frozen=True)
class LinearSpace:
    """A (possibly affine) subspace of bilinear maps, given by a basis."""

    ambient_dim: int
    basis: tuple[Bilin, ...]
    offset: Bilin | None = None
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = np.array([b.coeffs.ravel() for b in self.basis])
        M.flags.writeable = False
        object.__setattr__(self, "_stack", M)
        if self.basis:
            s = np.linalg.svd(M, compute_uv=False)
            if s[-1] <= TOL_RANK * max(s[0], 1.0):
                raise ValueError("basis elements are not linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> np.ndarray:
        """Stacked flattened basis, shape (dim, ambient_dim), built once at
        construction and read-only."""
        return self._stack

    def element(self, coeffs) -> Bilin:
        """offset + sum_r coeffs[r] * basis[r]."""
        coeffs = np.asarray(coeffs, dtype=float)
        n = self.basis[0].n if self.basis else self.offset.n
        d = 2 * n + 1
        c = (coeffs @ self.matrix()).reshape(d, d, d) if self.basis else np.zeros((d, d, d))
        if self.offset is not None:
            c = c + self.offset.coeffs
        return Bilin(n, c)

    def projection_residual(self, b: Bilin) -> float:
        """Distance from b (minus the offset, if any) to the span of the basis."""
        v = b.coeffs.ravel()
        if self.offset is not None:
            v = v - self.offset.coeffs.ravel()
        if not self.basis:
            return float(np.linalg.norm(v))
        M = self.matrix().T
        x, *_ = np.linalg.lstsq(M, v, rcond=None)
        return float(np.linalg.norm(M @ x - v))


def _guarded_rank(s: np.ndarray) -> int:
    """Numerical rank of the descending singular values s, refusing a rank
    whose kept and discarded values are not TOL_GAP apart."""
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return 0
    rank = int(np.count_nonzero(s > TOL_RANK * smax))
    discarded = s[rank:]
    if rank > 0 and len(discarded) and discarded[0] > 0:
        if s[rank - 1] / discarded[0] < TOL_GAP:
            raise RankGapError(
                f"ambiguous rank: gap {s[rank - 1] / discarded[0]:.2e} below {TOL_GAP:.0e}"
            )
    return rank


def _nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal rows x with M x = 0 spanning the nullspace of M (real or
    complex), with a guarded rank decision."""
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    # U is never used; V must stay square, which only a wide M needs asked for
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return vt[_guarded_rank(s):].conj()


def _rowspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the row space of M, with a guarded rank decision."""
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    return vt[: _guarded_rank(s)]


def _zero_weight_triples(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Weight basis of m for the maximal torus of su(n), and the slot triples
    of weight zero.

    The diagonal elements of the h basis span the Cartan subalgebra; one
    generic combination H of them acts on m with a unitary eigenbasis U,
    i H U = U diag(lam).  The tensor conj(u_i) x conj(u_j) x u_k is an
    H-eigenvector of weight lam_k - lam_i - lam_j, so every invariant map
    lies in the span of the weight-zero triples (i, j, k), returned as three
    index arrays: 25, 31 and 6n + 1 of them for n = 2, 3 and >= 4.
    """
    diagonal = [np.array_equal(h.B, np.diag(np.diag(h.B))) for h in algebra.h_basis(n)]
    cartan = algebra.adjoint_matrices(n)[np.flatnonzero(diagonal)]
    H = np.tensordot(np.random.default_rng(2718).standard_normal(len(cartan)), cartan, 1)
    lam, U = np.linalg.eigh(1j * H)
    W = np.abs(lam[None, None, :] - lam[:, None, None] - lam[None, :, None])
    zero = W <= TOL_RANK * W.max()
    if W[~zero].min() < TOL_GAP * W[zero].max():
        raise RankGapError(
            f"ambiguous zero weight: gap {W[~zero].min() / W[zero].max():.2e} "
            f"below {TOL_GAP:.0e}"
        )
    return U, np.nonzero(zero)


def _root_nullspace(U: np.ndarray, cols, actions) -> np.ndarray:
    """Complex coefficients, over the weight-zero columns, of the maps that
    every action annihilates.

    The equivariance residual of the column conj(u_i) x conj(u_j) x u_k
    under A has, with Ah = U^H A U, the coefficients conj(Ah[c, i]),
    conj(Ah[c, j]) and Ah[c, k] on the tensors of the triples (c, j, k),
    (i, c, k) and (i, j, c), for every c.  Each (action, triple) pair is a
    constraint row.  Only the nonzero coefficients are kept, which leaves
    the stacked matrix as it is; each generator of Gamma moves four
    coordinates, so Ah has few nonzero rows and the stack is small
    (468 x 121 at n = 20).
    """
    d = len(U)
    I, J, K = cols
    k = len(I)
    Ah = U.conj().T @ actions @ U
    a, c = np.nonzero(Ah.any(axis=2))
    Ac = Ah[a, c]
    c = c[:, None]
    keys = np.concatenate([(c * d + J) * d + K, (I * d + c) * d + K, (I * d + J) * d + c])
    keys += np.tile(a, 3)[:, None] * d**3
    vals = np.concatenate([Ac[:, I].conj(), Ac[:, J].conj(), Ac[:, K]])
    r, t = np.nonzero(vals)
    rows, inv = np.unique(keys[r, t], return_inverse=True)
    v = vals[r, t]
    at, size = inv * k + t, len(rows) * k
    M = np.bincount(at, v.real, size) + 1j * np.bincount(at, v.imag, size)
    return _nullspace(M.reshape(len(rows), k))


def _real_span(U: np.ndarray, cols, null: np.ndarray) -> np.ndarray:
    """Orthonormal real basis, over the flattened standard basis, of the maps
    whose weight-column coefficients are the rows of null.

    The invariant space is closed under conjugation, so the real and
    imaginary parts of the complex solutions span its real form.
    """
    I, J, K = cols
    T = np.einsum("rt,at,bt,ct->rabc", null, U[:, I].conj(), U[:, J].conj(), U[:, K],
                  optimize=True).reshape(len(null), -1)
    return _rowspace(np.vstack([T.real, T.imag]))


def _equivariance_residual(basis: np.ndarray, actions) -> float:
    """Largest entry of A alpha(X, Y) - alpha(AX, Y) - alpha(X, AY) over the
    maps alpha = basis[r] (shape (r, d, d, d)) and the actions A.

    An action with support S (its rows and columns that are not zero) moves
    only the slots in S, so its residual vanishes unless a slot lies in S.
    It is computed on the three boxes with the first, second or output slot
    in S, contracting over S alone.
    """
    every = slice(None)

    def part(i, j, m):
        return basis[:, i][:, :, j][..., m]

    worst = 0.0
    for A in actions:
        S = np.flatnonzero(A.any(axis=0) | A.any(axis=1))
        for i, j, m in ((S, every, every), (every, S, every), (every, every, S)):
            out = (
                part(i, j, S) @ A[m][:, S].T
                - np.moveaxis(np.tensordot(A[S][:, i], part(S, j, m), (0, 1)), 0, 1)
                - np.moveaxis(np.tensordot(A[S][:, j], part(i, S, m), (0, 2)), 0, 2)
            )
            worst = max(worst, float(np.abs(out).max(initial=0.0)))
    return worst


def _first_row_actions(n: int) -> np.ndarray:
    """Actions on m of Gamma: X_j = E_1j - E_j1 and Y_j = i(E_1j + E_j1) for
    j = 2..n, the h-basis elements with an entry in the first row off the
    diagonal.  2(n - 1) matrices, each supported on the coordinates of z_1
    and z_j; they generate su(n)."""
    first_row = [r for r, h in enumerate(algebra.h_basis(n)) if h.B[0, 1:].any()]
    return algebra.adjoint_matrices(n)[first_row]


def _action_bound(actions) -> float:
    """kappa: the largest factor by which one action A, applied to a rank-3
    tensor as in _equivariance_residual, can grow its largest entry.

    The output slot sums over a row of A and each input slot over a column,
    so kappa = max over the actions of (max row abs-sum + 2 max column
    abs-sum); 0 for no actions.
    """
    a = np.abs(actions)
    return float(np.max(a.sum(axis=2).max(axis=1) + 2 * a.sum(axis=1).max(axis=1),
                        initial=0.0))


def check_fits_memory(n: int) -> None:
    """Raise ValueError if the invariant nullspace for n cannot fit in memory.

    The largest arrays of the build are _real_span's, each O(d^3): the
    solutions over the standard basis and the SVD of their real and
    imaginary parts, estimated with the rest at BYTES_PER_CUBE d^3 bytes
    (about 1.2 GiB at n = 50).  The bound is physical memory, not a
    cgroup or ulimit share, so this refuses hopeless n without promising
    that others fit.  Where the platform does not report physical memory,
    nothing is checked.
    """
    d = 2 * n + 1
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    need = BYTES_PER_CUBE * d**3
    if need > have:
        raise ValueError(
            f"n = {n} needs about {need / 2**30:.0f} GiB for the invariant "
            f"nullspace, more than the {have / 2**30:.0f} GiB of physical memory"
        )


def _invariant_basis_raw(n: int) -> np.ndarray:
    """Orthonormal rows spanning the invariant maps over the flattened
    standard basis: the first-row generators Gamma imposed on the
    weight-zero columns, then certified on Gamma.  Gamma generates su(n),
    so its joint kernel is the invariant space.

    Why Gamma certifies the whole h basis.  Write rho(h) alpha =
    h alpha(-, -) - alpha(h -, -) - alpha(-, h -) for the action of h on a
    map, delta_h for the largest entry of rho(h) alpha over the basis maps,
    and delta_Gamma for the largest delta_g over g in Gamma.

    - rho is a Lie algebra map: rho([a, b]) = rho(a) rho(b) - rho(b) rho(a).
    - The largest entry of rho(a) beta is at most kappa_a times that of
      beta, with kappa_a from _action_bound; kappa is the largest kappa_a
      over Gamma, 3 at every n (each generator permutes four coordinates
      up to sign).
    - For 2 <= i < j <= n, [X_i, X_j] = -(E_ij - E_ji) and
      [X_i, Y_j] = -i(E_ij + E_ji): up to sign every off-diagonal basis
      element is one bracket of Gamma, or lies in Gamma.
    - [X_k, Y_k] = 2i(E_11 - E_kk), so the Cartan element
      i(E_kk - E_(k+1)(k+1)) is 1/2 [X_(k+1), Y_(k+1)] - 1/2 [X_k, Y_k]
      (the first term alone for k = 1).

    So every h-basis element is sum c_ab [g_a, g_b] over g in Gamma with
    sum |c_ab| <= 1, or one g up to sign, and

        delta_h <= sum |c_ab| (kappa_a delta_b + kappa_b delta_a)
                <= 2 kappa delta_Gamma,

    a bound that does not grow with n (for h in Gamma itself,
    delta_h <= delta_Gamma <= 2 kappa delta_Gamma).  The basis is returned
    only when 2 kappa delta_Gamma <= TOL_NUM, so every h-basis residual is
    within TOL_NUM; otherwise RankGapError is raised, after the DEBUG record.
    """
    d = 2 * n + 1
    check_fits_memory(n)
    gamma = _first_row_actions(n)
    if n == 1:
        # h = su(1) = 0 and Gamma is empty: every bilinear map is invariant
        basis = np.eye(d**3)
        columns = d**3
    else:
        U, cols = _zero_weight_triples(n)
        basis = _real_span(U, cols, _root_nullspace(U, cols, gamma))
        columns = len(cols[0])
    residual = _equivariance_residual(basis.reshape(-1, d, d, d), gamma)
    kappa = _action_bound(gamma)
    bound = 2 * kappa * residual
    _log.debug(
        "invariant space n=%d: %d columns, %d generators, residual %.3g, kappa %g, "
        "bound %.3g, margin %.3g to TOL_NUM",
        n, columns, len(gamma), residual, kappa, bound, TOL_NUM / bound if bound else np.inf,
        extra={"equivariance": {
            "n": n, "columns": columns, "generators": len(gamma), "residual": residual,
            "kappa": kappa, "bound": bound, "tol_num": TOL_NUM,
        }},
    )
    if bound > TOL_NUM:
        raise RankGapError(
            f"invariant basis fails the certified check: bound {bound:.2e} "
            f"above TOL_NUM {TOL_NUM:.0e}"
        )
    return basis


@lru_cache(maxsize=None)
def invariant_bilinear_space(n: int) -> LinearSpace:
    """All su(n)-equivariant bilinear maps m x m -> m.

    Dimension 27, 13, 9, 7 for n = 1, 2, 3 and >= 4.
    """
    d = 2 * n + 1
    null = _invariant_basis_raw(n)
    basis = tuple(Bilin(n, row.reshape(d, d, d)) for row in null)
    return LinearSpace(ambient_dim=d**3, basis=basis)


def _metric_violation(coeffs: np.ndarray, G: np.ndarray) -> np.ndarray:
    """g(alpha(X,Y),Z) + g(Y, alpha(X,Z)) on all basis triples (i, j, z) of
    coeffs, or of each map in a stack of shape (..., d, d, d)."""
    lowered = coeffs @ G
    return lowered + np.swapaxes(lowered, -1, -2)


def _solution_space(space: LinearSpace, violation, G: np.ndarray) -> np.ndarray:
    """Basis, stacked with shape (r, d, d, d), of the maps of space on which
    the linear map violation(-, G) vanishes.

    violation is applied once to the stacked basis of space, and the new
    basis is null @ stacked.
    """
    d = 2 * space.basis[0].n + 1
    stacked = space.matrix()
    V = violation(stacked.reshape(-1, d, d, d), G).reshape(len(stacked), -1).T
    return (_nullspace(V) @ stacked).reshape(-1, d, d, d)


@lru_cache(maxsize=None)
def metric_connection_space(n: int, eps: float) -> LinearSpace:
    """Equivariant maps with alpha(X, -) in so(m, g_eps).

    Dimension 9, 7, 5, 3 for n = 1, 2, 3 and >= 4, independent of eps.
    """
    maps = _solution_space(invariant_bilinear_space(n), _metric_violation, Metric(n, eps).gram())
    return LinearSpace(ambient_dim=(2 * n + 1) ** 3, basis=tuple(Bilin(n, c) for c in maps))


def _skew_violation(coeffs: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Failure of total antisymmetry of the lowered torsion of a direction.

    For a difference of two metric connections the bracket term of the
    torsion cancels, so T = alpha - alpha^t and the condition is linear.
    """
    return _skew_form_violation((coeffs - np.swapaxes(coeffs, -3, -2)) @ G)


def _skew_form_violation(om: np.ndarray) -> np.ndarray:
    """om + om with its last two slots swapped, for one array or a stack;
    zero iff om is antisymmetric in those slots."""
    return om + np.swapaxes(om, -1, -2)


@lru_cache(maxsize=None)
def skew_torsion_space(n: int, eps: float) -> LinearSpace:
    """Affine space of metric connections with totally skew torsion, from the
    generic calculus alone.

    The offset is levi_civita_generic(n, eps); the directions are the
    orthonormal maps of metric_connection_space(n, eps) whose torsion
    difference is totally skew.  Direction dimension 1, 3, 3, 1 for
    n = 1, 2, 3 and >= 4.
    """
    maps = _solution_space(metric_connection_space(n, eps), _skew_violation, Metric(n, eps).gram())
    return LinearSpace(ambient_dim=(2 * n + 1) ** 3, basis=tuple(Bilin(n, c) for c in maps),
                       offset=levi_civita_generic(n, eps))


def levi_civita_generic(n: int, eps: float) -> Bilin:
    """The unique torsion-free element of metric_connection_space(n, eps).

    Solved as a linear system over the metric basis; a metric connection is
    determined by its torsion, so the solution is unique.
    """
    Cm, _ = algebra.structure_tensors(n)
    met = metric_connection_space(n, eps)
    M = np.array(
        [(b.coeffs - b.coeffs.transpose(1, 0, 2)).ravel() for b in met.basis]
    ).T
    x, _, rank, _ = np.linalg.lstsq(M, Cm.ravel(), rcond=None)
    if rank < met.dim:
        raise RankGapError("torsion map degenerate on the metric space")
    resid = np.linalg.norm(M @ x - Cm.ravel())
    if resid > TOL_NUM:
        raise RankGapError(f"no torsion-free metric connection found: {resid:.2e}")
    return met.element(x)
