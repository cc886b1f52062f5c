"""Spaces of su(n)-equivariant bilinear maps m x m -> m, as explicit nullspaces.

An invariant affine connection corresponds to a bilinear map alpha with

    [h, alpha(X, Y)] = alpha([h, X], Y) + alpha(X, [h, Y])    for all h in h.

This module computes, over the standard basis of m, the space of all such
maps, the subspace of metric-compatible ones (alpha(X, -) skew-adjoint for
g_eps) and the affine subspace whose torsion 3-form is totally skew.  It is
the generic side of the cross-check and imports nothing from the closed
forms: the skew space's offset is the torsion-free metric map by the Koszul
formula, and its directions are the raw nullspace, not the named family.
The metric and skew conditions read only the lowered map alpha G_eps, which
G_eps leaves invariant, so both spaces are solved once per n, at eps = -1
where G is the identity, and divided by diag(G_eps) at any other eps.

The invariant maps are found in three steps, none of which forms an
operator on all d^3 = (2n+1)^3 coefficients:

1. Torus weights.  A generic element of the diagonal (Cartan) part of h is
   diagonalised on m with a unitary eigenbasis.  A rank-3 tensor of
   eigenvectors has a weight, and an invariant map lives on the weight-zero
   slot triples only: 25, 31 and 6n + 1 of them for n = 2, 3 and >= 4.
2. Root constraints.  The equivariance constraints of the 2(n - 1)
   first-row generators Gamma (real and imaginary parts of E_1j,
   j = 2..n), each supported on 4 coordinates, are written on those
   columns by index arithmetic, keeping only their nonzero rows.  Their
   nullspace is mapped back to the standard basis through the exact
   nonzeros of the eigenbasis: each column has at most 8 standard
   entries, and the real and imaginary parts are orthonormalised on the
   union of those entries alone (49, 85, then 12n + 1 of them), so the
   basis is exactly zero off that support.
3. Certified check.  The residual on Gamma is computed from the nonzero
   entries of the maps and of Gamma, for all of Gamma at once.  Every
   h-basis element is at most one bracket of Gamma, so the residual over
   the whole h basis is at most 2 kappa times the residual on Gamma, with
   kappa = 3 at every n (see _invariant_basis_raw).  When that bound
   exceeds TOL_NUM, the build raises RankGapError.

Each build logs one DEBUG record on the "bergerconn.spaces" logger: the
number of weight-zero columns, the support (how many standard entries the
maps use), the residual on Gamma, kappa, the certified bound and its margin
to TOL_NUM.

Every rank decision (the sorted zero weights, both nullspaces, the
independence of LinearSpace's maps, and einstein's) is _guarded_rank's
descending read: a relative cutoff and a guarded gap, and RankGapError
when there is none.
Each is made once: the three spaces solved here are held by
LinearSpace._holding, which does not decide their independence again (its
docstring says why that is safe).
"""

from __future__ import annotations

import logging
import os
import random
from functools import cached_property, lru_cache

import numpy as np

from . import algebra
from .algebra import Metric, _Frozen
from .config import TOL_GAP, TOL_NUM, TOL_RANK

_log = logging.getLogger(__name__)

#: estimated bytes per d^3 that an invariant nullspace build holds at large n.
#: Its peak RSS growth measured about 420 at n = 25..35, most of it the su(n)
#: action matrices and the one stack of the space's maps; _real_span holds
#: about 60.  Below n = 10 a fixed 8 MB dominates.  nomizu._chunk_size reads
#: the value too, so it is kept at the 1250 fitted to the earlier dense build.
BYTES_PER_CUBE = 1250


class RankGapError(RuntimeError):
    """The singular-value spectrum has no safe gap at the rank decision."""


class Bilin(_Frozen):
    """Bilinear map m x m -> m as a real rank-3 coefficient tensor.

    coeffs[i, j, k] is the coefficient of e_k in alpha(e_i, e_j) over the
    standard basis.  The map keeps a read-only copy, so a cached map cannot
    be changed through its coefficients.
    """

    _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: np.ndarray):
        d = 2 * n + 1
        c = np.array(coeffs, dtype=float)
        c.flags.writeable = False
        if c.shape != (d, d, d):
            raise ValueError(f"coeffs must have shape {(d, d, d)}, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _holding(cls, n: int, c: np.ndarray) -> "Bilin":
        """A Bilin on c itself, made read-only, with no copy and no check:
        for a fresh float array of shape (d, d, d), already checked finite,
        that no caller keeps a writable reference to."""
        c.flags.writeable = False
        alpha = object.__new__(cls)
        object.__setattr__(alpha, "n", n)
        object.__setattr__(alpha, "coeffs", c)
        return alpha

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


class LinearSpace(_Frozen):
    """A (possibly affine) subspace of bilinear maps: offset plus the span of
    maps, one read-only stack of shape (dim, d, d, d), copied at construction.
    Maps that are not linearly independent are refused, whatever their sizes,
    between the maps or along the coordinates.
    The spaces this module solves itself are built by _holding instead, with
    no second rank decision.  Its fields are maps and offset; the flat view
    _flat and the cached basis are no fields."""

    _fields = ("maps", "offset")

    def __init__(self, maps: np.ndarray, offset: Bilin | None = None):
        object.__setattr__(self, "offset", offset)
        maps = np.asarray(maps, dtype=float)
        self._require(maps)
        if len(maps):
            # a guarded rank on the maps scaled to comparable sizes, so that
            # size is not taken for dependence; a zero map is dependent.
            # Each coordinate is divided by its largest entry first (the
            # all-zero ones dropped), a diagonal scaling that keeps the rank,
            # so that entries growing along the coordinates, like 1/|eps| on
            # the fibre slot, do not hide the smaller ones.  R of the scaled
            # transpose has one column per map, of its norm, and the working
            # copies are freed before the space makes its own.
            flat = maps.reshape(len(maps), -1)
            scale = np.abs(flat).max(axis=0)
            used = scale > 0
            cols = flat[:, used]
            cols /= scale[used]
            R = np.linalg.qr(cols.T, mode="r")
            del cols
            size = np.abs(R).max(axis=0, initial=0.0)
            if not size.all() or _guarded_rank(
                    np.linalg.svd(R / size, compute_uv=False))[0] < len(maps):
                raise ValueError("basis elements are not linearly independent")
        self._hold(np.array(maps))

    @classmethod
    def _holding(cls, maps: np.ndarray, offset: Bilin | None = None) -> "LinearSpace":
        """A LinearSpace on maps itself, made read-only, with no copy and no
        independence check; the shape, offset and finiteness checks still
        run.  For a fresh float stack that no caller keeps a writable
        reference to, whose rows are independent by construction, as they
        are in the three spaces this module solves:

        - the rows of _rowspace (the identity at n = 1), and _nullspace(V)
          @ an orthonormal stack, are orthonormal, after a guarded rank
          decision;
        - such a stack B divided by diag(G_eps) on the output slot has the
          entries fl(b/g) = b(1 + delta)/g, |delta| <= 2^-53: it is B' D,
          with B' within one rounding per entry of B and D = diag(1/g)
          invertible.  Rows that close to orthonormal ones are independent
          (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
          ch. 3), and so are they times D, whenever the quotient is finite,
          which is checked.  A gradual underflow adds at most
          2^-1075 |g| <= 2^-51 to an entry of B', still far too little to
          make them dependent.

        The public constructor's check accepts both kinds too, having
        scaled each coordinate to its largest entry; _holding only skips
        deciding a rank a second time.
        """
        space = object.__new__(cls)
        object.__setattr__(space, "offset", offset)
        space._require(maps)
        space._hold(maps)
        return space

    def _require(self, maps: np.ndarray) -> None:
        """Refuse a float stack that is not finite and of shape (dim, d, d, d)
        with d odd, or whose d is not the offset's."""
        d = maps.shape[-1] if maps.ndim == 4 else 0
        if maps.shape[1:] != (d, d, d) or d % 2 == 0:
            raise ValueError(f"maps must have shape (dim, d, d, d) with d odd, got {maps.shape}")
        if self.offset is not None and self.offset.coeffs.shape != (d, d, d):
            raise ValueError(f"offset of n = {self.offset.n} on maps of n = {(d - 1) // 2}")
        if not np.isfinite(maps).all():
            raise ValueError("maps must be finite")

    def _hold(self, maps: np.ndarray) -> None:
        """Hold the checked stack maps itself, read-only, as the space's."""
        maps.flags.writeable = False
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "_flat", maps.reshape(len(maps), maps.shape[-1] ** 3))

    @property
    def dim(self) -> int:
        return len(self.maps)

    def matrix(self) -> np.ndarray:
        """The maps flattened, shape (dim, d^3): the same read-only view of
        the stack on every call."""
        return self._flat

    @property
    def n(self) -> int:
        return (self.maps.shape[-1] - 1) // 2

    @cached_property
    def basis(self) -> tuple[Bilin, ...]:
        """The maps as read-only Bilin copies, made on first read."""
        return tuple(Bilin(self.n, c) for c in self.maps)

    def element(self, coeffs) -> Bilin:
        """offset + sum_r coeffs[r] * maps[r]: the one row of elements, which
        the Bilin holds as it is, checked finite once and copied by no one."""
        return Bilin._holding(self.n, self.elements(np.asarray(coeffs, dtype=float)[None])[0])

    def elements(self, X) -> np.ndarray:
        """Coefficient stack (p, d, d, d) of offset + X[i] @ maps for each
        row of X, shape (p, dim), checked finite once over the stack.

        Each row is a vector-matrix product of its own, as a lone element
        is: one matrix product over the stack may round a row differently.
        """
        X = np.asarray(X, dtype=float)
        c = (X[:, None] @ self._flat).reshape(-1, *self.maps.shape[1:])
        if self.offset is not None:
            c += self.offset.coeffs
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        return c

    def projection_residual(self, b) -> float:
        """Distance from b (a Bilin or its coefficients) minus the offset, if
        any, to the span of the maps."""
        v = np.ravel(b.coeffs if isinstance(b, Bilin) else b)
        if self.offset is not None:
            v = v - self.offset.coeffs.ravel()
        M = self._flat.T
        x, *_ = np.linalg.lstsq(M, v, rcond=None)
        return float(np.linalg.norm(M @ x - v))


def _guarded_rank(s: np.ndarray) -> tuple[int, float]:
    """Numerical rank of the descending values s (as an SVD returns them) and
    its gap, the smallest kept over the largest discarded value (inf where
    nothing or only zeros are discarded); RankGapError where the gap is
    below TOL_GAP, the kept and discarded values not clearly apart."""
    rank = int(np.count_nonzero(s > TOL_RANK * s[0])) if len(s) and s[0] > 0 else 0
    kept = s[rank - 1] if rank else np.inf
    dropped = s[rank] if rank < len(s) else 0.0
    gap = float(kept / dropped) if dropped > 0 else np.inf
    if gap < TOL_GAP:
        raise RankGapError(f"ambiguous rank: gap {gap:.2e} below {TOL_GAP:.0e}")
    return rank, gap


def _nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal rows x with M x = 0 spanning the nullspace of M (real or
    complex), with a guarded rank decision."""
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    # U is never used.  A tall M is reduced to its R first, as LAPACK's SVD
    # does itself (Chan, ACM TOMS 8, 1982), but without forming the tall U;
    # V must stay square, which only a wide M needs asked for
    if M.shape[0] > M.shape[1]:
        M = np.linalg.qr(M, mode="r")
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return vt[_guarded_rank(s)[0]:].conj()


def _rowspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the row space of M, with a guarded rank decision."""
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    return vt[: _guarded_rank(s)[0]]


def _zero_weight_triples(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Weight basis of m for the maximal torus of su(n), and the slot triples
    of weight zero.

    The diagonal elements of the h basis, picked by a mask on the h_basis
    stack, span the Cartan subalgebra; one generic combination H of them,
    its coefficients fixed normals from random.Random(2718).gauss, acts on m
    with a unitary eigenbasis U, i H U = U diag(lam).  The tensor
    conj(u_i) x conj(u_j) x u_k is an H-eigenvector of weight
    lam_k - lam_i - lam_j, so every invariant map lies in the span of the
    weight-zero triples (i, j, k), returned as three index arrays in C
    order: 25, 31 and 6n + 1 of them for n = 2, 3 and >= 4.  The zero
    weights are _guarded_rank's discarded values of the d^3 weights sorted
    in descending order: the triples below the smallest kept weight.
    """
    h = algebra.h_basis(n)
    diagonal = np.count_nonzero(h, axis=(1, 2)) == np.count_nonzero(h.diagonal(0, 1, 2), axis=1)
    cartan = algebra.adjoint_matrices(n)[diagonal]
    gauss = random.Random(2718).gauss
    H = np.tensordot(np.array([gauss(0.0, 1.0) for _ in range(len(cartan))]), cartan, 1)
    lam, U = np.linalg.eigh(1j * H)
    W = np.abs(lam[None, None, :] - lam[:, None, None] - lam[None, :, None])
    # the weights are split as singular values are: the discarded ones are zero
    w = np.sort(W, axis=None)[::-1]
    return U, np.nonzero(W < w[_guarded_rank(w)[0] - 1])


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

    The column conj(u_i) x conj(u_j) x u_k has an entry only where all three
    eigenvectors do, so it is read off U's exact nonzeros: at most 8 standard
    entries, since each column of U has at most 2 (measured for n = 2..10;
    more would only widen the support).  The invariant space is closed under
    conjugation, so the real and imaginary parts of the complex solutions
    span its real form; they are orthonormalised on the union of the
    columns' entries alone (49, 85, then 12n + 1 of them) and scattered into
    the d^3 coordinates, so the basis is exactly zero off that support.
    """
    d = len(U)
    I, J, K = cols
    # the rows of each column's nonzeros first; fewer nonzeros pad with a 0
    rows = np.argsort(U == 0, axis=0, kind="stable")[: np.count_nonzero(U, axis=0).max()]
    vals = np.take_along_axis(U, rows, axis=0)
    a, b, c = rows[:, I], rows[:, J], rows[:, K]
    keys = (a[:, None, None] * d + b[None, :, None]) * d + c[None, None]
    w = vals[:, I].conj()[:, None, None] * vals[:, J].conj()[None, :, None] * vals[:, K][None, None]
    e = np.nonzero(w)
    support, at = np.unique(keys[e], return_inverse=True)
    W = np.zeros((len(support), len(I)), dtype=complex)
    W[at, e[-1]] = w[e]
    T = null @ W.T
    span = _rowspace(np.vstack([T.real, T.imag]))
    basis = np.zeros((len(span), d**3))
    basis[:, support] = span
    return basis


def _meet(x: np.ndarray, on: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (p, q) with x[p] == on[q], for coordinates in range(d):
    each index of x against the entries of on with its coordinate, by one
    sort of on."""
    order = np.argsort(on, kind="stable")
    count = np.bincount(on, minlength=d)
    start = np.cumsum(count) - count
    c = count[x]
    p = np.repeat(np.arange(len(x)), c)
    # the pairs of p take order[start[x[p]]:][:c[p]], one after the other
    shift = np.repeat(start[x] - np.cumsum(c) + c, c)
    return p, order[shift + np.arange(len(p))]


def _equivariance_residual(basis: np.ndarray, actions) -> float:
    """Largest entry of A alpha(X, Y) - alpha(AX, Y) - alpha(X, AY) over the
    maps alpha = basis[r] (shape (r, d, d, d)) and the actions A.

    Computed from the nonzero entries alone, for all actions at once.  An
    entry alpha[r, i, j, k] meets the action entries A[m, k] in its output
    slot and A[i, x], A[j, x] in its input slots; each such pair adds one
    term to the entry of the residual that the slot moves to, and the terms
    are summed per entry by one bincount.  Working memory is the nonzeros
    of the maps times the action entries per coordinate, not d^3 per
    action.
    """
    if len(actions) == 0:
        return 0.0  # n = 1, where the index work alone would cost 0.1 ms
    d = basis.shape[-1]
    # the nonzeros of a flat boolean array are several times faster to find
    # than those of the floats or of a 4-axis array
    g, row, col = np.nonzero(actions != 0)
    coef = actions[g, row, col]
    entry = np.unravel_index(np.flatnonzero(basis != 0), basis.shape)
    v = basis[entry]
    keys, terms = [], []
    for slot, sign, on, to in ((3, 1.0, col, row), (1, -1.0, row, col), (2, -1.0, row, col)):
        p, q = _meet(entry[slot], on, d)
        moved = [e[p] for e in entry]
        moved[slot] = to[q]
        keys.append(np.ravel_multi_index((g[q], *moved), (len(actions), *basis.shape)))
        terms.append(sign * coef[q] * v[p])
    _, at = np.unique(np.concatenate(keys), return_inverse=True)
    return float(np.abs(np.bincount(at, np.concatenate(terms))).max(initial=0.0))


def _first_row_actions(n: int) -> np.ndarray:
    """Actions on m of Gamma: X_j = E_1j - E_j1 and Y_j = i(E_1j + E_j1) for
    j = 2..n, the h-basis elements with an entry in the first row off the
    diagonal, picked by a mask on the h_basis stack (its first 2(n - 1)
    entries).  2(n - 1) matrices, each supported on the coordinates of z_1
    and z_j; they generate su(n)."""
    return algebra.adjoint_matrices(n)[algebra.h_basis(n)[:, 0, 1:].any(axis=1)]


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

    The largest arrays of the build are each O(d^3): the n^2 - 1 action
    matrices on m, and the basis maps over the standard basis, held once as
    the space's stack.  Its peak RSS growth was measured at about 420 d^3
    bytes for n = 25..35; the estimate is BYTES_PER_CUBE d^3 bytes (about
    1.2 GiB at n = 50), above that.  The bound is physical memory, not a
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
    support = int(np.count_nonzero(basis.any(axis=0)))
    kappa = _action_bound(gamma)
    bound = 2 * kappa * residual
    _log.debug(
        "invariant space n=%d: %d columns, support %d, %d generators, residual %.3g, "
        "kappa %g, bound %.3g, margin %.3g to TOL_NUM",
        n, columns, support, len(gamma), residual, kappa, bound,
        TOL_NUM / bound if bound else np.inf,
        extra={"equivariance": {
            "n": n, "columns": columns, "support": support, "generators": len(gamma),
            "residual": residual, "kappa": kappa, "bound": bound, "tol_num": TOL_NUM,
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = 2 * n + 1
    return LinearSpace._holding(_invariant_basis_raw(n).reshape(-1, d, d, d))


def _solution_space(space: LinearSpace, violation) -> np.ndarray:
    """Basis, stacked with shape (r, d, d, d), of the maps of space on which
    the linear map violation vanishes.

    violation is applied once to the maps of space, and the new basis is
    null @ space.matrix().  Both solves run at eps = -1 only, where G is the
    identity and a map's lowered form is the map itself.
    """
    V = violation(space.maps).reshape(space.dim, -1).T
    return (_nullspace(V) @ space.matrix()).reshape(-1, *space.maps.shape[1:])


@lru_cache(maxsize=None)
def metric_connection_space(n: int, eps: float) -> LinearSpace:
    """Equivariant maps with alpha(X, -) in so(m, g_eps).

    At eps = -1, where G is the identity, the orthonormal nullspace of the
    metric violation, alpha plus alpha with its last two slots swapped; at
    any other eps, that basis divided by diag(G_eps) on the output slot,
    which is not orthonormal.  Dimension 9, 7, 5, 3 for n = 1, 2, 3 and
    >= 4, independent of eps.
    """
    if eps != -1.0:
        return LinearSpace._holding(
            metric_connection_space(n, -1.0).maps / Metric(n, eps).gram().diagonal())
    return LinearSpace._holding(_solution_space(invariant_bilinear_space(n), _skew_form_violation))


def _torsion_difference(coeffs: np.ndarray) -> np.ndarray:
    """alpha(X, Y) - alpha(Y, X) on all basis pairs of coeffs, or of each map
    in a stack of shape (..., d, d, d): the torsion without its bracket term."""
    return coeffs - coeffs.swapaxes(-3, -2)


def _skew_violation(coeffs: np.ndarray) -> np.ndarray:
    """Failure of total antisymmetry of the torsion of a direction, lowered
    by the identity Gram of eps = -1.

    For a difference of two metric connections the bracket term of the
    torsion cancels, so T = alpha - alpha^t and the condition is linear.
    """
    return _skew_form_violation(_torsion_difference(coeffs))


def _skew_form_violation(om: np.ndarray) -> np.ndarray:
    """om + om with its last two slots swapped, for one array or a stack;
    zero iff om is antisymmetric in those slots."""
    return om + np.swapaxes(om, -1, -2)


@lru_cache(maxsize=None)
def skew_torsion_space(n: int, eps: float) -> LinearSpace:
    """Affine space of metric connections with totally skew torsion, from the
    generic calculus alone.

    The offset is levi_civita_generic(n, eps).  The directions are the metric
    maps whose lowered torsion difference is totally skew: at eps = -1 an
    orthonormal nullspace on metric_connection_space, at any other eps that
    basis divided by diag(G_eps), which is not orthonormal.  Direction
    dimension 1, 3, 3, 1 for n = 1, 2, 3 and >= 4.
    """
    if eps != -1.0:
        maps = skew_torsion_space(n, -1.0).maps / Metric(n, eps).gram().diagonal()
    else:
        maps = _solution_space(metric_connection_space(n, eps), _skew_violation)
    return LinearSpace._holding(maps, levi_civita_generic(n, eps))


def levi_civita_generic(n: int, eps: float) -> Bilin:
    """The unique torsion-free metric map, by the Koszul formula.

    On a reductive homogeneous space with an invariant metric,
    alpha(X, Y) = 1/2 [X, Y]_m + U(X, Y) with
    g(U(X, Y), Z) = 1/2 (g([Z, X]_m, Y) + g(X, [Z, Y]_m))
    (Kobayashi-Nomizu, Foundations of Differential Geometry II, Ch. X).
    Lowered, g(alpha(e_i, e_j), e_k) is half of CG[i, j, k] plus
    CG[k, i, j] + CG[k, j, i], with CG = Cm diag(G), and alpha is that
    divided by diag(G) on the output slot.  The U-part is summed first, so
    where its two terms cancel they cancel exactly, and no rounding is
    magnified by a small |eps|.
    """
    Cm, _ = algebra.structure_tensors(n)
    G = Metric(n, eps).gram().diagonal()
    CG = Cm * G
    return Bilin(n, 0.5 * (CG + (CG.transpose(1, 2, 0) + CG.transpose(2, 1, 0))) / G)
