"""Matrix model of su(n+1) = h + m for the odd sphere S^{2n+1} = SU(n+1)/SU(n).

The reductive complement m is identified with C^n + Ri via

    (z, a)  <->  [[-(a/n) I_n, z], [-conj(z)^t, a]],

with z a complex n-vector and a purely imaginary.  The subalgebra h is
su(n) embedded in the top-left block.  All brackets are computed from the
(n+1)x(n+1) matrix realization, never from hand-coded structure constants.

The one-parameter family of invariant metrics is

    g_eps((z,a),(w,b)) = Re(z^t conj(w)) + eps*a*b,

Riemannian for eps < 0 and Lorentzian for eps > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import TOL_EXACT


def _require_m(z, a) -> None:
    """Refuse (z, a), or a stack of them, that is not finite or whose a is
    not purely imaginary to TOL_EXACT."""
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(a))):
        raise ValueError("MVec entries must be finite")
    worst = np.abs(np.real(a)).max(initial=0.0)
    if worst > TOL_EXACT:
        raise ValueError(f"a must be purely imaginary, got |Re(a)| = {worst}")


def _require_su(M: np.ndarray, name: str) -> None:
    """Refuse a square matrix, or a stack of them on the last two axes, that
    is not finite, anti-Hermitian and traceless to TOL_EXACT (a nan would
    pass the two tolerance tests)."""
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} entries must be finite")
    if np.abs(M + np.swapaxes(M, -1, -2).conj()).max(initial=0.0) > TOL_EXACT:
        raise ValueError(f"{name} must be anti-Hermitian")
    if np.abs(np.trace(M, axis1=-2, axis2=-1)).max(initial=0.0) > TOL_EXACT:
        raise ValueError(f"{name} must be traceless")


def _to_coords(z, a) -> np.ndarray:
    """Real coordinates of (z, a) with z of shape (..., n): shape (..., 2n+1),
    laid out as (Re z_1, Im z_1, ..., Re z_n, Im z_n, Im a)."""
    n = z.shape[-1]
    v = np.empty(z.shape[:-1] + (2 * n + 1,))
    v[..., 0 : 2 * n : 2] = z.real
    v[..., 1 : 2 * n : 2] = z.imag
    v[..., -1] = np.imag(a)
    return v


def _from_coords(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, a) of real coordinates v of shape (..., 2n+1); inverse of _to_coords."""
    n = (v.shape[-1] - 1) // 2
    return v[..., 0 : 2 * n : 2] + 1j * v[..., 1 : 2 * n : 2], 1j * v[..., -1]


def _embed(z, a) -> np.ndarray:
    """Block matrices [[-(a/n) I_n, z], [-conj(z)^t, a]] of (z, a) with z of
    shape (..., n): shape (..., n+1, n+1)."""
    n = z.shape[-1]
    A = np.zeros(z.shape[:-1] + (n + 1, n + 1), dtype=complex)
    A[..., :n, :n] = np.multiply.outer(-np.divide(a, n), np.eye(n))
    A[..., :n, n] = z
    A[..., n, :n] = -np.conj(z)
    A[..., n, n] = a
    return A


def _split(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, z, a) of ambient matrices M of shape (..., n+1, n+1) along g = h + m:
    a = M[n, n], z = M[:n, n] and B the top-left block with the -(a/n) I_n
    of the m-part removed."""
    n = M.shape[-1] - 1
    a = M[..., n, n]
    z = M[..., :n, n]
    B = M[..., :n, :n] + np.multiply.outer(a / n, np.eye(n))
    return B, z, a


def _act(B: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Coordinates of [h, (z_k, 0)] = (B z_k, 0) for h-parts B of shape
    (..., n, n) and the standard basis vectors Z of shape (d, n): shape
    (..., d, 2n+1).  Each image copies a column of B, so it is finite
    where B is."""
    return _to_coords(Z @ np.swapaxes(B, -1, -2), 0.0)


@dataclass(frozen=True)
class MVec:
    """Element (z, a) of m = C^n + Ri, the tangent model at the base point."""

    n: int
    z: np.ndarray
    a: complex

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        z = np.asarray(self.z, dtype=complex).reshape(self.n)
        a = complex(self.a)
        _require_m(z, a)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "a", complex(0.0, a.imag))

    @classmethod
    def zero(cls, n: int) -> "MVec":
        return cls(n, np.zeros(n, dtype=complex), 0.0)

    def coords(self) -> np.ndarray:
        """Real coordinates in the standard basis, length 2n+1.

        Layout: (Re z_1, Im z_1, ..., Re z_n, Im z_n, Im a).
        """
        return _to_coords(self.z, self.a)

    @classmethod
    def from_coords(cls, n: int, v) -> "MVec":
        return cls(n, *_from_coords(np.asarray(v, dtype=float).reshape(2 * n + 1)))

    def __add__(self, other: "MVec") -> "MVec":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return MVec(self.n, self.z + other.z, self.a + other.a)

    def __sub__(self, other: "MVec") -> "MVec":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return MVec(self.n, self.z - other.z, self.a - other.a)

    def __rmul__(self, c: float) -> "MVec":
        return MVec(self.n, c * self.z, c * self.a)


@dataclass(frozen=True)
class HVec:
    """Element of h = su(n): an anti-Hermitian traceless n x n matrix.

    Keeps a read-only copy of B, so a cached basis element cannot be changed.
    """

    B: np.ndarray

    def __post_init__(self):
        B = np.array(self.B, dtype=complex)
        B.flags.writeable = False
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("B must be square")
        _require_su(B, "B")
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @classmethod
    def zero(cls, n: int) -> "HVec":
        return cls(np.zeros((n, n), dtype=complex))


@dataclass(frozen=True)
class AmbientMat:
    """Element of g = su(n+1): an anti-Hermitian traceless (n+1)x(n+1) matrix."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        _require_su(A, "A")
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.A.shape[0] - 1


@dataclass(frozen=True)
class Metric:
    """The invariant metric g_eps on m.  Riemannian iff eps < 0."""

    n: int
    eps: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not np.isfinite(self.eps) or self.eps == 0:
            raise ValueError(f"eps must be finite and nonzero, got {self.eps}")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def signature(self) -> str:
        return "riemannian" if self.eps < 0 else "lorentzian"

    def gram(self) -> np.ndarray:
        """Gram matrix of the standard basis: diag(1, ..., 1, -eps)."""
        d = self.dim
        G = np.zeros((d, d))
        G.flat[::d + 1] = 1.0
        G[-1, -1] = -self.eps
        return G

    def orthonormal_scales(self) -> tuple[np.ndarray, np.ndarray]:
        """Scales f_j = scale_j e_j turning the standard basis into a
        g_eps-orthonormal one, and the signs g(f_j, f_j).

        Only the fiber vector is rescaled, by 1/sqrt(|eps|); its sign is
        -sign(eps).
        """
        scale = np.ones(self.dim)
        scale[-1] = 1.0 / np.sqrt(abs(self.eps))
        signs = np.ones(self.dim)
        signs[-1] = -np.sign(self.eps)
        return scale, signs

    def trace_weights(self) -> np.ndarray:
        """sign_j scale_j^2 of orthonormal_scales, the weights of a trace over
        the g_eps-orthonormal basis: 1, but -sign(eps) (1/sqrt(|eps|))^2 on
        the fiber, worked out in scalars for the Einstein form's every call."""
        scale = 1.0 / math.sqrt(abs(self.eps))
        return np.array((1.0,) * (self.dim - 1) + (-math.copysign(scale * scale, self.eps),))


def metric_eval(g: Metric, X: MVec, Y: MVec) -> float:
    """g_eps((z,a),(w,b)) = Re(z^t conj(w)) + eps*a*b.

    a*b is the product of two purely imaginary numbers, hence real.
    """
    if g.n != X.n or X.n != Y.n:
        raise ValueError("dimension mismatch")
    return float(np.real(X.z @ np.conj(Y.z)) + g.eps * np.real(X.a * Y.a))


def embed_m(X: MVec) -> AmbientMat:
    """Block embedding of (z, a) into su(n+1)."""
    return AmbientMat(_embed(X.z, X.a))

def embed_h(h: HVec) -> AmbientMat:
    n = h.n
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n] = h.B
    return AmbientMat(A)


def project(A: AmbientMat) -> tuple[HVec, MVec]:
    """Split an ambient matrix along g = h + m.

    The m-part carries (z, a) with a = A[n][n]; the h-part is the top-left
    block with the -(a/n)I_n contribution of m removed.
    """
    B, z, a = _split(A.A)
    return HVec(B), MVec(A.n, z, a)


def bracket_mm(X: MVec, Y: MVec) -> tuple[HVec, MVec]:
    """[X, Y] in g, returned as its (h, m)-parts."""
    if X.n != Y.n:
        raise ValueError("dimension mismatch")
    Ax, Ay = embed_m(X).A, embed_m(Y).A
    return project(AmbientMat(Ax @ Ay - Ay @ Ax))


def bracket_hm(h: HVec, X: MVec) -> MVec:
    """[h, (z, a)] = (Bz, 0), the action of su(n) on m."""
    if h.n != X.n:
        raise ValueError("dimension mismatch")
    return MVec(X.n, h.B @ X.z, 0.0)


def standard_basis(n: int) -> list[MVec]:
    """(e_k, 0), (i e_k, 0) for k = 1..n, then (0, i); g_eps-Gram diag(1,...,1,-eps)."""
    out = []
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        out.append(MVec(n, e, 0.0))
        out.append(MVec(n, 1j * e, 0.0))
    out.append(MVec(n, np.zeros(n, dtype=complex), 1j))
    return out


def orthonormal_basis(g: Metric) -> tuple[list[MVec], np.ndarray]:
    """Orthonormal basis of (m, g_eps) together with the signs g(f_j, f_j).

    Rescales the last standard basis vector by 1/sqrt(|eps|); the last sign
    is -sign(eps).
    """
    scale, signs = g.orthonormal_scales()
    return [c * X for c, X in zip(scale, standard_basis(g.n))], signs


@lru_cache(maxsize=None)
def h_basis(n: int) -> np.ndarray:
    """Standard basis of su(n) as one read-only complex (n^2 - 1, n, n) stack.

    In order: for each i < j (row by row), E_ij - E_ji and then
    i(E_ij + E_ji); then the n - 1 diagonal i(E_kk - E_(k+1)(k+1)).  So the
    first 2(n - 1) entries are the ones with an entry in the first row off
    the diagonal.  Built by index assignment; adjoint_matrices refuses the
    stack, once, if it is not finite, anti-Hermitian and traceless.
    """
    i, j = np.triu_indices(n, 1)
    k = np.arange(n - 1)
    pair, cartan = 2 * np.arange(len(i)), 2 * len(i) + k
    H = np.zeros((n * n - 1, n, n), dtype=complex)
    H[pair, i, j], H[pair, j, i] = 1.0, -1.0
    H[pair + 1, i, j] = H[pair + 1, j, i] = 1j
    H[cartan, k, k], H[cartan, k + 1, k + 1] = 1j, -1j
    H.flags.writeable = False
    return H


@lru_cache(maxsize=None)
def adjoint_matrices(n: int) -> np.ndarray:
    """Real (n^2-1, 2n+1, 2n+1) array: the action of each h-basis element on m
    in standard-basis coordinates, A[r][:, k] = coords([h_r, e_k]).  Read-only.

    One contraction of the h_basis stack, as it is, with the basis
    z-vectors; the stack is refused if its matrices are not finite,
    anti-Hermitian and traceless.
    """
    H = h_basis(n)
    _require_su(H, "B")
    Z, _ = _from_coords(np.eye(2 * n + 1))  # the standard basis
    A = np.ascontiguousarray(np.swapaxes(_act(H, Z), -1, -2))
    A.flags.writeable = False
    return A


@lru_cache(maxsize=None)
def structure_tensors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Structure data of the reductive pair over the standard basis.

    Returns read-only (Cm, Hterm) where Cm[i,j] = coords([e_i, e_j]_m) and
    Hterm[i,j,k] = coords([[e_i, e_j]_h, e_k]).

    All brackets come from one batched product of the stacked ambient
    matrices E_i, C[i, j] = E_i E_j - E_j E_i, split along h + m at once.
    Each stack is refused, as a whole, on the checks AmbientMat, HVec and
    MVec make per element: anti-Hermitian and traceless matrices and
    h-parts, purely imaginary a and finite entries.
    """
    Z, fiber = _from_coords(np.eye(2 * n + 1))  # the standard basis
    E = _embed(Z, fiber)
    _require_su(E, "A")
    C = E[:, None] @ E[None] - E[None] @ E[:, None]
    _require_su(C, "A")
    B, z, a = _split(C)
    _require_su(B, "B")
    _require_m(z, a)
    Cm, Hterm = _to_coords(z, a), _act(B, Z)
    Cm.flags.writeable = Hterm.flags.writeable = False
    return Cm, Hterm
