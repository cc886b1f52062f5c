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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import TOL_EXACT


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
        if not np.all(np.isfinite(z)) or not np.isfinite(a):
            raise ValueError("MVec entries must be finite")
        if abs(a.real) > TOL_EXACT:
            raise ValueError(f"a must be purely imaginary, got Re(a) = {a.real}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "a", complex(0.0, a.imag))

    @classmethod
    def zero(cls, n: int) -> "MVec":
        return cls(n, np.zeros(n, dtype=complex), 0.0)

    def coords(self) -> np.ndarray:
        """Real coordinates in the standard basis, length 2n+1.

        Layout: (Re z_1, Im z_1, ..., Re z_n, Im z_n, Im a).
        """
        v = np.empty(2 * self.n + 1)
        v[0 : 2 * self.n : 2] = self.z.real
        v[1 : 2 * self.n : 2] = self.z.imag
        v[-1] = self.a.imag
        return v

    @classmethod
    def from_coords(cls, n: int, v) -> "MVec":
        v = np.asarray(v, dtype=float).reshape(2 * n + 1)
        z = v[0 : 2 * n : 2] + 1j * v[1 : 2 * n : 2]
        return cls(n, z, 1j * v[-1])

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
        if np.abs(B + B.conj().T).max() > TOL_EXACT:
            raise ValueError("B must be anti-Hermitian")
        if abs(np.trace(B)) > TOL_EXACT:
            raise ValueError("B must be traceless")
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
        if np.abs(A + A.conj().T).max() > TOL_EXACT:
            raise ValueError("A must be anti-Hermitian")
        if abs(np.trace(A)) > TOL_EXACT:
            raise ValueError("A must be traceless")
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
        G = np.eye(self.dim)
        G[-1, -1] = -self.eps
        return G


def metric_eval(g: Metric, X: MVec, Y: MVec) -> float:
    """g_eps((z,a),(w,b)) = Re(z^t conj(w)) + eps*a*b.

    a*b is the product of two purely imaginary numbers, hence real.
    """
    if g.n != X.n or X.n != Y.n:
        raise ValueError("dimension mismatch")
    return float(np.real(X.z @ np.conj(Y.z)) + g.eps * np.real(X.a * Y.a))


def embed_m(X: MVec) -> AmbientMat:
    """Block embedding of (z, a) into su(n+1)."""
    n = X.n
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n] = -(X.a / n) * np.eye(n)
    A[:n, n] = X.z
    A[n, :n] = -np.conj(X.z)
    A[n, n] = X.a
    return AmbientMat(A)

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
    n = A.n
    M = A.A
    a = M[n, n]
    z = M[:n, n]
    B = M[:n, :n] + (a / n) * np.eye(n)
    return HVec(B), MVec(n, z, a)


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
    basis = standard_basis(g.n)
    scale = 1.0 / np.sqrt(abs(g.eps))
    basis[-1] = MVec(g.n, basis[-1].z, scale * basis[-1].a)
    signs = np.ones(g.dim)
    signs[-1] = -np.sign(g.eps)
    return basis, signs


@lru_cache(maxsize=None)
def h_basis(n: int) -> tuple[HVec, ...]:
    """Standard basis of su(n): real-antisymmetric, imaginary-symmetric and
    imaginary-diagonal traceless generators; dimension n^2 - 1."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            B = np.zeros((n, n), dtype=complex)
            B[i, j], B[j, i] = 1.0, -1.0
            out.append(HVec(B))
            B = np.zeros((n, n), dtype=complex)
            B[i, j] = B[j, i] = 1j
            out.append(HVec(B))
    for i in range(n - 1):
        B = np.zeros((n, n), dtype=complex)
        B[i, i], B[i + 1, i + 1] = 1j, -1j
        out.append(HVec(B))
    return tuple(out)


@lru_cache(maxsize=None)
def adjoint_matrices(n: int) -> np.ndarray:
    """Real (n^2-1, 2n+1, 2n+1) array: the action of each h-basis element on m
    in standard-basis coordinates, A[r][:, k] = coords([h_r, e_k]).  Read-only."""
    basis = standard_basis(n)
    hs = h_basis(n)
    d = 2 * n + 1
    A = np.zeros((len(hs), d, d))
    for r, h in enumerate(hs):
        for k, e in enumerate(basis):
            A[r][:, k] = bracket_hm(h, e).coords()
    A.flags.writeable = False
    return A


@lru_cache(maxsize=None)
def structure_tensors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Structure data of the reductive pair over the standard basis.

    Returns read-only (Cm, Hterm) where Cm[i,j] = coords([e_i, e_j]_m) and
    Hterm[i,j,k] = coords([[e_i, e_j]_h, e_k]).
    """
    basis = standard_basis(n)
    d = 2 * n + 1
    Cm = np.zeros((d, d, d))
    Hterm = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            h, m = bracket_mm(basis[i], basis[j])
            Cm[i, j] = m.coords()
            Cm[j, i] = -Cm[i, j]
            for k in range(d):
                Hterm[i, j, k] = bracket_hm(h, basis[k]).coords()
                Hterm[j, i, k] = -Hterm[i, j, k]
    Cm.flags.writeable = Hterm.flags.writeable = False
    return Cm, Hterm
