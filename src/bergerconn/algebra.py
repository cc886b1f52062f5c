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


class _Frozen:
    """Read-only record over the field names in _fields, the package's one
    base for its value types.  Assigning or deleting any attribute raises
    AttributeError; repr, == and hash read the fields in order, and objects
    of different classes are never equal.  Each subclass writes its own
    straight-line __init__, setting each field with object.__setattr__; a
    loop over _fields would cost every construction 0.5-1 us more."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class MVec(_Frozen):
    """Element (z, a) of m = C^n + Ri, the tangent model at the base point.

    Read only by standard_basis and spaces.Bilin.from_function, which
    perfbench's tracer hooks; the package computes on coordinate arrays.
    The constructor's checks stay in __post_init__, the method the tracer
    wraps to count constructions."""

    _fields = ("n", "z", "a")

    def __init__(self, n: int, z: np.ndarray, a: complex):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "a", a)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        z = np.asarray(self.z, dtype=complex).reshape(self.n)
        a = complex(self.a)
        _require_m(z, a)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "a", complex(0.0, a.imag))

    def coords(self) -> np.ndarray:
        """Real coordinates in the standard basis, length 2n+1.

        Layout: (Re z_1, Im z_1, ..., Re z_n, Im z_n, Im a).
        """
        return _to_coords(self.z, self.a)


class Metric(_Frozen):
    """The invariant metric g_eps on m.  Riemannian iff eps < 0."""

    _fields = ("n", "eps")

    def __init__(self, n: int, eps: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not np.isfinite(eps) or eps == 0:
            raise ValueError(f"eps must be finite and nonzero, got {eps}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "eps", eps)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def gram(self) -> np.ndarray:
        """Gram matrix of the standard basis: diag(1, ..., 1, -eps)."""
        d = self.dim
        G = np.zeros((d, d))
        G.flat[::d + 1] = 1.0
        G[-1, -1] = -self.eps
        return G

    def trace_weights(self) -> np.ndarray:
        """sign_j scale_j^2 for the g_eps-orthonormal frame f_j = scale_j e_j
        with signs sign_j = g(f_j, f_j), the weights of a trace over that
        frame: 1, but -sign(eps) (1/sqrt(|eps|))^2 on the fiber, the only
        rescaled vector; worked out in scalars for the Einstein form's every
        call."""
        scale = 1.0 / math.sqrt(abs(self.eps))
        return np.array((1.0,) * (self.dim - 1) + (-math.copysign(scale * scale, self.eps),))


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
    Each stack is refused, as a whole, unless its matrices and h-parts are
    anti-Hermitian and traceless, its a purely imaginary and its entries
    finite.
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
