"""Generic tensor calculus for invariant connections on a reductive pair.

Given the bilinear map alpha of a connection, the torsion and curvature at
the base point are

    T(X, Y)    = alpha(X, Y) - alpha(Y, X) - [X, Y]_m,
    R(X, Y, Z) = alpha(X, alpha(Y, Z)) - alpha(Y, alpha(X, Z))
                 - alpha([X, Y]_m, Z) - [[X, Y]_h, Z].

Ricci is the contraction of the (1,3) curvature, the trace
Ric(X, Y) = sum_j R[j, X, Y, j] over the standard basis, and needs no
metric; this convention is calibrated so that the round Levi-Civita
connection (eps = -1) has Ric = 2n g.  The Einstein residual forms only that
slice of R, for one map or a stack of maps, with O(d^3) working memory per
map beside the cached structure tensors (Hterm is d^4); the Einstein defect
of one connection goes through the full curvature instead, so a sample
solved from the residual is checked by a computation it did not come from.
Both take Sym(Ric) - (s / dim) g from one helper, _einstein_form.
Everything is computed over the standard basis of m and serves as the
independent oracle for the closed-form families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import Metric
from .config import TOL_NUM
from .spaces import Bilin, _metric_violation, _skew_form_violation, _torsion_difference


@dataclass(frozen=True)
class CurvTensor:
    """Curvature coefficients: coeffs[i, j, k, l] = e_l-component of R(e_i, e_j, e_k)."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        d = 2 * self.n + 1
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (d, d, d, d):
            raise ValueError(f"coeffs must have shape {(d,) * 4}")
        object.__setattr__(self, "coeffs", c)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())


@dataclass(frozen=True)
class Rank2Tensor:
    """A rank-2 tensor over the standard basis (Ricci, S, Gram, ...)."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        d = 2 * self.n + 1
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (d, d):
            raise ValueError(f"coeffs must have shape {(d, d)}")
        object.__setattr__(self, "coeffs", c)


def torsion(alpha: Bilin) -> Bilin:
    Cm, _ = algebra.structure_tensors(alpha.n)
    return Bilin(alpha.n, _torsion_difference(alpha.coeffs) - Cm)


def curvature(alpha: Bilin) -> CurvTensor:
    """R[i,j,k,l] = a[j,k,m] a[i,m,l] - a[i,k,m] a[j,m,l] - Cm[i,j,m] a[m,k,l]
    - Hterm[i,j,k,l], summed over m, as reshaped matrix products.

    Both alpha-alpha terms are entries of one product, Q[(j,k),(i,l)] =
    sum_m a[j,k,m] a[i,m,l], read with two different axis orders.
    _ricci_trace forms the slice i = l of the same four terms.
    """
    Cm, Hterm = algebra.structure_tensors(alpha.n)
    a = alpha.coeffs
    d = a.shape[0]
    Q = (a.reshape(d * d, d) @ a.transpose(1, 0, 2).reshape(d, d * d)).reshape(d, d, d, d)
    R = (
        Q.transpose(2, 0, 1, 3)
        - Q.transpose(0, 2, 1, 3)
        - (Cm.reshape(d * d, d) @ a.reshape(d, d * d)).reshape(d, d, d, d)
        - Hterm
    )
    return CurvTensor(alpha.n, R)


def ricci(R: CurvTensor, g: Metric) -> Rank2Tensor:
    """Ric(X, Y) = sum_j R[j, X, Y, j]: over a g-orthonormal basis the weights
    sign_j scale_j^2 g_jj of the contraction are all 1, so g is read only to
    check n."""
    if R.n != g.n:
        raise ValueError("dimension mismatch")
    return Rank2Tensor(R.n, np.einsum("jxyj->xy", R.coeffs))


def _ricci_trace(a: np.ndarray) -> np.ndarray:
    """Ric[..., x, y] = sum_j R[j, x, y, j] of one map's coefficients a,
    shape (d, d, d), or of a stack (..., d, d, d), without forming R.

    The slice i = l = j of curvature's four terms, term by term,

        R[j,x,y,j] = a[x,y,m] a[j,m,j] - a[j,y,m] a[x,m,j]
                     - Cm[j,x,m] a[m,y,j] - Hterm[j,x,y,j],

    is three batched matrix products, O(d^4) flops and O(d^3) working
    memory per map, reading only the diagonal of the cached d^4 Hterm; it
    is summed over j only after the products, and every row of a stack gets
    the bytes of a lone call.
    """
    d = a.shape[-1]
    if a.shape[-3:] != (d, d, d) or d % 2 == 0:
        raise ValueError(f"coefficients must end in shape (d, d, d), d odd, got {a.shape}")
    Cm, Hterm = algebra.structure_tensors((d - 1) // 2)
    diag = a.diagonal(axis1=-3, axis2=-1).swapaxes(-1, -2)  # diag[j, m] = a[j, m, j]
    aT = a.swapaxes(-1, -3).swapaxes(-1, -2)  # aT[j, x, y] = a[x, y, j]
    S = (
        (diag @ a.reshape(*a.shape[:-3], d * d, d).swapaxes(-1, -2)).reshape(a.shape)
        - aT @ a.swapaxes(-1, -2)
        - Cm @ aT
        - Hterm.diagonal(axis1=0, axis2=3).transpose(2, 0, 1)
    )
    return S.sum(axis=-3)


def scalar(Ric: Rank2Tensor, g: Metric) -> float:
    """sum_j sign_j Ric(f_j, f_j)."""
    if Ric.n != g.n:
        raise ValueError("dimension mismatch")
    return float(_einstein_form(Ric.coeffs, g)[1])


def _einstein_form(Ric: np.ndarray, g: Metric) -> tuple[np.ndarray, np.ndarray]:
    """(Sym(Ric) - (s / dim) g, s) for one Ricci array (d, d) or a stack
    (..., d, d), with s = sum_j sign_j scale_j^2 Ric[..., j, j] the scalar
    curvature, summed in that order per map."""
    scale, signs = g.orthonormal_scales()
    s = np.einsum("j,j,...jj->...", signs, scale * scale, Ric)
    return 0.5 * (Ric + Ric.swapaxes(-1, -2)) - (s / g.dim)[..., None, None] * g.gram(), s


def sym(T: Rank2Tensor) -> Rank2Tensor:
    return Rank2Tensor(T.n, 0.5 * (T.coeffs + T.coeffs.T))


def torsion_form(alpha: Bilin, g: Metric) -> np.ndarray:
    """The lowered torsion omega[i, j, k] = g(T(e_i, e_j), e_k)."""
    T = torsion(alpha)
    return np.einsum("ijk,kl->ijl", T.coeffs, g.gram())


def skew_residual(omega: np.ndarray) -> float:
    """Failure of total antisymmetry of a rank-3 array: the largest entry of
    omega plus omega with two slots swapped, over its last two slots and its
    first two, which are the last two of omega.transpose(2, 0, 1)."""
    return max(float(np.abs(_skew_form_violation(w)).max())
               for w in (omega, omega.transpose(2, 0, 1)))


def is_skew(omega: np.ndarray) -> bool:
    """Total antisymmetry of a rank-3 array, within TOL_NUM."""
    return skew_residual(omega) <= TOL_NUM


def is_metric(alpha: Bilin, g: Metric) -> bool:
    """g(alpha(X,Y),Z) + g(Y, alpha(X,Z)) = 0 on all basis triples."""
    return bool(np.abs(_metric_violation(alpha.coeffs, g.gram())).max() <= TOL_NUM)


def s_tensor(alpha: Bilin, g: Metric) -> Rank2Tensor:
    """S(X, Y) = sum_j sign_j g(T(f_j, X), T(f_j, Y))."""
    T = torsion(alpha).coeffs
    scale, signs = g.orthonormal_scales()
    # T(f_j, e_x) has coefficients scale_j * T[j, x, :]
    w = (signs * scale * scale)[:, None, None]
    S = np.tensordot(w * (T @ g.gram()), T, axes=([0, 2], [0, 2]))
    return Rank2Tensor(alpha.n, S)


def einstein_residual(alpha: Bilin | np.ndarray, g: Metric) -> np.ndarray:
    """Sym(Ric) - (s / dim) g for the connection alpha; zero iff alpha is Einstein.

    alpha is one map or a stack of coefficient arrays (..., d, d, d), and
    the residual has shape (..., d, d): _einstein_form of _ricci_trace's Ric.
    """
    a = alpha.coeffs if isinstance(alpha, Bilin) else np.asarray(alpha, dtype=float)
    if a.shape[-1] != g.dim:
        raise ValueError("dimension mismatch")
    return _einstein_form(_ricci_trace(a), g)[0]


def einstein_defect(alpha: Bilin, g: Metric) -> float:
    """Frobenius norm of _einstein_form, with Ric the ricci of the full
    curvature: the value of einstein_residual's, by a computation that
    shares none of _ricci_trace's products."""
    return float(np.linalg.norm(_einstein_form(ricci(curvature(alpha), g).coeffs, g)[0]))
