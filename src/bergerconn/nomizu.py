"""Generic tensor calculus for invariant connections on a reductive pair.

Given the bilinear map alpha of a connection, the torsion and curvature at
the base point are

    T(X, Y)    = alpha(X, Y) - alpha(Y, X) - [X, Y]_m,
    R(X, Y, Z) = alpha(X, alpha(Y, Z)) - alpha(Y, alpha(X, Z))
                 - alpha([X, Y]_m, Z) - [[X, Y]_h, Z].

Ricci is the contraction Ric(X, Y) = sum_j sign_j g(R(f_j, X, Y), f_j) over
an orthonormal basis (f_j, sign_j); this convention is calibrated so that
the round Levi-Civita connection (eps = -1) has Ric = 2n g.  Everything is
computed over the standard basis of m and serves as the independent oracle
for the closed-form families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import Metric
from .config import TOL_NUM
from .spaces import Bilin, _metric_violation, _skew_form_violation


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
    c = alpha.coeffs - alpha.coeffs.transpose(1, 0, 2) - Cm
    return Bilin(alpha.n, c)


def curvature(alpha: Bilin) -> CurvTensor:
    """R[i,j,k,l] = a[j,k,m] a[i,m,l] - a[i,k,m] a[j,m,l] - Cm[i,j,m] a[m,k,l]
    - Hterm[i,j,k,l], summed over m, as reshaped matrix products.

    Both alpha-alpha terms are entries of one product, Q[(j,k),(i,l)] =
    sum_m a[j,k,m] a[i,m,l], read with two different axis orders.
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
    """Ric(X, Y) = sum_j sign_j g(R(f_j, X, Y), f_j) over the orthonormal basis."""
    if R.n != g.n:
        raise ValueError("dimension mismatch")
    scale, signs = g.orthonormal_scales()
    G = g.gram()
    # R(f_j, e_x, e_y) has coefficients scale_j * R[j, x, y, :]
    Ric = np.einsum("j,jxyl,lj->xy", signs * scale * scale, R.coeffs, G)
    return Rank2Tensor(R.n, Ric)


def scalar(Ric: Rank2Tensor, g: Metric) -> float:
    """sum_j sign_j Ric(f_j, f_j)."""
    if Ric.n != g.n:
        raise ValueError("dimension mismatch")
    scale, signs = g.orthonormal_scales()
    return float(np.einsum("j,j,jj->", signs, scale * scale, Ric.coeffs))


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


def einstein_residual(alpha: Bilin, g: Metric) -> np.ndarray:
    """Sym(Ric) - (s / dim) g for the connection alpha; zero iff alpha is Einstein."""
    Ric = ricci(curvature(alpha), g)
    s = scalar(Ric, g)
    return 0.5 * (Ric.coeffs + Ric.coeffs.T) - (s / g.dim) * g.gram()


def einstein_defect(alpha: Bilin, g: Metric) -> float:
    """Frobenius norm of the Einstein residual Sym(Ric) - (s / dim) g."""
    return float(np.linalg.norm(einstein_residual(alpha, g)))
