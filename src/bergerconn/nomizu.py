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
goes through the full curvature instead, so a sample solved from the
residual is checked by a computation it did not come from.  Both take
Sym(Ric) - (s / dim) g from one helper, _einstein_form.

The defect is one array pipeline, map -> curvature -> Ricci ->
Sym(Ric) - (s / dim) g -> norm, on plain coefficient arrays: curvature and
ricci give arrays for arrays, so the Bilin, CurvTensor and Rank2Tensor
wrappers appear only at the public boundary.

curvature, ricci, einstein_defect and einstein_residual each take one map
or a stack of coefficient arrays (..., d, d, d), and every row of a stack
gets the bytes of a lone call.  The curvature has one kernel,
_curvature_terms: a lone map is that kernel on a stack of one, and a stack
runs through it _chunk_size(d) maps at a time, so that a call holds no more
than the memory guard's spaces.BYTES_PER_CUBE d^3 bytes (one map at a time
from n = 20 on).  The kernel forms every product in R's (i, j, k, l)
order, so that its one subtraction, the largest pass over memory, reads
contiguous runs of d^2 entries rather than d.
Everything is computed over the standard basis of m and serves as the
independent oracle for the closed-form families.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .algebra import Metric, _Frozen
from .spaces import (
    BYTES_PER_CUBE,
    Bilin,
    _skew_form_violation,
    _torsion_difference,
)


class CurvTensor(_Frozen):
    """Curvature coefficients: coeffs[i, j, k, l] = e_l-component of R(e_i, e_j, e_k)."""

    _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: np.ndarray):
        d = 2 * n + 1
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (d, d, d, d):
            raise ValueError(f"coeffs must have shape {(d,) * 4}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", c)


class Rank2Tensor(_Frozen):
    """A rank-2 tensor over the standard basis (Ricci, S, Gram, ...)."""

    _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: np.ndarray):
        d = 2 * n + 1
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (d, d):
            raise ValueError(f"coeffs must have shape {(d, d)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", c)


def torsion(alpha: Bilin) -> Bilin:
    Cm, _ = algebra.structure_tensors(alpha.n)
    return Bilin(alpha.n, _torsion_difference(alpha.coeffs) - Cm)


def curvature(alpha: Bilin | np.ndarray) -> CurvTensor | np.ndarray:
    """R[i,j,k,l] = a[j,k,m] a[i,m,l] - a[i,k,m] a[j,m,l] - Cm[i,j,m] a[m,k,l]
    - Hterm[i,j,k,l], summed over m, as reshaped matrix products.

    alpha is one map, giving a CurvTensor, or a stack of coefficient arrays
    (..., d, d, d), giving the coefficients (..., d, d, d, d).  Both run
    _curvature_terms, at most _chunk_size(d) maps per call; a lone map is
    that kernel on one map, and every row of a stack gets its bytes.
    """
    a = alpha.coeffs[None] if isinstance(alpha, Bilin) else np.asarray(alpha, dtype=float)
    d = a.shape[-1]
    if a.shape[-3:] != (d, d, d) or d % 2 == 0:
        raise ValueError(f"coefficients must end in shape (d, d, d), d odd, got {a.shape}")
    flat = a.reshape(-1, d, d, d)
    R = np.empty((len(flat), d, d, d, d))
    step = _chunk_size(d)
    for i in range(0, len(flat), step):
        _curvature_terms(flat[i:i + step], R[i:i + step])
    if isinstance(alpha, Bilin):
        return CurvTensor(alpha.n, R[0])
    return R.reshape(a.shape[:-3] + (d,) * 4)


def _chunk_size(d: int) -> int:
    """Maps per _curvature_terms call.  Each map of a call holds two d^4
    arrays of floats at once, its curvature and one product, so a call
    stays within the memory guard's spaces.BYTES_PER_CUBE d^3 bytes; one
    map at a time from n = 20 on."""
    return max(1, BYTES_PER_CUBE // (16 * d))


def _curvature_terms(a: np.ndarray, out: np.ndarray) -> None:
    """curvature's four terms for a stack a (p, d, d, d), into out
    (p, d, d, d, d), C-contiguous.

    Every product lands in R's (i, j, k, l) order.  The first alpha-alpha
    term is one batched product, X[i,j,k,l] = sum_m a[j,k,m] a[i,m,l], each
    block X[i] a (d^2, d) by (d, d) product; the second is X with i and j
    swapped, so the one subtraction reads both operands in contiguous runs
    of d^2 entries.  The Cm term is one product per map, (d^2, d) by
    (d, d^2), in R's order too.  _ricci_trace forms the slice i = l of the
    same four terms.
    """
    p, d = a.shape[0], a.shape[-1]
    Cm, Hterm = algebra.structure_tensors((d - 1) // 2)
    X = (a.reshape(p, 1, d * d, d) @ a).reshape(out.shape)
    np.subtract(X, X.swapaxes(1, 2), out=out)
    del X
    out -= (Cm.reshape(d * d, d) @ a.reshape(p, d, d * d)).reshape(out.shape)
    out -= Hterm


def ricci(R: CurvTensor | np.ndarray, g: Metric) -> Rank2Tensor | np.ndarray:
    """Ric(X, Y) = sum_j R[j, X, Y, j]: over a g-orthonormal basis the weights
    sign_j scale_j^2 g_jj of the contraction are all 1, so g is read only to
    check n.  R is a CurvTensor, giving a Rank2Tensor, or curvature's stack
    (..., d, d, d, d), giving (..., d, d)."""
    c = R.coeffs if isinstance(R, CurvTensor) else np.asarray(R, dtype=float)
    if c.shape[-1] != g.dim:
        raise ValueError("dimension mismatch")
    Ric = np.einsum("...jxyj->...xy", c)
    return Rank2Tensor(R.n, Ric) if isinstance(R, CurvTensor) else Ric


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


def _einstein_form(Ric: np.ndarray, g: Metric) -> tuple[np.ndarray, np.ndarray]:
    """(Sym(Ric) - (s / dim) g, s) for one Ricci array (d, d) or a stack
    (..., d, d), with s = sum_j sign_j scale_j^2 Ric[..., j, j] the scalar
    curvature, summed in that order per map."""
    s = np.einsum("j,...jj->...", g.trace_weights(), Ric)
    return 0.5 * (Ric + Ric.swapaxes(-1, -2)) - (s / g.dim)[..., None, None] * g.gram(), s


def sym(T: Rank2Tensor) -> Rank2Tensor:
    return Rank2Tensor(T.n, 0.5 * (T.coeffs + T.coeffs.T))


def torsion_form(alpha: Bilin, g: Metric) -> np.ndarray:
    """The lowered torsion omega[i, j, k] = g(T(e_i, e_j), e_k)."""
    if alpha.n != g.n:
        raise ValueError("dimension mismatch")
    return torsion(alpha).coeffs @ g.gram()


def skew_residual(omega: np.ndarray) -> float:
    """Failure of total antisymmetry of a rank-3 array: the largest entry of
    omega plus omega with two slots swapped, over its last two slots and its
    first two, which are the last two of omega.transpose(2, 0, 1)."""
    return max(float(np.abs(_skew_form_violation(w)).max())
               for w in (omega, omega.transpose(2, 0, 1)))


def s_tensor(alpha: Bilin, g: Metric) -> Rank2Tensor:
    """S(X, Y) = sum_j sign_j g(T(f_j, X), T(f_j, Y)): _s_pairs of the one
    torsion of alpha."""
    if alpha.n != g.n:
        raise ValueError("dimension mismatch")
    return Rank2Tensor(alpha.n, _s_pairs(torsion(alpha).coeffs[None], g)[0, 0])


def _s_pairs(T: np.ndarray, g: Metric) -> np.ndarray:
    """S polarized on a stack of torsions T (k, d, d, d): S[a, b, x, y] =
    sum_j sign_j g(T_a(f_j, e_x), T_b(f_j, e_y)), so that S of
    sum_a x_a T_a is sum_ab x_a x_b S[a, b].

    The weight sign_j scale_j^2 is 1 / g_jj, one division rather than a
    product with the rounded scale_j^2 (at eps = 1e10 this keeps the n = 2
    quadric's -c/lam exact).  The sums over j and the lowered slot are one
    matrix product of contiguous 2-D operands, for k = 1 those np.tensordot
    over axes ([0, 2], [0, 2]) forms.
    """
    k, d = len(T), g.dim
    G = g.gram()
    A = ((T @ G) / G.diagonal()[:, None, None]).transpose(0, 2, 1, 3).reshape(k * d, d * d)
    B = T.transpose(1, 3, 0, 2).reshape(d * d, k * d)
    return np.dot(A, B).reshape(k, d, k, d).transpose(0, 2, 1, 3)


def einstein_residual(alpha: Bilin | np.ndarray, g: Metric) -> np.ndarray:
    """Sym(Ric) - (s / dim) g for the connection alpha; zero iff alpha is Einstein.

    alpha is one map or a stack of coefficient arrays (..., d, d, d), and
    the residual has shape (..., d, d): _einstein_form of _ricci_trace's Ric.
    """
    a = alpha.coeffs if isinstance(alpha, Bilin) else np.asarray(alpha, dtype=float)
    if a.shape[-1] != g.dim:
        raise ValueError("dimension mismatch")
    return _einstein_form(_ricci_trace(a), g)[0]


def einstein_defect(alpha: Bilin | np.ndarray, g: Metric) -> float | np.ndarray:
    """Frobenius norm of _einstein_form, with Ric the ricci of the full
    curvature: the value of einstein_residual's, by a computation that
    shares none of _ricci_trace's products.

    alpha is one map, giving a float, or a stack of coefficient arrays
    (..., d, d, d), giving an array (...); the curvature is formed
    _chunk_size(d) maps at a time, and every row gets a lone call's bytes.
    The norms of a chunk are one stacked dot product, each row's E . E as
    np.linalg.norm forms it for one array.
    """
    a = alpha.coeffs if isinstance(alpha, Bilin) else np.asarray(alpha, dtype=float)
    d = g.dim
    if a.shape[-1] != d:
        raise ValueError("dimension mismatch")
    flat = a.reshape(-1, d, d, d)
    step = _chunk_size(d)
    norms = np.empty(len(flat))
    for i in range(0, len(flat), step):
        E = _einstein_form(ricci(curvature(flat[i:i + step]), g), g)[0].reshape(-1, 1, d * d)
        norms[i:i + step] = np.sqrt(E @ E.swapaxes(-1, -2)).ravel()
    return float(norms[0]) if isinstance(alpha, Bilin) else norms.reshape(a.shape[:-3])
