"""Reference oracles on plain arrays, one vector or one pair at a time; not a
test module, so pytest does not collect it.

A tangent vector X = (z, a) of m is its real coordinates x, length 2n + 1,
laid out as (Re z_1, Im z_1, ..., Re z_n, Im z_n, Im a); an element of
h = su(n) is a complex n x n matrix B.  The package computes all of these as
stacked tables, which the tests compare with the formulas here: the bracket
from the (n+1) x (n+1) matrix model, the su(n) action (B z, 0), the metric,
a bilinear map on a pair, and the base-point tensors psi, eta, xi, Phi,
Omega, Theta, Theta-tilde and psi-hat, which render the skew directions in
coordinate-free form.

It also holds the oracles that no program path enters: the metric family
alpha_metric, the metric test is_metric with its violation array, the
scalar curvature, classify_ref, the paper's table by cases of n, and
curvature_terms, the curvature kernel as one product read through two
transposed views.
"""

import numpy as np

from bergerconn import families, nomizu
from bergerconn.algebra import (
    _embed,
    _from_coords,
    _split,
    _to_coords,
    h_basis,
    structure_tensors,
)
from bergerconn.config import TOL_NUM
from bergerconn.einstein import VarietyClass, einstein_equation


def coords(z, a=0.0) -> np.ndarray:
    return _to_coords(np.asarray(z, dtype=complex), a)


def parts(x) -> tuple[np.ndarray, complex]:
    return _from_coords(np.asarray(x, dtype=float))


def embed(x) -> np.ndarray:
    """[[-(a/n) I_n, z], [-conj(z)^t, a]] in su(n+1)."""
    return _embed(*parts(x))


def embed_h(B) -> np.ndarray:
    n = len(B)
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n] = B
    return A


def split(M) -> tuple[np.ndarray, np.ndarray]:
    """(h-part, coordinates of the m-part) of an ambient matrix M."""
    B, z, a = _split(M)
    return B, _to_coords(z, a)


def commutator(P, Q) -> np.ndarray:
    return P @ Q - Q @ P


def bracket_mm(x, y) -> tuple[np.ndarray, np.ndarray]:
    """[X, Y] in su(n+1) as (h-part, coordinates of the m-part)."""
    return split(commutator(embed(x), embed(y)))


def bracket_hm(B, x) -> np.ndarray:
    """[h, (z, a)] = (B z, 0), the action of su(n) on m."""
    return coords(B @ parts(x)[0])


def per_entry_tables(n):
    """(Cm, Hterm, adjoint) tabulated one bracket at a time, laid out as
    structure_tensors and adjoint_matrices are."""
    d = 2 * n + 1
    basis = np.eye(d)
    Cm, Hterm = np.zeros((d, d, d)), np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            B, m = bracket_mm(basis[i], basis[j])
            Cm[i, j] = m
            Cm[j, i] = -Cm[i, j]
            for k in range(d):
                Hterm[i, j, k] = bracket_hm(B, basis[k])
                Hterm[j, i, k] = -Hterm[i, j, k]
    H = h_basis(n)
    A = np.zeros((len(H), d, d))
    for r, B in enumerate(H):
        for k, x in enumerate(basis):
            A[r][:, k] = bracket_hm(B, x)
    return Cm, Hterm, A


def metric(eps, x, y) -> float:
    """g_eps(X, Y) = Re(z^t conj(w)) + eps a b, with a b real."""
    (z, a), (w, b) = parts(x), parts(y)
    return float(np.real(z @ np.conj(w)) + eps * np.real(a * b))


def gram(eps, vectors) -> np.ndarray:
    return np.array([[metric(eps, x, y) for y in vectors] for x in vectors])


def apply(coeffs, x, y) -> np.ndarray:
    """alpha(X, Y), coeffs[i, j, k] being the e_k coefficient of alpha(e_i, e_j)."""
    return np.einsum("i,j,ijk->k", x, y, coeffs)


# ---------------------------------------------------------------------------
# invariant tensors at the base point; Omega and the Thetas for n = 3, psi-hat
# for n = 2


def psi(x) -> np.ndarray:  # (z, a) -> (i z, 0)
    return coords(1j * parts(x)[0])


def eta(x) -> float:  # the real number i a
    return float((1j * parts(x)[1]).real)


def xi(n) -> np.ndarray:  # (0, -i), with eta(xi) = 1
    return coords(np.zeros(n), -1j)


def Phi(x, y) -> float:  # -Im(conj(z)^t w)
    return float(-np.imag(np.conj(parts(x)[0]) @ parts(y)[0]))


def Omega(x, y, u) -> float:  # -Re det[z w u]
    return float(-np.real(np.linalg.det(np.column_stack([parts(v)[0] for v in (x, y, u)]))))


def Theta(x, y) -> np.ndarray:  # (-conj(z) x conj(w), 0)
    return coords(-np.cross(np.conj(parts(x)[0]), np.conj(parts(y)[0])))


def Theta_tilde(x, y) -> np.ndarray:  # (i conj(z) x conj(w), 0)
    return coords(1j * np.cross(np.conj(parts(x)[0]), np.conj(parts(y)[0])))


def psi_hat(x) -> np.ndarray:  # (theta(z), 0), theta(z1, z2) = (-conj(z2), conj(z1))
    z = parts(x)[0]
    return coords([-np.conj(z[1]), np.conj(z[0])])


def alpha_metric(n: int, eps: float, q: complex, t: float):
    """Metric-compatible family: (-eps q b z + t a w, -i Im(conj(q) conj(z)^t w))."""
    return families.alpha_general(n, -eps * q, t, -np.conj(q), 0.0)


def metric_violation(coeffs: np.ndarray, G: np.ndarray) -> np.ndarray:
    """g(alpha(X,Y),Z) + g(Y, alpha(X,Z)) on all basis triples (i, j, z) of
    coeffs, or of each map in a stack of shape (..., d, d, d)."""
    lowered = coeffs @ G
    return lowered + np.swapaxes(lowered, -1, -2)


def is_metric(alpha, g) -> bool:
    """g(alpha(X,Y),Z) + g(Y, alpha(X,Z)) = 0 on all basis triples."""
    if alpha.n != g.n:
        raise ValueError("dimension mismatch")
    return bool(np.abs(metric_violation(alpha.coeffs, g.gram())).max() <= TOL_NUM)


def scalar(Ric, g) -> float:
    """sum_j sign_j Ric(f_j, f_j)."""
    if Ric.n != g.n:
        raise ValueError("dimension mismatch")
    return float(nomizu._einstein_form(Ric.coeffs, g)[1])


def curvature_terms(a, out) -> None:
    """nomizu._curvature_terms' four terms in another product layout: both
    alpha-alpha terms from one (d^2, d) by (d, d^2) product per map,
    Q[(j,k),(i,l)] = sum_m a[j,k,m] a[i,m,l], read through two 5-axis
    transposed views, and the Cm term from one product over the whole
    stack, written through a transpose."""
    p, d = a.shape[0], a.shape[-1]
    Cm, Hterm = structure_tensors((d - 1) // 2)
    Q = (a.reshape(p, d * d, d) @ a.transpose(0, 2, 1, 3).reshape(p, d, d * d))
    Q = Q.reshape(p, d, d, d, d)
    np.subtract(Q.transpose(0, 3, 1, 2, 4), Q.transpose(0, 1, 3, 2, 4), out=out)
    del Q
    out -= (Cm.reshape(d * d, d) @ a.transpose(1, 0, 2, 3).reshape(d, p * d * d)).reshape(
        d, d, p, d, d).transpose(2, 0, 1, 3, 4)
    out -= Hterm


def classify_ref(n: int, eps: float) -> VarietyClass:
    """The variety class by cases of n, read off the sign of the canonical
    equation's c (and of eps at n = 3); at n = 1, off eps alone."""
    if n == 1:
        return VarietyClass.LINE if eps == -1.0 else VarietyClass.EMPTY
    eq = einstein_equation(n, eps)
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
