"""Closed-form connection families on the Berger spheres, per n-regime.

Regimes: "general_n" covers n >= 4 and, verbatim with (n+1)/n = 2, also
n = 1; "s7" (n = 3) adds a complex cross-product direction; "s5" (n = 2)
adds the almost-contact directions built from theta(z1, z2) = (-conj(z2),
conj(z1)).  Every family and every closed torsion/curvature is written once,
as a formula in the tangent coordinates (z, a), (w, b), (u, c) of its
arguments, and computed as a tensor expression over a few blocks of the
standard basis (_basis): Z, h = conj(Z) Z^t and the real coordinates of z
and i z.  Each group of "vector times scalar form" terms is one small
matmul; the terms with a factor a, b or c are slice updates on the fibre
index, the only basis vector with a != 0.  The result is the coefficient
tensor that the generic tensor calculus is compared against; nothing of
that calculus is used to compute it.

For small d a call pays more for numpy's dispatch than for arithmetic, so
the blocks are written by index assignment, the S^7 cross product as its
component products and the Ricci diagonal as a strided slice: no np.eye,
np.stack or np.cross runs per call.  Each output is np.array_equal to the
one those helpers gave (tests/test_closed_form_pins.py).

The skew-torsion family is written once, as one affine space
(skew_direction_basis): the Levi-Civita map plus the named directions in the
paper's coordinates (s; s1, s2 on S^7; s3, s4 on S^5).  skew_family reads its
members off that space.  The generic side builds its skew space without it
(spaces.skew_torsion_space), and cli's verify checks that the named
directions lie in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import _to_coords
from .config import TOL_NUM
from .nomizu import CurvTensor, Rank2Tensor
from .spaces import Bilin, LinearSpace


class UnsupportedRegimeError(ValueError):
    """Closed form not available; use the generic calculus instead."""


def theta(z: np.ndarray) -> np.ndarray:
    """su(2)-equivariant map on C^2 (last axis): (z1, z2) -> (-conj(z2), conj(z1))."""
    return np.conj(z[..., ::-1]) * np.array([-1.0, 1.0])


def _ccross(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """conj(z) x conj(w), the conjugated C^3 cross product over the last axis,
    broadcast over the others.  The components are the products np.cross
    forms, in its order, so the bytes are np.cross's."""
    a, b = np.conj(z), np.conj(w)
    c0 = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    c = np.empty(c0.shape + (3,), dtype=c0.dtype)
    c[..., 0] = c0
    c[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    c[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return c


def _basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of the standard basis e_0, ..., e_{d-1} of m, d = 2n + 1.

    Returns Z, the z-part of each basis vector (d x n complex); h = conj(Z)
    Z^t, the hermitian form conj(z)^t w on basis pairs; and ZJ, the real
    coordinates of z and of i z for each basis vector (2 x d x d).  These are
    Re h and Im h: the l-th coordinate of a z-vector v is Re(conj(z_l)^t v).
    The fibre vector e_{d-1} has z = 0 and a = i, every other basis vector
    has a = 0, so a term with a factor a, b or c is a slice update on index -1.

    All three are written entry by entry on strided slices: e_{2l} has z = 1
    and e_{2l+1} has z = i in slot l, so Re h is the identity on the z-block
    and Im h has 1 at (2l, 2l+1) and -1 at (2l+1, 2l).
    """
    d = 2 * n + 1
    Z = np.zeros((d, n), dtype=complex)
    Z.reshape(-1)[::d] = 1.0  # Z[2l, l], flat index l d
    Z.reshape(-1)[n::d] = 1.0j  # Z[2l+1, l], flat index l d + n
    ZJ = np.zeros((2, d, d))
    ZJ[0].reshape(-1)[: 2 * n * (d + 1) : d + 1] = 1.0
    ZJ[1].reshape(-1)[1 : 2 * n * (d + 1) : 2 * (d + 1)] = 1.0
    ZJ[1].reshape(-1)[d : 2 * n * (d + 1) : 2 * (d + 1)] = -1.0
    h = np.empty((d, d), dtype=complex)
    h.real, h.imag = ZJ
    return Z, h, ZJ


def _times_z(S, ZJ: np.ndarray) -> np.ndarray:
    """Real coordinates of S z_i for complex scalars S, as one matmul with the
    blocks ZJ of _basis: shape S.shape + (d, d), indexed [..., i, l].  The
    left factor is S read as (Re, Im) pairs, a float view of S."""
    S = np.asarray(S, dtype=complex)
    Sr = S.reshape(-1, 1).view(float)
    return (Sr @ ZJ.reshape(2, -1)).reshape(S.shape + ZJ.shape[1:])


def _theta_terms(c: np.ndarray, k: complex, p: complex, m: float, Z: np.ndarray) -> None:
    """Add k (b theta(z) - a theta(w)) to the z-slot and m Im(conj(p)
    conj(theta(z))^t w) to the a-slot of the S^5 coefficients c, in place."""
    T = theta(Z)
    Tb = _to_coords(1j * k * T, 0.0)  # k b theta(z) with b = i
    c[:, -1] += Tb
    c[-1] -= Tb
    c[..., -1] += m * np.imag(np.conj(p) * (np.conj(T) @ Z.T))


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (q, t, p, p2) of a connection family in one regime.

    The skew parameters are s = 1 - q and, where applicable, (s1, s2) resp.
    (s3, s4) = (-Re p, Im p); skew builds the family's parameters from them.
    """

    regime: str
    q: complex
    t: float
    p: complex = 0.0
    p2: complex = 0.0

    _REGIME_N = {"general_n": None, "s7": 3, "s5": 2, "s3": 1}

    def __post_init__(self):
        if self.regime not in self._REGIME_N:
            raise ValueError(f"unknown regime {self.regime!r}")
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "p2", complex(self.p2))

    def check_n(self, n: int) -> None:
        expected = self._REGIME_N[self.regime]
        if expected is not None and n != expected:
            raise ValueError(f"regime {self.regime!r} requires n = {expected}")
        if self.regime == "general_n" and n in (2, 3):
            raise ValueError("general_n regime does not cover n = 2, 3")

    def skew_eligible(self, n: int, eps: float) -> bool:
        """Im(q) = 0, t = eps*q - (n+1)/n - 2*eps, and p2 = eps*p for n = 2."""
        ok = abs(complex(self.q).imag) <= TOL_NUM
        ok = ok and abs(self.t - (eps * self.q - (n + 1) / n - 2 * eps).real) <= TOL_NUM
        if self.regime == "s5":
            ok = ok and abs(self.p2 - eps * self.p) <= TOL_NUM
        return bool(ok)

    @classmethod
    def skew(cls, regime: str, n: int, eps: float, s: float,
             aux1: float = 0.0, aux2: float = 0.0) -> "FamilyParams":
        """Skew-eligible parameters from solution-variety coordinates."""
        q = 1.0 - s
        t = eps * q - (n + 1) / n - 2 * eps
        p = complex(-aux1, aux2)
        p2 = eps * p if regime == "s5" else 0.0
        return cls(regime, q, t, p, p2)


# ---------------------------------------------------------------------------
# connection families


def alpha_general(n: int, q1: complex, q2: complex, q3: complex, t: float) -> Bilin:
    """alpha(X, Y) = (q1 b z + q2 a w, i(t a b + Im(q3 conj(z)^t w)))."""
    _, h, ZJ = _basis(n)
    c = np.zeros((2 * n + 1,) * 3)
    c[:, -1] = _times_z(1j * q1, ZJ)  # q1 b z with b = i
    c[-1] += _times_z(1j * q2, ZJ)  # q2 a w with a = i
    c[..., -1] = np.imag(q3 * h)
    c[-1, -1, -1] = -t  # t a b with a b = -1
    return Bilin(n, c)


@lru_cache(maxsize=None)
def alpha_lc(n: int, eps: float) -> Bilin:
    """Levi-Civita map: (-eps b z - (eps + (n+1)/n) a w, -i Im(conj(z)^t w))."""
    return alpha_general(n, -eps, -(eps + (n + 1) / n), -1.0, 0.0)


@lru_cache(maxsize=None)
def direction_s(n: int, eps: float) -> Bilin:
    """The s-direction (eps(bz - aw), i Im(conj(z)^t w)).

    Coordinate form of Phi(X,Y) xi + eps(eta(X) psi(Y) - eta(Y) psi(X)).
    """
    return alpha_general(n, eps, -eps, 1.0, 0.0)


def _delta_s7(p: complex) -> Bilin:
    """p conj(z) x conj(w) in the z-slot."""
    Z, _, _ = _basis(3)
    return Bilin(3, _to_coords(p * _ccross(Z[:, None], Z[None]), 0.0))


def _delta_s5(eps: float, p: complex) -> Bilin:
    """The theta terms with coefficient p: (-eps p (b theta(z) - a theta(w)),
    -i Im(conj(p) conj(theta(z))^t w))."""
    Z, _, _ = _basis(2)
    c = np.zeros((5, 5, 5))
    _theta_terms(c, -eps * p, p, -1.0, Z)
    return Bilin(2, c)


@lru_cache(maxsize=None)
def skew_direction_basis(n: int, eps: float) -> LinearSpace:
    """The named skew-torsion family: the affine space through alpha_lc(n, eps)
    whose basis is the named directions in parameter order, s, then (s1, s2)
    = the Theta- and Theta-tilde-directions for n = 3 or (s3, s4) = the theta
    directions for n = 2.

    The name predates the offset and is kept because perfbench's CACHES list
    pins it.
    """
    if n == 3:
        named = (direction_s(3, eps), _delta_s7(-1.0), _delta_s7(1.0j))
    elif n == 2:
        named = (direction_s(2, eps), _delta_s5(eps, -1.0), _delta_s5(eps, 1.0j))
    else:
        named = (direction_s(n, eps),)
    return LinearSpace(np.array([b.coeffs for b in named]), alpha_lc(n, eps))


def skew_family(n: int, eps: float, params) -> Bilin:
    """Skew-torsion family member alpha_lc + s direction_s (+ the two
    n = 2, 3 directions) from variety coordinates (s, aux1, aux2), exactly
    as many of them as the family has parameters (_parameter_rows)."""
    space = skew_direction_basis(n, eps)
    return space.element(_parameter_rows(n, np.atleast_1d(params)[None], space.dim)[0])


def _parameter_rows(n: int, points, k: int) -> np.ndarray:
    """points as rows of the k parameters of the skew family at n, shape
    (p, k); an empty points is no rows.  ValueError where points is not a
    stack of rows, or its rows are not k wide."""
    X = np.asarray(points, dtype=float)
    if X.ndim == 2 and X.shape[1] == k:
        return X
    if X.shape[:1] == (0,):
        return X.reshape(0, k)
    if X.ndim != 2:
        raise _width_error(n, k, f"points must be rows of them, got shape {X.shape}")
    raise _width_error(n, k, f"got rows of {X.shape[1]}")


def _width_error(n: int, k: int, detail: str) -> ValueError:
    return ValueError(f"the skew family of n = {n} has {k} parameter{'s' if k > 1 else ''}; "
                      f"{detail}")


# ---------------------------------------------------------------------------
# closed-form torsion / curvature / Ricci


def closed_torsion(n: int, eps: float, params: FamilyParams) -> Bilin:
    """Torsion of the metric family, componentwise closed form:
    (cz (b z - a w), (Re q - 1)(<w,z> - <z,w>)) with <z, w> = conj(z)^t w and
    cz = -eps q - t - (n+1)/n.  On S^7 the z-slot gains 2p conj(z) x conj(w);
    on S^5 it gains (-eps p - p2)(b theta(z) - a theta(w)) and the a-slot
    -2i Im(conj(p) <theta(z), w>)."""
    params.check_n(n)
    q, t, p = params.q, params.t, params.p
    Z, h, ZJ = _basis(n)
    c = np.zeros((2 * n + 1,) * 3)
    Tb = _times_z(1j * (-eps * q - t - (n + 1) / n), ZJ)  # cz b z with b = i
    c[:, -1] = Tb
    c[-1] -= Tb
    c[..., -1] = -2 * (q.real - 1) * h.imag  # (Re q - 1)(<w,z> - <z,w>)
    if params.regime == "s7":
        c += _to_coords(2 * p * _ccross(Z[:, None], Z[None]), 0.0)
    elif params.regime == "s5":
        _theta_terms(c, -eps * p - params.p2, p, -2.0, Z)
    return Bilin(n, c)


def _require_skew(n: int, eps: float, params: FamilyParams) -> float:
    if params.regime == "s5":
        raise UnsupportedRegimeError(
            "no closed curvature/Ricci for the S^5 regime; use the generic calculus"
        )
    if not params.skew_eligible(n, eps):
        raise ValueError("closed curvature/Ricci require skew-eligible parameters")
    return float(complex(params.q).real)


def closed_curvature(n: int, eps: float, params: FamilyParams) -> CurvTensor:
    """Curvature of the skew family, componentwise closed form.

    Available for the general regime (n >= 4 and n = 1) and for S^7.  With
    (z, a), (w, b), (u, c) the arguments and <z, w> = conj(z)^t w:

        R_z = (eps q^2 / 2)(z (<w,u> - <u,w>) + w (<u,z> - <z,u>))
              + z <w,u> - w <z,u> + (-eps q + 2 eps + 1) u (<w,z> - <z,w>)
              + eps^2 (q^2 - 2q) c (b z - a w),
        R_a = -(eps/2)(q^2 - 2q)((<z,u> + <u,z>) b - (<w,u> + <u,w>) a),

    and on S^7 also, with C(x, y) = conj(x) x conj(y),
    (2 eps q - 4 eps - 4) p (a C(w,u) - b C(z,u)) + 2 eps q p c C(z,w)
    + |p|^2 (conj(z) x (w x u) - conj(w) x (z x u)) in R_z and
    2 i q Im(conj(p) det[z w u]) in R_a.

    R is antisymmetric in (X, Y), so it is built as B - B^(ij) from the
    terms B(X, Y, Z) of one sign.  By x x (y x v) = y (x.v) - v (x.y), the
    double cross product contributes -|p|^2 z <w,u> + |p|^2 u <w,z> to B,
    and det[z w u] = conj(C(z, w)).u.
    """
    params.check_n(n)
    q = _require_skew(n, eps, params)
    p = params.p
    pp = (p * np.conj(p)).real if params.regime == "s7" else 0.0
    Z, h, ZJ = _basis(n)
    e2 = q * q - 2 * q
    # z S(w, u) and u S(z, w): one matmul each
    Sz = 1j * eps * q * q * h.imag + (1 - pp) * h
    Su = (-eps * q + 2 * eps + 1 + pp) * h.conj()
    B = _times_z(Sz, ZJ).transpose(2, 0, 1, 3) + _times_z(Su, ZJ)
    B[:, -1, -1] -= eps * eps * e2 * ZJ[0]  # c b z with b c = -1
    B[:, -1, :, -1] = -eps * e2 * h.real  # the a-slot, zero so far: b Re<z, u>, b = i
    if params.regime == "s7":
        C = _ccross(Z[:, None], Z[None])
        B[:, -1] -= _to_coords(1j * (2 * eps * q - 4 * eps - 4) * p * C, 0.0)  # b C(z, u)
        B[:, :, -1] += _to_coords(1j * eps * q * p * C, 0.0)  # c C(z, w)
        B[..., -1] += q * np.imag(np.conj(p) * (np.conj(C) @ Z.T))  # det[z w u]
    return CurvTensor(n, B - B.transpose(1, 0, 2, 3))


def closed_ricci(n: int, eps: float, params: FamilyParams) -> Rank2Tensor:
    """Ricci of the skew family: 2(eps(q^2-2q+2)+n+1) on the z-block and
    2 n eps^2 (q^2-2q) ab on the fiber, minus 4 p conj(p) on the z-block for S^7."""
    params.check_n(n)
    q = _require_skew(n, eps, params)
    cz = 2 * (eps * (q * q - 2 * q + 2) + n + 1)
    ca = 2 * n * eps * eps * (q * q - 2 * q)
    if params.regime == "s7":
        cz -= 4 * (params.p * np.conj(params.p)).real
    d = 2 * n + 1
    Ric = np.zeros((d, d))
    Ric.reshape(-1)[: (d - 1) * (d + 1) : d + 1] = cz  # the z-block's diagonal
    Ric[d - 1, d - 1] = -ca  # ab = -1 on the pair ((0,i),(0,i))
    return Rank2Tensor(n, Ric)
