"""Closed-form connection families on the Berger spheres, per n-regime.

Regimes: "general_n" covers n >= 4 and, verbatim with (n+1)/n = 2, also
n = 1; "s7" (n = 3) adds a complex cross-product direction; "s5" (n = 2)
adds the almost-contact directions built from theta(z1, z2) = (-conj(z2),
conj(z1)).  Every family and every closed torsion/curvature is written once
as a formula in the tangent coordinates (z, a), (w, b), (u, c) of its
arguments.  The formula is evaluated once on arrays that hold the whole
standard basis along one broadcast axis per argument, which yields the
coefficient tensor that the generic tensor calculus is compared against.

The skew-torsion family is written once, as one affine space
(skew_direction_basis): the Levi-Civita map plus the named directions in the
paper's coordinates (s; s1, s2 on S^7; s3, s4 on S^5).  skew_family reads its
members off that space.  The generic side builds its skew space without it
(spaces.skew_torsion_space), and cli's verify checks that the named
directions lie in it.

The base-point tensors (psi, eta, xi, Phi, and for small n Theta,
Theta-tilde, psi-hat) render the skew directions in coordinate-free form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import MVec
from .config import TOL_EXACT, TOL_NUM
from .nomizu import CurvTensor, Rank2Tensor
from .spaces import Bilin, LinearSpace


class UnsupportedRegimeError(ValueError):
    """Closed form not available; use the generic calculus instead."""


def theta(z: np.ndarray) -> np.ndarray:
    """su(2)-equivariant map on C^2 (last axis): (z1, z2) -> (-conj(z2), conj(z1))."""
    return np.conj(z[..., ::-1]) * np.array([-1.0, 1.0])


def _ccross(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """conj(z) x conj(w), the conjugated C^3 cross product."""
    return np.cross(np.conj(z), np.conj(w))


def _dot(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """conj(z)^t w over the last axis, kept as a length-1 axis."""
    return np.sum(np.conj(z) * w, axis=-1, keepdims=True)


def _tabulate(n: int, rank: int, f) -> np.ndarray:
    """Real coefficients of the (z, a)-formula f of rank arguments on all
    standard basis tuples.

    f receives one (z, a) pair per argument; the standard basis runs along
    that argument's own axis, z has a last axis of length n and a one of
    length 1.  It returns the (z, a) of the value, and the result is
    c[i, j, ..., l] = e_l-coefficient of f(e_i, e_j, ...).
    """
    d = 2 * n + 1
    E = np.eye(d)  # row i holds the coordinates of e_i, read back as (z, a)
    z, a = E[:, 0 : 2 * n : 2] + 1j * E[:, 1 : 2 * n : 2], 1j * E[:, -1:]
    args = []
    for k in range(rank):
        axes = [1] * rank
        axes[k] = d
        args.append((z.reshape(axes + [n]), a.reshape(axes + [1])))
    dz, da = f(*args)
    da = np.asarray(da)
    if not np.all(np.abs(da.real) <= TOL_EXACT):
        raise ValueError("the a-component of a closed form must be purely imaginary")
    c = np.empty((d,) * rank + (d,))
    c[..., 0 : 2 * n : 2], c[..., 1 : 2 * n : 2], c[..., -1:] = dz.real, dz.imag, da.imag
    return c


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (q, t, p, p2) of a connection family in one regime.

    The derived skew parameters are s = 1 - q and, where applicable,
    (s1, s2) resp. (s3, s4) = (-Re p, Im p).
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

    @property
    def s(self) -> float:
        return float((1 - self.q).real)

    @property
    def s1(self) -> float:
        return -self.p.real

    @property
    def s2(self) -> float:
        return self.p.imag

    s3 = s1
    s4 = s2

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


@dataclass(frozen=True)
class PointTensors:
    """Invariant tensors at the base point, in m-coordinates.

    Theta and Theta-tilde exist only for n = 3, psi-hat only for n = 2.
    """

    n: int

    def psi(self, X: MVec) -> MVec:
        return MVec(self.n, 1j * X.z, 0.0)

    def eta(self, X: MVec) -> float:
        # the real number i*a for purely imaginary a
        return float((1j * X.a).real)

    @property
    def xi(self) -> MVec:
        return MVec(self.n, np.zeros(self.n, dtype=complex), -1j)

    def Phi(self, X: MVec, Y: MVec) -> float:
        return float(-np.imag(np.conj(X.z) @ Y.z))

    def Omega(self, X: MVec, Y: MVec, Z: MVec) -> float:
        self._require(3, "Omega")
        return float(-np.real(np.linalg.det(np.column_stack([X.z, Y.z, Z.z]))))

    def Theta(self, X: MVec, Y: MVec) -> MVec:
        self._require(3, "Theta")
        return MVec(3, -_ccross(X.z, Y.z), 0.0)

    def Theta_tilde(self, X: MVec, Y: MVec) -> MVec:
        self._require(3, "Theta_tilde")
        return MVec(3, 1j * _ccross(X.z, Y.z), 0.0)

    def psi_hat(self, X: MVec) -> MVec:
        self._require(2, "psi_hat")
        return MVec(2, theta(X.z), 0.0)

    def _require(self, n: int, name: str) -> None:
        if self.n != n:
            raise ValueError(f"{name} is only defined for n = {n}")


def point_tensors(n: int) -> PointTensors:
    if n < 1:
        raise ValueError("n must be >= 1")
    return PointTensors(n)


# ---------------------------------------------------------------------------
# connection families


def alpha_general(n: int, q1: complex, q2: complex, q3: complex, t: float) -> Bilin:
    """alpha(X, Y) = (q1 b z + q2 a w, i(t a b + Im(q3 conj(z)^t w)))."""

    def f(X, Y):
        (z, a), (w, b) = X, Y
        return q1 * b * z + q2 * a * w, 1j * (t * (a * b).real + np.imag(q3 * _dot(z, w)))

    return Bilin(n, _tabulate(n, 2, f))


def alpha_metric(n: int, eps: float, q: complex, t: float) -> Bilin:
    """Metric-compatible family: (-eps q b z + t a w, -i Im(conj(q) conj(z)^t w))."""
    return alpha_general(n, -eps * q, t, -np.conj(q), 0.0)


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
    return Bilin(3, _tabulate(3, 2, lambda X, Y: (p * _ccross(X[0], Y[0]), 0.0)))


def _delta_s5(eps: float, p: complex) -> Bilin:
    """The theta terms with coefficient p."""

    def f(X, Y):
        (z, a), (w, b) = X, Y
        dz = -eps * p * (b * theta(z) - a * theta(w))
        return dz, -1j * np.imag(np.conj(p) * _dot(theta(z), w))

    return Bilin(2, _tabulate(2, 2, f))


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
    return LinearSpace(ambient_dim=(2 * n + 1) ** 3, basis=named, offset=alpha_lc(n, eps))


def skew_family(n: int, eps: float, params) -> Bilin:
    """Skew-torsion family member alpha_lc + s direction_s (+ the two
    n = 2, 3 directions) from variety coordinates (s, aux1, aux2), padded
    with zeros and cut to the family's dimension."""
    space = skew_direction_basis(n, eps)
    return space.element((tuple(np.atleast_1d(params)) + (0.0, 0.0))[:space.dim])


# ---------------------------------------------------------------------------
# closed-form torsion / curvature / Ricci


def closed_torsion(n: int, eps: float, params: FamilyParams) -> Bilin:
    """Torsion of the metric family, componentwise closed form."""
    params.check_n(n)
    q, t = params.q, params.t
    cz = -eps * q - t - (n + 1) / n

    def f(X, Y):
        (z, a), (w, b) = X, Y
        dz = cz * (b * z - a * w)
        da = (q.real - 1) * (_dot(w, z) - _dot(z, w))
        if params.regime == "s7":
            dz = dz + 2 * params.p * _ccross(z, w)
        elif params.regime == "s5":
            dz = dz + (-eps * params.p - params.p2) * (b * theta(z) - a * theta(w))
            da = da - 2j * np.imag(np.conj(params.p) * _dot(theta(z), w))
        return dz, da

    return Bilin(n, _tabulate(n, 2, f))


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

    Available for the general regime (n >= 4 and n = 1) and for S^7.
    """
    params.check_n(n)
    q = _require_skew(n, eps, params)
    p = params.p

    def f(X, Y, Z):
        (z, a), (w, b), (u, c) = X, Y, Z
        zu, uz = _dot(z, u), _dot(u, z)
        wu, uw = _dot(w, u), _dot(u, w)
        wz, zw = _dot(w, z), _dot(z, w)
        dz = (
            0.5 * eps * q * q * (z * (wu - uw) + w * (uz - zu))
            + z * wu
            - w * zu
            + (-eps * q + 2 * eps + 1) * u * (wz - zw)
            + eps * eps * (q * q - 2 * q) * c * (b * z - a * w)
        )
        da = -0.5 * eps * (q * q - 2 * q) * ((zu + uz) * b - (wu + uw) * a)
        if params.regime == "s7":
            dz = dz + (
                (2 * eps * q - 4 * eps - 4) * p * (a * _ccross(w, u) - b * _ccross(z, u))
                + 2 * eps * q * p * c * _ccross(z, w)
                + (p * np.conj(p))
                * (np.cross(np.conj(z), np.cross(w, u)) - np.cross(np.conj(w), np.cross(z, u)))
            )
            det = np.sum(z * np.cross(w, u), axis=-1, keepdims=True)  # det[z w u]
            da = da + 2 * q * 1j * np.imag(np.conj(p) * det)
        return dz, da

    return CurvTensor(n, _tabulate(n, 3, f))


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
    Ric[: d - 1, : d - 1] = cz * np.eye(d - 1)
    Ric[d - 1, d - 1] = -ca  # ab = -1 on the pair ((0,i),(0,i))
    return Rank2Tensor(n, Ric)
