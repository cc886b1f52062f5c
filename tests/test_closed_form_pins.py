"""Byte pins: the helpers of the closed forms (families) and the one-map
products of the generic calculus (nomizu) against the numpy forms they
replaced, kept here as reference implementations.

Every output must be np.array_equal to its reference, so a change to the
order of any rounding step fails.  The public closed forms are pinned by
computing them twice, once with the reference helpers patched in; the lru
caches are bypassed on both sides, and neither read nor filled.
"""

import numpy as np
import pytest

from bergerconn import cli, families, nomizu
from bergerconn.algebra import Metric, _from_coords, _to_coords
from bergerconn.families import FamilyParams
from bergerconn.spaces import Bilin
import reference

N_GRID = range(1, 9)
EPS_GRID = cli.EPS_SWEEP + (-1.5,)
#: (s, aux1, aux2) of the skew family; the metric family reads them as (q, t, p, p2)
POINTS = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.4, -1.3, 0.7), (-2.0, 1.5, -0.25)]
REGIME = {1: "s3", 2: "s5", 3: "s7"}


# ---------------------------------------------------------------------------
# reference implementations


def basis_ref(n):
    Z, _ = _from_coords(np.eye(2 * n + 1))
    h = np.conj(Z) @ Z.T
    return Z, h, np.stack([h.real, h.imag])


def times_z_ref(S, ZJ):
    S = np.asarray(S, dtype=complex)
    Sr = np.stack([S.real, S.imag], axis=-1).reshape(-1, 2)
    return (Sr @ ZJ.reshape(2, -1)).reshape(S.shape + ZJ.shape[1:])


def ccross_ref(z, w):
    return np.cross(np.conj(z), np.conj(w))


def closed_ricci_ref(n, eps, params):
    q = float(complex(params.q).real)
    cz = 2 * (eps * (q * q - 2 * q + 2) + n + 1)
    ca = 2 * n * eps * eps * (q * q - 2 * q)
    if params.regime == "s7":
        cz -= 4 * (params.p * np.conj(params.p)).real
    d = 2 * n + 1
    Ric = np.zeros((d, d))
    Ric[: d - 1, : d - 1] = cz * np.eye(d - 1)
    Ric[d - 1, d - 1] = -ca
    return Ric


def s_tensor_ref(alpha, g):
    # the weight sign_j scale_j^2 of the orthonormal frame is 1 / g_jj
    T = nomizu.torsion(alpha).coeffs
    G = g.gram()
    return np.tensordot((T @ G) / G.diagonal()[:, None, None], T, axes=([0, 2], [0, 2]))


def torsion_form_ref(alpha, g):
    return np.einsum("ijk,kl->ijl", nomizu.torsion(alpha).coeffs, g.gram())


# ---------------------------------------------------------------------------


def assert_pinned(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype, what
    assert np.array_equal(got, ref), f"{what}: largest difference {np.abs(got - ref).max():.3e}"


def _params(n, eps, x):
    """A skew-eligible and a generic metric-family parameter set at x."""
    regime = REGIME.get(n, "general_n")
    s, u, v = x
    return (FamilyParams.skew(regime, n, eps, s, u, v),
            FamilyParams(regime, complex(s, u), v, complex(u, s), complex(v, s)))


def _closed_forms(n, eps):
    """Every public closed-form output at (n, eps) over POINTS, computed
    through the module's current helpers with the lru caches bypassed."""
    space = families.skew_direction_basis.__wrapped__(n, eps)
    out = {
        "alpha_lc": families.alpha_lc(n, eps).coeffs,
        "direction_s": families.direction_s(n, eps).coeffs,
        "skew_direction_basis.maps": space.maps,
        "skew_direction_basis.offset": space.offset.coeffs,
    }
    for x in POINTS:
        skew, metric = _params(n, eps, x)
        out[f"closed_torsion{x}"] = families.closed_torsion(n, eps, skew).coeffs
        out[f"closed_torsion{x} off the skew family"] = families.closed_torsion(
            n, eps, metric).coeffs
        out[f"alpha_metric{x}"] = reference.alpha_metric(n, eps, metric.q, metric.t).coeffs
        if n != 2:
            out[f"closed_curvature{x}"] = families.closed_curvature(n, eps, skew).coeffs
    return out


@pytest.fixture
def uncached(monkeypatch):
    """alpha_lc and direction_s without their caches, as skew_direction_basis
    reads them too."""
    monkeypatch.setattr(families, "alpha_lc", families.alpha_lc.__wrapped__)
    monkeypatch.setattr(families, "direction_s", families.direction_s.__wrapped__)


class TestHelpers:
    @pytest.mark.parametrize("n", N_GRID)
    def test_basis(self, n):
        for name, got, ref in zip(("Z", "h", "ZJ"), families._basis(n), basis_ref(n)):
            assert_pinned(got, ref, f"_basis({n}).{name}")

    @pytest.mark.parametrize("n", N_GRID)
    def test_times_z(self, n, rng):
        _, h, ZJ = families._basis(n)
        d = 2 * n + 1
        for S in (1j * 0.7, -1.25, 0.0, h, h.conj(), 1j * 0.3 * h.imag + 0.9 * h,
                  rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                  (rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))).T,
                  rng.standard_normal(4)):
            assert_pinned(families._times_z(S, ZJ), times_z_ref(S, ZJ), f"_times_z at n = {n}")

    def test_ccross(self, rng):
        Z = families._basis(3)[0]
        pairs = [(Z[:, None], Z[None]), (Z, Z[::-1]),
                 (rng.standard_normal((4, 1, 3)) + 1j * rng.standard_normal((4, 1, 3)),
                  rng.standard_normal((5, 3)) - 1j * rng.standard_normal((5, 3))),
                 (rng.standard_normal(3), rng.standard_normal(3))]
        for z, w in pairs:
            assert_pinned(families._ccross(z, w), ccross_ref(z, w), f"_ccross on {z.shape}, {w.shape}")

    def test_theta_on_vectors(self, rng):
        # _ccross on one pair of vectors, against the np.cross forms of Theta
        # and Theta-tilde in the reference
        for _ in range(50):
            x, y = (_to_coords(rng.standard_normal(3) + 1j * rng.standard_normal(3), 0.0)
                    for _ in range(2))
            C = families._ccross(_from_coords(x)[0], _from_coords(y)[0])
            assert_pinned(_to_coords(-C, 0.0), reference.Theta(x, y), "Theta")
            assert_pinned(_to_coords(1j * C, 0.0), reference.Theta_tilde(x, y), "Theta_tilde")


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_closed_forms(n, eps, uncached, monkeypatch):
    got = _closed_forms(n, eps)
    monkeypatch.setattr(families, "_basis", basis_ref)
    monkeypatch.setattr(families, "_times_z", times_z_ref)
    monkeypatch.setattr(families, "_ccross", ccross_ref)
    ref = _closed_forms(n, eps)
    assert got.keys() == ref.keys()
    for key in got:
        assert_pinned(got[key], ref[key], f"{key} at n = {n}, eps = {eps}")


@pytest.mark.parametrize("n", [1, *range(3, 9)])
@pytest.mark.parametrize("eps", EPS_GRID)
def test_closed_ricci(n, eps):
    for x in POINTS:
        skew, _ = _params(n, eps, x)
        assert_pinned(families.closed_ricci(n, eps, skew).coeffs,
                      closed_ricci_ref(n, eps, skew), f"closed_ricci{x}")


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_one_map_products(n, eps, rng):
    g = Metric(n, eps)
    d = 2 * n + 1
    k = 3 if n in (2, 3) else 1
    maps = [families.skew_family(n, eps, x[:k]) for x in POINTS]
    maps += [reference.alpha_metric(n, eps, _params(n, eps, x)[1].q, x[2]) for x in POINTS]
    maps += [Bilin(n, rng.uniform(-2, 2, size=(d, d, d))) for _ in range(3)]
    for i, alpha in enumerate(maps):
        assert_pinned(nomizu.s_tensor(alpha, g).coeffs, s_tensor_ref(alpha, g), f"s_tensor, map {i}")
        assert_pinned(nomizu.torsion_form(alpha, g), torsion_form_ref(alpha, g),
                      f"torsion_form, map {i}")
