import numpy as np
import pytest
from hypothesis import strategies as st

from bergerconn import cli, spaces

# skew-family members, n = 1..6: |eps| in [0.1, 3] with its sign drawn
# apart, and three coordinates (s, aux1, aux2) that each n cuts to its own
members = dict(
    n=st.integers(1, 6),
    eps=st.floats(0.1, 3.0),
    sign=st.sampled_from((-1.0, 1.0)),
    x=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cold_spaces():
    """Empty the caches of the generic spaces, so that a call reaches what a
    test patches beneath them, such as the Levi-Civita map beneath
    skew_torsion_space."""
    for build in (spaces.invariant_bilinear_space, spaces.metric_connection_space,
                  spaces.skew_torsion_space):
        build.cache_clear()


def random_vector(rng, n):
    """Real coordinates of a random tangent vector (z, a) of m, length 2n + 1."""
    return rng.standard_normal(2 * n + 1)


def assert_verify_passes(n, eps, draws):
    """Every check of `bergerconn verify` passes at (n, eps) over the draws."""
    failing = [(name, residual, tol)
               for name, residual, tol in cli._verification_checks(n, eps, draws)
               if not residual <= tol]
    assert failing == [], f"n={n}, eps={eps}: {failing}"


def gapless_torsion_space(n):
    """A basis of three maps whose torsion differences alpha - alpha^t are
    2 A0, 2 (A0 + 1e-7 A1) and 2 (A0 + 1e-10 A2), A orthonormal maps
    antisymmetric in their first two slots: singular values near 3.5, 1.6e-7
    and 1.4e-10, so the torsion rank has no clear gap.  Each map also has an
    orthonormal part symmetric in those slots, which its torsion does not
    see, so the basis itself is well conditioned."""
    d = 2 * n + 1
    R = np.random.default_rng(5).standard_normal((6, d, d, d))
    parts = np.concatenate([R[:3] - R[:3].swapaxes(1, 2), R[3:] + R[3:].swapaxes(1, 2)])
    A0, A1, A2, S0, S1, S2 = np.linalg.qr(parts.reshape(6, -1).T)[0].T.reshape(6, d, d, d)
    maps = (A0 + S0, A0 + 1e-7 * A1 + S1, A0 + 1e-10 * A2 + S2)
    return spaces.LinearSpace(np.stack(maps))
