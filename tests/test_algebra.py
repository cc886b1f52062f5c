import numpy as np
import pytest

from bergerconn import algebra
from bergerconn.algebra import (
    AmbientMat,
    HVec,
    Metric,
    MVec,
    adjoint_matrices,
    bracket_hm,
    bracket_mm,
    embed_h,
    embed_m,
    h_basis,
    metric_eval,
    orthonormal_basis,
    project,
    standard_basis,
    structure_tensors,
)
from conftest import random_mvec

TOL = 1e-9


def e(n, k):
    z = np.zeros(n, dtype=complex)
    z[k] = 1.0
    return z


class TestMVec:
    def test_rejects_real_part(self):
        with pytest.raises(ValueError):
            MVec(1, np.array([1.0 + 0j]), 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MVec(1, np.array([np.inf + 0j]), 0.0)

    def test_coords_roundtrip(self, rng):
        X = random_mvec(rng, 3)
        Y = MVec.from_coords(3, X.coords())
        assert np.allclose(X.z, Y.z) and abs(X.a - Y.a) < 1e-15


class TestMatrixChecks:
    @pytest.mark.parametrize("cls", [HVec, AmbientMat])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, cls, bad):
        M = np.zeros((2, 2), dtype=complex)
        M[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            cls(M)


class TestEmbedding:
    def test_n1_real_vector(self):
        A = embed_m(MVec(1, np.array([1.0 + 0j]), 0.0)).A
        assert np.allclose(A, np.array([[0, 1], [-1, 0]]))

    def test_n2_fiber_direction(self):
        A = embed_m(MVec(2, np.zeros(2, dtype=complex), 1j)).A
        assert np.allclose(A, np.diag([-0.5j, -0.5j, 1j]))

    def test_n2_imaginary_entry(self):
        A = embed_m(MVec(2, np.array([1j, 0.0]), 0.0)).A
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = 1j
        expected[2, 0] = 1j
        assert np.allclose(A, expected)

    def test_embed_is_ambient(self, rng):
        X = random_mvec(rng, 3)
        assert isinstance(embed_m(X), AmbientMat)


class TestProject:
    def test_m_projects_to_itself(self, rng):
        X = random_mvec(rng, 2)
        h, m = project(embed_m(X))
        assert np.abs(h.B).max() < 1e-15
        assert np.allclose(m.z, X.z) and abs(m.a - X.a) < 1e-15

    def test_h_projects_to_itself(self):
        B = np.array([[1j, 1.0], [-1.0, -1j]])
        h, m = project(embed_h(HVec(B)))
        assert np.allclose(h.B, B)
        assert np.abs(m.coords()).max() < 1e-15

    def test_linearity(self, rng):
        X = random_mvec(rng, 2)
        B = np.array([[1j, 2 + 1j], [-2 + 1j, -1j]])
        A = AmbientMat(embed_m(X).A + embed_h(HVec(B)).A)
        h, m = project(A)
        assert np.allclose(h.B, B)
        assert np.allclose(m.coords(), X.coords())


class TestBrackets:
    def test_mm_antisymmetry(self, rng):
        X = random_mvec(rng, 3)
        h, m = bracket_mm(X, X)
        assert np.abs(h.B).max() < TOL and np.abs(m.coords()).max() < TOL

    def test_fiber_acts_as_complex_structure(self, rng):
        # [(0,i), (w,0)] = (0, (-i(n+1)/n) w, 0) up to the h-part (which is zero)
        for n in (1, 2, 4):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h, m = bracket_mm(MVec(n, np.zeros(n, dtype=complex), 1j), MVec(n, w, 0.0))
            assert np.abs(h.B).max() < 1e-14
            assert np.allclose(m.z, -1j * (n + 1) / n * w)
            assert abs(m.a) < 1e-14

    def test_z_block_closes_on_fiber(self):
        # [(e1,0), (i e1,0)] for n = 2 has nonzero h-part and m-part (0, c i)
        X = MVec(2, e(2, 0), 0.0)
        Y = MVec(2, 1j * e(2, 0), 0.0)
        h, m = bracket_mm(X, Y)
        assert np.abs(h.B).max() > 0.1
        assert np.abs(m.z).max() < 1e-14
        # oracle: ambient commutator
        Ax, Ay = embed_m(X).A, embed_m(Y).A
        C = Ax @ Ay - Ay @ Ax
        assert abs(m.a - C[2, 2]) < 1e-14
        assert abs(m.a.imag - C[2, 2].imag) < 1e-14 and abs(m.a.real) < 1e-14

    def test_hm_kills_fiber(self):
        h = HVec(h_basis(3)[0])
        assert np.abs(bracket_hm(h, MVec(3, np.zeros(3, dtype=complex), 1j)).coords()).max() == 0

    def test_hm_zero_h(self, rng):
        X = random_mvec(rng, 2)
        assert np.abs(bracket_hm(HVec.zero(2), X).coords()).max() == 0

    def test_hm_diagonal_action(self):
        h = HVec(np.diag([1j, -1j]))
        out = bracket_hm(h, MVec(2, e(2, 0), 0.0))
        assert np.allclose(out.z, 1j * e(2, 0)) and out.a == 0

    def test_hm_agrees_with_ambient(self, rng):
        X = random_mvec(rng, 3)
        for h in map(HVec, h_basis(3)):
            Ah, Ax = embed_h(h).A, embed_m(X).A
            _, m = project(AmbientMat(Ah @ Ax - Ax @ Ah))
            assert np.abs(bracket_hm(h, X).coords() - m.coords()).max() < 1e-12

    def test_mm_bilinear(self, rng):
        X, Y, W = (random_mvec(rng, 2) for _ in range(3))
        c = 1.7
        lhs = bracket_mm(MVec(2, X.z + c * W.z, X.a + c * W.a), Y)
        a = bracket_mm(X, Y)
        b = bracket_mm(W, Y)
        assert np.abs(lhs[1].coords() - (a[1].coords() + c * b[1].coords())).max() < TOL
        assert np.abs(lhs[0].B - (a[0].B + c * b[0].B)).max() < TOL


class TestMetric:
    def test_unit_z_vector(self):
        g = Metric(1, -1.0)
        X = MVec(1, e(1, 0), 0.0)
        assert metric_eval(g, X, X) == 1.0

    def test_fiber_norm_is_minus_eps(self):
        for eps in (-2.0, -1.0, 0.5, 3.0):
            g = Metric(2, eps)
            xi = MVec(2, np.zeros(2, dtype=complex), 1j)
            assert abs(metric_eval(g, xi, xi) + eps) < 1e-15

    def test_blocks_orthogonal(self):
        g = Metric(1, 2.0)
        assert metric_eval(g, MVec(1, e(1, 0), 0.0), MVec(1, np.zeros(1, complex), 1j)) == 0

    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError):
            Metric(2, 0.0)

    def test_signature(self):
        assert Metric(2, -1.0).signature == "riemannian"
        assert Metric(2, 2.0).signature == "lorentzian"


class TestBases:
    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, -1.0), (2, 2.0)])
    def test_gram_of_standard_basis(self, n, eps):
        g = Metric(n, eps)
        basis = standard_basis(n)
        G = np.array([[metric_eval(g, X, Y) for Y in basis] for X in basis])
        assert np.allclose(G, g.gram())

    def test_orthonormal_round_case(self):
        basis, signs = orthonormal_basis(Metric(2, -1.0))
        std = standard_basis(2)
        assert all(
            np.abs(b.coords() - s.coords()).max() < 1e-15 for b, s in zip(basis, std)
        )
        assert np.all(signs == 1)

    def test_orthonormal_lorentzian(self):
        basis, signs = orthonormal_basis(Metric(2, 4.0))
        assert abs(basis[-1].a - 0.5j) < 1e-15
        assert signs[-1] == -1
        g = Metric(2, 4.0)
        for b, s in zip(basis, signs):
            assert abs(metric_eval(g, b, b) - s) < 1e-12

    def test_cached_tensors_are_read_only(self):
        for arr in (*structure_tensors(2), adjoint_matrices(2)):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0

    def test_cached_h_basis_is_read_only(self):
        with pytest.raises(ValueError):
            h_basis(3)[0, 0, 1] = 5
        assert h_basis(3)[0, 0, 1] == 1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_h_basis_is_one_stack_in_the_stated_order(self, n):
        H = h_basis(n)
        assert isinstance(H, np.ndarray) and not H.flags.writeable
        assert H.shape == (n * n - 1, n, n) and H.dtype == complex
        assert np.abs(H + np.swapaxes(H, 1, 2).conj()).max(initial=0.0) == 0
        assert np.abs(np.trace(H, axis1=1, axis2=2)).max(initial=0.0) == 0
        expected = []
        for i in range(n):
            for j in range(i + 1, n):
                expected.append(np.zeros((n, n), dtype=complex))
                expected[-1][i, j], expected[-1][j, i] = 1.0, -1.0
                expected.append(np.zeros((n, n), dtype=complex))
                expected[-1][i, j] = expected[-1][j, i] = 1j
        for k in range(n - 1):
            expected.append(np.zeros((n, n), dtype=complex))
            expected[-1][k, k], expected[-1][k + 1, k + 1] = 1j, -1j
        assert np.array_equal(H, np.array(expected).reshape(-1, n, n))
        first_row = [r for r, B in enumerate(H) if B[0, 1:].any()]
        assert first_row == list(range(2 * (n - 1)))


class TestLieAlgebraProperties:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobi_identity(self, n):
        mats = [embed_m(X).A for X in standard_basis(n)]
        mats += [embed_h(HVec(B)).A for B in h_basis(n)]

        def br(a, b):
            return a @ b - b @ a

        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(mats), size=(30, 3))
        for i, j, k in idx:
            J = (
                br(mats[i], br(mats[j], mats[k]))
                + br(mats[j], br(mats[k], mats[i]))
                + br(mats[k], br(mats[i], mats[j]))
            )
            assert np.abs(J).max() < TOL

    @pytest.mark.parametrize("n", [2, 3])
    def test_reductivity(self, n):
        for h in map(HVec, h_basis(n)):
            for X in standard_basis(n):
                Ah, Ax = embed_h(h).A, embed_m(X).A
                hp, _ = project(AmbientMat(Ah @ Ax - Ax @ Ah))
                assert np.abs(hp.B).max() < TOL

    @pytest.mark.parametrize("eps", [-3.0, -1.0, 0.5, 2.0])
    def test_metric_h_invariance(self, eps):
        n = 2
        g = Metric(n, eps)
        for h in map(HVec, h_basis(n)):
            for X in standard_basis(n):
                for Y in standard_basis(n):
                    v = metric_eval(g, bracket_hm(h, X), Y) + metric_eval(
                        g, X, bracket_hm(h, Y)
                    )
                    assert abs(v) < TOL


def per_entry_tables(n):
    """(Cm, Hterm, adjoint) tabulated one bracket at a time."""
    basis = standard_basis(n)
    d = 2 * n + 1
    Cm, Hterm = np.zeros((d, d, d)), np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            h, m = bracket_mm(basis[i], basis[j])
            Cm[i, j] = m.coords()
            Cm[j, i] = -Cm[i, j]
            for k in range(d):
                Hterm[i, j, k] = bracket_hm(h, basis[k]).coords()
                Hterm[j, i, k] = -Hterm[i, j, k]
    hs = [HVec(B) for B in h_basis(n)]
    A = np.zeros((len(hs), d, d))
    for r, h in enumerate(hs):
        for k, X in enumerate(basis):
            A[r][:, k] = bracket_hm(h, X).coords()
    return Cm, Hterm, A


class TestBatchedTables:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equal_to_per_entry_tabulation(self, n):
        Cm, Hterm, A = per_entry_tables(n)
        got_Cm, got_Hterm = structure_tensors(n)
        assert np.array_equal(got_Cm, Cm)
        assert np.array_equal(got_Hterm, Hterm)
        assert adjoint_matrices(n).shape == A.shape
        assert np.array_equal(adjoint_matrices(n), A)

    def test_no_mvec_per_entry(self, monkeypatch):
        n, d = 6, 13
        count = [0]
        post_init = MVec.__post_init__

        def counting(self):
            count[0] += 1
            post_init(self)

        monkeypatch.setattr(MVec, "__post_init__", counting)
        structure_tensors.__wrapped__(n)
        assert count[0] <= d
        count[0] = 0
        adjoint_matrices.__wrapped__(n)
        assert count[0] <= d

    @staticmethod
    def _corrupt_split(monkeypatch, corrupt):
        split = algebra._split

        def bad(M):
            return corrupt(*split(M))

        monkeypatch.setattr(algebra, "_split", bad)

    @pytest.mark.parametrize(
        "corrupt",
        [
            # Hermitian part in one bracket's h-part
            lambda B, z, a: (B + 1e-6 * (np.arange(B.size) == 7).reshape(B.shape), z, a),
            # trace in one h-part, still anti-Hermitian
            lambda B, z, a: (B + 1e-6j * (np.arange(B.size) == 0).reshape(B.shape), z, a),
            # real part in one a
            lambda B, z, a: (B, z, a + 1e-6 * (np.arange(a.size) == 3).reshape(a.shape)),
            # one non-finite z entry
            lambda B, z, a: (B, np.where(np.arange(z.size).reshape(z.shape) == 2, np.nan, z), a),
        ],
        ids=["anti_hermitian", "traceless", "imaginary_a", "finite"],
    )
    def test_structure_tensors_refuse_bad_brackets(self, monkeypatch, corrupt):
        self._corrupt_split(monkeypatch, corrupt)
        with pytest.raises(ValueError):
            structure_tensors.__wrapped__(3)

    def test_structure_tensors_refuse_bad_basis(self, monkeypatch):
        embed = algebra._embed
        monkeypatch.setattr(algebra, "_embed",
                            lambda z, a: embed(z, a) + 1e-3 * np.eye(z.shape[-1] + 1))
        with pytest.raises(ValueError, match="anti-Hermitian"):
            structure_tensors.__wrapped__(2)

    def test_structure_tensors_refuse_bad_commutator(self, monkeypatch):
        # a Hermitian part within TOL_EXACT on large basis matrices passes
        # their own check, but grows past it in every commutator
        embed = algebra._embed
        monkeypatch.setattr(algebra, "_embed",
                            lambda z, a: 1e6 * embed(z, a) + 4e-13 * np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="A must be anti-Hermitian"):
            structure_tensors.__wrapped__(1)

    @pytest.mark.parametrize(
        "B,message",
        [(np.array([[1j, 0.0], [0.0, 1j]]), "B must be traceless"),
         (np.array([[0.0, 1.0], [1.0, 0.0]]), "B must be anti-Hermitian"),
         (np.array([[np.nan, 0.0], [0.0, 0.0]]), "B entries must be finite")],
        ids=["trace", "hermitian", "nan"],
    )
    def test_adjoint_matrices_refuse_bad_generators(self, monkeypatch, B, message):
        stack = np.concatenate([h_basis(2), B[None]])
        monkeypatch.setattr(algebra, "h_basis", lambda n: stack)
        with pytest.raises(ValueError, match=message):
            adjoint_matrices.__wrapped__(2)

    def test_checks_find_one_bad_entry_in_a_stack(self):
        stack = np.zeros((4, 3, 3, 3), dtype=complex)
        algebra._require_su(stack, "A")
        stack[2, 1, 0, 1] = 1.0
        with pytest.raises(ValueError, match="anti-Hermitian"):
            algebra._require_su(stack, "A")
        z, a = np.zeros((4, 5, 2), dtype=complex), np.zeros((4, 5), dtype=complex)
        algebra._require_m(z, a)
        a[3, 4] = 2e-12
        with pytest.raises(ValueError, match="purely imaginary"):
            algebra._require_m(z, a)
        a[3, 4] = 1j * np.inf
        with pytest.raises(ValueError, match="finite"):
            algebra._require_m(z, a)

    def test_orthonormal_scales_match_basis(self):
        for eps in (-3.0, -1.0, 0.25, 2.0):
            g = Metric(3, eps)
            scale, signs = g.orthonormal_scales()
            basis, basis_signs = orthonormal_basis(g)
            coords = np.array([X.coords() for X in basis])
            assert np.array_equal(coords, np.diag(scale))
            assert np.array_equal(signs, basis_signs)
