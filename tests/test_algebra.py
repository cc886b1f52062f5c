import numpy as np
import pytest

import reference as ref
from bergerconn import algebra
from bergerconn.algebra import (
    Metric,
    MVec,
    adjoint_matrices,
    h_basis,
    standard_basis,
    structure_tensors,
)
from conftest import random_vector

TOL = 1e-9


def e(n, k):
    z = np.zeros(n, dtype=complex)
    z[k] = 1.0
    return z


def table_bracket(n, x, y):
    """[X, Y] from the running tables: the coordinates of its m-part, and its
    h-part as the matrix of its action on m."""
    Cm, Hterm = structure_tensors(n)
    return np.einsum("i,j,ijk->k", x, y, Cm), np.einsum("i,j,ijkl->lk", x, y, Hterm)


class TestMVec:
    def test_rejects_real_part(self):
        with pytest.raises(ValueError):
            MVec(1, np.array([1.0 + 0j]), 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MVec(1, np.array([np.inf + 0j]), 0.0)

    def test_coords_roundtrip(self, rng):
        x = random_vector(rng, 3)
        assert np.array_equal(MVec(3, *algebra._from_coords(x)).coords(), x)


class TestEmbedding:
    def test_n1_real_vector(self):
        A = algebra._embed(e(1, 0), 0.0)
        assert np.allclose(A, np.array([[0, 1], [-1, 0]]))

    def test_n2_fiber_direction(self):
        A = algebra._embed(np.zeros(2, dtype=complex), 1j)
        assert np.allclose(A, np.diag([-0.5j, -0.5j, 1j]))

    def test_n2_imaginary_entry(self):
        A = algebra._embed(np.array([1j, 0.0]), 0.0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = 1j
        expected[2, 0] = 1j
        assert np.allclose(A, expected)

    def test_embed_is_ambient(self, rng):
        # anti-Hermitian and traceless: a matrix of su(n+1)
        algebra._require_su(ref.embed(random_vector(rng, 3)), "A")


class TestProject:
    def test_m_projects_to_itself(self, rng):
        x = random_vector(rng, 2)
        B, m = ref.split(ref.embed(x))
        assert np.abs(B).max() < 1e-15
        assert np.allclose(m, x)

    def test_h_projects_to_itself(self):
        B = np.array([[1j, 1.0], [-1.0, -1j]])
        h, m = ref.split(ref.embed_h(B))
        assert np.allclose(h, B)
        assert np.abs(m).max() < 1e-15

    def test_linearity(self, rng):
        x = random_vector(rng, 2)
        B = np.array([[1j, 2 + 1j], [-2 + 1j, -1j]])
        h, m = ref.split(ref.embed(x) + ref.embed_h(B))
        assert np.allclose(h, B)
        assert np.allclose(m, x)


class TestBrackets:
    """The bracket as the running tables hold it: the m-part Cm, the action
    of the h-part Hterm and the su(n) action adjoint_matrices."""

    def test_mm_antisymmetry(self, rng):
        Cm, Hterm = structure_tensors(3)
        assert np.array_equal(Cm, -Cm.swapaxes(0, 1))
        assert np.array_equal(Hterm, -Hterm.swapaxes(0, 1))
        x = random_vector(rng, 3)
        m, h = table_bracket(3, x, x)
        assert np.abs(h).max() < TOL and np.abs(m).max() < TOL

    def test_fiber_acts_as_complex_structure(self, rng):
        # [(0,i), (w,0)] = (-i(n+1)/n w, 0), with h-part zero
        for n in (1, 2, 4):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m, h = table_bracket(n, np.eye(2 * n + 1)[-1], ref.coords(w))
            assert np.abs(h).max() < 1e-14
            assert np.allclose(m, ref.coords(-1j * (n + 1) / n * w))

    def test_z_block_closes_on_fiber(self):
        # [(e1,0), (i e1,0)] for n = 2 has nonzero h-part and m-part (0, c i)
        x, y = ref.coords(e(2, 0)), ref.coords(1j * e(2, 0))
        m, h = table_bracket(2, x, y)
        assert np.abs(h).max() > 0.1
        assert np.abs(m[:-1]).max() < 1e-14
        # oracle: the ambient commutator
        C = ref.commutator(ref.embed(x), ref.embed(y))
        assert abs(m[-1] - C[2, 2].imag) < 1e-14 and abs(C[2, 2].real) < 1e-14

    def test_hm_kills_fiber(self):
        _, Hterm = structure_tensors(3)
        assert np.abs(adjoint_matrices(3)[:, :, -1]).max() == 0
        assert np.abs(Hterm[:, :, -1]).max() == 0

    def test_hm_zero_h(self):
        # the action is faithful: only h = 0 acts on m as zero
        for n in (2, 3, 4):
            A = adjoint_matrices(n)
            assert np.linalg.matrix_rank(A.reshape(len(A), -1)) == n * n - 1

    def test_hm_diagonal_action(self):
        # h_basis(2)[2] = diag(i, -i) maps (e1, 0) to (i e1, 0)
        B = h_basis(2)[2]
        assert np.array_equal(B, np.diag([1j, -1j]))
        out = adjoint_matrices(2)[2] @ ref.coords(e(2, 0))
        assert np.allclose(out, ref.coords(1j * e(2, 0)))
        assert np.array_equal(out, ref.bracket_hm(B, ref.coords(e(2, 0))))

    def test_hm_agrees_with_ambient(self, rng):
        x = random_vector(rng, 3)
        for B, A in zip(h_basis(3), adjoint_matrices(3)):
            _, m = ref.split(ref.commutator(ref.embed_h(B), ref.embed(x)))
            assert np.abs(A @ x - m).max() < 1e-12
            assert np.abs(ref.bracket_hm(B, x) - m).max() < 1e-12

    def test_mm_bilinear(self, rng):
        # the per-pair bracket is bilinear, and the tables give it at any pair
        x, y, w = (random_vector(rng, 2) for _ in range(3))
        c = 1.7
        lhs = ref.bracket_mm(x + c * w, y)
        a, b = ref.bracket_mm(x, y), ref.bracket_mm(w, y)
        assert np.abs(lhs[1] - (a[1] + c * b[1])).max() < TOL
        assert np.abs(lhs[0] - (a[0] + c * b[0])).max() < TOL
        m, h = table_bracket(2, x + c * w, y)
        assert np.abs(m - lhs[1]).max() < TOL
        action = np.array([ref.bracket_hm(lhs[0], v) for v in np.eye(5)]).T
        assert np.abs(h - action).max() < TOL


class TestMetric:
    """The metric as Metric.gram holds it, against the formula
    Re(z^t conj(w)) + eps a b."""

    def test_unit_z_vector(self):
        x = ref.coords(e(1, 0))
        assert ref.metric(-1.0, x, x) == 1.0 == Metric(1, -1.0).gram()[0, 0]

    def test_fiber_norm_is_minus_eps(self):
        for eps in (-2.0, -1.0, 0.5, 3.0):
            xi = np.eye(5)[-1]
            assert abs(ref.metric(eps, xi, xi) + eps) < 1e-15
            assert xi @ Metric(2, eps).gram() @ xi == -eps

    def test_blocks_orthogonal(self):
        x, xi = ref.coords(e(1, 0)), np.eye(3)[-1]
        assert ref.metric(2.0, x, xi) == 0 == Metric(1, 2.0).gram()[0, -1]

    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError):
            Metric(2, 0.0)

    def test_signature(self):
        # Riemannian iff eps < 0: every orthonormal sign is +1 there, and the
        # fibre's is -1 for eps > 0
        assert (ref.orthonormal_scales(Metric(2, -1.0))[1] == 1.0).all()
        assert ref.orthonormal_scales(Metric(2, 2.0))[1].tolist() == [1.0] * 4 + [-1.0]


def frame_gram(g):
    """Gram matrix, by the metric formula, of the frame f_j = scale_j e_j of
    reference.orthonormal_scales, with the scales and signs."""
    scale, signs = ref.orthonormal_scales(g)
    return ref.gram(g.eps, np.diag(scale)), scale, signs


class TestBases:
    @pytest.mark.parametrize("n,eps", [(1, -1.0), (2, -1.0), (2, 2.0)])
    def test_gram_of_standard_basis(self, n, eps):
        basis = np.array([X.coords() for X in standard_basis(n)])
        assert np.array_equal(basis, np.eye(2 * n + 1))
        assert np.allclose(ref.gram(eps, basis), Metric(n, eps).gram())

    def test_orthonormal_round_case(self):
        G, scale, signs = frame_gram(Metric(2, -1.0))
        assert np.all(scale == 1) and np.all(signs == 1)
        assert np.abs(G - np.eye(5)).max() < 1e-15

    def test_orthonormal_lorentzian(self):
        G, scale, signs = frame_gram(Metric(2, 4.0))
        assert abs(scale[-1] - 0.5) < 1e-15
        assert signs[-1] == -1
        assert np.abs(G - np.diag(signs)).max() < 1e-12

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


def cyclic(T):
    """T[i, j, k, ...] + T[j, k, i, ...] + T[k, i, j, ...]."""
    return T + np.moveaxis(T, (0, 1, 2), (2, 0, 1)) + np.moveaxis(T, (0, 1, 2), (1, 2, 0))


class TestLieAlgebraProperties:
    """Identities of su(n+1) = h + m, checked on the tables the program runs:
    Cm, Hterm and adjoint_matrices."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobi_identity(self, n):
        Cm, Hterm = structure_tensors(n)
        A = adjoint_matrices(n)
        # m, m, m: [X, [Y, Z]] = [X, [Y, Z]_m] - [[Y, Z]_h, X], cyclically
        m_part = np.einsum("jkl,ilm->ijkm", Cm, Cm) - np.einsum("jkim->ijkm", Hterm)
        assert np.abs(cyclic(m_part)).max() < TOL
        # its h-part, read through its action on m, which is faithful
        h_part = np.einsum("jkl,ilpm->ijkpm", Cm, Hterm)
        assert np.abs(cyclic(h_part)).max() < TOL
        # h, m, m: h acts on [X, Y] as a derivation, on both parts; act[i, j]
        # is the matrix of [X, Y]_h on m
        act = Hterm.swapaxes(2, 3)
        for Ar in A:
            dm = (np.einsum("kl,ijl->ijk", Ar, Cm) - np.einsum("li,ljk->ijk", Ar, Cm)
                  - np.einsum("lj,ilk->ijk", Ar, Cm))
            assert np.abs(dm).max() < TOL
            dh = (Ar @ act - act @ Ar - np.einsum("li,ljpk->ijpk", Ar, act)
                  - np.einsum("lj,ilpk->ijpk", Ar, act))
            assert np.abs(dh).max() < TOL
        # h, h, m: the action is a representation, [A_r, A_s] = A([h_r, h_s])
        H = h_basis(n)
        flat = H.view(float).reshape(len(H), 2 * n * n).T
        for r, s in zip(*np.triu_indices(len(H), 1)):
            C = ref.commutator(H[r], H[s]).view(float).ravel()
            c = np.linalg.lstsq(flat, C, rcond=None)[0]
            assert np.abs(flat @ c - C).max() < TOL
            assert np.abs(ref.commutator(A[r], A[s]) - np.tensordot(c, A, 1)).max() < TOL

    @pytest.mark.parametrize("n", [2, 3])
    def test_reductivity(self, n):
        # [h, m] lies in m: lifting a table column back into su(n+1) gives
        # the whole ambient commutator, with no h-part left over
        basis = np.eye(2 * n + 1)
        _, Hterm = structure_tensors(n)
        for B, A in zip(h_basis(n), adjoint_matrices(n)):
            for k, x in enumerate(basis):
                C = ref.commutator(ref.embed_h(B), ref.embed(x))
                assert np.abs(C - ref.embed(A[:, k])).max() < TOL
        for i in range(len(basis)):
            for j in range(len(basis)):
                B, _ = ref.bracket_mm(basis[i], basis[j])
                for k, x in enumerate(basis):
                    C = ref.commutator(ref.embed_h(B), ref.embed(x))
                    assert np.abs(C - ref.embed(Hterm[i, j, k])).max() < TOL

    @pytest.mark.parametrize("eps", [-3.0, -1.0, 0.5, 2.0])
    def test_metric_h_invariance(self, eps):
        # g([h, X], Y) + g(X, [h, Y]) = 0: A^t G + G A = 0 for every A
        G = ref.gram(eps, np.eye(5))
        assert np.array_equal(G, Metric(2, eps).gram())
        for A in adjoint_matrices(2):
            assert np.abs(A.T @ G + G @ A).max() < TOL


class TestBatchedTables:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equal_to_per_entry_tabulation(self, n):
        Cm, Hterm, A = ref.per_entry_tables(n)
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
        # the frame of reference.orthonormal_scales is g_eps-orthonormal by
        # the metric formula, and trace_weights are its sign_j scale_j^2
        for eps in (-3.0, -1.0, 0.25, 2.0):
            g = Metric(3, eps)
            G, scale, signs = frame_gram(g)
            assert np.abs(G - np.diag(signs)).max() < 1e-12
            assert np.allclose(g.trace_weights(), signs * scale * scale, rtol=1e-15, atol=0)
