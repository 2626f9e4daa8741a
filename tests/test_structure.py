import numpy as np
import pytest

from capspec.patterns import (
    CosetPattern,
    PatternFamily,
    design_pair_cover_family,
    is_circular_sparse_ruler,
)
from capspec.structure import (
    build_modulation_matrix,
    build_psi,
    build_repetition_matrix,
    build_selection_matrix,
    build_system_matrix,
    dense_psi,
    dense_rc,
)
from conftest import random_pattern


class TestModulationMatrix:
    def test_order_one(self):
        assert np.allclose(build_modulation_matrix(1), [[1.0]])

    def test_order_two(self):
        want = 0.5 * np.array([[1, 1], [1, -1]], dtype=complex)
        assert np.allclose(build_modulation_matrix(2), want, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 18, 40])
    def test_unitary_up_to_scale(self, n):
        b = build_modulation_matrix(n)
        assert np.max(np.abs(n * (b @ b.conj().T) - np.eye(n))) < 1e-12

    def test_first_row_constant(self):
        b = build_modulation_matrix(7)
        assert np.allclose(b[0], 1.0 / 7.0)


class TestRepetitionMatrix:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_one_hot_rows_and_column_sums(self, n):
        t = build_repetition_matrix(n)
        assert t.shape == (n * n, n)
        assert np.array_equal(t.sum(axis=1), np.ones(n * n))
        assert np.array_equal(t.sum(axis=0), np.full(n, n))

    def test_expands_lags_to_circulant(self, rng):
        # vec of the circulant built from a lag vector equals T @ lags
        n = 6
        lags = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        circulant = np.empty((n, n), dtype=complex)
        for r in range(n):
            for c in range(n):
                circulant[r, c] = lags[(r - c) % n]
        t = build_repetition_matrix(n)
        assert np.array_equal(circulant.T.reshape(-1), t @ lags)


class TestSystemMatrix:
    def test_full_pattern_gamma(self):
        n = 7
        sysm = build_system_matrix(CosetPattern(n, tuple(range(n))))
        assert np.array_equal(sysm.gamma, np.full(n, n))

    def test_ruler18_gamma(self, ruler18):
        sysm = build_system_matrix(ruler18)
        assert sysm.gamma[0] == 5
        assert sysm.gamma.sum() == 25
        assert np.all(sysm.gamma >= 1)
        # only the ordered pair (0,1) realizes difference 1
        assert sysm.gamma[1] == 1

    def test_gamma_matches_dense_product(self, rng):
        for _ in range(40):
            p = random_pattern(rng)
            rc = dense_rc(p)
            sysm = build_system_matrix(p)
            normal = rc.T @ rc
            assert np.array_equal(np.diag(normal), sysm.gamma)
            # the normal matrix is diagonal for every pattern
            assert np.array_equal(normal, np.diag(sysm.gamma))

    def test_dense_rows_are_identity_rows(self, rng):
        for _ in range(20):
            p = random_pattern(rng)
            rc = dense_rc(p)
            assert np.array_equal(rc, build_system_matrix(p).operator != 0)

    def test_operator_is_dense_pseudoinverse(self, rng):
        for _ in range(20):
            p = random_pattern(rng)
            op = build_system_matrix(p).operator
            assert np.allclose(op, np.linalg.pinv(dense_rc(p)).T, atol=1e-12)


class TestIdentifiability:
    def test_examples(self, ruler18):
        assert build_system_matrix(ruler18).identifiable
        assert not build_system_matrix(CosetPattern(6, (0, 1, 2))).identifiable
        assert build_system_matrix(CosetPattern(5, tuple(range(5)))).identifiable

    def test_matches_ruler_criterion_exhaustively(self):
        for n in range(1, 13):
            for mask in range(1, 2**n):
                marks = tuple(i for i in range(n) if mask >> i & 1)
                p = CosetPattern(n, marks)
                assert build_system_matrix(p).identifiable == is_circular_sparse_ruler(p)

    def test_matches_numerical_rank(self, rng):
        for _ in range(30):
            p = random_pattern(rng)
            full_rank = np.linalg.matrix_rank(dense_rc(p)) == p.period
            assert build_system_matrix(p).identifiable == full_rank

    def test_missing_differences_reported(self):
        sysm = build_system_matrix(CosetPattern(6, (0, 1, 2)))
        assert sysm.missing_differences == (3,)


class TestPsi:
    def test_handbuilt_cover_is_identifiable(self):
        patterns = tuple(
            CosetPattern(5, marks)
            for marks in [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)]
        )
        psi = build_psi(PatternFamily(5, patterns))
        assert psi.identifiable
        assert np.linalg.matrix_rank(dense_psi(psi.family)) == 25

    def test_single_partial_group_rank_deficient(self):
        family = PatternFamily(5, (CosetPattern(5, (0, 1, 2)),))
        psi = build_psi(family)
        assert not psi.identifiable
        assert (3, 4) in psi.uncovered
        assert np.linalg.matrix_rank(dense_psi(family)) < 25

    def test_pair_counts_match_dense_normal_matrix(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(2, n + 1))
            z = int(rng.integers(1, 4))
            family = PatternFamily(
                n,
                tuple(
                    CosetPattern(n, tuple(sorted(rng.choice(n, m, replace=False).tolist())))
                    for _ in range(z)
                ),
            )
            psi = build_psi(family)
            dense = dense_psi(family)
            normal = dense.T @ dense
            assert np.array_equal(normal, np.diag(psi.pair_counts))
            assert psi.identifiable == (np.linalg.matrix_rank(dense) == n * n)
            if psi.identifiable:
                # LS solve, then mean over each modular diagonal
                t = build_repetition_matrix(n)
                want = np.linalg.pinv(dense).T @ t / n
                assert np.allclose(psi.operator, want, atol=1e-12)

    def test_greedy_family_full_rank_at_small_size(self):
        family = design_pair_cover_family(8, 3)
        psi = build_psi(family)
        assert psi.identifiable
        assert np.linalg.matrix_rank(dense_psi(family)) == 64

    def test_selection_matrix_rows(self, ruler18):
        c = build_selection_matrix(ruler18)
        assert c.shape == (5, 18)
        assert np.array_equal(c @ np.arange(18), np.array(ruler18.marks))
