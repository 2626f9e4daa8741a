import itertools

import numpy as np
import pytest

from capspec.patterns import (
    CosetPattern,
    PatternFamily,
    design_pair_cover_family,
    minimal_circular_sparse_ruler,
)
from capspec.structure import build_psi, build_system_matrix
from conftest import random_pattern
from oracles import exhaustive_minimal_ruler, is_circular_sparse_ruler


def brute_force_differences(marks, n):
    return {(a - b) % n for a in marks for b in marks}


class TestCosetPattern:
    def test_marks_sorted_and_validated(self):
        p = CosetPattern(10, (5, 0, 3))
        assert p.marks == (0, 3, 5)
        assert p.size == 3

    @pytest.mark.parametrize(
        "period,marks",
        [(5, ()), (5, (0, 0)), (5, (5,)), (5, (-1,)), (0, (0,))],
    )
    def test_rejects_invalid(self, period, marks):
        with pytest.raises(ValueError):
            CosetPattern(period, marks)


class TestModularDifferenceSet:
    def test_ruler18_is_complete(self, ruler18):
        sysm = build_system_matrix(ruler18)
        assert sysm.identifiable
        assert sysm.missing == ()

    def test_single_mark(self):
        sysm = build_system_matrix(CosetPattern(1, (0,)))
        assert sysm.gamma.tolist() == [1]

    def test_three_marks_of_six(self):
        # all 9 ordered pairs of {0,1,2} mod 6: 3 is never realized
        sysm = build_system_matrix(CosetPattern(6, (0, 1, 2)))
        assert set(np.flatnonzero(sysm.gamma).tolist()) == {0, 1, 2, 4, 5}
        assert sysm.missing == (3,)

    def test_multiplicity_identities(self, rng):
        # counts sum to M^2 and the zero difference appears exactly M times
        for _ in range(60):
            p = random_pattern(rng)
            gamma = build_system_matrix(p).gamma
            assert gamma.sum() == p.size**2
            assert gamma[0] == p.size
            assert set(np.flatnonzero(gamma).tolist()) == brute_force_differences(
                p.marks, p.period
            )


class TestIsCircularSparseRuler:
    def test_examples(self, ruler18):
        assert is_circular_sparse_ruler(ruler18)
        assert not is_circular_sparse_ruler(CosetPattern(6, (0, 1, 2)))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_full_pattern_always_complete(self, n):
        assert is_circular_sparse_ruler(CosetPattern(n, tuple(range(n))))


class TestMinimalRuler:
    def test_matches_exhaustive_oracle_small(self):
        for n in range(1, 13):
            result = minimal_circular_sparse_ruler(n)
            oracle = exhaustive_minimal_ruler(n)
            assert result.minimal
            assert result.pattern == oracle

    @pytest.mark.parametrize("n,size", [(18, 5), (14, 5), (10, 4), (1, 1)])
    def test_known_cardinalities(self, n, size):
        result = minimal_circular_sparse_ruler(n)
        assert result.pattern.size == size
        assert result.minimal

    @pytest.mark.parametrize("n", [13, 16, 19, 21, 24])
    def test_output_is_always_a_ruler(self, n):
        result = minimal_circular_sparse_ruler(n)
        assert is_circular_sparse_ruler(result.pattern)

    def test_removing_any_mark_breaks_completeness(self):
        # a minimum-cardinality ruler has no redundant mark
        for n in list(range(3, 13)) + [14, 18]:
            marks = minimal_circular_sparse_ruler(n).pattern.marks
            for drop in marks:
                reduced = tuple(m for m in marks if m != drop)
                assert not is_circular_sparse_ruler(CosetPattern(n, reduced))

    def test_truncated_search_flags_nonminimal(self):
        result = minimal_circular_sparse_ruler(18, node_budget=2)
        assert is_circular_sparse_ruler(result.pattern)
        assert not result.minimal

    def test_large_period_supported(self):
        # the counting bound is 9 marks at period 64; the search reaches it
        result = minimal_circular_sparse_ruler(64)
        assert is_circular_sparse_ruler(result.pattern)
        assert result.pattern.size == 9
        assert result.minimal
        # a tiny budget still returns a verified ruler, flagged suboptimal
        capped = minimal_circular_sparse_ruler(64, node_budget=1000)
        assert is_circular_sparse_ruler(capped.pattern)
        assert not capped.minimal

    def test_deterministic(self):
        a = minimal_circular_sparse_ruler(21)
        b = minimal_circular_sparse_ruler(21)
        assert a.pattern == b.pattern


class TestPairCoverFamily:
    def test_small_family_matches_known_group_count(self):
        family = design_pair_cover_family(5, 3)
        assert family.size == 4
        assert build_psi(family).identifiable

    def test_full_pattern_single_group(self):
        for n in (2, 5, 7):
            family = design_pair_cover_family(n, n)
            assert family.size == 1
            assert build_psi(family).identifiable

    def test_rejects_single_mark(self):
        with pytest.raises(ValueError):
            design_pair_cover_family(5, 1)
        with pytest.raises(ValueError):
            design_pair_cover_family(3, 4)

    def test_greedy_always_covers(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 13))
            m = int(rng.integers(2, n + 1))
            psi = build_psi(design_pair_cover_family(n, m))
            assert psi.identifiable
            assert psi.missing == ()

    def test_large_family_group_count(self):
        # the wideband fixture needs 12 groups of 14 cosets out of 40
        family = design_pair_cover_family(40, 14)
        assert build_psi(family).identifiable
        assert family.size <= 12

    @pytest.mark.parametrize(
        "n, m, marks",
        [
            (
                40,
                14,
                [
                    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
                    (0, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26),
                    (0, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39),
                    (1, 2, 3, 4, 5, 14, 15, 16, 17, 18, 27, 28, 29, 30),
                    (1, 6, 7, 8, 9, 19, 20, 21, 22, 23, 31, 32, 33, 34),
                    (2, 10, 11, 12, 13, 19, 24, 25, 26, 35, 36, 37, 38, 39),
                    (6, 7, 8, 9, 14, 15, 16, 17, 18, 35, 36, 37, 38, 39),
                    (3, 10, 11, 12, 13, 14, 15, 16, 17, 18, 31, 32, 33, 34),
                    (4, 10, 11, 12, 13, 20, 21, 22, 23, 24, 27, 28, 29, 30),
                    (1, 2, 3, 4, 5, 20, 21, 22, 23, 35, 36, 37, 38, 39),
                    (5, 6, 7, 8, 9, 19, 24, 25, 26, 27, 28, 29, 30, 31),
                    (0, 1, 2, 3, 4, 5, 19, 24, 25, 26, 31, 32, 33, 34),
                ],
            ),
            (
                18,
                5,
                [
                    (0, 1, 2, 3, 4), (0, 5, 6, 7, 8), (0, 9, 10, 11, 12),
                    (0, 13, 14, 15, 16), (1, 5, 9, 13, 17), (2, 6, 10, 14, 17),
                    (3, 7, 11, 15, 17), (4, 8, 12, 16, 17), (1, 2, 6, 11, 16),
                    (1, 4, 7, 10, 13), (1, 3, 8, 9, 14), (1, 2, 5, 12, 15),
                    (3, 4, 5, 10, 16), (3, 6, 9, 12, 13), (2, 4, 7, 9, 16),
                    (2, 8, 11, 13, 14), (4, 6, 8, 10, 15), (4, 5, 7, 11, 14),
                    (0, 7, 12, 14, 17), (0, 1, 2, 9, 15),
                ],
            ),
            (5, 3, [(0, 1, 2), (0, 3, 4), (1, 2, 3), (1, 2, 4)]),
        ],
    )
    def test_pinned_marks(self, n, m, marks):
        # the greedy's exact output, order included: seeded CAP-CB outputs
        # depend on every mark of every group
        family = design_pair_cover_family(n, m)
        assert [p.marks for p in family.patterns] == marks

    def test_verifier_accepts_handbuilt_cover(self):
        patterns = tuple(
            CosetPattern(5, marks)
            for marks in [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)]
        )
        assert build_psi(PatternFamily(5, patterns)).identifiable

    def test_verifier_rejects_partial_cover(self):
        psi = build_psi(PatternFamily(5, (CosetPattern(5, (0, 1, 2)),)))
        assert not psi.identifiable
        # ordered pair (3, 4) is gamma index N*col + row
        assert 5 * 4 + 3 in psi.missing

    def test_verifier_by_enumeration(self, rng):
        # independent check: coverage flag equals brute-force pair enumeration
        for _ in range(20):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, n + 1))
            z = int(rng.integers(1, 5))
            patterns = tuple(
                CosetPattern(n, tuple(sorted(rng.choice(n, m, replace=False).tolist())))
                for _ in range(z)
            )
            family = PatternFamily(n, patterns)
            seen = set()
            for p in patterns:
                seen.update(itertools.combinations(p.marks, 2))
                seen.update((a, a) for a in p.marks)
            want = set(itertools.combinations(range(n), 2)) | {(a, a) for a in range(n)}
            assert build_psi(family).identifiable == (seen == want)
