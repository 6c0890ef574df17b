import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enspost.core import GaussianPredictive, MixturePredictive, gaussian_quantile, seeded_rng
from enspost.ecc import ecc_quantiles, ecc_reorder, rank_permutation


def spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    return np.corrcoef(ra, rb)[0, 1]


class TestEccQuantiles:
    def test_levels_are_equidistant(self):
        q = ecc_quantiles(GaussianPredictive(0.0, 1.0), 5)
        want = [gaussian_quantile(k / 6) for k in range(1, 6)]
        np.testing.assert_allclose(q, want, atol=1e-12)
        assert q[2] == pytest.approx(0.0, abs=1e-12)
        assert q[0] == pytest.approx(-q[4], abs=1e-12)

    def test_location_scale(self):
        q = ecc_quantiles(GaussianPredictive(3.0, 4.0), 9)
        base = ecc_quantiles(GaussianPredictive(0.0, 1.0), 9)
        np.testing.assert_allclose(q, 3.0 + 2.0 * base, atol=1e-10)

    def test_mixture_distribution_supported(self):
        mix = MixturePredictive((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0))
        q = ecc_quantiles(mix, 7)
        assert np.all(np.diff(q) > 0)
        assert q[3] == pytest.approx(0.0, abs=1e-8)  # symmetric mixture median

    def test_invalid_member_count(self):
        with pytest.raises(ValueError):
            ecc_quantiles(GaussianPredictive(0, 1), 0)


class TestRankPermutation:
    def test_distinct_values_rank_deterministically(self):
        ranks = rank_permutation([3.0, 1.0, 2.0], seeded_rng(0, "t"))
        np.testing.assert_array_equal(ranks, [3, 1, 2])

    def test_ties_broken_at_random_but_reproducibly(self):
        a = rank_permutation([1.0, 1.0, 5.0], seeded_rng(0, "tie"))
        b = rank_permutation([1.0, 1.0, 5.0], seeded_rng(0, "tie"))
        np.testing.assert_array_equal(a, b)
        seen = set()
        for s in range(40):
            r = rank_permutation([1.0, 1.0, 5.0], seeded_rng(s, "tie"))
            assert r[2] == 3
            seen.add(tuple(r[:2]))
        assert seen == {(1, 2), (2, 1)}

    def test_missing_member_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            rank_permutation([1.0, np.nan], seeded_rng(0, "t"))

    def test_rows_rank_as_a_loop_over_them(self):
        raw = np.round(seeded_rng(4, "rows").normal(size=(100, 20)), 1)  # one decimal: most rows hold ties
        assert sum(len(set(row)) < 20 for row in raw) > 50
        rows, loop = seeded_rng(0, "ties"), seeded_rng(0, "ties")
        np.testing.assert_array_equal(rank_permutation(raw, rows),
                                      np.vstack([rank_permutation(row, loop) for row in raw]))
        assert rows.random() == loop.random()  # the tie stream goes on from the same state

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=12))
    def test_always_a_permutation(self, values):
        r = rank_permutation(values, seeded_rng(1, "p"))
        assert sorted(r.tolist()) == list(range(1, len(values) + 1))


class TestEccReorder:
    def test_hand_case(self):
        q = np.array([[10.0, 20.0, 30.0], [1.0, 2.0, 3.0]])
        perm = np.array([[2, 3, 1], [1, 2, 3]])
        sample = ecc_reorder(q, perm, ("A", "B"))
        assert sample.provenance == "ecc"
        # member m at station s takes the perm[s, m]-th smallest quantile
        np.testing.assert_array_equal(sample.fields[:, 0], [20.0, 30.0, 10.0])
        np.testing.assert_array_equal(sample.fields[:, 1], [1.0, 2.0, 3.0])

    def test_marginals_exactly_preserved(self):
        rng = seeded_rng(2, "m")
        q = np.sort(rng.normal(size=(4, 8)), axis=1)
        perm = np.vstack([rank_permutation(rng.normal(size=8), rng) for _ in range(4)])
        sample = ecc_reorder(q, perm, ("A", "B", "C", "D"))
        for s in range(4):
            np.testing.assert_array_equal(np.sort(sample.fields[:, s]), q[s])

    def test_rank_structure_matches_raw_ensemble(self):
        rng = seeded_rng(3, "rk")
        raw = rng.normal(size=(5, 10))  # 5 stations, 10 members
        raw[1] = 0.9 * raw[0] + 0.1 * raw[1]  # strongly coupled pair
        q = np.sort(rng.normal(size=(5, 10)), axis=1)
        perms = np.vstack([rank_permutation(raw[s], rng) for s in range(5)])
        sample = ecc_reorder(q, perms, tuple("ABCDE"))
        for s in range(5):
            for u in range(5):
                got = spearman(sample.fields[:, s], sample.fields[:, u])
                want = spearman(raw[s], raw[u])
                assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_permutation(self):
        q = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="permutation"):
            ecc_reorder(q, np.array([[1, 1]]), ("A",))

    def test_rejects_unsorted_quantiles(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ecc_reorder(np.array([[2.0, 1.0]]), np.array([[1, 2]]), ("A",))


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=1000))
def test_reorder_from_gaussians_preserves_quantile_sets(m, seed):
    rng = seeded_rng(seed, "prop")
    dists = [GaussianPredictive(rng.normal(), 1.0 + rng.random()) for _ in range(3)]
    q = np.vstack([ecc_quantiles(d, m) for d in dists])
    perms = np.vstack([rank_permutation(rng.normal(size=m), rng) for _ in range(3)])
    sample = ecc_reorder(q, perms, ("A", "B", "C"))
    assert sample.fields.shape == (m, 3)
    for s in range(3):
        np.testing.assert_array_equal(np.sort(sample.fields[:, s]), q[s])
