"""Tests for the shared sampling helpers: the inverse-CDF categorical draw
and the batched stick update."""

import numpy as np
import pytest
from scipy.special import softmax
from scipy.stats import beta, chisquare, kstest

from arscreen.mcmc import categorical_draw, sample_sticks, stick_weights, stream

NEG = -np.inf
# Rows with zero-mass (-inf) columns, a score spread of 1e3 (the last column
# underflows to zero mass), a single finite column, and a finite column only
# in the last position.
ROWS = (
    np.array([0.3, NEG, 1.2, -0.5, NEG, 2.0]),
    np.array([1000.0, 999.5, 997.0, 999.9, 0.0]),
    np.array([NEG, NEG, 3.0, NEG]),
    np.array([NEG, NEG, NEG, -7.0]),
)


class TestCategoricalDraw:
    @pytest.mark.parametrize("row", range(len(ROWS)))
    def test_frequencies_match_softmax(self, row):
        scores = ROWS[row]
        n = 100_000
        pick, top = categorical_draw(np.tile(scores, (n, 1)), stream(5, "categorical", row))
        assert np.all(top == scores.max())
        counts = np.bincount(pick, minlength=scores.size)
        p = softmax(scores)
        # Columns of zero mass, or of mass too small to see in n draws, are never picked.
        assert counts[p * n < 1e-6].sum() == 0
        live = p * n >= 5
        if live.sum() > 1:
            assert chisquare(counts[live], p[live] / p[live].sum() * counts[live].sum()).pvalue > 0.01
        else:
            assert counts[live].sum() == n

    def test_largest_uniform_never_picks_a_zero_mass_column(self):
        """A uniform of 1 - 2^-53 picks the last column of positive mass, never
        a trailing -inf one, whatever the row total rounds to."""

        class TopUniform:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        rng = np.random.default_rng(3)
        scores = rng.normal(scale=rng.uniform(0.1, 3.0, size=(5000, 1)), size=(5000, 12))
        scores[rng.uniform(size=scores.shape) < 0.4] = NEG
        scores[np.arange(5000), rng.integers(0, 12, size=5000)] = rng.normal(size=5000)
        last_live = 11 - np.argmax(np.isfinite(scores[:, ::-1]), axis=1)
        pick, _ = categorical_draw(scores.copy(), TopUniform())
        assert np.all(np.isfinite(scores[np.arange(5000), pick]))
        assert np.array_equal(pick, last_live)

    def test_smallest_uniform_picks_the_first_positive_mass_column(self):
        class ZeroUniform:
            def random(self, size):
                return np.zeros(size)

        scores = np.array([[NEG, NEG, 0.5, 1.0], [2.0, NEG, NEG, NEG], [NEG, 1.0, NEG, 0.0]])
        pick, _ = categorical_draw(scores, ZeroUniform())
        assert pick.tolist() == [2, 0, 1]

    def test_non_finite_rows_show_in_the_maxima(self):
        scores = np.array([[0.0, 1.0], [np.nan, 1.0], [np.inf, 0.0], [NEG, NEG]])
        pick, top = categorical_draw(scores, stream(6, "bad-rows"))
        assert np.isfinite(top).tolist() == [True, False, False, False]
        assert pick[0] in (0, 1)


class TestSampleSticks:
    def test_sets_match_their_own_beta_conditionals(self):
        """One Beta call for three sets: each set's first stick follows
        Beta(1 + n_0, alpha + sum_{j>0} n_j) and its weights sum to one."""
        counts = [np.array([4, 0, 2, 1]), np.array([0, 0, 0]), np.array([1, 5])]
        alphas = [1.3, 0.7, 2.0]
        rng = stream(8, "sticks")
        first = np.empty((4000, 3))
        for t in range(4000):
            sets = sample_sticks(counts, alphas, rng)
            for k, ((sticks, weights), n) in enumerate(zip(sets, counts)):
                assert sticks.size == n.size - 1 and weights.size == n.size
                assert abs(weights.sum() - 1.0) < 1e-12
                assert np.array_equal(weights, stick_weights(sticks))
                first[t, k] = sticks[0]
        for k, (n, a) in enumerate(zip(counts, alphas)):
            assert kstest(first[:, k], beta(1 + n[0], a + n[1:].sum()).cdf).pvalue > 0.01
