"""Core AR(1) numerics against dense-matrix oracles and closed forms."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import kstest

from arscreen.ar_core import (
    ArParams,
    LagStats,
    _average_ranks,
    ObservedSeries,
    SeriesPanel,
    ar1_loglik,
    ar1_precision,
    cdf_standardize,
    gap_table,
    gaussian_parts,
    group_gaussian_parts,
    lag_stats,
    log_conditional_bayes_factor,
    log_shift_bayes_factor,
    mean_shift_loglik,
    ndtri,
    panel_groups,
    stationary_variance,
    step_precision,
    step_table,
)
from arscreen.errors import DomainError, InvalidInputError

from oracles import (
    average_ranks,
    dense_ar1_cov,
    dense_ar1_loglik,
    dense_shift_loglik,
    lag_gaussian_parts,
    pool_add_at,
    step_precision_bincount,
    step_precision_per_unit,
)
from oracles import ndtri as oracles_ndtri

RNG = np.random.default_rng(20260815)


def random_params(rng) -> ArParams:
    return ArParams(phi=rng.uniform(-0.98, 0.98), v=rng.uniform(0.05, 4.0))


def random_times(rng, max_len=30) -> np.ndarray:
    n = rng.integers(1, max_len + 1)
    if rng.uniform() < 0.5:
        start = rng.integers(0, 10)
        return np.arange(start, start + n)
    return np.sort(rng.choice(np.arange(0, 4 * max_len), size=n, replace=False))


class TestCovariance:
    """The AR(1) covariance: its closed-form precision against the dense
    oracle, the stationary variance, and the parameter domain."""

    def test_frozen_example(self):
        Q = ar1_precision(ArParams(0.9, 0.5), gap_table(np.array([1, 3])))
        s = 0.5 / (1 - 0.81)
        cov = np.array([[s, s * 0.81], [s * 0.81, s]])
        assert Q == pytest.approx(np.linalg.inv(cov), rel=1e-12)

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_entrywise_oracle(self, trial):
        rng = np.random.default_rng(1000 + trial)
        p = random_params(rng)
        times = random_times(rng)
        Q = ar1_precision(p, gap_table(times))
        inv = np.linalg.inv(dense_ar1_cov(p.phi, p.v, times))
        assert np.allclose(Q, inv, rtol=1e-9, atol=1e-9 * np.abs(inv).max())
        assert np.array_equal(np.triu(Q, 2), np.zeros_like(Q))

    @pytest.mark.parametrize("trial", range(50))
    def test_symmetric_positive_definite(self, trial):
        rng = np.random.default_rng(2000 + trial)
        p = random_params(rng)
        times = random_times(rng)
        Q = ar1_precision(p, gap_table(times))
        assert np.array_equal(Q, Q.T)
        L = np.linalg.cholesky(Q)
        assert np.min(np.diag(L)) > 0

    def test_zero_phi_is_diagonal(self):
        Q = ar1_precision(ArParams(0.0, 2.0), gap_table(np.array([0, 1, 5])))
        assert np.array_equal(Q, 0.5 * np.eye(3))

    def test_stationary_variance_matches_long_simulation(self):
        from arscreen.simulation import simulate_ar1

        p = ArParams(0.8, 0.9)
        path = simulate_ar1(p, 1_000_000, np.random.default_rng(7))
        assert np.var(path) == pytest.approx(stationary_variance(p), rel=0.02)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ArParams(1.0, 1.0)
        with pytest.raises(DomainError):
            ArParams(0.5, 0.0)
        with pytest.raises(DomainError):
            ArParams(-1.2, 1.0)


class TestLoglik:
    def test_single_point_standard(self):
        s = ObservedSeries("u", np.array([4]), np.array([0.0]))
        assert ar1_loglik(s, ArParams(0.5, 0.75)) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-15)

    def test_two_points_iid(self):
        s = ObservedSeries("u", np.array([0, 1]), np.array([1.0, 1.0]))
        assert ar1_loglik(s, ArParams(0.0, 1.0)) == pytest.approx(-np.log(2 * np.pi) - 1.0, abs=1e-14)

    @pytest.mark.parametrize("trial", range(120))
    def test_matches_dense_mvn_oracle(self, trial):
        rng = np.random.default_rng(3000 + trial)
        p = random_params(rng)
        times = random_times(rng)
        y = rng.normal(size=times.size)
        s = ObservedSeries("u", times, y)
        assert ar1_loglik(s, p) == pytest.approx(dense_ar1_loglik(y, p.phi, p.v, times), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("trial", range(40))
    def test_fast_and_dense_paths_agree(self, trial):
        """Consecutive times: the O(T) recursion against the dense oracle."""
        rng = np.random.default_rng(4000 + trial)
        p = random_params(rng)
        T = rng.integers(1, 40)
        y = rng.normal(size=T)
        s = ObservedSeries("u", np.arange(T), y)
        dense = dense_ar1_loglik(y, p.phi, p.v, np.arange(T))
        assert ar1_loglik(s, p) == pytest.approx(dense, rel=1e-9, abs=1e-9)

    def test_finite_at_phi_next_to_one_on_gapped_times(self):
        """Gapped times at |phi| one ulp below 1, where a dense Cholesky of
        the covariance fails: the Markov recursion stays finite."""
        times = np.array([0, 1, 3, 4, 9, 10])
        y = np.random.default_rng(12).normal(size=times.size)
        s = ObservedSeries("u", times, y)
        for phi in (np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)):
            p = ArParams(float(phi), 0.7)
            assert np.isfinite(ar1_loglik(s, p))
            assert np.isfinite(mean_shift_loglik(s, p, 1.0))
            assert np.all(np.isfinite(ar1_precision(p, gap_table(times))))


class TestMeanShift:
    def test_single_point_closed_form(self):
        s = ObservedSeries("u", np.array([0]), np.array([0.0]))
        got = mean_shift_loglik(s, ArParams(0.0, 1.0), shift_var=1.0)
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi * 2.0), abs=1e-14)

    @pytest.mark.parametrize("trial", range(120))
    def test_matches_dense_rank_one_oracle(self, trial):
        rng = np.random.default_rng(5000 + trial)
        p = random_params(rng)
        times = random_times(rng)
        y = rng.normal(size=times.size)
        sv = rng.uniform(0.1, 3.0)
        s = ObservedSeries("u", times, y)
        got = mean_shift_loglik(s, p, sv)
        assert got == pytest.approx(dense_shift_loglik(y, p.phi, p.v, times, sv), rel=1e-10, abs=1e-10)

    def test_zero_shift_var_recovers_null(self):
        rng = np.random.default_rng(11)
        s = ObservedSeries("u", np.arange(12), rng.normal(size=12))
        p = ArParams(0.4, 0.8)
        assert mean_shift_loglik(s, p, 0.0) == pytest.approx(ar1_loglik(s, p), abs=1e-13)

    @pytest.mark.parametrize("trial", range(40))
    def test_bayes_factor_consistent_with_logliks(self, trial):
        rng = np.random.default_rng(6000 + trial)
        p = random_params(rng)
        times = random_times(rng)
        s = ObservedSeries("u", times, rng.normal(size=times.size))
        sv = rng.uniform(0.2, 2.0)
        direct = log_conditional_bayes_factor(s, p, sv)
        via_logliks = mean_shift_loglik(s, p, sv) - ar1_loglik(s, p)
        assert direct == pytest.approx(via_logliks, abs=1e-10)

    def test_path_choice_does_not_change_bayes_factor(self):
        """The Bayes factor from the recursion equals the dense-oracle one,
        on consecutive and on gapped times."""
        rng = np.random.default_rng(77)
        p = ArParams(0.6, 1.2)
        for times in (np.arange(20), np.array([0, 1, 2, 5, 6, 9, 14, 15, 16, 30])):
            y = rng.normal(size=times.size)
            s = ObservedSeries("u", times, y)
            lbf = mean_shift_loglik(s, p, 1.0) - ar1_loglik(s, p)
            lbf_dense = (dense_shift_loglik(y, p.phi, p.v, times, 1.0)
                         - dense_ar1_loglik(y, p.phi, p.v, times))
            assert lbf == pytest.approx(lbf_dense, abs=1e-9)
            assert log_conditional_bayes_factor(s, p, 1.0) == pytest.approx(lbf_dense, abs=1e-9)

    def test_negative_shift_var_rejected(self):
        s = ObservedSeries("u", np.array([0]), np.array([1.0]))
        with pytest.raises(DomainError):
            mean_shift_loglik(s, ArParams(0.0, 1.0), -0.5)


def test_one_unit_lag_stats_match_whitening():
    """``ar1_loglik`` and ``mean_shift_loglik`` score a series through a
    one-unit step table; on 3,000 random gapped cases with |phi| <= 0.999
    they match the whitening forms (``gaussian_parts`` over the series'
    gap table) to 1e-12 relative."""
    rng = np.random.default_rng(20261020)
    worst_null = worst_shift = 0.0
    for _ in range(3000):
        T = int(rng.integers(2, 51))
        times = np.sort(rng.choice(3 * T, size=T, replace=False))
        p = ArParams(float(rng.uniform(-0.999, 0.999)), float(rng.uniform(0.05, 3.0)))
        sv = float(rng.uniform(0.1, 4.0))
        y = rng.normal(size=T) * np.sqrt(stationary_variance(p))
        s = ObservedSeries("u", times, y)
        q_yy, q_y1, s11, logdet = gaussian_parts(y, gap_table(times), p)
        null = -0.5 * (T * np.log(2 * np.pi) + logdet + q_yy[0])
        shift = null + log_shift_bayes_factor(q_y1[0], s11, sv)
        worst_null = max(worst_null, abs(ar1_loglik(s, p) - null) / abs(null))
        worst_shift = max(worst_shift, abs(mean_shift_loglik(s, p, sv) - shift) / abs(shift))
    assert worst_null <= 1e-12 and worst_shift <= 1e-12


class TestGaussianParts:
    @pytest.mark.parametrize("trial", range(40))
    def test_quadratic_forms_match_dense_solves(self, trial):
        rng = np.random.default_rng(7000 + trial)
        p = random_params(rng)
        times = random_times(rng)
        Y = rng.normal(size=(3, times.size))
        q_yy, q_y1, s11, logdet = gaussian_parts(Y, gap_table(times), p)
        cov = dense_ar1_cov(p.phi, p.v, times)
        inv = np.linalg.inv(cov)
        ones = np.ones(times.size)
        assert q_yy == pytest.approx(np.einsum("ij,jk,ik->i", Y, inv, Y), rel=1e-9, abs=1e-9)
        assert q_y1 == pytest.approx(Y @ inv @ ones, rel=1e-9, abs=1e-9)
        assert s11 == pytest.approx(ones @ inv @ ones, rel=1e-9)
        assert logdet == pytest.approx(np.linalg.slogdet(cov)[1], rel=1e-9, abs=1e-9)


def gapped_panel(rng, n_units=12) -> SeriesPanel:
    """Units on their own random subsets of 0..59, so the panel has many
    distinct gaps, with persistent values of mixed scale."""
    series = []
    for i in range(n_units):
        T = int(rng.integers(2, 26))
        times = np.sort(rng.choice(np.arange(60), size=T, replace=False))
        y = np.cumsum(rng.normal(size=T)) * rng.uniform(0.2, 5.0)
        series.append(ObservedSeries(f"u{i}", times, y))
    return SeriesPanel(tuple(series))


class TestLagStats:
    """Lag statistics against whitening and the dense oracles on gapped panels."""

    @pytest.mark.parametrize("trial", range(12))
    def test_loglik_matrix_matches_whitening_and_dense_oracle(self, trial):
        rng = np.random.default_rng(9000 + trial)
        panel = gapped_panel(rng)
        stats = lag_stats(step_table(panel))
        assert len(stats.sizes) >= 5
        phi = np.concatenate([[-0.999, 0.999], rng.uniform(-0.999, 0.999, size=4)])
        v = rng.uniform(0.05, 4.0, size=phi.size)
        ll = stats.loglik(phi, v)
        assert ll.shape == (len(panel), phi.size)
        for i, s in enumerate(panel):
            gaps = gap_table(s.times)
            for l in range(phi.size):
                p = ArParams(float(phi[l]), float(v[l]))
                q_yy, _, _, logdet = gaussian_parts(s.values, gaps, p)
                via_whiten = -0.5 * (len(s) * np.log(2 * np.pi) + logdet + q_yy[0])
                dense = dense_ar1_loglik(s.values, p.phi, p.v, s.times)
                assert ll[i, l] == pytest.approx(via_whiten, rel=1e-10)
                assert ll[i, l] == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("trial", range(12))
    def test_gaussian_parts_match_whitening_and_dense_solves(self, trial):
        rng = np.random.default_rng(9100 + trial)
        panel = gapped_panel(rng)
        stats = lag_stats(step_table(panel))
        assert len(stats.sizes) >= 5
        for phi in (-0.999, 0.999, rng.uniform(-0.999, 0.999)):
            p = ArParams(float(phi), float(rng.uniform(0.05, 4.0)))
            q_yy, q_y1, s11, logdet = lag_gaussian_parts(stats, p.phi, p.v)
            assert all(map(np.array_equal, stats.shift_parts(p.phi, p.v), (q_y1, s11)))
            for i, s in enumerate(panel):
                w_yy, w_y1, w_11, w_det = gaussian_parts(s.values, gap_table(s.times), p)
                cov = dense_ar1_cov(p.phi, p.v, s.times)
                inv = np.linalg.inv(cov)
                ones = np.ones(len(s))
                d_yy, d_y1, d_11 = s.values @ inv @ s.values, s.values @ inv @ ones, ones @ inv @ ones
                d_det = np.linalg.slogdet(cov)[1]
                for want_yy, want_y1, want_11, want_det in ((w_yy[0], w_y1[0], w_11, w_det),
                                                            (d_yy, d_y1, d_11, d_det)):
                    assert q_yy[i] == pytest.approx(want_yy, rel=1e-10)
                    assert s11[i] == pytest.approx(want_11, rel=1e-10)
                    assert logdet[i] == pytest.approx(want_det, rel=1e-10)
                    assert abs(q_y1[i] - want_y1) <= 1e-10 * np.sqrt(want_yy * want_11)

    def test_finite_at_phi_next_to_one(self):
        panel = gapped_panel(np.random.default_rng(9200))
        stats = lag_stats(step_table(panel))
        phi = np.array([np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)])
        assert np.all(np.isfinite(stats.loglik(phi, np.array([0.7, 0.7]))))
        for p in phi:
            assert all(np.all(np.isfinite(x)) for x in lag_gaussian_parts(stats, float(p), 0.7))

    def test_pooled_row_scores_the_sum_of_its_members(self):
        rng = np.random.default_rng(9300)
        panel = gapped_panel(rng)
        stats = lag_stats(step_table(panel))
        labels = rng.integers(0, 3, size=len(panel))
        pooled = stats.pool(labels, 4)
        phi, v = np.array([0.4, -0.6, 0.95, 0.1]), np.array([1.0, 0.3, 2.0, 0.8])
        ll = stats.loglik(phi, v)
        for k in range(4):
            want = ll[labels == k].sum(axis=0)
            assert pooled[k].loglik(phi, v) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert np.array_equal(pooled.length, np.bincount(labels, [len(s) for s in panel], 4))

    @pytest.mark.parametrize("n_units, n_gaps", [(24000, 1), (24000, 3), (7, 2)])
    def test_pool_equals_add_at_bytes(self, n_units, n_gaps):
        """bincount adds each label's rows in row order, as np.add.at does."""
        rng = np.random.default_rng(9350)
        stats = LagStats(tuple(range(1, n_gaps + 1)), rng.normal(size=(n_units, 2 + 4 * n_gaps)),
                         rng.normal(size=(n_units, 1 + 2 * n_gaps)) * 1e3)
        labels = rng.integers(0, 20, size=n_units)
        pooled = stats.pool(labels, 23)
        assert pooled.terms.tobytes() == pool_add_at(stats.terms, labels, 23).tobytes()
        assert pooled.linear.tobytes() == pool_add_at(stats.linear, labels, 23).tobytes()

    def test_step_table_caches_the_raw_value_statistics(self):
        table = step_table(gapped_panel(np.random.default_rng(9400)))
        stats = table.stats
        assert table.stats is stats
        want = lag_stats(table)
        assert stats.sizes == want.sizes
        assert stats.terms.tobytes() == want.terms.tobytes()
        assert stats.linear.tobytes() == want.linear.tobytes()


class TestPrecision:
    @pytest.mark.parametrize("trial", range(30))
    def test_inverse_of_covariance(self, trial):
        rng = np.random.default_rng(8000 + trial)
        p = random_params(rng)
        times = random_times(rng, max_len=15)
        Q = ar1_precision(p, gap_table(times))
        cov = dense_ar1_cov(p.phi, p.v, times)
        assert np.allclose(Q @ cov, np.eye(times.size), atol=1e-8)


class TestStandardize:
    def test_output_marginal_is_near_uniform_normal(self):
        rng = np.random.default_rng(99)
        series = [
            ObservedSeries(f"u{i}", np.arange(50), rng.lognormal(size=50))
            for i in range(40)
        ]
        out = cdf_standardize(SeriesPanel(tuple(series)))
        pooled = np.concatenate([s.values for s in out])
        assert kstest(pooled, "norm").pvalue > 0.01

    def test_rank_preserving_and_monotone_invariant(self):
        rng = np.random.default_rng(13)
        vals = rng.normal(size=30)
        series = ObservedSeries("a", np.arange(30), vals)
        panel = SeriesPanel((series,))
        out1 = cdf_standardize(panel)
        transformed = SeriesPanel((ObservedSeries("a", np.arange(30), np.exp(3 * vals) + 7),))
        out2 = cdf_standardize(transformed)
        assert np.allclose(out1[0].values, out2[0].values, atol=1e-12)
        assert np.array_equal(np.argsort(out1[0].values), np.argsort(vals))

    def test_single_observation_maps_to_zero(self):
        panel = SeriesPanel((ObservedSeries("a", np.array([0]), np.array([123.4])),))
        out = cdf_standardize(panel)
        assert out[0].values[0] == pytest.approx(0.0, abs=1e-15)

    def test_ties_get_average_rank(self):
        panel = SeriesPanel((ObservedSeries("a", np.arange(4), np.array([3.0, 1.0, 2.0, 1.0])),))
        out = cdf_standardize(panel)
        assert out[0].values[1] == pytest.approx(out[0].values[3], abs=0)

    def test_finite_for_extremes(self):
        panel = SeriesPanel((ObservedSeries("a", np.arange(3), np.array([-1e300, 0.0, 1e300])),))
        out = cdf_standardize(panel)
        assert np.all(np.isfinite(out[0].values))


class TestAverageRanks:
    @pytest.mark.parametrize("x", [
        np.round(np.random.default_rng(5).normal(size=300), 1),          # many ties
        np.array([0.0, -0.0, 1.0, 0.0, -2.5, 1.0]),                       # signed zeros tie
        np.full(7, 2.5),                                                  # all equal
        np.array([3.0]),                                                  # n = 1
        np.random.default_rng(6).normal(size=10_000),                     # n = 10,000
        np.random.default_rng(7).integers(0, 40, size=10_000).astype(float),
    ], ids=["ties", "signed-zeros", "all-equal", "n1", "n10000", "n10000-ties"])
    def test_equal_to_scipy_rankdata(self, x):
        got = _average_ranks(x)
        assert got.dtype == np.float64
        assert got.tobytes() == average_ranks(x).tobytes()


class TestNdtri:
    """AS241 against scipy's Cephes ``ndtri``. Measured on these grids: 30%
    of the n = 8000 grid bit-equal and at most 5 ulps apart anywhere (6 on
    1e5 uniform draws), so the bound is 6 ulps."""

    @pytest.mark.parametrize("p", [
        *((np.arange(1, n + 1) - 0.5) / n for n in (1, 2, 3, 8000)),
        10.0 ** -np.linspace(1.0, 300.0, 3000),                    # lower tail to 1e-300
        1.0 - 10.0 ** -np.linspace(1.0, 16.0, 300),                # upper tail
        np.array([0.075, 0.0750000001, 0.925, 0.5]),               # region edges, centre
    ], ids=["n1", "n2", "n3", "n8000", "lower-tail", "upper-tail", "edges"])
    def test_within_six_ulps_of_cephes(self, p):
        got, want = ndtri(p), oracles_ndtri(p)
        assert got.shape == p.shape
        assert np.all(np.abs(got - want) <= 6 * np.spacing(np.abs(want)))

    def test_scalar_in_scalar_out(self):
        assert ndtri(0.5) == 0.0 and np.shape(ndtri(0.3)) == ()
        assert ndtri(0.3) == ndtri(np.array([0.3]))[0]


class TestPanelTypes:
    def test_duplicate_ids_rejected(self):
        s = ObservedSeries("a", np.array([0]), np.array([1.0]))
        with pytest.raises(InvalidInputError):
            SeriesPanel((s, s))

    def test_duplicate_ids_counted_once(self):
        """The ids are counted in one pass: a comparison per id pair would
        call ``__eq__`` about N^2 times. The message lists the first five
        duplicated ids, sorted."""
        calls = [0]

        class Id(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                calls[0] += 1
                return str.__eq__(self, other)

        names = [f"u{i:03d}" for i in range(300)] + [f"u{i:03d}" for i in range(156, 149, -1)]
        one = (np.array([0]), np.array([1.0]))
        series = [ObservedSeries(Id(u), *one) for u in names]
        with pytest.raises(InvalidInputError) as err:
            SeriesPanel(series)
        assert str(err.value) == "duplicate unit ids in panel: ['u150', 'u151', 'u152', 'u153', 'u154']"
        assert calls[0] <= 2 * len(names)

    def test_min_length_enforced(self):
        s = ObservedSeries("a", np.array([0, 1]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            SeriesPanel((s,), min_length=3)

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(InvalidInputError):
            ObservedSeries("a", np.array([2, 1]), np.array([0.0, 0.0]))
        with pytest.raises(InvalidInputError):
            ObservedSeries("a", np.array([1, 1]), np.array([0.0, 0.0]))

    def test_nonfinite_values_rejected(self):
        with pytest.raises(InvalidInputError):
            ObservedSeries("a", np.array([0, 1]), np.array([0.0, np.nan]))

    def test_groups_cover_panel_and_respect_grid(self):
        rng = np.random.default_rng(5)
        series = []
        for i in range(20):
            T = rng.integers(3, 8)
            start = rng.integers(0, 3)
            series.append(ObservedSeries(f"u{i}", np.arange(start, start + T), rng.normal(size=T)))
        panel = SeriesPanel(tuple(series))
        groups = panel_groups(panel)
        seen = np.concatenate([g.indices for g in groups])
        assert sorted(seen.tolist()) == list(range(20))
        for g in groups:
            q_yy, _, _, _ = group_gaussian_parts(g, ArParams(0.3, 1.0))
            assert q_yy.shape == (g.n,)

    def test_step_table_layout(self):
        rng = np.random.default_rng(6)
        series = []
        for i in range(15):
            times = np.sort(rng.choice(np.arange(2, 30), size=int(rng.integers(1, 12)), replace=False))
            series.append(ObservedSeries(f"u{i}", times, rng.normal(size=times.size)))
        panel = SeriesPanel(tuple(series))
        grid = np.arange(0, 32)
        table = step_table(panel, grid=grid)
        assert table.unit_ids == panel.unit_ids
        assert np.array_equal(table.values, np.concatenate([s.values for s in panel]))
        assert np.array_equal(np.bincount(table.unit, minlength=15), [len(s) for s in panel])
        assert np.array_equal(table.unit[table.first], np.arange(15))
        times = np.concatenate([s.times for s in panel])
        assert np.array_equal(grid[table.pos], times)
        later = table.later
        assert np.array_equal(np.sort(np.concatenate([table.first, later])), np.arange(times.size))
        assert np.array_equal(table.unit[later], table.unit[later - 1])
        assert np.array_equal(np.asarray(table.sizes)[table.gap], times[later] - times[later - 1])
        assert np.array_equal(table.pairs[table.pair], np.column_stack([table.pos[later - 1],
                                                                        table.pos[later]]))

    def test_step_precision_atom_table_equals_per_unit_form(self):
        """Every unit's entries gathered from the (atom, gap) table are
        those of the per-unit reference, bit for bit, on ragged times with
        four distinct gaps, phi near +-1 and units of one observation."""
        rng = np.random.default_rng(61)
        series = []
        for i in range(40):
            n = 1 if i % 7 == 0 else int(rng.integers(2, 12))
            times = np.cumsum(rng.choice([1, 2, 3, 5], size=n)) - 1
            series.append(ObservedSeries(f"u{i}", times, rng.normal(size=n)))
        table = step_table(SeriesPanel(tuple(series)))
        assert len(table.sizes) >= 3
        phi = np.array([0.5, -0.5, 0.999, -0.999, 0.5, -0.999])
        v = np.array([1.0, 0.3, 2.5, 0.05, 7.0, 1.0])
        atom = rng.integers(0, phi.size, size=len(series))
        got = step_precision(table, phi, v, atom)
        want = step_precision_per_unit(table, phi[atom], v[atom])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_step_precision_equals_bincount_form_bit_for_bit(self):
        """The shifted-slice diagonal and the gathered off-diagonal are the
        concatenated-``bincount`` form's to the bit, on ragged times with
        four distinct gaps, units of one observation and |phi| = 0.999."""
        rng = np.random.default_rng(62)
        series = []
        for i in range(50):
            n = 1 if i % 6 == 0 else int(rng.integers(2, 14))
            times = np.cumsum(rng.choice([1, 2, 3, 5], size=n)) - 1
            series.append(ObservedSeries(f"u{i}", times, rng.normal(size=n)))
        table = step_table(SeriesPanel(tuple(series)))
        assert len(table.sizes) >= 3
        phi = np.array([0.999, -0.999, 0.3, -0.7, 0.0])
        v = np.array([1.0, 0.02, 3.0, 0.5, 1e-3])
        for seed in range(3):
            atom = np.random.default_rng(seed).integers(0, phi.size, size=len(series))
            got = step_precision(table, phi, v, atom)
            want = step_precision_bincount(table, phi, v, atom)
            for g, w in zip(got, want):
                assert np.array_equal(g.view(np.int64), w.view(np.int64))

    def test_step_table_names_unit_off_grid(self):
        panel = SeriesPanel((ObservedSeries("on", np.array([0, 2, 4]), np.zeros(3)),
                             ObservedSeries("off", np.array([1, 2, 9]), np.zeros(3))))
        for grid in (np.arange(0, 9), np.arange(0, 12, 2)):
            with pytest.raises(InvalidInputError, match="unit 'off' has times outside the trajectory grid"):
                step_table(panel, grid=grid)

