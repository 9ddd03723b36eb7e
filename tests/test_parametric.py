"""Importance-sampling screen: weights, inclusion odds, prevalence mode."""

from __future__ import annotations

import math
import random
from functools import partial

import numpy as np
import pytest
from scipy.special import expit, logit
from scipy.stats import invgamma, truncnorm

import oracles
from arscreen import parametric
from arscreen.ar_core import (
    ArParams,
    ObservedSeries,
    SeriesPanel,
    cdf_standardize,
    lag_stats,
    log_conditional_bayes_factor,
    step_table,
)
from arscreen.errors import DomainError, InvalidInputError, ModeSearchError, NumericalError
from arscreen.mcmc import normalized_weights_and_ess
from arscreen.parametric import (
    _PENALTY,
    InclusionSummary,
    ParametricPrior,
    WeightedDraws,
    _log_target,
    build_importance_sampler,
    inclusion_probabilities_parametric,
    posterior_mixing_mode,
)
from arscreen.simulation import MixtureScenario, generate_mixture_panel


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny

# The README example mixture: four (phi, v) components with equal weight.
README_MIXTURE = tuple((ArParams(phi, v), 0.25) for phi in (0.2, 0.95) for v in (0.05, 0.5))


def null_panel(n=40, T=25, phi=0.5, v=0.3, seed=2):
    scenario = MixtureScenario(((ArParams(phi, v), 1.0),), n_units=n, length=T)
    panel, _ = generate_mixture_panel(scenario, seed=seed)
    return panel


def gapped_readme_panel(seed):
    """40 x 40 README mixture with each interior observation deleted with
    probability 0.05, then rank-standardized: ``simulate``, delete, ``standardize``."""
    scenario = MixtureScenario(README_MIXTURE, n_units=40, length=40, shift_prob=0.2)
    panel, _ = generate_mixture_panel(scenario, seed=seed)
    rng = random.Random(f"gaps-{seed}")
    out = []
    for s in panel:
        keep = [i for i in range(len(s)) if i in (0, len(s) - 1) or not rng.random() < 0.05]
        out.append(ObservedSeries(s.unit_id, s.times[keep], s.values[keep]))
    return cdf_standardize(SeriesPanel(tuple(out)))


class TestPrior:
    def test_log_density_matches_scipy(self):
        prior = ParametricPrior()
        sd = 0.25
        a_, b_ = (-1 - 0.5) / sd, (1 - 0.5) / sd
        for phi, v in [(0.3, 0.5), (-0.7, 2.0), (0.95, 0.1)]:
            want = truncnorm(a_, b_, loc=0.5, scale=sd).logpdf(phi) + invgamma(2.0, scale=1.0).logpdf(v)
            assert prior.log_density_phi_v(phi, v) == pytest.approx(want, abs=1e-10)

    def test_out_of_domain_density_is_minus_inf(self):
        prior = ParametricPrior()
        assert prior.log_density_phi_v(1.5, 1.0) == -np.inf
        assert prior.log_density_phi_v(0.5, -1.0) == -np.inf

    def test_sampler_matches_prior_moments(self):
        prior = ParametricPrior()
        rng = np.random.default_rng(8)
        phi, v = prior.sample_phi_v(rng, 200_000)
        assert np.all(np.abs(phi) < 1)
        sd = 0.25
        a_, b_ = (-1 - 0.5) / sd, (1 - 0.5) / sd
        assert phi.mean() == pytest.approx(truncnorm(a_, b_, loc=0.5, scale=sd).mean(), abs=5e-3)
        # InvGamma(2,1) has mean 1 but infinite variance; compare medians
        assert np.median(v) == pytest.approx(invgamma(2.0, scale=1.0).median(), rel=0.02)

    @pytest.mark.parametrize("prior", [
        ParametricPrior(),
        ParametricPrior(phi_mean=-0.3, phi_var=0.4, var_shape=3.5, var_scale=0.2),
    ])
    def test_hoisted_constants_give_identical_bytes(self, prior):
        """Against the per-call oracle given the same special functions."""
        forms = {"ndtr": parametric.ndtr, "gammaln": math.lgamma}
        phi, v = np.meshgrid(np.linspace(-1.1, 1.1, 23), np.linspace(-0.5, 4.0, 19))
        got = prior.log_density_phi_v(phi.ravel(), v.ravel())
        want = oracles.prior_log_density_phi_v(prior, phi.ravel(), v.ravel(), **forms)
        assert got.tobytes() == want.tobytes()
        for a, b in [(0.3, 0.5), (-0.99, 2.0), (1.0, 1.0), (0.5, 0.0)]:
            assert (np.asarray(prior.log_density_phi_v(a, b)).tobytes()
                    == np.asarray(oracles.prior_log_density_phi_v(prior, a, b, **forms)).tobytes())

    @pytest.mark.parametrize("prior", [
        ParametricPrior(),
        ParametricPrior(phi_mean=-0.3, phi_var=0.4, var_shape=3.5, var_scale=0.2),
        ParametricPrior(phi_mean=0.9, phi_var=0.01, var_shape=0.7, var_scale=3.0),
    ])
    def test_constants_match_scipy_special(self, prior):
        """``math.erfc`` and ``math.lgamma`` in place of scipy's ``ndtr`` and
        ``gammaln``: measured at most 1.9 eps (1 + |density|) on this grid
        (0, 0.9 and 1.9 for the three priors), so the bound is 4 eps
        (1 + |density|); -inf where scipy's form has it."""
        phi, v = np.meshgrid(np.linspace(-1.1, 1.1, 23), np.linspace(-0.5, 4.0, 19))
        got = prior.log_density_phi_v(phi.ravel(), v.ravel())
        want = oracles.prior_log_density_phi_v(prior, phi.ravel(), v.ravel())
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        assert np.all(np.abs(got[finite] - want[finite])
                      <= 4 * EPS * (1.0 + np.abs(want[finite])))

    def test_validation(self):
        with pytest.raises(DomainError):
            ParametricPrior(phi_mean=1.2)
        with pytest.raises(DomainError):
            ParametricPrior(var_shape=0.0)


class TestWeights:
    def test_equal_target_and_proposal_gives_flat_weights(self):
        lw = np.zeros(64)
        w, ess = normalized_weights_and_ess(lw)
        assert np.allclose(w, 1.0 / 64, atol=1e-15)
        assert ess == pytest.approx(64.0, abs=1e-9)

    def test_weight_scale_invariance_of_estimates(self):
        panel = null_panel()
        prior = ParametricPrior()
        draws = build_importance_sampler(panel, prior, n_draws=400, seed=3)
        shifted = WeightedDraws(draws.draws, draws.log_weights + 123.4, draws.ess, draws.seed)
        a = inclusion_probabilities_parametric(draws, panel, prior)
        b = inclusion_probabilities_parametric(shifted, panel, prior)
        assert np.allclose(a.probability, b.probability, atol=1e-12)
        assert posterior_mixing_mode(draws) == pytest.approx(posterior_mixing_mode(shifted), abs=1e-12)

    def test_nonfinite_log_weights_rejected(self):
        with pytest.raises(NumericalError):
            normalized_weights_and_ess(np.array([0.0, np.inf]))


class TestInclusion:
    def test_single_draw_matches_two_point_formula(self):
        rng = np.random.default_rng(0)
        series = ObservedSeries("u0", np.arange(10), rng.normal(size=10) + 1.5)
        panel = SeriesPanel((series,))
        prior = ParametricPrior()
        for phi, v, p in [(0.3, 0.8, 0.5), (0.0, 1.0, 0.2), (0.7, 0.4, 0.9)]:
            draws = WeightedDraws(np.array([[phi, v, p]]), np.zeros(1), 1.0, 0)
            got = inclusion_probabilities_parametric(draws, panel, prior).probability[0]
            bf = np.exp(log_conditional_bayes_factor(series, ArParams(phi, v), prior.shift_var))
            want = p * bf / (p * bf + 1.0 - p)
            assert got == pytest.approx(want, abs=1e-12)

    def test_textbook_odds_values(self):
        # BF = 1 leaves the prior untouched; p=0.2 with BF=4 gives even odds
        assert 0.5 * 1.0 / (0.5 * 1.0 + 0.5) == pytest.approx(0.5)
        assert 0.2 * 4.0 / (0.2 * 4.0 + 0.8) == pytest.approx(0.5)

    def test_monotone_in_shift_strength(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=15) * 0.3
        series = tuple(
            ObservedSeries(f"u{k}", np.arange(15), base + shift)
            for k, shift in enumerate([0.0, 0.2, 0.4, 0.6, 0.8])
        )
        panel = SeriesPanel(series)
        prior = ParametricPrior()
        draws = WeightedDraws(np.array([[0.3, 0.09, 0.1]]), np.zeros(1), 1.0, 0)
        probs = inclusion_probabilities_parametric(draws, panel, prior).probability
        assert np.all(np.diff(probs) > 0)

    def test_mc_stderr_shrinks_with_draws(self):
        panel = null_panel(n=12, T=15)
        prior = ParametricPrior()
        small = build_importance_sampler(panel, prior, n_draws=200, seed=4)
        large = build_importance_sampler(panel, prior, n_draws=3200, seed=4)
        se_small = inclusion_probabilities_parametric(small, panel, prior).mc_stderr
        se_large = inclusion_probabilities_parametric(large, panel, prior).mc_stderr
        assert se_large.mean() < se_small.mean()

    def test_flags_threshold(self):
        summary = InclusionSummary(("a", "b", "c"), np.array([0.95, 0.5, 0.2]), np.zeros(3))
        assert summary.flagged(0.5) == ("a", "b")
        assert summary.flagged(0.9) == ("a",)
        assert summary.flagged(0.96) == ()
        with pytest.raises(DomainError):
            summary.flagged(0.0)

    def test_probability_never_exceeds_one(self):
        """Normalized weights sum to 1 only up to rounding; at this seed the
        weighted average once came out at 1 + 2.2e-15 for six units."""
        scenario = MixtureScenario(README_MIXTURE, n_units=500, length=40, shift_prob=0.2)
        panel, _ = generate_mixture_panel(scenario, seed=5)
        prior = ParametricPrior()
        draws = build_importance_sampler(panel, prior, n_draws=5000, seed=7)
        prob = inclusion_probabilities_parametric(draws, panel, prior).probability
        assert np.all(prob >= 0.0)
        assert np.all(prob <= 1.0)

    def test_single_observation_units_rejected(self):
        panel = SeriesPanel((ObservedSeries("a", np.array([0]), np.array([1.0])),))
        with pytest.raises(InvalidInputError):
            build_importance_sampler(panel, ParametricPrior(), n_draws=10, seed=0)


class TestSampler:
    def test_deterministic_given_seed(self):
        panel = null_panel()
        prior = ParametricPrior()
        a = build_importance_sampler(panel, prior, n_draws=300, seed=11)
        b = build_importance_sampler(panel, prior, n_draws=300, seed=11)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.log_weights, b.log_weights)
        sa = inclusion_probabilities_parametric(a, panel, prior)
        sb = inclusion_probabilities_parametric(b, panel, prior)
        assert np.array_equal(sa.probability, sb.probability)

    def test_gapped_panel_mode_search_succeeds(self):
        """The mode search probes |phi| within a few ulps of 1; on gapped
        times a dense covariance factorization failed there for this panel."""
        panel = gapped_readme_panel(seed=2)
        assert any(not np.all(np.diff(s.times) == 1) for s in panel)
        draws = build_importance_sampler(panel, ParametricPrior(), n_draws=200, seed=7)
        assert np.all(np.isfinite(draws.log_weights))
        assert draws.ess > 0.5 * draws.n_draws

    def test_posterior_concentrates_near_truth(self):
        scenario = MixtureScenario(((ArParams(0.6, 0.5), 1.0),), n_units=150, length=40)
        panel, _ = generate_mixture_panel(scenario, seed=21)
        draws = build_importance_sampler(panel, ParametricPrior(), n_draws=2000, seed=1)
        w = draws.normalized_weights
        post_mean = w @ draws.draws
        assert post_mean[0] == pytest.approx(0.6, abs=0.05)
        assert post_mean[1] == pytest.approx(0.5, abs=0.08)
        assert post_mean[2] < 0.1
        assert draws.ess > 0.05 * draws.n_draws

    def test_detects_planted_shifts(self):
        scenario = MixtureScenario(((ArParams(0.4, 0.25), 1.0),), n_units=120, length=30,
                                   shift_prob=0.2, shift_var=4.0)
        panel, truth = generate_mixture_panel(scenario, seed=14)
        prior = ParametricPrior(shift_var=4.0)
        draws = build_importance_sampler(panel, prior, n_draws=2000, seed=9)
        summary = inclusion_probabilities_parametric(draws, panel, prior)
        signal = summary.probability[truth.nonnull]
        noise = summary.probability[~truth.nonnull]
        assert np.median(signal) > 0.8
        assert np.median(noise) < 0.1


class TestTProposal:
    """The Student-t proposal against scipy's ``multivariate_t``."""

    @staticmethod
    def shapes():
        rng = np.random.default_rng(41)
        a = rng.normal(size=(3, 3))
        # A well-conditioned shape, and one from a curvature at the eigenvalue floor.
        H = a @ np.diag([1e6, 1.0, -1e-3]) @ a.T
        return [a @ a.T + 0.1 * np.eye(3), parametric._proposal_shape(H)]

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("n", [2, 500])
    def test_draws_and_density_match_scipy(self, which, n):
        shape = self.shapes()[which]
        loc = np.array([0.5, -1.0, 2.0])
        xs, log_q = parametric._t_proposal(loc, shape, parametric.PROPOSAL_DF, n,
                                           np.random.default_rng(11))
        want_xs, want_log_q = oracles.t_proposal(loc, shape, parametric.PROPOSAL_DF, n,
                                                 np.random.default_rng(11))
        assert xs.shape == (n, 3)
        assert xs.tobytes() == want_xs.tobytes()
        # Any eigensolver knows the density of a shape of condition number k
        # only to about k eps: numpy's (LAPACK syevd) and scipy's (syevr)
        # differ by up to 2.1 k eps at shape 1 (k = 1e8; scipy's is itself
        # 7.5e-9 from the density in exact rational arithmetic), and by
        # 4.4e-16 relative at shape 0 (k = 3.3).
        np.testing.assert_allclose(log_q, want_log_q, rtol=1e-12,
                                   atol=4.0 * EPS * np.linalg.cond(shape))

    def test_sampler_unchanged_with_scipy_proposal(self, monkeypatch):
        panel = null_panel(n=12, T=15, seed=43)
        got = build_importance_sampler(panel, ParametricPrior(), n_draws=300, seed=5)
        monkeypatch.setattr(parametric, "_t_proposal", oracles.t_proposal)
        want = build_importance_sampler(panel, ParametricPrior(), n_draws=300, seed=5)
        assert got.draws.tobytes() == want.draws.tobytes()
        np.testing.assert_allclose(got.log_weights, want.log_weights, rtol=1e-12, atol=0.0)


class TestLogistic:
    """The numpy ``expit`` and ``logit`` against scipy's. Measured: expit at
    most 3 ulps from scipy's on [-800, 800] where scipy's is a normal
    number; below that numpy keeps subnormals (2.5e-323 at x = -742.9)
    where scipy's gives 0, so the bound is 4 ulps or the smallest normal
    number. logit is within 1 ulp away from p = 1/2, where scipy switches
    to a log1p form, and everywhere within 0.94 eps (1 + |logit p|) (bound
    2 eps)."""

    def test_expit_matches_scipy(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 160001), [-745.0, 745.0, -0.0, 1e-300]])
        got, want = parametric.expit(x), oracles.expit(x)
        assert np.all(np.abs(got - want) <= np.maximum(4 * np.spacing(want), TINY))
        assert parametric.expit(-800.0) == 0.0 and parametric.expit(800.0) == 1.0

    def test_logit_matches_scipy(self):
        p = np.concatenate([np.linspace(0.0, 1.0, 100001), [1e-300, 1.0 - EPS / 2]])
        got, want = parametric.logit(p), oracles.logit(p)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        assert np.all(np.abs(got[finite] - want[finite]) <= 2 * EPS * (1.0 + np.abs(want[finite])))
        assert parametric.logit(0.0) == -np.inf and parametric.logit(1.0) == np.inf


class TestMixingMode:
    def test_mode_of_concentrated_cloud(self):
        rng = np.random.default_rng(3)
        p = expit(rng.normal(logit(0.3), 0.15, size=4000))
        draws = WeightedDraws(np.column_stack([np.full(4000, 0.5), np.ones(4000), p]),
                              np.zeros(4000), 4000.0, 0)
        assert posterior_mixing_mode(draws) == pytest.approx(0.3, abs=0.05)

    def test_point_mass_returns_common_value(self):
        p = np.full(50, 0.37)
        draws = WeightedDraws(np.column_stack([np.full(50, 0.5), np.ones(50), p]),
                              np.zeros(50), 50.0, 0)
        assert posterior_mixing_mode(draws) == pytest.approx(0.37, abs=1e-9)

    def test_degenerate_weights_raise(self):
        lw = np.concatenate([[0.0], np.full(99, -200.0)])
        p = np.linspace(0.1, 0.9, 100)
        draws = WeightedDraws(np.column_stack([np.full(100, 0.5), np.ones(100), p]), lw, 1.0, 0)
        with pytest.raises(NumericalError):
            posterior_mixing_mode(draws)


    def test_blocked_density_matches_dense_reference(self, monkeypatch):
        rng = np.random.default_rng(11)
        p = expit(np.concatenate([rng.normal(logit(0.2), 0.4, size=1500),
                                  rng.normal(logit(0.6), 0.3, size=501)]))
        lw = rng.normal(scale=0.8, size=p.size)
        draws = WeightedDraws(np.column_stack([np.full(p.size, 0.5), np.ones(p.size), p]), lw, 0.0, 0)
        want = oracles.dense_mixing_mode(p, lw)
        assert posterior_mixing_mode(draws) == pytest.approx(want, rel=1e-12)
        monkeypatch.setattr(parametric, "_BLOCK_ENTRIES", 512 * 7)   # ragged blocks of 7
        assert posterior_mixing_mode(draws) == pytest.approx(want, rel=1e-12)


class TestLogTarget:
    """``_log_target`` scores rows in blocks; the reference scores them one
    draw and one unit at a time from dense covariances."""

    def test_matches_per_draw_reference_on_gapped_panel(self):
        panel = gapped_readme_panel(seed=2)
        prior = ParametricPrior()
        xs = np.array([
            [np.arctanh(0.999), np.log(0.5), logit(0.2)],
            [np.arctanh(-0.999), np.log(2.0), logit(0.6)],
            [np.arctanh(0.999), np.log(0.05), logit(0.01)],
            [np.arctanh(0.5), 0.0, 0.0],
            [0.3, -1.0, -2.0],
            [25.0, 0.0, 0.0],        # tanh rounds to 1
            [-25.0, 0.0, 0.0],       # tanh rounds to -1
            [0.5, 800.0, 0.0],       # exp overflows
            [0.5, -800.0, 0.0],      # exp underflows to 0
            [0.5, 0.0, 40.0],        # expit rounds to 1
            [0.5, 0.0, -800.0],      # expit underflows to 0
            [np.nan, 0.0, 0.0],
        ])
        got = _log_target(lag_stats(step_table(panel)), prior, xs)
        want = np.array([oracles.parametric_log_target(panel, prior, x) for x in xs])
        saturated = want == oracles.PENALTY
        assert np.array_equal(saturated, np.arange(len(xs)) >= 5)
        assert np.all(got[saturated] == _PENALTY)
        assert np.allclose(got[~saturated], want[~saturated], rtol=1e-9, atol=0.0)

    def test_ragged_blocks_equal_one_block(self, monkeypatch):
        scenario = MixtureScenario(README_MIXTURE, n_units=30, length=25, shift_prob=0.2)
        panel, _ = generate_mixture_panel(scenario, seed=4)
        prior = ParametricPrior()
        stats = lag_stats(step_table(panel))
        rng = np.random.default_rng(5)
        xs = np.array([np.arctanh(0.5), np.log(0.3), logit(0.2)]) + rng.normal(scale=0.7, size=(103, 3))
        xs[[2, 50, 101], 0] = 30.0          # penalized rows inside blocks
        draws = WeightedDraws(np.column_stack([np.tanh(xs[:, 0]), np.exp(xs[:, 1]), expit(xs[:, 2])]),
                              rng.normal(size=103), 50.0, 0)
        draws.draws[[2, 50, 101], 0] = 0.9
        one_target = _log_target(stats, prior, xs)
        one_incl = inclusion_probabilities_parametric(draws, panel, prior)
        monkeypatch.setattr(parametric, "_BLOCK_ENTRIES", 8 * len(panel))   # blocks of 8, last of 7
        many_target = _log_target(stats, prior, xs)
        many_incl = inclusion_probabilities_parametric(draws, panel, prior)
        assert np.all((one_target == _PENALTY) == (many_target == _PENALTY))
        assert np.allclose(many_target, one_target, rtol=1e-13, atol=0.0)
        assert np.allclose(many_incl.probability, one_incl.probability, rtol=0.0, atol=1e-14)
        assert np.allclose(many_incl.mc_stderr, one_incl.mc_stderr, rtol=1e-9, atol=1e-14)
        ref_prob, ref_se = oracles.parametric_inclusion(panel, draws.draws, draws.normalized_weights,
                                                        prior.shift_var)
        assert np.allclose(many_incl.probability, ref_prob, rtol=0.0, atol=1e-9)
        assert np.allclose(many_incl.mc_stderr, ref_se, rtol=1e-6, atol=1e-9)

    def test_nonfinite_bayes_factor_names_unit_and_draw(self, monkeypatch):
        """At v = 1e-150, q_y1^2 overflows only for the unit at 1e10 scale,
        so the error names that unit and the draw's index over all blocks."""
        panel = null_panel(n=6, T=10)
        big = panel[3]
        panel = SeriesPanel(tuple(ObservedSeries(s.unit_id, s.times, s.values * 1e10) if s is big else s
                                  for s in panel))
        draws = np.tile([0.3, 1.0, 0.2], (23, 1))
        draws[17, 1] = 1e-150
        weighted = WeightedDraws(draws, np.zeros(23), 23.0, 0)
        monkeypatch.setattr(parametric, "_BLOCK_ENTRIES", 4 * len(panel))   # draw 17 in the fifth block
        with pytest.raises(FloatingPointError) as ref:
            oracles.parametric_inclusion(panel, draws, weighted.normalized_weights, 1.0)
        with pytest.raises(NumericalError) as got, np.errstate(over="ignore"):
            inclusion_probabilities_parametric(weighted, panel, ParametricPrior())
        assert str(got.value) == str(ref.value) == f"non-finite Bayes factor for unit {big.unit_id!r} at draw 17"

    def test_prior_density_on_arrays_matches_scalar_calls(self):
        prior = ParametricPrior(phi_mean=0.3, phi_var=0.2, var_shape=3.0, var_scale=0.5)
        phi, v = np.meshgrid(np.linspace(-1.2, 1.2, 25), np.linspace(-0.5, 3.0, 15))
        phi, v = phi.ravel(), v.ravel()
        got = prior.log_density_phi_v(phi, v)
        want = np.array([prior.log_density_phi_v(float(a), float(b)) for a, b in zip(phi, v)])
        outside = (np.abs(phi) >= 1.0) | (v <= 0.0)
        assert np.any(outside) and np.any(~outside)
        assert np.all(want[outside] == -np.inf) and np.all(got[outside] == -np.inf)
        assert np.allclose(got[~outside], want[~outside], rtol=1e-14, atol=0.0)


def readme_panel(n_units, length, seed):
    """README mixture with ``shift_prob = 0.2``, rank-standardized: ``simulate``, ``standardize``."""
    scenario = MixtureScenario(README_MIXTURE, n_units=n_units, length=length, shift_prob=0.2)
    panel, _ = generate_mixture_panel(scenario, seed=seed)
    return cdf_standardize(panel)


class TestModeSearch:
    """The Newton mode search and the analytic gradient it climbs."""

    @pytest.mark.parametrize("prior", [
        ParametricPrior(),
        ParametricPrior(phi_mean=-0.3, phi_var=0.4, var_shape=3.5, var_scale=0.2, shift_var=4.0),
    ])
    @pytest.mark.parametrize("phi", [0.999, -0.999, 0.5, -0.5, 0.0])
    def test_gradient_matches_central_differences(self, phi, prior):
        stats = lag_stats(step_table(gapped_readme_panel(seed=2)))
        h = 1e-5
        for v, p in [(0.3, 0.2), (2.0, 0.7)]:
            x = np.array([np.arctanh(phi), np.log(v), logit(p)])
            got = parametric._grad_log_target(stats, prior, x)
            want = [(_log_target(stats, prior, x + e)[0] - _log_target(stats, prior, x - e)[0]) / (2 * h)
                    for e in h * np.eye(3)]
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("make_panel", [
        lambda: null_panel(),
        lambda: gapped_readme_panel(seed=2),
        lambda: readme_panel(200, 40, seed=1),
    ])
    def test_newton_mode_and_hessian_match_references(self, make_panel):
        stats = lag_stats(step_table(make_panel()))
        prior = ParametricPrior()
        f = lambda y: _log_target(stats, prior, y)[0]   # noqa: E731
        x0 = np.array([np.arctanh(prior.phi_mean), 0.0, logit(0.1)])
        mode = parametric._newton_ascent(stats, prior, x0)
        assert mode.max_grad < 1e-6
        assert mode.max_grad == np.max(np.abs(parametric._grad_log_target(stats, prior, mode.x)))
        assert mode.log_target == f(mode.x)
        want = oracles.maximize(f, lambda y: parametric._grad_log_target(stats, prior, y), x0)
        np.testing.assert_allclose(mode.x, want, rtol=0.0, atol=1e-5)
        ref = oracles.fd_hessian(f, mode.x)
        assert np.max(np.abs(mode.hessian - ref)) <= 1e-3 * np.max(np.abs(ref))
        assert np.all(np.linalg.eigvalsh(mode.hessian) < 0.0)

    @staticmethod
    def grid_points():
        """Rows x = (atanh phi, log v, logit p) at phi in {±0.999, ±0.5, 0}."""
        return np.array([[np.arctanh(phi), np.log(v), logit(p)]
                         for phi in (0.999, -0.999, 0.5, -0.5, 0.0)
                         for v, p in [(0.3, 0.2), (2.0, 0.7)]])

    @pytest.mark.parametrize("prior", [
        ParametricPrior(),
        ParametricPrior(phi_mean=-0.3, phi_var=0.4, var_shape=3.5, var_scale=0.2, shift_var=4.0),
    ])
    @pytest.mark.parametrize("make_panel", [
        lambda: null_panel(),
        lambda: gapped_readme_panel(seed=2),
        lambda: readme_panel(200, 40, seed=1),
    ])
    def test_batched_derivatives_match_single_point_references(self, make_panel, prior):
        """A stack of points gives each point's gradient bit for bit (no sum
        depends on the stack), within 1e-12 of the largest component of the
        gradient summed unit by unit (measured 6e-15); the one-call Hessian
        lies within 1e-8 of the largest entry of the six-call reference
        (measured 1.2e-10), and the target within 1e-12 relative of the one
        that scores each unit's null separately (measured 1.9e-15)."""
        stats = lag_stats(step_table(make_panel()))
        xs = self.grid_points()
        got = parametric._grad_log_target(stats, prior, xs)
        assert got.shape == xs.shape
        single = np.array([parametric._grad_log_target(stats, prior, x) for x in xs])
        assert np.array_equal(got, single)
        ref = np.array([oracles.parametric_grad_per_unit(stats, prior, x) for x in xs])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max(axis=1, keepdims=True))
        ref_grad = partial(oracles.parametric_grad_per_unit, stats, prior)
        for x, g_x in zip(xs, got):
            g, H = parametric._derivatives(stats, prior, x)
            assert np.array_equal(g, g_x)
            H_ref = oracles.grad_hessian_six_calls(ref_grad, x)
            assert np.max(np.abs(H - H_ref)) <= 1e-8 * np.max(np.abs(H_ref))
        want = oracles.parametric_log_target_per_unit(stats, prior, xs)
        assert np.allclose(_log_target(stats, prior, xs), want, rtol=1e-12, atol=0.0)

    def test_one_derivative_call_per_start_and_accepted_iterate(self, monkeypatch):
        """Each start and each accepted Newton iterate takes its gradient and
        curvature from one 7-point call; a single-point gradient call only
        probes the line-search trial the target was just scored at."""
        calls, iterations = [], []
        grad, target, newton = (parametric._grad_log_target, parametric._log_target,
                                parametric._newton_ascent)

        def counted_grad(stats, prior, xs):
            calls.append(("grad", np.array(xs)))
            return grad(stats, prior, xs)

        def counted_target(stats, prior, xs):
            calls.append(("target", np.array(xs)))
            return target(stats, prior, xs)

        def counted_newton(stats, prior, x):
            mode = newton(stats, prior, x)
            iterations.append(mode.iterations)
            return mode

        monkeypatch.setattr(parametric, "_grad_log_target", counted_grad)
        monkeypatch.setattr(parametric, "_log_target", counted_target)
        monkeypatch.setattr(parametric, "_newton_ascent", counted_newton)
        build_importance_sampler(readme_panel(200, 40, seed=1), ParametricPrior(), 500, seed=7)
        assert len(iterations) == 2 and sum(iterations) > 0
        stencils = [x for kind, x in calls if kind == "grad" and x.shape == (7, 3)]
        assert len(stencils) == sum(1 + it for it in iterations)
        for (kind, x), (before, x_before) in zip(calls[1:], calls):
            if kind == "grad" and x.shape != (7, 3):
                assert x.shape == (3,) and before == "target" and np.array_equal(x, x_before)

    def test_standardized_5000_unit_panel_builds(self):
        """BFGS on forward-difference gradients stopped at max |gradient| 0.0039
        from both starts on this panel and raised ModeSearchError."""
        panel = readme_panel(5000, 40, seed=3)
        draws = build_importance_sampler(panel, ParametricPrior(), n_draws=500, seed=7)
        assert draws.mode.max_grad < 1e-6
        assert draws.ess > 0.5 * draws.n_draws

    def test_failed_search_reports_last_iterate_and_gradient(self, monkeypatch):
        monkeypatch.setattr(parametric, "_MAX_NEWTON", 1)
        panel = readme_panel(200, 40, seed=1)
        with pytest.raises(ModeSearchError) as err:
            build_importance_sampler(panel, ParametricPrior(), n_draws=50, seed=7)
        stats = lag_stats(step_table(panel))
        x0 = np.array([np.arctanh(0.5), 0.0, 0.0])
        last = parametric._newton_ascent(stats, ParametricPrior(), x0)
        assert np.array_equal(err.value.last_iterate, last.x)
        assert f"max |gradient| {last.max_grad:.3g}" in str(err.value)
        assert last.max_grad >= 1e-6
