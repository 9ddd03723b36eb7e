"""Residual mixture sampler: cluster-count algebra, prior invariance, conjugacy."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import beta, chisquare, invgamma, kstest, truncnorm

from arscreen.ar_core import ArParams, LagStats, ObservedSeries, SeriesPanel, lag_stats, step_table
from arscreen.dp_residual import (
    elicit_concentration,
    expected_clusters,
    gibbs_sweep_residual,
    init_residual_state,
    run_residual_chain,
    _atom_log_target,
    _step_atoms,
)
from arscreen.errors import DomainError, NumericalError
from arscreen.mcmc import stream
from arscreen.parametric import ParametricPrior
from arscreen.simulation import MixtureScenario, generate_mixture_panel

import oracles
from oracles import conjugate_variance_posterior, crp_expected_tables
from test_parametric import gapped_readme_panel


class TestClusterCounts:
    def test_three_units_unit_concentration(self):
        want = crp_expected_tables(1.0, 3)
        assert want == pytest.approx(11.0 / 6.0, abs=1e-15)
        assert expected_clusters(1.0, 3) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("alpha,n", [(0.5, 4), (2.0, 5), (1.0, 6), (3.5, 4)])
    def test_matches_enumeration(self, alpha, n):
        assert expected_clusters(alpha, n) == pytest.approx(crp_expected_tables(alpha, n), abs=1e-9)

    def test_monotone_in_concentration_and_n(self):
        assert expected_clusters(0.1, 100) < expected_clusters(1.0, 100) < expected_clusters(10.0, 100)
        assert expected_clusters(1.0, 10) < expected_clusters(1.0, 100)

    @pytest.mark.parametrize("target,n", [(5.0, 100), (2.5, 30), (11.61, 5498), (40.0, 1000)])
    def test_elicitation_round_trip(self, target, n):
        alpha = elicit_concentration(target, n)
        assert expected_clusters(alpha, n) == pytest.approx(target, abs=1e-6)

    def test_elicitation_domain(self):
        with pytest.raises(DomainError):
            elicit_concentration(1.0, 10)
        with pytest.raises(DomainError):
            elicit_concentration(11.0, 10)
        with pytest.raises(DomainError):
            expected_clusters(-1.0, 5)

    @pytest.mark.parametrize("alpha", [0.0, np.nan, np.inf])
    def test_init_rejects_nonfinite_or_nonpositive_concentration(self, alpha):
        with pytest.raises(DomainError, match="finite and positive"):
            init_residual_state(3, alpha, ParametricPrior(), truncation=5,
                                rng=stream(0, "bad-alpha"))


def tiny_panel(n=3, T=6, seed=0):
    scenario = MixtureScenario(((ArParams(0.3, 0.5), 1.0),), n_units=n, length=T)
    panel, _ = generate_mixture_panel(scenario, seed=seed)
    return panel


# Each coordinate is thinned by twice its integrated autocorrelation time
# (IACT; Sokal's estimate, window 5 IACTs), the larger of the values measured
# on these seeded chains at their own length and over 30,000 sweeps. Seed 42:
# stick 5.1/5.5, phi 8.1/9.2, v 4.1/19.0. Seed 7: the indicators of unit 0's
# atom 5.0/5.5 at most.
STICK_ATOM_THIN = {"stick": 11, "phi": 19, "v": 38}
ASSIGNMENT_THIN = 11


class TestPriorInvariance:
    """Geweke's successive-conditional simulator: the data are redrawn from
    p(y | theta) before each real sweep, so the chain keeps the prior."""

    def test_sweeps_preserve_stick_and_atom_marginals(self):
        alpha = 1.3
        base = ParametricPrior()
        panel = tiny_panel()
        table = step_table(panel)
        state = init_residual_state(len(panel), alpha, base, truncation=5,
                                    rng=stream(42, "inv-init"))
        rng = stream(42, "inv-sweeps")
        n_sweeps = 6000
        stick0, phi0, v0 = np.empty((3, n_sweeps))
        for t in range(n_sweeps):
            table = oracles.successive_conditional_data(state, table, rng)
            gibbs_sweep_residual(state, table, rng)
            assert abs(state.stick.weights.sum() - 1.0) < 1e-12
            stick0[t] = state.stick.sticks[0]
            phi0[t] = state.stick.phi[0]
            v0[t] = state.stick.v[0]
        ks_stick = kstest(stick0[::STICK_ATOM_THIN["stick"]], beta(1.0, alpha).cdf)
        assert ks_stick.pvalue > 0.01
        sd = np.sqrt(base.phi_var)
        lo, hi = (-1 - base.phi_mean) / sd, (1 - base.phi_mean) / sd
        ks_phi = kstest(phi0[::STICK_ATOM_THIN["phi"]],
                        truncnorm(lo, hi, loc=base.phi_mean, scale=sd).cdf)
        assert ks_phi.pvalue > 0.01
        ks_v = kstest(v0[::STICK_ATOM_THIN["v"]],
                      invgamma(base.var_shape, scale=base.var_scale).cdf)
        assert ks_v.pvalue > 0.01

    def test_sweeps_preserve_assignment_frequencies(self):
        alpha = 1.0
        state = init_residual_state(3, alpha, ParametricPrior(), truncation=5,
                                    rng=stream(7, "freq-init"))
        table = step_table(tiny_panel())
        rng = stream(7, "freq-sweeps")
        counts = np.zeros(5)
        n_sweeps = 5000
        for t in range(n_sweeps):
            table = oracles.successive_conditional_data(state, table, rng)
            gibbs_sweep_residual(state, table, rng)
            if t % ASSIGNMENT_THIN == 0:
                counts[state.assignments[0]] += 1
        # marginal P(assignment = l) is E[w_l] = (1/(1+a)) (a/(1+a))^l, remainder at the end
        r = alpha / (1.0 + alpha)
        expected = np.array([(1 - r) * r ** l for l in range(4)] + [r ** 4])
        assert chisquare(counts, expected * counts.sum()).pvalue > 0.01


class TestConjugateOracle:
    def test_variance_update_matches_inverse_gamma_posterior(self):
        # One occupied atom with phi pinned at 0 by a zero proposal scale: its
        # conditional for v is then exactly inverse-gamma, and the sampler's
        # own atom step, run on log v, must reproduce it.
        base = ParametricPrior(var_shape=2.0, var_scale=1.0)
        rng_data = np.random.default_rng(5)
        z = rng_data.normal(0.0, 0.7, size=(5, 20))
        scenario_panel = tiny_panel(n=5, T=20, seed=3)
        table = step_table(scenario_panel)
        state = init_residual_state(5, 1.0, base, truncation=3, rng=stream(1, "conj-init"))
        state.assignments[:] = 0
        state.stick.phi[0], state.stick.v[0] = 0.0, 1.0
        state.prop_scale[0] = [0.0, 0.45]
        pooled = lag_stats(table, z.ravel()).pool(state.assignments, 3)
        rng = stream(1, "conj-chain")
        n_steps, burn, thin = 60_000, 2000, 10
        vs = np.empty(n_steps)
        for t in range(n_steps):
            _step_atoms(state, pooled, np.array([0]), rng, adapt=False)
            vs[t] = state.stick.v[0]
        a_post, b_post = conjugate_variance_posterior(2.0, 1.0, z)
        ks = kstest(vs[burn::thin], invgamma(a_post, scale=b_post).cdf)
        assert ks.pvalue > 0.01
        # QQ agreement at the quartiles
        got = np.quantile(vs[burn::thin], [0.25, 0.5, 0.75])
        want = invgamma(a_post, scale=b_post).ppf([0.25, 0.5, 0.75])
        assert np.allclose(got, want, rtol=0.05)


class TestAtomTarget:
    """``_atom_log_target`` scores every atom in one call; the reference
    scores one atom at a time from its members' dense covariances."""

    def test_matches_per_atom_reference_on_gapped_panel(self):
        panel = gapped_readme_panel(seed=2)
        base = ParametricPrior()
        xs = np.array([
            [np.arctanh(0.999), np.log(0.5)],
            [np.arctanh(-0.999), np.log(2.0)],
            [np.arctanh(0.999), np.log(0.05)],
            [np.arctanh(0.5), 0.0],
            [0.3, -1.0],             # no members
            [25.0, 0.0],             # tanh rounds to 1
            [-25.0, 0.0],            # tanh rounds to -1
            [0.5, 800.0],            # exp overflows
            [0.5, -800.0],           # exp underflows to 0
            [np.nan, 0.0],
        ])
        labels = np.arange(len(panel)) % len(xs)
        labels[labels == 4] = 0
        pooled = lag_stats(step_table(panel)).pool(labels, len(xs))
        members = [[s for s, l in zip(panel, labels) if l == k] for k in range(len(xs))]
        want = np.array([oracles.dp_atom_log_target(members[k], base, x) for k, x in enumerate(xs)])
        saturated = np.isneginf(want)
        assert np.array_equal(saturated, np.arange(len(xs)) >= 5)
        got = _atom_log_target(base, pooled, xs)
        assert np.array_equal(np.isneginf(got), saturated)
        assert np.allclose(got[~saturated], want[~saturated], rtol=1e-9, atol=0.0)
        # An all-zero pooled row is the statistics of an empty atom.
        empty = LagStats(pooled.sizes, np.zeros_like(pooled.terms), np.zeros_like(pooled.linear))
        prior_only = np.array([oracles.dp_atom_log_target([], base, x) for x in xs])
        got = _atom_log_target(base, empty, xs)
        assert np.array_equal(np.isneginf(got), saturated)
        assert np.allclose(got[~saturated], prior_only[~saturated], rtol=1e-12, atol=0.0)

    def test_nan_proposal_target_names_the_atom(self):
        state = init_residual_state(4, 1.0, ParametricPrior(), truncation=3,
                                    rng=stream(6, "nan-init"))
        pooled = lag_stats(step_table(tiny_panel(n=4))).pool(np.array([0, 1, 2, 2]), 3)
        terms = pooled.terms.copy()
        terms[2, -1] = np.nan
        with pytest.raises(NumericalError, match="atom 2"):
            _step_atoms(state, LagStats(pooled.sizes, terms, pooled.linear), np.arange(3),
                        stream(6, "nan-step"), adapt=False)


class TestSweeps:
    def test_two_well_separated_components_recovered(self):
        comps = ((ArParams(0.2, 0.05), 0.5), (ArParams(0.95, 0.5), 0.5))
        panel, truth = generate_mixture_panel(
            MixtureScenario(comps, n_units=200, length=30), seed=31
        )
        table = step_table(panel)
        state = init_residual_state(len(panel), 1.0, ParametricPrior(), truncation=20,
                                    rng=stream(9, "purity-init"))
        rng = stream(9, "purity-sweeps")
        for t in range(500):
            gibbs_sweep_residual(state, table, rng, adapt=t < 250)
        purity_hits = 0
        for l in np.unique(state.assignments):
            members = truth.component[state.assignments == l]
            purity_hits += np.bincount(members).max()
        assert purity_hits / len(panel) >= 0.95

    def test_empty_atoms_redrawn_from_base(self):
        state = init_residual_state(3, 1.0, ParametricPrior(), truncation=8,
                                    rng=stream(2, "empty-init"))
        before_phi = state.stick.phi.copy()
        before_v = state.stick.v.copy()
        rng = stream(2, "empty-sweeps")
        gibbs_sweep_residual(state, step_table(tiny_panel()), rng)
        empty = np.setdiff1d(np.arange(8), state.assignments)
        assert empty.size > 0
        assert not np.allclose(state.stick.phi[empty], before_phi[empty])
        assert not np.allclose(state.stick.v[empty], before_v[empty])
        assert np.all(np.abs(state.stick.phi) < 1)
        assert np.all(state.stick.v > 0)

    def test_weights_sum_to_one_every_sweep(self):
        panel = tiny_panel(n=6, T=8)
        table = step_table(panel)
        state = init_residual_state(6, 2.0, ParametricPrior(), truncation=10,
                                    rng=stream(3, "sum-init"))
        rng = stream(3, "sum-sweeps")
        for _ in range(200):
            gibbs_sweep_residual(state, table, rng)
            assert abs(state.stick.weights.sum() - 1.0) < 1e-12
            np.testing.assert_array_less(-1e-300, state.stick.weights)

    def test_chain_determinism(self):
        panel = tiny_panel(n=10, T=12, seed=6)
        _, rec_a = run_residual_chain(panel, 1.0, ParametricPrior(), truncation=6,
                                      n_burn=20, n_keep=10, seed=77)
        _, rec_b = run_residual_chain(panel, 1.0, ParametricPrior(), truncation=6,
                                      n_burn=20, n_keep=10, seed=77)
        for a, b in zip(rec_a, rec_b):
            assert np.array_equal(a["weights"], b["weights"])
            assert np.array_equal(a["phi"], b["phi"])
            assert np.array_equal(a["counts"], b["counts"])

    def test_overflowing_unit_is_named(self):
        """Squares of values near 1e200 overflow: the sweep raises and names
        the unit rather than assigning it on a non-finite likelihood."""
        rng = np.random.default_rng(8)
        times = np.array([0, 1, 3, 4, 7, 8, 9])
        series = [ObservedSeries(f"u{i}", times, rng.normal(size=times.size)) for i in range(4)]
        series.append(ObservedSeries("huge", times[1:], 1e200 * (1.0 + rng.uniform(size=6))))
        state = init_residual_state(5, 1.0, ParametricPrior(), truncation=4,
                                    rng=stream(5, "overflow-init"))
        with pytest.raises(NumericalError, match="unit 'huge'"):
            gibbs_sweep_residual(state, SeriesPanel(tuple(series)), stream(5, "overflow-sweeps"))

    def test_adaptation_moves_scales_only_during_burn(self):
        panel = tiny_panel(n=10, T=12, seed=6)
        table = step_table(panel)
        state = init_residual_state(10, 1.0, ParametricPrior(), truncation=4,
                                    rng=stream(4, "adapt-init"))
        rng = stream(4, "adapt-sweeps")
        start = state.prop_scale.copy()
        for _ in range(50):
            gibbs_sweep_residual(state, table, rng, adapt=True)
        assert not np.allclose(state.prop_scale, start)
        frozen = state.prop_scale.copy()
        for _ in range(50):
            gibbs_sweep_residual(state, table, rng, adapt=False)
        assert np.array_equal(state.prop_scale, frozen)
