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
    _draw_atom_v,
    _phi_log_target,
    _step_atoms,
    _v_conditional,
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


# Each coordinate is thinned by at least twice its integrated autocorrelation
# time (IACT; Sokal's estimate, window 5 IACTs), the larger of the values
# measured on these seeded chains at their own length and over 30,000
# sweeps. Seed 42: stick 5.1/5.0, phi 4.8/5.3, v 7.2/5.7. Seed 7: the
# indicators of unit 0's atom 4.6/5.1 at most.
STICK_ATOM_THIN = {"stick": 11, "phi": 12, "v": 15}
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
        # One atom holding every unit, at phi = 0: its conditional for v is
        # exactly inverse-gamma, and the sampler's own v draw must reproduce it.
        base = ParametricPrior(var_shape=2.0, var_scale=1.0)
        rng_data = np.random.default_rng(5)
        z = rng_data.normal(0.0, 0.7, size=(5, 20))
        table = step_table(tiny_panel(n=5, T=20, seed=3))
        pooled = lag_stats(table, z.ravel()).pool(np.zeros(5, dtype=np.int64), 1)
        n_draws = 5800
        shape, scale, _ = _v_conditional(base, pooled[np.zeros(n_draws, dtype=np.int64)],
                                         np.zeros(n_draws))
        vs = _draw_atom_v(shape, scale, stream(1, "conj-chain"))
        a_post, b_post = conjugate_variance_posterior(2.0, 1.0, z)
        ks = kstest(vs, invgamma(a_post, scale=b_post).cdf)
        assert ks.pvalue > 0.01
        # QQ agreement at the quartiles
        got = np.quantile(vs, [0.25, 0.5, 0.75])
        want = invgamma(a_post, scale=b_post).ppf([0.25, 0.5, 0.75])
        assert np.allclose(got, want, rtol=0.05)


class TestAtomTarget:
    """``_phi_log_target`` scores every atom in one call with v integrated
    out in closed form; the reference integrates v out by quadrature, one
    atom and one phi at a time, from its members' dense covariances. Both
    drop a normalizer that depends on the atom, so they are compared in
    differences across phi within each atom."""

    FINITE = np.arcsin([0.5, 0.999, -0.999, 0.95, -0.2, 0.0])
    SATURATED = np.array([0.5 * np.pi, -0.5 * np.pi,
                          np.nextafter(0.5 * np.pi, 0.0),   # sin rounds to 1
                          2.0, -7.0, np.nan])

    def _scores(self, base, pooled, n_atoms):
        thetas = np.concatenate([self.FINITE, self.SATURATED])
        rows = np.repeat(np.arange(n_atoms), thetas.size)
        return _phi_log_target(base, pooled[rows], np.tile(thetas, n_atoms))[0].reshape(n_atoms, -1)

    def test_matches_per_atom_reference_on_gapped_panel(self):
        panel = gapped_readme_panel(seed=2)
        base = ParametricPrior()
        n_atoms = 4
        labels = np.arange(len(panel)) % n_atoms
        labels[:3] = 0
        pooled = lag_stats(step_table(panel)).pool(labels, n_atoms)
        members = [[s for s, l in zip(panel, labels) if l == k] for k in range(n_atoms)]
        got = self._scores(base, pooled, n_atoms)
        m = self.FINITE.size
        assert np.all(np.isneginf(got[:, m:]))
        assert np.all(np.isfinite(got[:, :m]))
        want = np.array([[oracles.dp_atom_log_marginal(members[k], base, t) for t in self.FINITE]
                         for k in range(n_atoms)])
        assert np.allclose(got[:, 1:m] - got[:, :1], want[:, 1:] - want[:, :1],
                           rtol=1e-9, atol=1e-8)
        # An all-zero pooled row is the statistics of an empty atom: the
        # prior alone.
        empty = LagStats(pooled.sizes, np.zeros_like(pooled.terms[:1]),
                         np.zeros_like(pooled.linear[:1]))
        got = self._scores(base, empty, 1)
        assert np.all(np.isneginf(got[:, m:]))
        prior_only = np.array([oracles.dp_atom_log_marginal([], base, t) for t in self.FINITE])
        assert np.allclose(got[0, 1:m] - got[0, 0], prior_only[1:] - prior_only[0],
                           rtol=1e-9, atol=1e-10)

    def test_nan_proposal_target_names_the_atom(self):
        state = init_residual_state(4, 1.0, ParametricPrior(), truncation=3,
                                    rng=stream(6, "nan-init"))
        pooled = lag_stats(step_table(tiny_panel(n=4))).pool(np.array([0, 1, 2, 2]), 3)
        terms = pooled.terms.copy()
        terms[2, -1] = np.nan
        with pytest.raises(NumericalError, match="atom 2"):
            _step_atoms(state, LagStats(pooled.sizes, terms, pooled.linear), np.arange(3),
                        stream(6, "nan-step"))


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
        for _ in range(500):
            gibbs_sweep_residual(state, table, rng)
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
        table = step_table(SeriesPanel(tuple(series)))
        with pytest.raises(NumericalError, match="unit 'huge'"):
            gibbs_sweep_residual(state, table, stream(5, "overflow-sweeps"))

    def test_phi_step_holds_its_acceptance_untuned(self):
        """The arcsin-phi step's scale, read off each atom's observation
        count, keeps acceptance near the 1-d random-walk optimum on atoms of
        one unit to about a hundred, near a unit root or not."""
        comps = ((ArParams(0.2, 0.05), 0.5), (ArParams(0.97, 0.5), 0.5))
        panel, truth = generate_mixture_panel(MixtureScenario(comps, n_units=200, length=40),
                                              seed=12)
        labels = np.empty(len(panel), dtype=np.int64)
        for c in (0, 1):
            units = np.flatnonzero(truth.component == c)
            for k, chunk in enumerate(np.split(units, [1, 11])):
                labels[chunk] = 3 * c + k
        state = init_residual_state(len(panel), 1.0, ParametricPrior(), truncation=6,
                                    rng=stream(13, "accept-init"))
        state.assignments = labels
        pooled = lag_stats(step_table(panel)).pool(labels, 6)
        rng = stream(13, "accept-steps")
        for _ in range(200):
            _step_atoms(state, pooled, np.arange(6), rng)
        accepted = np.zeros(6)
        n_steps = 2000
        for _ in range(n_steps):
            accepted += _step_atoms(state, pooled, np.arange(6), rng)
        assert np.all((0.3 < accepted / n_steps) & (accepted / n_steps < 0.6)), accepted / n_steps
