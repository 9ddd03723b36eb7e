"""Tests for the trajectory alternative model and the joint Gibbs sampler."""

import numpy as np
import pytest
from scipy import stats

from arscreen.ar_core import ArParams, ObservedSeries, SeriesPanel, ar1_loglik, lag_stats, step_table
from arscreen.dp_residual import init_residual_state
from arscreen.errors import DomainError, InvalidInputError, NumericalError
from arscreen.mcmc import stream
from arscreen.parametric import ParametricPrior
from arscreen.simulation import simulate_ar1
from arscreen.trajectory import (
    FLAT,
    GP,
    NULL,
    GpKernelParams,
    ModelConfig,
    TrajectoryAtom,
    _assignment_scores,
    _detrended_values,
    _gp_atom_terms,
    _gp_draw,
    _solve_lower,
    _trajectory_matrix,
    _unit_noise,
    _flat_level_posterior,
    component_loglik,
    complete_data_loglik,
    default_hyperparameters,
    gibbs_sweep_joint,
    gp_atom_conditional,
    gp_covariance,
    init_fdp_state,
    merge_inclusion,
    prepare_gp_workspace,
    run_chain,
    sample_trajectory_atom,
)
from oracles import (
    conjugate_level_posterior,
    dense_ar1_cov,
    dense_ar1_loglik,
    dense_gp_conditional,
    dense_gp_precision_terms,
    solve_lower,
    successive_conditional_data,
    whitened_gp_cov,
)


def _panel(n_units, length, seed, shift=None, n_shift=0, params=ArParams(0.4, 0.3)):
    times = np.arange(length, dtype=np.int64)
    series = []
    for i in range(n_units):
        y = simulate_ar1(params, length, stream(seed, "panel-unit", i))
        if shift is not None and i < n_shift:
            y = y + shift
        series.append(ObservedSeries(f"u{i:03d}", times, y))
    return SeriesPanel(tuple(series))


SMALL_CONFIG = ModelConfig(
    kernel=GpKernelParams(1.25, 13.0),
    base=ParametricPrior(),
    resid_concentration=1.0,
    traj_concentration=1.5,
    trunc_resid=10,
    trunc_gp=12,
    trunc_flat=8,
)


class TestKernel:
    def test_lag_thirteen_frozen_value(self):
        cov = gp_covariance(GpKernelParams(1.25, 13.0), np.arange(14))
        assert cov[0, 13] == pytest.approx(1.25 * np.exp(-0.5), rel=1e-12)

    def test_diagonal_equals_variance(self):
        cov = gp_covariance(GpKernelParams(2.5, 4.0), np.arange(9))
        assert np.allclose(np.diag(cov), 2.5)

    @pytest.mark.parametrize("variance,scale", [(0.5, 2.0), (1.25, 13.0), (4.0, 30.0)])
    def test_positive_definite_after_jitter(self, variance, scale):
        ws = prepare_gp_workspace(GpKernelParams(variance, scale), np.arange(40))
        assert np.all(np.diag(ws.chol) > 0)
        assert np.allclose(ws.chol @ ws.chol.T, ws.cov, atol=1e-12 * variance)
        assert np.allclose(np.diag(ws.cov), variance * (1.0 + ws.jitter))

    def test_entry_formula(self):
        k = GpKernelParams(0.7, 5.0)
        t = np.array([0, 3, 11])
        cov = gp_covariance(k, t)
        for i in range(3):
            for j in range(3):
                expect = 0.7 * np.exp(-0.5 * ((t[i] - t[j]) / 5.0) ** 2)
                assert cov[i, j] == pytest.approx(expect, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            GpKernelParams(-1.0, 13.0)
        with pytest.raises(DomainError):
            GpKernelParams(1.25, 0.0)
        with pytest.raises(InvalidInputError):
            gp_covariance(GpKernelParams(), np.array([3, 1, 2]))


class TestGpSampling:
    def test_path_moments(self):
        k = GpKernelParams(1.25, 13.0)
        grid = np.arange(20)
        ws = prepare_gp_workspace(k, grid)
        rng = stream(11, "gp-moments")
        draws = np.array([sample_trajectory_atom(k, grid, rng, ws).path for _ in range(10000)])
        se_mean = np.sqrt(1.25 / 10000)
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se_mean)
        assert np.allclose(draws.var(axis=0), 1.25, rtol=0.05)
        corr = np.corrcoef(draws[:, 0], draws[:, 13])[0, 1]
        assert corr == pytest.approx(np.exp(-0.5), abs=0.02)

    def test_atom_validation(self):
        with pytest.raises(InvalidInputError):
            TrajectoryAtom("flat")
        with pytest.raises(InvalidInputError):
            TrajectoryAtom("gp", path=np.zeros(3), grid=np.arange(4))
        with pytest.raises(InvalidInputError):
            TrajectoryAtom("spline", level=1.0)


class TestComponentLoglik:
    def test_null_matches_ar1(self):
        s = ObservedSeries("a", np.arange(12), simulate_ar1(ArParams(0.6, 0.5), 12, stream(1, "x")))
        th = ArParams(0.6, 0.5)
        assert component_loglik(s, None, th) == ar1_loglik(s, th)

    def test_flat_matches_shift(self):
        s = ObservedSeries("a", np.arange(12), simulate_ar1(ArParams(0.2, 1.0), 12, stream(2, "x")))
        th = ArParams(0.2, 1.0)
        atom = TrajectoryAtom("flat", level=1.7)
        shifted = ObservedSeries("a", s.times, s.values - 1.7)
        assert component_loglik(s, atom, th) == ar1_loglik(shifted, th)

    @pytest.mark.parametrize("case", range(6))
    def test_gp_matches_dense_oracle(self, case):
        rng = stream(40 + case, "gp-ll")
        grid = np.arange(25, dtype=np.int64)
        k = GpKernelParams(1.25, 13.0)
        ws = prepare_gp_workspace(k, grid)
        atom = sample_trajectory_atom(k, grid, rng, ws)
        pos = np.sort(rng.choice(25, size=10, replace=False))
        phi, v = rng.uniform(-0.8, 0.8), rng.uniform(0.2, 2.0)
        y = rng.normal(size=10)
        s = ObservedSeries("a", grid[pos], y)
        got = component_loglik(s, atom, ArParams(phi, v))
        expect = dense_ar1_loglik(y - atom.path[pos], phi, v, grid[pos])
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_times_off_grid_rejected(self):
        atom = TrajectoryAtom("gp", path=np.zeros(5), grid=np.arange(0, 10, 2))
        s = ObservedSeries("a", np.array([1, 3]), np.zeros(2))
        with pytest.raises(InvalidInputError, match="'a'"):
            component_loglik(s, atom, ArParams(0.0, 1.0))


class TestKrigingUpdate:
    @staticmethod
    def _dense_case(case):
        """The workspace of a 16-point grid and the (positions, values, noise
        covariance) triples of a random atom's members, as the oracle takes them."""
        rng = stream(70 + case, "krige")
        grid = np.arange(16, dtype=np.int64)
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), grid)
        oracle_obs = []
        for b in range(case % 3 + 1):
            m = int(rng.integers(1, 4))
            t_len = int(rng.integers(3, 12))
            pos = np.sort(rng.choice(16, size=t_len, replace=False))
            params = ArParams(float(rng.uniform(-0.7, 0.9)), float(rng.uniform(0.1, 1.5)))
            vals = rng.normal(size=(m, t_len))
            noise = dense_ar1_cov(params.phi, params.v, grid[pos])
            for row in vals:
                oracle_obs.append((pos, row, noise))
        return ws, oracle_obs

    @pytest.mark.parametrize("case", range(5))
    def test_matches_dense_conditioning(self, case):
        ws, oracle_obs = self._dense_case(case)
        mean, R = gp_atom_conditional(ws, *dense_gp_precision_terms(16, oracle_obs))
        cov = whitened_gp_cov(ws.chol, R)
        mean_o, cov_o = dense_gp_conditional(ws.cov, oracle_obs)
        assert np.allclose(mean, mean_o, atol=1e-8)
        assert np.allclose(cov, cov_o, atol=1e-8)

    @pytest.mark.parametrize("case", range(3))
    def test_draw_map_covariance_matches_dense(self, case):
        """Stage (d)'s draw map applied to the G unit vectors gives rows A with
        A'A equal to the dense posterior covariance."""
        ws, oracle_obs = self._dense_case(case)
        mean, R = gp_atom_conditional(ws, *dense_gp_precision_terms(16, oracle_obs))
        A = _gp_draw(ws, np.zeros((16, 16)), np.repeat(R[None], 16, axis=0), np.eye(16))
        _, cov_o = dense_gp_conditional(ws.cov, oracle_obs)
        assert np.allclose(A.T @ A, cov_o, atol=1e-8)

    def test_stacked_call_equals_single_calls(self):
        ws = self._dense_case(0)[0]
        terms = [dense_gp_precision_terms(16, self._dense_case(case)[1]) for case in range(5)]
        means, Rs = gp_atom_conditional(ws, np.stack([S for S, _ in terms]),
                                        np.stack([b for _, b in terms]))
        assert means.shape == (5, 16) and Rs.shape == (5, 16, 16)
        for k, (S, b) in enumerate(terms):
            mean, R = gp_atom_conditional(ws, S, b)
            assert np.allclose(means[k], mean, rtol=1e-12, atol=1e-12)
            assert np.allclose(Rs[k], R, rtol=1e-12, atol=1e-12)

    def test_no_observations_recovers_prior(self):
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), np.arange(8))
        mean, R = gp_atom_conditional(ws, np.zeros((8, 8)), np.zeros(8))
        assert np.allclose(mean, 0.0)
        assert np.allclose(whitened_gp_cov(ws.chol, R), ws.cov, atol=1e-10)

    def test_tight_noise_pins_prior_draw(self):
        grid = np.arange(10, dtype=np.int64)
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), grid)
        target = ws.chol @ stream(77, "pin").standard_normal(10)
        noise = dense_ar1_cov(0.0, 1e-4, grid)
        obs = [(np.arange(10), row, noise) for row in np.tile(target, (40, 1))]
        mean, R = gp_atom_conditional(ws, *dense_gp_precision_terms(10, obs))
        assert np.allclose(mean, target, atol=1e-2)
        assert np.all(np.diag(whitened_gp_cov(ws.chol, R)) < 1e-4)

    def test_near_unit_root_gapped_members_pin_target(self):
        """40 members on their own gapped subsets of the grid under AR(1) noise
        at phi = 0.999, v = 1e-8: M = I + L'SL still factorizes, the draws are
        finite and the mean pins the target path."""
        rng = stream(78, "pin-unit-root")
        grid = np.arange(20, dtype=np.int64)
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), grid)
        target = ws.chol @ rng.standard_normal(20)
        obs = []
        for _ in range(40):
            pos = np.sort(rng.choice(20, size=int(rng.integers(4, 16)), replace=False))
            obs.append((pos, target[pos], dense_ar1_cov(0.999, 1e-8, grid[pos])))
        mean, R = gp_atom_conditional(ws, *dense_gp_precision_terms(20, obs))
        assert np.all(np.isfinite(R)) and np.all(np.diag(R) >= 1.0)
        draws = _gp_draw(ws, mean, np.repeat(R[None], 50, axis=0), rng.standard_normal((50, 20)))
        assert np.all(np.isfinite(draws))
        assert np.allclose(mean, target, atol=1e-4)

    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("G", [1, 7, 40, 200])
    def test_triangular_solves_equal_solve_triangular_bytes(self, G, trans):
        rng = stream(79 + G, "trsv")
        a = rng.normal(size=(3, G, G))
        R = np.linalg.cholesky(np.eye(G) + a @ a.transpose(0, 2, 1))
        x = rng.normal(size=(3, G))
        got = _solve_lower(R, x, trans=trans)
        assert got.tobytes() == solve_lower(R, x, trans).tobytes()

    def test_singular_triangular_solve_names_the_atom(self):
        R = np.repeat(np.eye(4)[None], 3, axis=0)
        R[2, 1, 1] = 0.0
        with pytest.raises(NumericalError, match="atom 2"):
            _solve_lower(R, np.ones((3, 4)))


class TestGpAtomTerms:
    def test_pooled_terms_match_dense_oracle(self):
        """Stage (d)'s S = sum P'QP and b = sum P'Qy per gp atom, with members
        on different residual atoms and their own gapped times."""
        panel = _gapped_panel(10, 20, seed=7)
        grid = np.arange(20, dtype=np.int64)
        state = init_fdp_state(10, SMALL_CONFIG, grid, rng=stream(9, "st"))
        state.residual.assignments = np.arange(10) % 3
        state.residual.stick.phi[:3] = (0.9, -0.6, 0.3)
        labels = np.array([0, 0, 1, 1, 1, -1, 2, 0, -1, 2])
        table = step_table(panel, grid=grid)
        noise = _unit_noise(state, table)
        S_all, b_all = _gp_atom_terms(noise, table, labels, np.arange(3))
        for k in range(3):
            S, b = S_all[k], b_all[k]
            obs = []
            for i in np.flatnonzero(labels == k):
                th = state.residual.stick.atom(state.residual.assignments[i])
                s = panel[i]
                obs.append((s.times, s.values, dense_ar1_cov(th.phi, th.v, s.times)))
            S_o, b_o = dense_gp_precision_terms(grid.size, obs)
            assert np.abs(S - S_o).max() <= 1e-10 * np.abs(S_o).max()
            assert np.abs(b - b_o).max() <= 1e-10 * np.abs(b_o).max()

    def test_non_finite_atom_named(self):
        """A stack with one atom whose member has a non-finite term names that
        atom; a non-finite unit on no stacked atom is not summed."""
        panel = _gapped_panel(10, 20, seed=7)
        grid = np.arange(20, dtype=np.int64)
        state = init_fdp_state(10, SMALL_CONFIG, grid, rng=stream(9, "st"))
        table = step_table(panel, grid=grid)
        noise = _unit_noise(state, table)
        labels = np.array([0, 4, 4, 7, 7, -1, 0, 4, -1, 7])
        noise.diag[5, 0] = np.inf
        S, b = _gp_atom_terms(noise, table, labels, np.array([0, 4, 7]))
        assert np.all(np.isfinite(S)) and np.all(np.isfinite(b))
        noise.qy[2, 3] = np.nan
        with pytest.raises(NumericalError, match=r"gp-path stage \(d\), atom 4:"):
            _gp_atom_terms(noise, table, labels, np.array([0, 4, 7]))
        noise.qy[2, 3] = 0.0
        noise.diag[9, 5] = np.inf
        with pytest.raises(NumericalError, match=r"gp-path stage \(d\), atom 7:"):
            _gp_atom_terms(noise, table, labels, np.array([0, 4, 7]))


class TestFlatLevelPosterior:
    @pytest.mark.parametrize("case", range(4))
    def test_matches_oracle(self, case):
        rng = stream(90 + case, "level")
        prior_var = float(rng.uniform(0.3, 3.0))
        s11 = rng.uniform(0.0, 20.0, size=6)
        q_y1 = rng.normal(size=6) * 5.0
        mean, var = _flat_level_posterior(prior_var, s11, q_y1)
        for l in range(6):
            m_o, v_o = conjugate_level_posterior(prior_var, float(q_y1[l]), float(s11[l]))
            assert mean[l] == pytest.approx(m_o, rel=1e-12)
            assert var[l] == pytest.approx(v_o, rel=1e-12)

    def test_empty_atom_is_prior(self):
        mean, var = _flat_level_posterior(1.25, np.zeros(3), np.zeros(3))
        assert np.allclose(mean, 0.0)
        assert np.allclose(var, 1.25)


def _gapped_panel(n_units, grid_size, seed):
    """Units on their own random subsets of the grid, so steps span several gaps."""
    rng = stream(seed, "gapped-panel")
    series = []
    for i in range(n_units):
        times = np.sort(rng.choice(grid_size, size=int(rng.integers(4, grid_size - 4)), replace=False))
        series.append(ObservedSeries(f"g{i}", times, rng.normal(size=times.size) + (i % 3)))
    return SeriesPanel(tuple(series))


class TestAssignmentScores:
    @staticmethod
    def _check_scores_match_scalar_logliks(panel, state, grid):
        table = step_table(panel, grid=grid)
        scores = _assignment_scores(state, table, _unit_noise(state, table))
        log_cp = np.log(state.component_probs)
        for i, s in enumerate(panel):
            th = state.residual.stick.atom(state.residual.assignments[i])
            assert scores[i, 0] == pytest.approx(log_cp[NULL] + component_loglik(s, None, th),
                                                 rel=1e-9, abs=1e-9)
            for l in range(state.flat_set.truncation):
                atom = state.trajectory_atom("flat", l)
                expect = log_cp[FLAT] + np.log(atom.weight) + component_loglik(s, atom, th)
                assert scores[i, 1 + l] == pytest.approx(expect, rel=1e-9, abs=1e-9)
            for l in range(state.gp_set.truncation):
                atom = state.trajectory_atom("gp", l)
                expect = log_cp[GP] + np.log(atom.weight) + component_loglik(s, atom, th)
                col = 1 + state.flat_set.truncation + l
                assert scores[i, col] == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_scores_match_scalar_logliks(self):
        panel = _panel(6, 15, seed=5, shift=2.0, n_shift=2)
        grid = np.arange(15, dtype=np.int64)
        state = init_fdp_state(6, SMALL_CONFIG, grid, rng=stream(8, "st"))
        self._check_scores_match_scalar_logliks(panel, state, grid)

    def test_scores_match_scalar_logliks_gapped_near_unit_root(self):
        panel = _gapped_panel(6, 20, seed=6)
        grid = np.arange(20, dtype=np.int64)
        assert len(step_table(panel).sizes) >= 3
        state = init_fdp_state(6, SMALL_CONFIG, grid, rng=stream(8, "st"))
        state.residual.assignments = np.arange(6) % 2
        state.residual.stick.phi[:2] = (0.999, -0.999)
        self._check_scores_match_scalar_logliks(panel, state, grid)

    def test_zero_series_prefers_null_at_uniform_weights(self):
        times = np.arange(30, dtype=np.int64)
        panel = SeriesPanel((ObservedSeries("z", times, np.zeros(30)),))
        state = init_fdp_state(1, SMALL_CONFIG, times, rng=stream(9, "st"))
        state.component_probs = np.ones(3) / 3.0
        lf, lg = state.flat_set.truncation, state.gp_set.truncation
        state.flat_set.weights = np.ones(lf) / lf
        state.gp_set.weights = np.ones(lg) / lg
        table = step_table(panel, grid=times)
        scores = _assignment_scores(state, table, _unit_noise(state, table))
        flat_best = scores[0, 1:1 + lf] - np.log(1.0 / lf)
        gp_best = scores[0, 1 + lf:] - np.log(1.0 / lg)
        assert scores[0, 0] >= flat_best.max()
        assert scores[0, 0] >= gp_best.max()

    def test_overflowing_unit_is_named(self):
        times = np.arange(8, dtype=np.int64)
        panel = SeriesPanel((
            ObservedSeries("ok", times, np.zeros(8)),
            ObservedSeries("huge", times, np.full(8, 1e300)),
        ))
        state = init_fdp_state(2, SMALL_CONFIG, times, rng=stream(10, "st"))
        with pytest.raises(NumericalError, match="stage \\(a\\).*'huge'"):
            gibbs_sweep_joint(state, panel, stream(10, "sw"))


class TestSuccessiveConditionalData:
    """The data draw the prior-invariance checks rely on, against the dense
    stationary AR(1) covariance."""

    TIMES = np.array([0, 1, 3, 4, 7, 8, 12, 13], dtype=np.int64)
    N_UNITS = 20000

    @pytest.fixture(scope="class")
    def table(self):
        return step_table(SeriesPanel(tuple(
            ObservedSeries(f"u{i}", self.TIMES, np.zeros(self.TIMES.size))
            for i in range(self.N_UNITS))))

    @pytest.mark.parametrize("phi", [-0.99, 0.5, 0.99])
    def test_covariance_matches_dense_oracle(self, table, phi):
        n_units, v = self.N_UNITS, 0.7
        state = init_residual_state(n_units, 1.0, ParametricPrior(), truncation=2,
                                    rng=stream(5, "scd-init"))
        state.assignments[:] = 0
        state.stick.phi[0], state.stick.v[0] = phi, v
        y = successive_conditional_data(state, table, stream(5, "scd", phi))
        y = y.values.reshape(n_units, self.TIMES.size)
        want = dense_ar1_cov(phi, v, self.TIMES)
        # Monte Carlo standard errors of the sample mean and covariance entries
        se_mean = np.sqrt(np.diag(want) / n_units)
        se_cov = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want ** 2) / n_units)
        assert np.all(np.abs(y.mean(axis=0)) < 5.0 * se_mean)
        assert np.all(np.abs(np.cov(y, rowvar=False) - want) < 5.0 * se_cov)

    def test_joint_state_adds_the_trajectory(self):
        panel = _gapped_panel(6, 12, seed=3)
        grid = np.arange(12, dtype=np.int64)
        table = step_table(panel, grid=grid)
        state = init_fdp_state(6, SMALL_CONFIG, grid, rng=stream(4, "st"))
        state.unit_component[:] = (NULL, FLAT, GP, FLAT, GP, GP)
        state.unit_atom[:] = (-1, 0, 1, 2, 1, 0)
        joint = successive_conditional_data(state, table, stream(4, "scd"))
        noise = successive_conditional_data(state.residual, table, stream(4, "scd"))
        trend = _trajectory_matrix(state)[table.unit, table.pos]
        assert np.allclose(joint.values - noise.values, trend, rtol=0.0, atol=1e-12)
        assert joint is not table and joint.stats is not table.stats


# Each coordinate is thinned by twice its integrated autocorrelation time
# (IACT; Sokal's estimate, window 5 IACTs), the larger of the values measured
# on this seeded chain over 4,000 and 40,000 sweeps: component probs 4.2 at
# most, sticks 2.1, level0 2.5/2.6, path00 2.1/2.6, unit 0's residual phi
# 5.3/5.4 and v 6.6/8.6.
PRIOR_INV_THIN = {"cp": 9, "stick": 5, "level0": 6, "path00": 6, "unit0_phi": 11,
                  "unit0_v": 18}


class TestPriorInvariance:
    def test_sweeps_preserve_prior(self):
        """Geweke's successive-conditional simulator: the data are redrawn
        from p(y | theta) before each real sweep, so the chain keeps the
        prior; unit 0's residual phi and v move only through the likelihood."""
        n_units, g_len, n_sweeps = 3, 6, 4000
        grid = np.arange(g_len, dtype=np.int64)
        times = grid
        panel = SeriesPanel(tuple(
            ObservedSeries(f"u{i}", times, np.zeros(g_len)) for i in range(n_units)))
        table = step_table(panel, grid=grid)
        ws = prepare_gp_workspace(SMALL_CONFIG.kernel, grid)
        rng = stream(123, "prior-inv")
        state = init_fdp_state(n_units, SMALL_CONFIG, grid, rng=rng, workspace=ws)
        cps = np.empty((n_sweeps, 3))
        stick_f, stick_g, level0, path00, unit0_phi, unit0_v = np.empty((6, n_sweeps))
        for t in range(n_sweeps):
            table = successive_conditional_data(state, table, rng)
            gibbs_sweep_joint(state, table, rng, workspace=ws)
            assert abs(state.flat_set.weights.sum() - 1.0) < 1e-12
            assert abs(state.gp_set.weights.sum() - 1.0) < 1e-12
            cps[t] = state.component_probs
            stick_f[t], stick_g[t] = state.flat_set.sticks[0], state.gp_set.sticks[0]
            level0[t], path00[t] = state.flat_set.levels[0], state.gp_set.paths[0, 0]
            stick, atom0 = state.residual.stick, state.residual.assignments[0]
            unit0_phi[t], unit0_v[t] = stick.phi[atom0], stick.v[atom0]
        beta12 = stats.beta(1, 2)
        for c in range(3):
            assert stats.kstest(cps[::PRIOR_INV_THIN["cp"], c], beta12.cdf).pvalue > 0.01
        beta_nu = stats.beta(1, SMALL_CONFIG.traj_concentration)
        for sticks in (stick_f, stick_g):
            assert stats.kstest(sticks[::PRIOR_INV_THIN["stick"]], beta_nu.cdf).pvalue > 0.01
        k1 = SMALL_CONFIG.kernel.variance
        assert stats.kstest(level0[::PRIOR_INV_THIN["level0"]],
                            stats.norm(0, np.sqrt(k1)).cdf).pvalue > 0.01
        sd_path = np.sqrt(ws.cov[0, 0])
        assert stats.kstest(path00[::PRIOR_INV_THIN["path00"]],
                            stats.norm(0, sd_path).cdf).pvalue > 0.01
        base = SMALL_CONFIG.base
        sd = np.sqrt(base.phi_var)
        phi_prior = stats.truncnorm((-1 - base.phi_mean) / sd, (1 - base.phi_mean) / sd,
                                    loc=base.phi_mean, scale=sd)
        assert stats.kstest(unit0_phi[::PRIOR_INV_THIN["unit0_phi"]],
                            phi_prior.cdf).pvalue > 0.01
        v_prior = stats.invgamma(base.var_shape, scale=base.var_scale)
        assert stats.kstest(unit0_v[::PRIOR_INV_THIN["unit0_v"]], v_prior.cdf).pvalue > 0.01


class TestSweepMechanics:
    def test_relabeling_gp_atoms_is_invariant(self):
        panel = _panel(8, 12, seed=21, shift=2.0, n_shift=3)
        grid = np.arange(12, dtype=np.int64)
        table = step_table(panel, grid=grid)
        state = init_fdp_state(8, SMALL_CONFIG, grid, rng=stream(22, "st"))
        base = complete_data_loglik(state, table)
        perm = np.roll(np.arange(state.gp_set.truncation), 3)
        lookup = np.argsort(perm)
        state.gp_set.paths = state.gp_set.paths[perm]
        state.gp_set.weights = state.gp_set.weights[perm]
        is_gp = state.unit_component == GP
        state.unit_atom[is_gp] = lookup[state.unit_atom[is_gp]]
        assert complete_data_loglik(state, table) == pytest.approx(base, rel=1e-12)

    def test_loglik_from_the_pool_equals_the_rebuilt_one(self):
        panel = _panel(10, 12, seed=23, shift=2.0, n_shift=4)
        series = list(panel)
        series[1] = ObservedSeries("u001", series[1].times[[0, 2, 3, 7, 11]],
                                   series[1].values[[0, 2, 3, 7, 11]])
        grid = np.arange(12, dtype=np.int64)
        table = step_table(SeriesPanel(tuple(series)), grid=grid)
        state = init_fdp_state(10, SMALL_CONFIG, grid, rng=stream(24, "st"))
        rng = stream(25, "sweeps")
        for _ in range(6):
            gibbs_sweep_joint(state, table, rng)
            assert state.residual.pooled is not None
            stick = state.residual.stick
            rebuilt = lag_stats(table, _detrended_values(state, table)).pool(
                state.residual.assignments, stick.truncation)
            want = float(np.trace(rebuilt.loglik(stick.phi, stick.v)))
            assert complete_data_loglik(state, table) == want

    def test_frozen_atoms_do_not_move(self):
        panel = _panel(10, 12, seed=31, shift=2.5, n_shift=4)
        grid = np.arange(12, dtype=np.int64)
        table = step_table(panel, grid=grid)
        state = init_fdp_state(10, SMALL_CONFIG, grid, rng=stream(32, "st"))
        state.flat_set.n_frozen = 1
        state.gp_set.n_frozen = 2
        level0 = float(state.flat_set.levels[0])
        w_f0 = float(state.flat_set.weights[0])
        paths_head = state.gp_set.paths[:2].copy()
        w_g = state.gp_set.weights[:2].copy()
        rng = stream(33, "sw")
        for _ in range(40):
            gibbs_sweep_joint(state, table, rng)
            assert state.flat_set.levels[0] == level0
            assert state.flat_set.weights[0] == w_f0
            assert np.array_equal(state.gp_set.paths[:2], paths_head)
            assert np.array_equal(state.gp_set.weights[:2], w_g)
            assert state.flat_set.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert state.gp_set.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sweep_determinism(self):
        panel = _panel(6, 10, seed=41)
        grid = np.arange(10, dtype=np.int64)
        states = []
        for _ in range(2):
            state = init_fdp_state(6, SMALL_CONFIG, grid, rng=stream(42, "st"))
            rng = stream(43, "sw")
            for _ in range(15):
                gibbs_sweep_joint(state, panel, rng)
            states.append(state)
        assert np.array_equal(states[0].unit_component, states[1].unit_component)
        assert np.array_equal(states[0].gp_set.paths, states[1].gp_set.paths)
        assert np.array_equal(states[0].residual.stick.phi, states[1].residual.stick.phi)


class TestRunChain:
    def test_deterministic_and_shapes(self):
        panel = _panel(10, 15, seed=51, shift=3.0, n_shift=3)
        out1 = run_chain(panel, SMALL_CONFIG, n_burn=20, n_keep=30, seed=5)
        out2 = run_chain(panel, SMALL_CONFIG, n_burn=20, n_keep=30, seed=5)
        assert np.array_equal(out1.inclusion, out2.inclusion)
        assert np.array_equal(out1.logliks, out2.logliks)
        assert out1.best_sweep == out2.best_sweep
        assert out1.unit_ids == panel.unit_ids
        assert out1.band_samples.dtype == np.float32
        assert out1.band_samples.shape == (3, 10, 15)
        assert out1.logliks.size == 30

    def test_best_sweep_is_argmax_regardless_of_stride(self):
        panel = _panel(8, 12, seed=61, shift=2.0, n_shift=2)
        out_a = run_chain(panel, SMALL_CONFIG, n_burn=15, n_keep=40, seed=6,
                          checkpoint_stride=1)
        out_b = run_chain(panel, SMALL_CONFIG, n_burn=15, n_keep=40, seed=6,
                          checkpoint_stride=13)
        assert out_a.best_sweep == int(np.argmax(out_a.logliks))
        assert out_b.best_sweep == out_a.best_sweep
        assert np.array_equal(out_a.logliks, out_b.logliks)
        assert np.array_equal(out_a.inclusion, out_b.inclusion)

    def test_single_kept_sweep_gives_binary_inclusion(self):
        panel = _panel(6, 10, seed=71)
        out = run_chain(panel, SMALL_CONFIG, n_burn=5, n_keep=1, seed=7)
        assert set(np.unique(out.inclusion)).issubset({0.0, 1.0})

    def test_signal_separation_and_restart_agreement(self):
        panel = _panel(40, 30, seed=81, shift=3.0, n_shift=8)
        cfg = default_hyperparameters(40)
        cfg = ModelConfig(kernel=cfg.kernel, base=cfg.base,
                          resid_concentration=cfg.resid_concentration,
                          traj_concentration=cfg.traj_concentration,
                          trunc_resid=20, trunc_gp=25, trunc_flat=15)
        out1 = run_chain(panel, cfg, n_burn=400, n_keep=2000, seed=1)
        out2 = run_chain(panel, cfg, n_burn=400, n_keep=2000, seed=2)
        assert np.all(out1.inclusion[:8] > 0.8)
        assert np.median(out1.inclusion[8:]) < 0.5
        agree = np.abs(out1.inclusion - out2.inclusion) < 0.1
        assert agree.mean() >= 0.95
        pooled = merge_inclusion([out1, out2])
        assert np.allclose(pooled, (out1.inclusion + out2.inclusion) / 2.0)

    def test_flagging_threshold(self):
        panel = _panel(5, 10, seed=91)
        out = run_chain(panel, SMALL_CONFIG, n_burn=5, n_keep=10, seed=9)
        flags = out.flagged(0.5)
        assert all(f in panel.unit_ids for f in flags)
        with pytest.raises(DomainError):
            out.flagged(0.0)

    def test_empty_panel_rejected(self):
        with pytest.raises(InvalidInputError):
            run_chain(SeriesPanel(()), SMALL_CONFIG, n_burn=1, n_keep=1, seed=0)

    def test_merge_requires_matching_panels(self):
        p1 = _panel(4, 8, seed=101)
        p2 = _panel(5, 8, seed=102)
        o1 = run_chain(p1, SMALL_CONFIG, n_burn=2, n_keep=3, seed=1)
        o2 = run_chain(p2, SMALL_CONFIG, n_burn=2, n_keep=3, seed=1)
        with pytest.raises(InvalidInputError):
            merge_inclusion([o1, o2])


class TestDefaults:
    def test_elicited_concentrations(self):
        cfg = default_hyperparameters(5498)
        assert cfg.resid_concentration == pytest.approx(10.0 / np.log(5498), rel=1e-12)
        assert cfg.resid_concentration == pytest.approx(1.1611516283595347, rel=1e-10)
        assert cfg.traj_concentration == pytest.approx(15.0 / np.log(5498), rel=1e-12)
        n_e10 = int(round(np.exp(10)))
        assert default_hyperparameters(n_e10).resid_concentration == pytest.approx(1.0, abs=1e-4)

    def test_kernel_defaults(self):
        cfg = default_hyperparameters(100)
        assert cfg.kernel.variance == 1.25
        assert cfg.kernel.length_scale == 13.0
        assert cfg.trunc_resid == 60 and cfg.trunc_gp == 60 and cfg.trunc_flat == 30

    def test_tiny_panel_rejected(self):
        with pytest.raises(DomainError):
            default_hyperparameters(1)
