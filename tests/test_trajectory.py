"""Tests for the trajectory alternative model and the joint Gibbs sampler."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import arscreen.trajectory
from arscreen.ar_core import (ArParams, ObservedSeries, SeriesPanel, ar1_loglik, lag_stats,
                              step_precision, step_table)
from arscreen.dp_residual import _assign_residual, init_residual_state
from arscreen.errors import DomainError, InvalidInputError, NumericalError
from arscreen.mcmc import stream
from arscreen.parametric import ParametricPrior
from arscreen.simulation import MixtureScenario, generate_mixture_panel, simulate_ar1
from arscreen.trajectory import (
    FLAT,
    GP,
    NULL,
    GpKernelParams,
    GpWorkspace,
    RunConfig,
    TrajectoryAtom,
    _assignment_scores,
    _chain_index,
    _detrended_values,
    _gp_atom_terms,
    _gp_draw,
    _pair_stacks,
    _trajectory_matrix,
    _unit_noise,
    _flat_level_posterior,
    complete_data_loglik,
    frozen_cluster_rerun,
    gibbs_sweep_joint,
    gp_atom_conditional,
    gp_covariance,
    init_fdp_state,
    merge_inclusion,
    mle_trajectory_set,
    prepare_gp_workspace,
    run_chain,
)
from oracles import (
    assignment_scores_fresh,
    conjugate_level_posterior,
    dense_ar1_cov,
    dense_ar1_loglik,
    dense_gp_conditional,
    dense_gp_precision_terms,
    jittered_gp_chol,
    qy_by_steps,
    residual_scores_fresh,
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


SMALL_CONFIG = RunConfig(resid_concentration=1.0, traj_concentration=1.5,
                         trunc_resid=10, trunc_gp=12, trunc_flat=8)


class TestKernel:
    def test_lag_thirteen_frozen_value(self):
        cov = gp_covariance(GpKernelParams(1.25, 13.0), np.arange(14))
        assert cov[0, 13] == pytest.approx(1.25 * np.exp(-0.5), rel=1e-12)

    def test_diagonal_equals_variance(self):
        cov = gp_covariance(GpKernelParams(2.5, 4.0), np.arange(9))
        assert np.allclose(np.diag(cov), 2.5)

    @pytest.mark.parametrize("variance,scale", [(0.5, 2.0), (1.25, 13.0), (4.0, 30.0)])
    def test_factor_matches_the_kept_eigenpairs(self, variance, scale):
        """L L' is the kernel's spectral sum over the eigenpairs above 1e-8
        times the variance, and the kernel less L L' holds only the dropped
        variance."""
        kernel = gp_covariance(GpKernelParams(variance, scale), np.arange(40))
        ws = prepare_gp_workspace(GpKernelParams(variance, scale), np.arange(40))
        w, U = np.linalg.eigh(kernel)
        keep = w > 1e-8 * variance
        assert ws.rank == keep.sum() == ws.factor.shape[1]
        assert np.allclose(ws.factor @ ws.factor.T, (U[:, keep] * w[keep]) @ U[:, keep].T,
                           rtol=0.0, atol=1e-12 * variance)
        assert 0.0 <= ws.dropped_variance <= 40 * 1e-8 * variance
        assert abs(np.trace(kernel - ws.factor @ ws.factor.T) - ws.dropped_variance) < 1e-12 * variance

    def test_default_kernel_ranks(self):
        for G, r in ((40, 11), (50, 12), (200, 37)):
            assert prepare_gp_workspace(GpKernelParams(), np.arange(G)).rank == r

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
        """The prior's gp paths, 10000 atoms of one ``init_fdp_state`` draw."""
        config = RunConfig(resid_concentration=1.0, traj_concentration=1.0, trunc_gp=10000)
        state = init_fdp_state(2, config, np.arange(20), rng=stream(11, "gp-moments"))
        draws = state.gp_set.paths
        assert draws.shape == (10000, 20)
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
    @pytest.mark.parametrize("case", range(6))
    def test_gp_matches_dense_oracle(self, case):
        """A unit's gp column of stage (a)'s scores, on gapped times, against
        the dense AR(1) likelihood of its values less the path."""
        rng = stream(40 + case, "gp-ll")
        grid = np.arange(25, dtype=np.int64)
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), grid)
        path = ws.factor @ rng.standard_normal(ws.rank)
        pos = np.sort(rng.choice(25, size=10, replace=False))
        phi, v = rng.uniform(-0.8, 0.8), rng.uniform(0.2, 2.0)
        y = rng.normal(size=10)
        panel = SeriesPanel((ObservedSeries("a", grid[pos], y),))
        state = init_fdp_state(1, SMALL_CONFIG, grid, rng=stream(case, "gp-ll-state"))
        stick, atom = state.residual.stick, state.residual.assignments[0]
        stick.phi[atom], stick.v[atom] = phi, v
        state.gp_set.paths[0] = path
        table = step_table(panel, grid=grid)
        scores = _assignment_scores(state, table, _unit_noise(state, table))
        got = scores[0, 1 + SMALL_CONFIG.trunc_flat]
        got -= np.log(state.component_probs[GP] * state.gp_set.weights[0])
        expect = dense_ar1_loglik(y - path[pos], phi, v, grid[pos])
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)


def _whitened_terms(ws, S, b):
    """L'SL and L'b of a dense S and b, as ``gp_atom_conditional`` takes them."""
    return ws.factor.T @ S @ ws.factor, b @ ws.factor


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
        mean, R = gp_atom_conditional(
            ws, *_whitened_terms(ws, *dense_gp_precision_terms(16, oracle_obs)))
        cov = whitened_gp_cov(ws.factor, R)
        mean_o, cov_o = dense_gp_conditional(ws.factor @ ws.factor.T, oracle_obs)
        assert np.allclose(mean, mean_o, atol=1e-8)
        assert np.allclose(cov, cov_o, atol=1e-8)

    @pytest.mark.parametrize("case", range(3))
    def test_draw_map_covariance_matches_dense(self, case):
        """Stage (d)'s draw map applied to the r unit vectors gives rows A with
        A'A equal to the dense posterior covariance."""
        ws, oracle_obs = self._dense_case(case)
        mean, R = gp_atom_conditional(
            ws, *_whitened_terms(ws, *dense_gp_precision_terms(16, oracle_obs)))
        r = ws.rank
        A = _gp_draw(ws, np.zeros((r, 16)), np.repeat(R[None], r, axis=0), np.eye(r))
        _, cov_o = dense_gp_conditional(ws.factor @ ws.factor.T, oracle_obs)
        assert np.allclose(A.T @ A, cov_o, atol=1e-8)

    def test_stacked_call_equals_single_calls(self):
        ws = self._dense_case(0)[0]
        terms = [_whitened_terms(ws, *dense_gp_precision_terms(16, self._dense_case(case)[1]))
                 for case in range(5)]
        means, Rs = gp_atom_conditional(ws, np.stack([LSL for LSL, _ in terms]),
                                        np.stack([Lb for _, Lb in terms]))
        assert means.shape == (5, 16) and Rs.shape == (5, ws.rank, ws.rank)
        for k, (LSL, Lb) in enumerate(terms):
            mean, R = gp_atom_conditional(ws, LSL, Lb)
            assert np.allclose(means[k], mean, rtol=1e-12, atol=1e-12)
            assert np.allclose(Rs[k], R, rtol=1e-12, atol=1e-12)

    def test_no_observations_recovers_prior(self):
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), np.arange(8))
        mean, R = gp_atom_conditional(ws, *_whitened_terms(ws, np.zeros((8, 8)), np.zeros(8)))
        assert np.allclose(mean, 0.0)
        assert np.allclose(whitened_gp_cov(ws.factor, R), ws.factor @ ws.factor.T, atol=1e-10)

    def test_tight_noise_pins_prior_draw(self):
        grid = np.arange(10, dtype=np.int64)
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), grid)
        target = jittered_gp_chol(1.25, 13.0, grid) @ stream(77, "pin").standard_normal(10)
        noise = dense_ar1_cov(0.0, 1e-4, grid)
        obs = [(np.arange(10), row, noise) for row in np.tile(target, (40, 1))]
        mean, R = gp_atom_conditional(ws, *_whitened_terms(ws, *dense_gp_precision_terms(10, obs)))
        assert np.allclose(mean, target, atol=1e-2)
        assert np.all(np.diag(whitened_gp_cov(ws.factor, R)) < 1e-4)

    def test_near_unit_root_gapped_members_pin_target(self):
        """40 members on their own gapped subsets of the grid under AR(1) noise
        at phi = 0.999, v = 1e-8: M = I + L'SL still factorizes, the draws are
        finite and the mean pins the target path where the prior can carry
        it. The target is drawn through the full-rank jittered factor, so it
        has a part off the range of the rank-r factor L (1.9e-4 at most at
        this seed) that no path of the prior has; the mean pins the target's
        best fit L u on that range, in the S-weighted norm."""
        rng = stream(78, "pin-unit-root")
        grid = np.arange(20, dtype=np.int64)
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), grid)
        target = jittered_gp_chol(1.25, 13.0, grid) @ rng.standard_normal(20)
        obs = []
        for _ in range(40):
            pos = np.sort(rng.choice(20, size=int(rng.integers(4, 16)), replace=False))
            obs.append((pos, target[pos], dense_ar1_cov(0.999, 1e-8, grid[pos])))
        S, b = dense_gp_precision_terms(20, obs)
        mean, R = gp_atom_conditional(ws, *_whitened_terms(ws, S, b))
        assert np.all(np.isfinite(R)) and np.all(np.diag(R) >= 1.0)
        draws = _gp_draw(ws, mean, np.repeat(R[None], 50, axis=0),
                         rng.standard_normal((50, ws.rank)))
        assert np.all(np.isfinite(draws))
        W = np.linalg.cholesky(S).T
        fit = ws.factor @ np.linalg.lstsq(W @ ws.factor, W @ target, rcond=None)[0]
        assert np.abs(fit - target).max() < 1e-3
        assert np.allclose(mean, fit, atol=1e-4)


class TestGpAtomTerms:
    def test_pooled_terms_match_dense_oracle(self):
        """Stage (d)'s L'SL and L'b of S = sum P'QP and b = sum P'Qy per gp
        atom, with members on different residual atoms and their own gapped
        times."""
        panel = _gapped_panel(10, 20, seed=7)
        grid = np.arange(20, dtype=np.int64)
        state = init_fdp_state(10, SMALL_CONFIG, grid, rng=stream(9, "st"))
        state.residual.assignments = np.arange(10) % 3
        stick = state.residual.stick
        stick.phi[:3] = (0.9, -0.6, 0.3)
        labels = np.array([0, 0, 1, 1, 1, -1, 2, 0, -1, 2])
        table = step_table(panel, grid=grid)
        noise = _unit_noise(state, table)
        ws = state.workspace
        # With the identity as the factor the whitened terms are S and b.
        identity = GpWorkspace(grid, ws.kernel, np.eye(20), 0.0)
        for L, w in ((np.eye(20), identity), (ws.factor, ws)):
            S_all, b_all = _gp_atom_terms(noise, labels, np.arange(3), w, _pair_stacks(table, w))
            for k in range(3):
                S, b = S_all[k], b_all[k]
                obs = []
                for i in np.flatnonzero(labels == k):
                    a, s = state.residual.assignments[i], panel[i]
                    noise_cov = dense_ar1_cov(stick.phi[a], stick.v[a], s.times)
                    obs.append((s.times, s.values, noise_cov))
                S_o, b_o = dense_gp_precision_terms(grid.size, obs)
                S_o, b_o = L.T @ S_o @ L, b_o @ L
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
        G = grid.size       # a noise row is diag (G) | pair | qy (G)
        noise.grid[5, 0] = np.inf
        ws = state.workspace
        stacks = _pair_stacks(table, ws)
        S, b = _gp_atom_terms(noise, labels, np.array([0, 4, 7]), ws, stacks)
        assert np.all(np.isfinite(S)) and np.all(np.isfinite(b))
        noise.grid[2, -G + 3] = np.nan
        with pytest.raises(NumericalError, match=r"gp-path stage \(d\), atom 4:"):
            _gp_atom_terms(noise, labels, np.array([0, 4, 7]), ws, stacks)
        noise.grid[2, -G + 3] = 0.0
        noise.grid[9, 5] = np.inf
        with pytest.raises(NumericalError, match=r"gp-path stage \(d\), atom 7:"):
            _gp_atom_terms(noise, labels, np.array([0, 4, 7]), ws, stacks)


def _state_bits(state) -> list[bytes]:
    """The raw bytes of every array a sweep moves."""
    r = state.residual
    return [np.ascontiguousarray(a).tobytes() for a in (
        state.component_probs, state.unit_component, state.unit_atom, state.flat_set.levels,
        state.flat_set.weights, state.gp_set.paths, state.gp_set.weights, r.stick.phi, r.stick.v,
        r.stick.weights, r.assignments, r.pooled.terms, r.pooled.linear)]


class TestUnitNoise:
    @staticmethod
    def _edge_panel():
        """Ragged units over several gaps, one-observation units, and -0.0
        observations: one alone in its unit between units ending and
        starting on positive values, one starting a unit, one inside one."""
        rng = np.random.default_rng(17)
        series = []
        for i in range(24):
            n = 1 if i % 5 == 0 else int(rng.integers(2, 9))
            times = np.cumsum(rng.choice([1, 2, 3, 5], size=n)) - 1
            series.append(ObservedSeries(f"e{i}", times, np.abs(rng.normal(size=n)) + 0.5))
        for i, k in ((10, 0), (11, 0), (12, 1)):
            values = series[i].values.copy()
            values[k] = -0.0
            series[i] = ObservedSeries(series[i].unit_id, series[i].times, values)
        return SeriesPanel(tuple(series))

    def test_qy_equals_step_form_bit_for_bit(self):
        """The Q y columns of the noise rows, formed from shifted slices, hold
        the fancy-index form's values to the bit, -0.0 included, with
        residual atoms at |phi| = 0.999; and the rows, rewritten in the
        chain's buffer, are those scattered into fresh zeros."""
        panel = self._edge_panel()
        grid = np.arange(int(panel.grid[-1]) + 1, dtype=np.int64)
        table = step_table(panel, grid=grid)
        assert len(table.sizes) >= 3 and np.signbit(table.values).sum() == 3
        state = init_fdp_state(len(panel), SMALL_CONFIG, grid, rng=stream(5, "edge"))
        stick = state.residual.stick
        stick.phi[:3] = (0.999, -0.999, 0.4)
        state.residual.assignments = np.arange(len(panel)) % 3
        for _ in range(2):      # the second call rewrites the chain's buffers
            noise = _unit_noise(state, table)
            diag, off = step_precision(table, stick.phi, stick.v, state.residual.assignments)
            want = qy_by_steps(table, diag, off)
            G, P = grid.size, len(table.pairs)
            diag_cells, pair_cells = _chain_index(state, table).noise_cells
            got = noise.grid.ravel()[G + P:][diag_cells]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.signbit(got[table.first[10]])     # the lone -0.0 keeps its sign
            fresh = np.zeros_like(noise.grid)
            fresh.ravel()[diag_cells], fresh.ravel()[pair_cells] = diag, off
            fresh.ravel()[G + P:][diag_cells] = want
            assert np.array_equal(noise.grid.view(np.int64), fresh.view(np.int64))
            state.residual.assignments = (state.residual.assignments + 1) % 3


    def test_score_buffers_equal_fresh_matrices_bit_for_bit(self, monkeypatch):
        """Stage (a)'s scores, filled in the chain's buffer block by block,
        and stage (f)'s residual scores, multiplied into that same buffer,
        are the fresh matrices' to the bit, over sweeps that start with
        residual atoms at |phi| = 0.999."""
        panel = self._edge_panel()
        grid = np.arange(int(panel.grid[-1]) + 1, dtype=np.int64)
        table = step_table(panel, grid=grid)
        state = init_fdp_state(len(panel), SMALL_CONFIG, grid, rng=stream(6, "edge"))
        state.residual.stick.phi[:3] = (0.999, -0.999, 0.4)
        state.residual.assignments = np.arange(len(panel)) % 3
        seen = {"a": [], "f": []}
        unit_noise, lag, assign = (arscreen.trajectory._unit_noise, arscreen.trajectory.lag_stats,
                                   arscreen.trajectory._assign_residual)

        def scored_noise(state, table):
            seen["noise"] = noise = unit_noise(state, table)
            scores = _assignment_scores(state, table, noise)
            seen["a"].append((scores.copy(), assignment_scores_fresh(state, table, noise)))
            return noise

        def kept_stats(table, values=None):
            seen["stats"] = lag(table, values)
            return seen["stats"]

        def checked_assign(residual, table, ll, rng):
            seen["f"].append((ll.copy(), residual_scores_fresh(seen["stats"], seen["noise"])))
            return assign(residual, table, ll, rng)

        monkeypatch.setattr(arscreen.trajectory, "_unit_noise", scored_noise)
        monkeypatch.setattr(arscreen.trajectory, "lag_stats", kept_stats)
        monkeypatch.setattr(arscreen.trajectory, "_assign_residual", checked_assign)
        rng = stream(7, "edge")
        for _ in range(3):
            gibbs_sweep_joint(state, table, rng)
        assert len(seen["a"]) == len(seen["f"]) == 3
        for got, want in seen["a"] + seen["f"]:
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestWorkBuffers:
    """A chain's sweeps reuse the buffers its first sweep over a table built."""

    def test_reused_buffers_match_fresh_ones_across_layouts(self):
        """A state swept over one table, then over another layout of the
        same units, then the first again, moves bit for bit as a state whose
        index is rebuilt before every sweep."""
        panel = _panel(12, 15, seed=23, shift=2.0, n_shift=4)
        gapped = SeriesPanel(tuple(ObservedSeries(s.unit_id, s.times[::1 + i % 2],
                                                  s.values[::1 + i % 2])
                                   for i, s in enumerate(panel)))
        grid = panel.grid
        tables = [step_table(p, grid=grid) for p in (panel, gapped, panel)]
        kept, fresh = (init_fdp_state(12, SMALL_CONFIG, grid, rng=stream(24, "st")) for _ in range(2))
        rngs = [stream(25, "sw"), stream(25, "sw")]
        for table in tables:
            for _ in range(3):
                gibbs_sweep_joint(kept, table, rngs[0])
                fresh.workspace.chain_index = None
                gibbs_sweep_joint(fresh, table, rngs[1])
                assert _state_bits(kept) == _state_bits(fresh)

    def test_rerun_then_chains_equal_separate_runs(self):
        """A frozen rerun on one panel, then two chains on a panel of another
        size, in one process, give what each gives run on its own."""
        small, large = _panel(8, 12, seed=31, shift=2.5, n_shift=3), _panel(11, 12, seed=32)
        frozen = mle_trajectory_set(run_chain(small, SMALL_CONFIG, 4, 6, seed=1), 2)

        rerun = frozen_cluster_rerun(small, frozen, SMALL_CONFIG, 3, 4, 5)
        first, second = (run_chain(large, SMALL_CONFIG, 4, 6, seed=2) for _ in range(2))
        alone = run_chain(large, SMALL_CONFIG, 4, 6, seed=2)
        rerun_alone = frozen_cluster_rerun(small, frozen, SMALL_CONFIG, 3, 4, 5)
        assert rerun[0] == rerun_alone[0] and rerun[2] == rerun_alone[2]
        assert rerun[1].tobytes() == rerun_alone[1].tobytes()
        for chain in (first, second):
            for name in ("inclusion", "logliks", "comp_probs", "gamma", "band_samples",
                         "best_gp_paths", "best_flat_levels", "best_unit_atom"):
                assert getattr(chain, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_steady_state_sweep_allocates_no_score_matrix(self):
        """After three warm-up sweeps of a 1,000-unit panel, a sweep's traced
        peak above its start stays below one N x (1 + Lf + Lg) score matrix:
        the noise grid, the score matrices and stage (a)'s column blocks are
        the chain's buffers. The panel has 10 times so that the sweep's
        per-observation temporaries stay below that size too. The peak reads
        0.92 of it; 1.47 with stage (a)'s blocks formed as fresh temporaries,
        and 2.79 when each sweep also allocated its own grid and scores."""
        scenario = MixtureScenario(((ArParams(0.2, 0.5), 0.5), (ArParams(0.95, 0.05), 0.5)),
                                   n_units=1000, length=10, shift_prob=0.2)
        panel, _ = generate_mixture_panel(scenario, seed=3)
        config = RunConfig()
        state = init_fdp_state(len(panel), config, panel.grid, rng=stream(1, "init"))
        table = step_table(panel, grid=panel.grid)
        rng = stream(1, "sweeps")
        for _ in range(3):
            gibbs_sweep_joint(state, table, rng)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gibbs_sweep_joint(state, table, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        score_bytes = 8 * len(panel) * (1 + config.trunc_flat + config.trunc_gp)
        assert peak - start < score_bytes, (peak - start, score_bytes)


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
        stick, flat_set, gp_set = state.residual.stick, state.flat_set, state.gp_set
        for i, s in enumerate(panel):
            a = state.residual.assignments[i]
            th = ArParams(float(stick.phi[a]), float(stick.v[a]))
            pos = np.searchsorted(grid, s.times)

            def loglik(trend):
                return ar1_loglik(ObservedSeries(s.unit_id, s.times, s.values - trend), th)

            assert scores[i, 0] == pytest.approx(log_cp[NULL] + loglik(0.0), rel=1e-9, abs=1e-9)
            for l in range(flat_set.truncation):
                expect = log_cp[FLAT] + np.log(flat_set.weights[l]) + loglik(flat_set.levels[l])
                assert scores[i, 1 + l] == pytest.approx(expect, rel=1e-9, abs=1e-9)
            for l in range(gp_set.truncation):
                expect = log_cp[GP] + np.log(gp_set.weights[l]) + loglik(gp_set.paths[l][pos])
                col = 1 + flat_set.truncation + l
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
        table = step_table(panel, grid=times)
        with pytest.raises(NumericalError, match="stage \\(a\\).*'huge'"):
            gibbs_sweep_joint(state, table, stream(10, "sw"))


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


class TestNonFiniteRowsNamed:
    """A unit whose scores hold a NaN or +inf, or only -inf, stops the sweep
    with its name (and, in stage (f), the atom), whatever the draw makes of
    the row."""

    BAD = [np.nan, np.inf, -np.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_stage_a_names_the_unit(self, monkeypatch, bad):
        panel = _panel(4, 8, seed=3)
        state = init_fdp_state(4, SMALL_CONFIG, np.arange(8, dtype=np.int64), rng=stream(4, "st"))
        real = arscreen.trajectory._assignment_scores

        def scores(*args):
            out = real(*args)
            out[2, 1:] = -np.inf
            out[2, 0] = bad
            return out

        table = step_table(panel, grid=state.grid)
        monkeypatch.setattr(arscreen.trajectory, "_assignment_scores", scores)
        with pytest.raises(NumericalError, match=r"stage \(a\): .* unit 'u002'"):
            gibbs_sweep_joint(state, table, stream(4, "sw"))

    @pytest.mark.parametrize("bad", BAD)
    def test_stage_f_names_the_unit_and_atom(self, bad):
        panel = _panel(4, 8, seed=3)
        state = init_residual_state(4, 1.0, ParametricPrior(), truncation=5, rng=stream(5, "st"))
        ll = np.zeros((4, 5))
        ll[2, 3] = bad
        if bad == -np.inf:
            ll[2] = bad
        atom = 0 if bad == -np.inf else 3
        with pytest.raises(NumericalError, match=f"unit 'u002' under atom {atom}"):
            _assign_residual(state, step_table(panel), ll, stream(5, "sw"))

    def test_joint_sweep_prefixes_stage_f(self, monkeypatch):
        panel = _panel(4, 8, seed=3)
        state = init_fdp_state(4, SMALL_CONFIG, np.arange(8, dtype=np.int64), rng=stream(4, "st"))
        real = arscreen.trajectory.lag_stats

        def nan_stats(table, values):
            values = values.copy()
            values[table.first[1]] = np.nan
            return real(table, values)

        table = step_table(panel, grid=state.grid)
        monkeypatch.setattr(arscreen.trajectory, "lag_stats", nan_stats)
        with pytest.raises(NumericalError, match=r"residual stage \(f\): .* unit 'u001' under atom 0"):
            gibbs_sweep_joint(state, table, stream(4, "sw"))


# Each coordinate is thinned by at least twice its integrated autocorrelation
# time (IACT; Sokal's estimate, window 5 IACTs), the larger of the values
# measured on this seeded chain over 4,000 and 40,000 sweeps: component probs
# 4.1 at most, sticks 2.1, level0 2.1/2.6, path00 2.5/2.6, unit 0's residual
# phi 5.3/5.2 and v 6.2/12.3.
PRIOR_INV_THIN = {"cp": 9, "stick": 5, "level0": 6, "path00": 6, "unit0_phi": 11,
                  "unit0_v": 25}


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
        rng = stream(123, "prior-inv")
        state = init_fdp_state(n_units, SMALL_CONFIG, grid, rng=rng)
        ws = state.workspace
        cps = np.empty((n_sweeps, 3))
        stick_f, stick_g, level0, path00, unit0_phi, unit0_v = np.empty((6, n_sweeps))
        for t in range(n_sweeps):
            table = successive_conditional_data(state, table, rng)
            gibbs_sweep_joint(state, table, rng)
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
        sd_path = np.sqrt((ws.factor @ ws.factor.T)[0, 0])
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
        table = step_table(panel, grid=grid)
        states = []
        for _ in range(2):
            state = init_fdp_state(6, SMALL_CONFIG, grid, rng=stream(42, "st"))
            rng = stream(43, "sw")
            for _ in range(15):
                gibbs_sweep_joint(state, table, rng)
            states.append(state)
        assert np.array_equal(states[0].unit_component, states[1].unit_component)
        assert np.array_equal(states[0].gp_set.paths, states[1].gp_set.paths)
        assert np.array_equal(states[0].residual.stick.phi, states[1].residual.stick.phi)

    def test_sweeps_build_the_workspace_and_index_once(self, monkeypatch):
        """The state owns its workspace: a prior draw, five sweeps over one
        prebuilt table and five over copies of it with other values (as the
        successive-conditional simulator makes) build the GP workspace, the
        noise cells and the pair stacks once each."""
        calls = {"prepare_gp_workspace": 0, "_noise_cells": 0, "_pair_stacks": 0}
        for name in calls:
            real = getattr(arscreen.trajectory, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(arscreen.trajectory, name, counted)
        panel = _gapped_panel(6, 10, seed=41)
        grid = np.arange(10, dtype=np.int64)
        state = init_fdp_state(6, SMALL_CONFIG, grid, rng=stream(42, "st"))
        table = step_table(panel, grid=grid)
        rng = stream(43, "sw")
        for _ in range(5):
            gibbs_sweep_joint(state, table, rng)
        for k in range(5):
            gibbs_sweep_joint(state, replace(table, values=table.values + 0.1 * k), rng)
        assert calls == dict.fromkeys(calls, 1)


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

    def test_best_sweep_is_argmax_regardless_of_stride(self, monkeypatch):
        panel = _panel(8, 12, seed=61, shift=2.0, n_shift=2)
        monkeypatch.setattr(arscreen.trajectory, "CHECKPOINT_STRIDE", 1)
        out_a = run_chain(panel, SMALL_CONFIG, n_burn=15, n_keep=40, seed=6)
        monkeypatch.setattr(arscreen.trajectory, "CHECKPOINT_STRIDE", 13)
        out_b = run_chain(panel, SMALL_CONFIG, n_burn=15, n_keep=40, seed=6)
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
        cfg = RunConfig(trunc_resid=20, trunc_gp=25, trunc_flat=15)
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
        resid, traj = RunConfig().concentrations(5498)
        assert resid == pytest.approx(10.0 / np.log(5498), rel=1e-12)
        assert resid == pytest.approx(1.1611516283595347, rel=1e-10)
        assert traj == pytest.approx(15.0 / np.log(5498), rel=1e-12)
        n_e10 = int(round(np.exp(10)))
        assert RunConfig().concentrations(n_e10)[0] == pytest.approx(1.0, abs=1e-4)

    def test_kernel_defaults(self):
        cfg = RunConfig()
        assert cfg.kernel == GpKernelParams() == GpKernelParams(1.25, 13.0)
        assert cfg.base == ParametricPrior()
        assert cfg.trunc_resid == 60 and cfg.trunc_gp == 60 and cfg.trunc_flat == 30

    def test_tiny_panel_counted_as_two(self):
        """Elicitation needs ln N > 0: a panel below 2 units is counted as 2,
        and a concentration that is set is used as it is."""
        two = RunConfig().concentrations(2)
        assert two == (10.0 / np.log(2), 15.0 / np.log(2))
        assert RunConfig().concentrations(1) == RunConfig().concentrations(0) == two
        assert RunConfig(traj_concentration=0.5).concentrations(1) == (two[0], 0.5)

    def test_state_draws_at_the_elicited_concentrations(self):
        state = init_fdp_state(40, RunConfig(trunc_resid=5, trunc_gp=4, trunc_flat=3),
                               np.arange(6), rng=stream(3, "st"))
        resid, traj = RunConfig().concentrations(40)
        assert state.residual.concentration == resid
        assert state.traj_concentration == traj
