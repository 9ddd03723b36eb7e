"""Acceptance gate: one test per criterion, one pass/fail line each.

Each test prints "[criterion N] PASS/FAIL - detail" and asserts. Criterion 2
is expected to fail: the target interval for the prior stationary-variance
mean is not attainable by plain Monte Carlo at the stated draw count because
the estimand has no finite expectation (its test docstring has the analysis).
"""

import os
import time

import numpy as np
from scipy import stats

from arscreen.ar_core import (
    ArParams,
    ObservedSeries,
    SeriesPanel,
    ar1_loglik,
    lag_stats,
    mean_shift_loglik,
    step_table,
)
from arscreen.cli import main
from arscreen.dp_residual import (
    DpResidualState,
    StickState,
    elicit_concentration,
    expected_clusters,
    gibbs_sweep_residual,
    init_residual_state,
    _draw_atom_v,
    _v_conditional,
)
from arscreen.mcmc import stream
from arscreen.panel_io import write_panel
from arscreen.parametric import (
    ParametricPrior,
    build_importance_sampler,
    inclusion_probabilities_parametric,
    posterior_mixing_mode,
)
from arscreen.simulation import (
    MixtureScenario,
    error_report,
    generate_mixture_panel,
    generate_prior_study,
    simulate_ar1,
)
from arscreen.trajectory import (
    GP,
    FdpState,
    GpKernelParams,
    RunConfig,
    TrajectorySticks,
    _gp_atom_terms,
    _pair_stacks,
    _unit_noise,
    gibbs_sweep_joint,
    gp_atom_conditional,
    init_fdp_state,
    prepare_gp_workspace,
    run_chain,
)
from oracles import (
    conjugate_variance_posterior,
    crp_expected_tables,
    dense_ar1_cov,
    dense_ar1_loglik,
    dense_gp_conditional,
    dense_shift_loglik,
    jittered_gp_chol,
    successive_conditional_data,
    whitened_gp_cov,
)

CHECKERBOARD = tuple((ArParams(phi, v), 0.25)
                     for phi in (0.2, 0.95) for v in (0.05, 0.5))

CRITERION_LINES: list[str] = []


def _criterion(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    CRITERION_LINES.append(line)
    assert ok, line


def _stage_d_conditional(ws, pos, vals, phi, v):
    """The gp-path conditional as stage (d) forms it: each row of ``vals`` is
    a unit on gp atom 0, observed at grid positions ``pos``, in a state with
    one residual atom, (phi, v). Returns the atom's mean and R."""
    grid, m = ws.grid, len(vals)
    panel = SeriesPanel(tuple(ObservedSeries(f"u{i}", grid[pos], row)
                              for i, row in enumerate(vals)))
    stick = StickState(np.empty(0), np.ones(1), np.array([phi]), np.array([v]))
    residual = DpResidualState(stick, np.zeros(m, dtype=np.int64), 1.0, ParametricPrior())
    flat = TrajectorySticks("flat", np.empty(0), np.ones(1), levels=np.zeros(1))
    gp = TrajectorySticks("gp", np.empty(0), np.ones(1), paths=np.zeros((1, grid.size)))
    state = FdpState(np.array([0.0, 0.0, 1.0]), np.full(m, GP, dtype=np.int8),
                     np.zeros(m, dtype=np.int64), flat, gp, residual, grid, 1.0, ws)
    table = step_table(panel, grid=grid)
    terms = _gp_atom_terms(_unit_noise(state, table), state.unit_atom, np.array([0]), ws,
                           _pair_stacks(table, ws))
    mean, R = gp_atom_conditional(ws, *terms)
    return mean[0], R[0]


def test_criterion_1_oracle_equivalence():
    """1000 random cases: fast AR(1), mean-shift, and GP-conditional numerics
    each match dense oracles within 1e-8; runtime under one minute. The GP
    conditional is the one stage (d) of the joint sweep forms, from the
    units' noise terms through ``gp_atom_conditional``."""
    rng = stream(1001, "acceptance-oracles")
    t0 = time.time()
    worst = 0.0
    for case in range(1000):
        t_len = int(rng.integers(2, 51))
        phi = float(rng.uniform(-0.95, 0.95))
        v = float(rng.uniform(0.05, 3.0))
        shift_var = float(rng.uniform(0.1, 4.0))
        if case % 2 == 0:
            times = np.arange(t_len, dtype=np.int64)
        else:
            times = np.sort(rng.choice(3 * t_len, size=t_len, replace=False)).astype(np.int64)
        y = rng.normal(size=t_len) * np.sqrt(v / (1 - phi ** 2))
        series = ObservedSeries("c", times, y)
        params = ArParams(phi, v)
        d1 = abs(ar1_loglik(series, params) - dense_ar1_loglik(y, phi, v, times))
        d2 = abs(mean_shift_loglik(series, params, shift_var)
                 - dense_shift_loglik(y, phi, v, times, shift_var))
        g_len = int(rng.integers(4, 16))
        grid = np.arange(g_len, dtype=np.int64)
        ws = prepare_gp_workspace(GpKernelParams(1.25, 13.0), grid)
        m = int(rng.integers(1, 3))
        k = int(rng.integers(2, g_len + 1))
        pos = np.sort(rng.choice(g_len, size=k, replace=False))
        vals = rng.normal(size=(m, k))
        noise = dense_ar1_cov(phi, v, grid[pos])
        obs = [(pos, row, noise) for row in vals]
        mean, R = _stage_d_conditional(ws, pos, vals, phi, v)
        cov = whitened_gp_cov(ws.factor, R)
        mean_o, cov_o = dense_gp_conditional(ws.factor @ ws.factor.T, obs)
        d3 = max(np.abs(mean - mean_o).max(), np.abs(cov - cov_o).max())
        worst = max(worst, d1, d2, d3)
    elapsed = time.time() - t0
    _criterion(1, worst < 1e-8 and elapsed < 60.0,
               f"max abs deviation {worst:.2e} over 1000 cases "
               f"(ar1, mean-shift, gp-conditional) in {elapsed:.1f}s")


def test_criterion_2_prior_marginal_variance():
    """Monte Carlo mean of the prior stationary variance v/(1-phi^2) at 1e5
    draws against the 1.94 +/- 0.15 target. Expected to fail: the truncated
    normal density of phi is strictly positive at the endpoints, so
    E[1/(1-phi^2)] diverges and the sample mean never stabilizes in the
    target window (1e5-draw means range over [2.1, 2.6e4] across seeds; the
    seed here is frozen, not searched). Kept verbatim rather than weakened."""
    prior = ParametricPrior(phi_mean=0.5, phi_var=0.0625, var_shape=2.0, var_scale=1.0)
    rng = stream(20260815, "prior-variance")
    phi, v = prior.sample_phi_v(rng, size=100000)
    mean = float(np.mean(v / (1.0 - phi ** 2)))
    _criterion(2, 1.79 <= mean <= 2.09,
               f"stationary-variance mean {mean:.3f} vs target [1.79, 2.09] at 1e5 draws")


def _null_panel(components, n_units, length, seed):
    scen = MixtureScenario(components=components, n_units=n_units, length=length)
    return generate_mixture_panel(scen, seed)[0]


def test_criterion_3_parametric_screen_direction():
    """Homogeneous null panels keep flags at or below 1% with posterior mixing
    mode at most 0.05; the heterogeneous checkerboard inflates both past the
    stated floors. N=500, T=40, under ten minutes."""
    t0 = time.time()
    prior = ParametricPrior()
    results = []
    for label, comps in (
        ("homog(0.5,0.25)", ((ArParams(0.5, 0.25), 1.0),)),
        ("homog(0.9,0.5)", ((ArParams(0.9, 0.5), 1.0),)),
    ):
        panel = _null_panel(comps, 500, 40, seed=310)
        draws = build_importance_sampler(panel, prior, n_draws=4000, seed=31)
        summary = inclusion_probabilities_parametric(draws, panel, prior)
        frac = float(np.mean(summary.probability >= 0.5))
        mode = posterior_mixing_mode(draws)
        results.append((label, frac, mode))
    panel_h = _null_panel(CHECKERBOARD, 500, 40, seed=320)
    draws_h = build_importance_sampler(panel_h, prior, n_draws=4000, seed=32)
    summary_h = inclusion_probabilities_parametric(draws_h, panel_h, prior)
    frac_h = float(np.mean(summary_h.probability >= 0.5))
    mode_h = posterior_mixing_mode(draws_h)
    elapsed = time.time() - t0
    ok = (all(f <= 0.01 and m <= 0.05 for _, f, m in results)
          and frac_h >= 0.10 and mode_h >= 0.15 and elapsed < 600.0)
    homog = "; ".join(f"{lab}: {f:.1%} flagged, mode {m:.3f}" for lab, f, m in results)
    _criterion(3, ok, f"{homog}; checkerboard: {frac_h:.1%} flagged, "
                      f"mode {mode_h:.3f}; {elapsed:.0f}s")


def test_criterion_4_nonparametric_robustness():
    """Joint model on the N=1000 checkerboard null panel: false-flag rate at
    the 0.5 threshold below 2%, one chain well under 30 minutes."""
    panel = _null_panel(CHECKERBOARD, 1000, 40, seed=100)
    t0 = time.time()
    out = run_chain(panel, RunConfig(), n_burn=300, n_keep=600, seed=1)
    elapsed = time.time() - t0
    rate = float(np.mean(out.inclusion >= 0.5))
    _criterion(4, rate < 0.02 and elapsed < 1800.0,
               f"false-flag rate {rate:.4f} (max p {out.inclusion.max():.3f}) "
               f"in {elapsed:.0f}s")


class _CheckerMix:
    weights = np.full(4, 0.25)
    phi = np.array([0.2, 0.2, 0.95, 0.95])
    v = np.array([0.05, 0.5, 0.05, 0.5])


def _study_panel(signal_prob, seed):
    grid = np.arange(40, dtype=np.int64)
    chol = jittered_gp_chol(1.25, 13.0, grid)
    return generate_prior_study(
        1000, grid, signal_prob, _CheckerMix(),
        lambda rng, g: chol @ rng.standard_normal(g.size), seed, noise_seed=77)


def test_criterion_5_fdr_study():
    """Signal fraction 1/5: realized FDR at 0.5 at most 15% with at least 30
    discoveries. Sparse 1/55: zero-to-few false flags, each below 0.75."""
    panel5, truth5 = _study_panel(1.0 / 5.0, seed=200)
    cfg = RunConfig()
    out5 = run_chain(panel5, cfg, n_burn=300, n_keep=600, seed=2)
    flagged5 = [u for u, p in zip(out5.unit_ids, out5.inclusion) if p >= 0.5]
    rep5 = error_report(flagged5, truth5)

    panel55, truth55 = _study_panel(1.0 / 55.0, seed=300)
    out55 = run_chain(panel55, cfg, n_burn=300, n_keep=600, seed=3)
    idx = {u: i for i, u in enumerate(out55.unit_ids)}
    flagged55 = [u for u, p in zip(out55.unit_ids, out55.inclusion) if p >= 0.5]
    fp55 = [u for u in flagged55 if not truth55.nonnull[idx[u]]]
    fp_probs = [float(out55.inclusion[idx[u]]) for u in fp55]
    ok = (rep5.fdr <= 0.15 and rep5.discoveries >= 30
          and len(fp55) <= 5 and all(p < 0.75 for p in fp_probs))
    _criterion(5, ok,
               f"p=1/5: FDR {rep5.fdr:.3f} on {rep5.discoveries} discoveries; "
               f"p=1/55: {len(fp55)} false flags "
               f"(probabilities {['%.2f' % p for p in fp_probs]})")


# Criterion 6 thins each coordinate by at least twice its integrated
# autocorrelation time (IACT; Sokal's estimate, window 5 IACTs), the larger
# of the values measured on these seeded chains over 1e4 and 4e4 sweeps:
# residual half stick 5.5/5.8, phi 5.6/6.1, v 6.2/5.7; joint half component
# probs 4.0/3.7, unit 0's phi 4.8/5.1 and v 5.2/9.3, level0 2.2/2.3, path00
# 2.3/2.6. KS assumes independent draws; thinned at one IACT the draws stay
# correlated enough to push p-values low.
C6_THIN = {"stick": 13, "phi": 13, "v": 13,
           "cp": 9, "unit0_phi": 11, "unit0_v": 19, "level0": 6, "path00": 6}


def test_criterion_6_sampler_correctness():
    """Prior invariance of both samplers' real sweeps over 1e4 sweeps under
    Geweke's successive-conditional simulator (the data are redrawn from
    p(y | theta) before every sweep), KS p > 0.01 for each coordinate; a
    conjugate inverse-gamma QQ check for the atom variance update; and
    weight-sum identities within 1e-12 on every sweep."""
    base = ParametricPrior()
    sd = np.sqrt(base.phi_var)
    phi_prior = stats.truncnorm((-1 - base.phi_mean) / sd, (1 - base.phi_mean) / sd,
                                loc=base.phi_mean, scale=sd)
    v_prior = stats.invgamma(a=base.var_shape, scale=base.var_scale)
    # residual sampler invariance
    rng_r = stream(61, "inv-resid")
    state_r = init_residual_state(3, 1.0, base, truncation=8, rng=rng_r)
    times = np.arange(6, dtype=np.int64)
    table_r = step_table(SeriesPanel(tuple(ObservedSeries(f"r{i}", times, np.zeros(6))
                                           for i in range(3))))
    sums_ok = True
    stick0, phi0, v0 = np.empty((3, 10000))
    for t in range(10000):
        table_r = successive_conditional_data(state_r, table_r, rng_r)
        gibbs_sweep_residual(state_r, table_r, rng_r)
        sums_ok &= abs(state_r.stick.weights.sum() - 1.0) < 1e-12
        stick = state_r.stick
        stick0[t], phi0[t], v0[t] = stick.sticks[0], stick.phi[0], stick.v[0]
    p_stick = stats.kstest(stick0[::C6_THIN["stick"]], stats.beta(1, 1.0).cdf).pvalue
    p_phi = stats.kstest(phi0[::C6_THIN["phi"]], phi_prior.cdf).pvalue
    p_v = stats.kstest(v0[::C6_THIN["v"]], v_prior.cdf).pvalue

    # joint sampler invariance
    cfg = RunConfig(resid_concentration=1.0, traj_concentration=1.5,
                    trunc_resid=8, trunc_gp=10, trunc_flat=6)
    grid = np.arange(5, dtype=np.int64)
    panel_j = SeriesPanel(tuple(ObservedSeries(f"j{i}", grid, np.zeros(5))
                                for i in range(3)))
    table = step_table(panel_j, grid=grid)
    rng_j = stream(62, "inv-joint")
    state_j = init_fdp_state(3, cfg, grid, rng=rng_j)
    ws = state_j.workspace
    cps = np.empty((10000, 3))
    unit0_phi, unit0_v, level0, path00 = np.empty((4, 10000))
    for t in range(10000):
        table = successive_conditional_data(state_j, table, rng_j)
        gibbs_sweep_joint(state_j, table, rng_j)
        sums_ok &= abs(state_j.component_probs.sum() - 1.0) < 1e-12
        sums_ok &= abs(state_j.flat_set.weights.sum() - 1.0) < 1e-12
        sums_ok &= abs(state_j.gp_set.weights.sum() - 1.0) < 1e-12
        sums_ok &= abs(state_j.residual.stick.weights.sum() - 1.0) < 1e-12
        cps[t] = state_j.component_probs
        stick, atom0 = state_j.residual.stick, state_j.residual.assignments[0]
        unit0_phi[t], unit0_v[t] = stick.phi[atom0], stick.v[atom0]
        level0[t], path00[t] = state_j.flat_set.levels[0], state_j.gp_set.paths[0, 0]
    beta12 = stats.beta(1, 2)
    p_cp = [stats.kstest(cps[::C6_THIN["cp"], c], beta12.cdf).pvalue for c in range(3)]
    p_joint = [stats.kstest(unit0_phi[::C6_THIN["unit0_phi"]], phi_prior.cdf).pvalue,
               stats.kstest(unit0_v[::C6_THIN["unit0_v"]], v_prior.cdf).pvalue,
               stats.kstest(level0[::C6_THIN["level0"]],
                            stats.norm(0, np.sqrt(cfg.kernel.variance)).cdf).pvalue,
               stats.kstest(path00[::C6_THIN["path00"]],
                            stats.norm(0, np.sqrt((ws.factor @ ws.factor.T)[0, 0])).cdf).pvalue]

    # conjugate inverse-gamma QQ for the atom variance draw at phi = 0
    rng_q = stream(63, "qq")
    z = rng_q.normal(0.0, np.sqrt(0.7), size=(4, 12))
    times_q = np.arange(12, dtype=np.int64)
    panel_q = SeriesPanel(tuple(ObservedSeries(f"q{i}", times_q, z[i]) for i in range(4)))
    pooled = lag_stats(step_table(panel_q)).pool(np.zeros(4, dtype=np.int64), 1)
    n_draws = 5600
    shape, scale, _ = _v_conditional(base, pooled[np.zeros(n_draws, dtype=np.int64)],
                                     np.zeros(n_draws))
    draws_v = _draw_atom_v(shape, scale, rng_q)
    a_post, b_post = conjugate_variance_posterior(base.var_shape, base.var_scale, z)
    qs = np.linspace(0.05, 0.95, 19)
    sample_q = np.quantile(draws_v, qs)
    exact_q = stats.invgamma(a=a_post, scale=b_post).ppf(qs)
    qq_corr = float(np.corrcoef(sample_q, exact_q)[0, 1])
    qq_rel = float(np.max(np.abs(sample_q / exact_q - 1.0)))

    ks_ok = min(p_stick, p_phi, p_v, *p_cp, *p_joint) > 0.01
    qq_ok = qq_corr > 0.999 and qq_rel < 0.05
    _criterion(6, ks_ok and qq_ok and sums_ok,
               f"KS p-values: stick {p_stick:.3f}, phi {p_phi:.3f}, v {p_v:.3f}, "
               f"component probs {['%.3f' % p for p in p_cp]}, unit-0 phi/v, level0, "
               f"path00 {['%.3f' % p for p in p_joint]}; "
               f"QQ corr {qq_corr:.5f}, max rel {qq_rel:.3f}; sums hold: {sums_ok}")


def test_criterion_7_cli_determinism(tmp_path):
    """Every CLI command rerun with the same seed and config produces
    byte-identical output files."""
    times = np.arange(15, dtype=np.int64)
    series = []
    for i in range(12):
        y = simulate_ar1(ArParams(0.3, 0.5), 15, stream(71, "det-unit", i))
        if i < 3:
            y = y + 3.0
        series.append(ObservedSeries(f"u{i:02d}", times, y))
    panel_path = str(tmp_path / "panel.csv")
    write_panel(SeriesPanel(tuple(series)), panel_path)
    scen_path = tmp_path / "scen.cfg"
    scen_path.write_text("kind = mixture\nn_units = 8\nlength = 10\n"
                         "components = 0.3:0.4:1.0\nshift_prob = 0.25\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("n_draws = 800\n")

    def run_all(tag):
        d = tmp_path / tag
        cmds = [
            ["simulate", "--scenario", str(scen_path),
             "--output-dir", str(d / "sim"), "--seed", "5"],
            ["standardize", "--input", panel_path,
             "--output-dir", str(d / "std"), "--seed", "5"],
            ["fit-parametric", "--input", panel_path, "--config", str(cfg_path),
             "--output-dir", str(d / "par"), "--seed", "5"],
            ["fit-np", "--input", panel_path, "--output-dir", str(d / "np"),
             "--seed", "5", "--burn", "20", "--keep", "30"],
            ["report", "--chain", str(d / "np" / "chain_0.npz"),
             "--output-dir", str(d / "rep")],
            ["cluster-mle", "--input", panel_path,
             "--chain", str(d / "np" / "chain_0.npz"), "--top", "1",
             "--output-dir", str(d / "clu"), "--seed", "5",
             "--burn", "10", "--keep", "20"],
        ]
        for cmd in cmds:
            assert main(cmd) == 0, f"command failed: {cmd[0]}"
        files = {}
        for root, _, names in os.walk(d):
            for name in names:
                full = os.path.join(root, name)
                files[os.path.relpath(full, d)] = open(full, "rb").read()
        return files

    first = run_all("a")
    second = run_all("b")
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    diff = [k for k in first if first.get(k) != second.get(k)]
    _criterion(7, same,
               f"{len(first)} output files byte-compared across reruns"
               + (f"; differing: {diff}" if diff else ""))


def test_criterion_8_antoniak():
    """expected_clusters(1, 3) equals the exact CRP enumeration value 11/6 and
    concentration elicitation round-trips within 1e-6."""
    direct = expected_clusters(1.0, 3)
    brute = crp_expected_tables(1.0, 3)
    exact = direct == brute == 11.0 / 6.0
    max_err = 0.0
    for alpha, n in ((0.5, 12), (2.0, 40), (7.5, 300)):
        target = expected_clusters(alpha, n)
        back = elicit_concentration(target, n)
        max_err = max(max_err, abs(back - alpha))
    _criterion(8, exact and max_err < 1e-6,
               f"expected_clusters(1,3) = {direct} = brute force {brute}; "
               f"inversion max error {max_err:.2e}")
