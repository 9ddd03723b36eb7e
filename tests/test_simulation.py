"""Generator distributional checks and error accounting."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chisquare, kstest

from arscreen.ar_core import ArParams
from arscreen.errors import InvalidInputError
from arscreen.simulation import (
    ErrorReport,
    MixtureScenario,
    TruthLabels,
    error_report,
    generate_mixture_panel,
    generate_prior_study,
    simulate_ar1,
)
from oracles import simulate_ar1_lfilter


def test_first_value_is_marginal_no_burn_in():
    p = ArParams(0.9, 0.5)
    rng = np.random.default_rng(21)
    first = np.array([simulate_ar1(p, 1, rng)[0] for _ in range(4000)])
    sd = np.sqrt(0.5 / (1 - 0.81))
    assert kstest(first / sd, "norm").pvalue > 0.01


@pytest.mark.parametrize("phi", [-0.999, 0.0, 0.5, 0.999])
@pytest.mark.parametrize("length", [1, 2, 50])
def test_path_equals_lfilter_recursion(phi, length):
    got = simulate_ar1(ArParams(phi, 0.7), length, np.random.default_rng(31))
    want = simulate_ar1_lfilter(phi, 0.7, length, np.random.default_rng(31))
    assert got.dtype == np.float64 and got.shape == (length,)
    assert got.tobytes() == want.tobytes()


def test_lag_one_autocorrelation():
    p = ArParams(0.7, 1.0)
    path = simulate_ar1(p, 200_000, np.random.default_rng(4))
    r = np.corrcoef(path[:-1], path[1:])[0, 1]
    assert r == pytest.approx(0.7, abs=0.02)


def test_unit_order_independence():
    scenario = MixtureScenario(((ArParams(0.5, 1.0), 1.0),), n_units=5, length=6)
    panel_a, _ = generate_mixture_panel(scenario, seed=9)
    bigger = MixtureScenario(((ArParams(0.5, 1.0), 1.0),), n_units=9, length=6)
    panel_b, _ = generate_mixture_panel(bigger, seed=9)
    for i in range(5):
        assert np.array_equal(panel_a[i].values, panel_b[i].values)


def test_component_frequencies_chisquare():
    comps = (
        (ArParams(0.2, 0.05), 0.25),
        (ArParams(0.2, 0.5), 0.25),
        (ArParams(0.95, 0.05), 0.25),
        (ArParams(0.95, 0.5), 0.25),
    )
    scenario = MixtureScenario(comps, n_units=4000, length=2)
    _, truth = generate_mixture_panel(scenario, seed=17)
    counts = np.bincount(truth.component, minlength=4)
    assert chisquare(counts).pvalue > 0.01


def test_marginal_distribution_of_mixture_draws():
    p = ArParams(0.6, 1.0)
    scenario = MixtureScenario(((p, 1.0),), n_units=3000, length=1)
    panel, _ = generate_mixture_panel(scenario, seed=3)
    first = np.array([s.values[0] for s in panel])
    sd = np.sqrt(1.0 / (1 - 0.36))
    assert kstest(first / sd, "norm").pvalue > 0.01


def test_mean_shift_prevalence_and_effect():
    scenario = MixtureScenario(((ArParams(0.0, 0.01), 1.0),), n_units=3000, length=4,
                               shift_prob=0.3, shift_var=25.0)
    panel, truth = generate_mixture_panel(scenario, seed=8)
    frac = truth.nonnull.mean()
    assert abs(frac - 0.3) < 0.03
    means = np.array([s.values.mean() for s in panel])
    assert np.abs(means[truth.nonnull]).mean() > 10 * np.abs(means[~truth.nonnull]).mean()


class FixedMixture:
    weights = np.array([0.5, 0.5])
    phi = np.array([0.1, 0.9])
    v = np.array([1.0, 0.2])


def test_noise_reuse_across_signal_probabilities():
    grid = np.arange(12)
    traj = lambda rng, g: np.full(g.size, 5.0)
    panel_a, truth_a = generate_prior_study(40, grid, 0.0, FixedMixture(), traj,
                                            seed=100, noise_seed=77)
    panel_b, truth_b = generate_prior_study(40, grid, 1.0, FixedMixture(), traj,
                                            seed=200, noise_seed=77)
    assert not truth_a.nonnull.any()
    assert truth_b.nonnull.all()
    assert np.array_equal(truth_a.component, truth_b.component)
    for a, b in zip(panel_a, panel_b):
        assert np.allclose(b.values - a.values, 5.0, atol=1e-12)


def test_prior_study_determinism():
    grid = np.arange(6)
    traj = lambda rng, g: rng.normal(size=g.size)
    p1, t1 = generate_prior_study(10, grid, 0.5, FixedMixture(), traj, seed=5)
    p2, t2 = generate_prior_study(10, grid, 0.5, FixedMixture(), traj, seed=5)
    assert np.array_equal(t1.nonnull, t2.nonnull)
    for a, b in zip(p1, p2):
        assert np.array_equal(a.values, b.values)


def test_error_report_counts_and_fdr():
    truth = TruthLabels(("a", "b", "c", "d", "e"),
                        np.array([True, True, False, False, False]),
                        np.zeros(5, dtype=np.int64))
    rep = error_report({"a", "c"}, truth)
    assert (rep.true_positives, rep.false_positives, rep.true_negatives, rep.false_negatives) == (1, 1, 2, 1)
    assert rep.fdr == pytest.approx(0.5)
    assert rep.discoveries == 2


def test_error_report_no_discoveries_fdr_zero():
    truth = TruthLabels(("a", "b"), np.array([True, False]), np.zeros(2, dtype=np.int64))
    rep = error_report(set(), truth)
    assert rep.fdr == 0.0
    assert rep.discoveries == 0


def test_error_report_large_count_values():
    assert ErrorReport(297, 24, 4350, 829).fdr == pytest.approx(24 / 321, abs=1e-12)
    assert ErrorReport(24, 2, 5472, 74).fdr == pytest.approx(2 / 26, abs=1e-12)


def test_unknown_flagged_id_rejected():
    truth = TruthLabels(("a",), np.array([True]), np.zeros(1, dtype=np.int64))
    with pytest.raises(InvalidInputError):
        error_report({"zz"}, truth)


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        MixtureScenario(((ArParams(0.5, 1.0), 0.7),), n_units=2, length=3)
