"""Tests for the command-line driver, chain persistence, and MLE clustering."""

import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from arscreen.ar_core import ArParams, ObservedSeries, SeriesPanel
from arscreen.cli import (
    RunConfig,
    frozen_cluster_rerun,
    load_chain,
    load_run_config,
    main,
    mle_trajectory_set,
    parse_kv_file,
    report_summaries,
    save_chain,
    simulate_from_scenario,
)
from arscreen.errors import DomainError, InvalidInputError
from arscreen.mcmc import stream
from arscreen.panel_io import read_panel, read_table, write_panel
from arscreen.parametric import ParametricPrior
from arscreen.simulation import simulate_ar1
from arscreen.trajectory import ChainOutput, GpKernelParams, ModelConfig, run_chain

TEST_CONFIG = ModelConfig(
    kernel=GpKernelParams(1.25, 13.0),
    base=ParametricPrior(),
    resid_concentration=1.2,
    traj_concentration=2.0,
    trunc_resid=15,
    trunc_gp=18,
    trunc_flat=12,
)


def _two_group_panel(seed=17):
    """8 units at +4, 8 at -4, 20 nulls; AR(1) noise throughout."""
    times = np.arange(25, dtype=np.int64)
    series = []
    for i in range(36):
        y = simulate_ar1(ArParams(0.3, 0.4), 25, stream(seed, "grp-unit", i))
        if i < 8:
            y = y + 4.0
        elif i < 16:
            y = y - 4.0
        series.append(ObservedSeries(f"u{i:03d}", times, y))
    return SeriesPanel(tuple(series))


@pytest.fixture(scope="module")
def fitted_chain():
    panel = _two_group_panel()
    chain = run_chain(panel, TEST_CONFIG, n_burn=150, n_keep=300, seed=4,
                      fingerprint="deadbeefdeadbeef")
    return panel, chain


class TestRunConfig:
    def test_fingerprint_depends_on_values(self):
        a = RunConfig()
        b = RunConfig(kernel_variance=1.26)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == RunConfig().fingerprint()
        assert len(a.fingerprint()) == 16

    def test_canonical_round_trips_through_file(self, tmp_path):
        cfg = RunConfig(kernel_variance=2.0, n_draws=777, trunc_flat=9)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.canonical() + "\n")
        assert load_run_config(str(path)) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus_knob = 3\n")
        with pytest.raises(InvalidInputError, match="bogus_knob"):
            load_run_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_draws = many\n")
        with pytest.raises(InvalidInputError, match="n_draws"):
            load_run_config(str(path))

    def test_elicited_concentrations_when_zero(self):
        model = RunConfig().model_config(100)
        assert model.resid_concentration == pytest.approx(10.0 / np.log(100))
        fixed = RunConfig(resid_concentration=2.5).model_config(100)
        assert fixed.resid_concentration == 2.5


class TestKvParsing:
    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("# top\n\na = 1  # trailing\n b = two \n")
        assert parse_kv_file(str(path)) == {"a": "1", "b": "two"}

    def test_errors_name_line(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("a = 1\nnot a pair\n")
        with pytest.raises(InvalidInputError, match=":2"):
            parse_kv_file(str(path))
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(InvalidInputError, match="duplicate"):
            parse_kv_file(str(path))

    def test_missing_file_named(self):
        with pytest.raises(InvalidInputError, match="no/such/file"):
            parse_kv_file("no/such/file.cfg")


class TestScenarios:
    def test_mixture_scenario(self):
        raw = {"kind": "mixture", "n_units": "12", "length": "9",
               "components": "0.2:0.05:0.5; 0.95:0.5:0.5",
               "shift_prob": "0.5", "shift_var": "2.0"}
        panel, truth = simulate_from_scenario(raw, seed=3)
        assert len(panel) == 12
        assert panel.series[0].times.size == 9
        assert truth.nonnull.dtype == bool
        again, _ = simulate_from_scenario(raw, seed=3)
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(panel.series, again.series))

    def test_prior_study_scenario_noise_reuse(self):
        raw = {"kind": "prior-study", "n_units": "10", "length": "12",
               "signal_prob": "0.0", "mixture": "0.3:0.4:1.0",
               "noise_seed": "55"}
        panel0, truth0 = simulate_from_scenario(raw, seed=1)
        raw2 = dict(raw, signal_prob="1.0", kernel_variance="1.25")
        panel1, truth1 = simulate_from_scenario(raw2, seed=1)
        assert not truth0.nonnull.any() and truth1.nonnull.all()
        diff = panel1.series[0].values - panel0.series[0].values
        assert np.std(diff) > 0  # signal arm adds a trajectory on shared noise

    def test_bad_scenarios_rejected(self):
        with pytest.raises(InvalidInputError, match="kind"):
            simulate_from_scenario({"kind": "nope"}, seed=0)
        with pytest.raises(InvalidInputError, match="components"):
            simulate_from_scenario({"kind": "mixture", "components": "1:2",
                                    "n_units": "3", "length": "4"}, seed=0)
        mixture = {"kind": "mixture", "components": "0.3:0.4:1.0", "n_units": "3",
                   "length": "4", "shift_prob": "0.5"}
        prior = {"kind": "prior-study", "mixture": "0.3:0.4:1.0", "n_units": "3",
                 "length": "4"}
        for base, key, value in [(mixture, "n_units", "abc"), (mixture, "length", "2.5"),
                                 (mixture, "shift_prob", "x"), (mixture, "shift_var", "y"),
                                 (prior, "signal_prob", "x"), (prior, "noise_seed", "1.5"),
                                 (prior, "kernel_variance", "q"),
                                 (prior, "kernel_length_scale", "z")]:
            with pytest.raises(InvalidInputError, match=f"'{key}'.*{value}"):
                simulate_from_scenario(dict(base, **{key: value}), seed=0)
        for n_units in ("0", "-3"):
            with pytest.raises(InvalidInputError, match="at least one unit"):
                simulate_from_scenario(dict(prior, n_units=n_units), seed=0)
        for shift_var in ("-1.0", "nan", "inf"):
            with pytest.raises(DomainError, match="shift variance"):
                simulate_from_scenario(dict(mixture, shift_var=shift_var), seed=0)
        # each kind reads only its own keys: a typo or the other kind's key is named
        for base, key in [(mixture, "shift_prb"), (mixture, "signal_prob"),
                          (prior, "shift_prob"), (prior, "kernel_scale")]:
            with pytest.raises(InvalidInputError, match=f"unknown scenario key '{key}'"):
                simulate_from_scenario(dict(base, **{key: "0.5"}), seed=0)
        for weights in ("0.3:0.4:-0.5; 0.9:0.1:1.5", "0.3:0.4:0.5", "0.3:0.4:0.6; 0.9:0.1:0.6"):
            with pytest.raises(InvalidInputError, match="'mixture'.*sum to 1"):
                simulate_from_scenario(dict(prior, mixture=weights), seed=0)
        with pytest.raises(DomainError, match="'noise_seed'.*-1"):
            simulate_from_scenario(dict(prior, noise_seed="-1"), seed=0)
        for base in (mixture, prior):
            with pytest.raises(DomainError, match="'length'.*got 0"):
                simulate_from_scenario(dict(base, length="0"), seed=0)
        for base, key in [(mixture, "components"), (prior, "mixture")]:
            for triple, bad in [("1.5:0.4:1.0", "AR coefficient.*1.5"),
                                ("0.3:-1:1.0", "innovation variance.*-1")]:
                with pytest.raises(DomainError, match=f"'{key}'.*{bad}"):
                    simulate_from_scenario(dict(base, **{key: triple}), seed=0)
        for key in ("kernel_length_scale", "kernel_variance"):
            with pytest.raises(DomainError, match=f"'{key}'.*got 0.0"):
                simulate_from_scenario(dict(prior, **{key: "0"}), seed=0)


class TestChainPersistence:
    def test_round_trip(self, fitted_chain, rerun, tmp_path):
        panel, chain = fitted_chain
        path = str(tmp_path / "chain.npz")
        save_chain(chain, path)
        loaded = load_chain(path)
        assert loaded.unit_ids == chain.unit_ids
        assert np.array_equal(loaded.inclusion, chain.inclusion)
        assert np.array_equal(loaded.logliks, chain.logliks)
        assert loaded.best_sweep == chain.best_sweep
        assert loaded.seed == chain.seed
        assert loaded.fingerprint == "deadbeefdeadbeef"
        assert np.array_equal(loaded.best_flat_levels, chain.best_flat_levels)
        assert np.array_equal(loaded.best_gp_paths, chain.best_gp_paths)
        assert np.array_equal(loaded.band_samples, chain.band_samples)
        assert loaded.kernel == chain.kernel == TEST_CONFIG.kernel
        # Every field survives, also for a frozen rerun's chain: no bands,
        # with membership counts.
        frozen_chain = rerun[2].chain
        assert len(frozen_chain.band_samples) == 0 and frozen_chain.membership_counts.size
        for k, direct in enumerate((chain, frozen_chain)):
            path = str(tmp_path / f"chain_{k}.npz")
            save_chain(direct, path)
            loaded = load_chain(path)
            for f in fields(ChainOutput):
                a, b = getattr(loaded, f.name), getattr(direct, f.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape, f.name
                    assert np.array_equal(a, b), f.name
                else:
                    assert type(a) is type(b) and a == b, f.name
            assert report_summaries(loaded) == report_summaries(direct)

    def test_malformed_chain_exits_3(self, fitted_chain, tmp_path, capsys):
        _, chain = fitted_chain
        panel_path = _write_small_panel(tmp_path)
        rc = main(["report", "--chain", panel_path, "--output-dir", str(tmp_path / "a")])
        assert rc == 3
        assert panel_path in capsys.readouterr().err
        save_chain(chain, str(tmp_path / "full.npz"))
        with np.load(str(tmp_path / "full.npz")) as z:
            entries = {k: z[k] for k in z.files if k != "grid"}
        np.savez(str(tmp_path / "nogrid.npz"), **entries)
        rc = main(["report", "--chain", str(tmp_path / "nogrid.npz"),
                   "--output-dir", str(tmp_path / "b")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "nogrid.npz" in err and "'grid'" in err

    @pytest.mark.parametrize("entry, rewrite", [
        ("inclusion", lambda a: a[:-5]),
        ("band_samples", lambda a: a[:, :, :-1]),
        ("schema", lambda a: np.array([1, 1])),
    ])
    def test_inconsistent_chain_exits_3(self, fitted_chain, tmp_path, capsys, entry, rewrite):
        """An entry whose shape disagrees with the rest of the chain exits 3
        before any output is written, naming the file and the entry."""
        _, chain = fitted_chain
        save_chain(chain, str(tmp_path / "full.npz"))
        with np.load(str(tmp_path / "full.npz")) as z:
            entries = {k: z[k] for k in z.files}
        entries[entry] = rewrite(entries[entry])
        path = str(tmp_path / "bad.npz")
        np.savez(path, **entries)
        out = tmp_path / "out"
        assert main(["report", "--chain", path, "--output-dir", str(out)]) == 3
        assert not (out / "inclusion.csv").exists()
        err = capsys.readouterr().err
        assert "bad.npz" in err and repr(entry) in err

    def test_missing_chain_named(self):
        with pytest.raises(InvalidInputError, match="nowhere.npz"):
            load_chain("nowhere.npz")


class TestMleTrajectorySet:
    def test_weights_nonincreasing_and_normalized(self, fitted_chain):
        _, chain = fitted_chain
        top = mle_trajectory_set(chain, 5)
        w = np.array([a.weight for a in top.atoms])
        assert np.all(np.diff(w) <= 1e-15)
        full = mle_trajectory_set(chain, TEST_CONFIG.trunc_flat + TEST_CONFIG.trunc_gp)
        assert sum(a.weight for a in full.atoms) == pytest.approx(1.0, abs=1e-9)

    def test_recovers_planted_levels(self, fitted_chain):
        _, chain = fitted_chain
        top = mle_trajectory_set(chain, 2)
        levels = sorted(a.level if a.kind == "flat" else np.median(a.path)
                        for a in top.atoms)
        assert levels[0] == pytest.approx(-4.0, abs=0.5)
        assert levels[1] == pytest.approx(4.0, abs=0.5)

    def test_stride_invariant(self):
        panel = _two_group_panel(seed=23)
        a = run_chain(panel, TEST_CONFIG, n_burn=40, n_keep=60, seed=8,
                      checkpoint_stride=1)
        b = run_chain(panel, TEST_CONFIG, n_burn=40, n_keep=60, seed=8,
                      checkpoint_stride=17)
        sa, sb = mle_trajectory_set(a, 3), mle_trajectory_set(b, 3)
        assert sa.sweep == sb.sweep
        assert sa.loglik == sb.loglik
        for x, y in zip(sa.atoms, sb.atoms):
            assert x.kind == y.kind and x.weight == y.weight

    def test_clamps_with_warning(self, fitted_chain):
        _, chain = fitted_chain
        huge = TEST_CONFIG.trunc_flat + TEST_CONFIG.trunc_gp + 50
        with pytest.warns(UserWarning, match="clamp|positive weight|returning"):
            top = mle_trajectory_set(chain, huge)
        assert len(top) <= TEST_CONFIG.trunc_flat + TEST_CONFIG.trunc_gp
        assert top.requested == huge

    def test_rejects_nonpositive_k(self, fitted_chain):
        _, chain = fitted_chain
        with pytest.raises(DomainError):
            mle_trajectory_set(chain, 0)

    def test_works_from_loaded_chain(self, fitted_chain, tmp_path):
        _, chain = fitted_chain
        path = str(tmp_path / "c.npz")
        save_chain(chain, path)
        direct = mle_trajectory_set(chain, 3)
        loaded = mle_trajectory_set(load_chain(path), 3)
        assert direct.sweep == loaded.sweep
        for x, y in zip(direct.atoms, loaded.atoms):
            assert x.kind == y.kind
            assert x.weight == y.weight


@pytest.fixture(scope="module")
def rerun(fitted_chain):
    panel, chain = fitted_chain
    frozen = mle_trajectory_set(chain, 2)
    result = frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=6,
                                  n_burn=100, n_keep=200)
    return panel, frozen, result


class TestFrozenRerun:
    def test_membership_rows_sum_to_100(self, rerun):
        _, _, result = rerun
        assert np.allclose(result.membership_percent.sum(axis=1), 100.0, atol=1e-9)
        assert result.membership_percent.shape == (36, len(result.cluster_names) + 2)

    def test_planted_units_join_their_cluster(self, rerun):
        _, frozen, result = rerun
        by_level = {round(a.level if a.kind == "flat" else float(np.median(a.path))):
                    result.cluster_names.index(n)
                    for n, a in zip(frozen.names, frozen.atoms)}
        hi, lo = by_level[4], by_level[-4]
        assert np.all(result.membership_percent[:8, hi] > 50.0)
        assert np.all(result.membership_percent[8:16, lo] > 50.0)
        null_col = len(result.cluster_names) + 1
        assert np.median(result.membership_percent[16:, null_col]) > 50.0

    def test_frozen_atoms_unchanged(self, rerun):
        _, frozen, result = rerun
        final = result.chain
        k_flat = sum(label.startswith("flat_") for label in final.membership_labels)
        for name, atom in zip(frozen.names, frozen.atoms):
            if atom.kind == "flat":
                assert float(atom.level) in [float(l) for l in final.best_flat_levels[:k_flat]]
        assert result.atom_digest

    def test_deterministic(self, fitted_chain):
        panel, chain = fitted_chain
        frozen = mle_trajectory_set(chain, 2)
        r1 = frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=3,
                                  n_burn=30, n_keep=50)
        r2 = frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=3,
                                  n_burn=30, n_keep=50)
        assert np.array_equal(r1.membership_percent, r2.membership_percent)

    def test_grid_mismatch_rejected(self, fitted_chain):
        panel, chain = fitted_chain
        frozen = mle_trajectory_set(chain, 2)
        short = SeriesPanel(tuple(
            ObservedSeries(s.unit_id, s.times[:-1], s.values[:-1]) for s in panel))
        with pytest.raises(InvalidInputError, match="grid"):
            frozen_cluster_rerun(short, frozen, TEST_CONFIG, seed=0,
                                 n_burn=2, n_keep=2)


    def test_empty_frozen_set_rejected(self, fitted_chain):
        panel, chain = fitted_chain
        empty = replace(mle_trajectory_set(chain, 2), names=(), atoms=(),
                        set_weights=np.empty(0))
        with pytest.raises(InvalidInputError, match="at least one frozen atom"):
            frozen_cluster_rerun(panel, empty, TEST_CONFIG, seed=0, n_burn=2, n_keep=2)


class TestReportSummaries:
    def test_tables_and_lines(self, fitted_chain):
        _, chain = fitted_chain
        bundle = report_summaries(chain, thresholds=(0.5, 0.9))
        assert bundle.inclusion_header == ("unit_id", "inclusion",
                                           "flagged_at_0.5", "flagged_at_0.9")
        for row, p in zip(bundle.inclusion_rows, chain.inclusion):
            assert row[1] == p
            assert row[2] == int(p >= 0.5) and row[3] == int(p >= 0.9)
        n_flag = int(np.sum(chain.inclusion >= 0.5))
        assert bundle.summary_lines[0] == f"flagged {n_flag} of 36 units at threshold 0.5"

    def test_band_quantiles_match_numpy(self, fitted_chain):
        _, chain = fitted_chain
        bundle = report_summaries(chain)
        qs = np.quantile(np.asarray(chain.band_samples, dtype=float),
                         (0.05, 0.5, 0.95), axis=0)
        row = bundle.band_rows[0]
        assert row[0] == chain.unit_ids[0] and row[1] == int(chain.grid[0])
        assert row[2] == qs[0, 0, 0] and row[3] == qs[1, 0, 0] and row[4] == qs[2, 0, 0]
        assert len(bundle.band_rows) == len(chain.unit_ids) * chain.grid.size

    def test_null_unit_band_covers_zero(self, fitted_chain):
        _, chain = fitted_chain
        bundle = report_summaries(chain)
        rows = [r for r in bundle.band_rows if r[0] == chain.unit_ids[20]]
        assert all(r[2] <= 0.0 <= r[4] for r in rows)

    def test_bad_threshold_rejected(self, fitted_chain):
        _, chain = fitted_chain
        with pytest.raises(DomainError):
            report_summaries(chain, thresholds=(0.0,))


def _write_small_panel(tmp_path, n=14, length=15, n_shift=3, seed=29, name="panel.csv"):
    times = np.arange(length, dtype=np.int64)
    series = []
    for i in range(n):
        y = simulate_ar1(ArParams(0.3, 0.5), length, stream(seed, "cli-unit", i))
        if i < n_shift:
            y = y + 3.0
        series.append(ObservedSeries(f"u{i:02d}", times, y))
    path = str(tmp_path / name)
    write_panel(SeriesPanel(tuple(series)), path)
    return path


class TestCliCommands:
    def test_standardize(self, tmp_path):
        panel_path = _write_small_panel(tmp_path)
        rc = main(["standardize", "--input", panel_path,
                   "--output-dir", str(tmp_path / "out"), "--seed", "3"])
        assert rc == 0
        out = read_panel(str(tmp_path / "out" / "standardized.csv"))
        pooled = np.concatenate([s.values for s in out])
        assert abs(np.mean(pooled)) < 1e-10
        assert np.all(np.isfinite(pooled))

    def test_simulate_writes_panel_and_truth(self, tmp_path):
        scen = tmp_path / "scen.cfg"
        scen.write_text("kind = mixture\nn_units = 6\nlength = 8\n"
                        "components = 0.5:0.25:1.0\nshift_prob = 0.5\n")
        rc = main(["simulate", "--scenario", str(scen),
                   "--output-dir", str(tmp_path / "sim"), "--seed", "2"])
        assert rc == 0
        panel = read_panel(str(tmp_path / "sim" / "panel.csv"))
        header, rows = read_table(str(tmp_path / "sim" / "truth.csv"))
        assert header == ("unit_id", "nonnull", "component")
        assert len(rows) == len(panel) == 6

    @pytest.mark.parametrize("line,key", [("shift_prb = 0.5", "shift_prb"),
                                          ("noise_seed = -1", "noise_seed")])
    def test_simulate_rejects_bad_scenario(self, tmp_path, capsys, line, key):
        scen = tmp_path / "scen.cfg"
        kind = "mixture\ncomponents = 0.5:0.25:1.0" if key == "shift_prb" else \
            "prior-study\nmixture = 0.5:0.25:1.0"
        scen.write_text(f"kind = {kind}\nn_units = 6\nlength = 8\n{line}\n")
        rc = main(["simulate", "--scenario", str(scen),
                   "--output-dir", str(tmp_path / "sim"), "--seed", "2"])
        assert rc == 3
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "truth.csv").exists()

    def test_fit_parametric_outputs(self, tmp_path):
        panel_path = _write_small_panel(tmp_path)
        rc = main(["fit-parametric", "--input", panel_path,
                   "--output-dir", str(tmp_path / "par"), "--seed", "5"])
        assert rc == 0
        header, rows = read_table(str(tmp_path / "par" / "parametric_inclusion.csv"))
        assert header[:3] == ("unit_id", "inclusion", "mc_stderr")
        probs = np.array([float(r[1]) for r in rows])
        assert np.all((probs >= 0) & (probs <= 1))
        text = (tmp_path / "par" / "parametric_summary.txt").read_text()
        assert "effective sample size" in text
        assert "of 14 units" in text
        lines = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        phi, v, p = (float(x) for x in lines["posterior mode (phi, v, p)"].strip("()").split(", "))
        assert -1.0 < phi < 1.0 and v > 0.0 and 0.0 < p < 1.0
        assert int(lines["Newton iterations to the mode"]) >= 1
        assert float(lines["max |gradient| at the mode"]) < 1e-6

    def test_fit_np_report_cluster_pipeline(self, tmp_path):
        panel_path = _write_small_panel(tmp_path)
        npdir = str(tmp_path / "np")
        rc = main(["fit-np", "--input", panel_path, "--output-dir", npdir,
                   "--seed", "7", "--burn", "40", "--keep", "60", "--chains", "2"])
        assert rc == 0
        assert os.path.exists(os.path.join(npdir, "chain_1.npz"))
        header, rows = read_table(os.path.join(npdir, "inclusion.csv"))
        assert header[0] == "unit_id" and len(rows) == 14

        rc = main(["report", "--chain", os.path.join(npdir, "chain_0.npz"),
                   "--output-dir", str(tmp_path / "rep")])
        assert rc == 0
        assert os.path.exists(str(tmp_path / "rep" / "bands.csv"))

        rc = main(["cluster-mle", "--input", panel_path,
                   "--chain", os.path.join(npdir, "chain_0.npz"),
                   "--top", "2", "--output-dir", str(tmp_path / "clu"),
                   "--seed", "9", "--burn", "30", "--keep", "40"])
        assert rc == 0
        header, rows = read_table(str(tmp_path / "clu" / "membership.csv"))
        assert header[0] == "identifier" and header[1] == "name"
        assert header[-2:] == ("other", "null")
        for row in rows:
            assert sum(float(x) for x in row[2:]) == pytest.approx(100.0, abs=1e-9)

    def test_seed_and_fingerprint_embedded_everywhere(self, tmp_path):
        panel_path = _write_small_panel(tmp_path)
        outdir = tmp_path / "np"
        main(["fit-np", "--input", panel_path, "--output-dir", str(outdir),
              "--seed", "11", "--burn", "5", "--keep", "8"])
        for name in ("inclusion.csv", "bands.csv", "summary.txt"):
            text = (outdir / name).read_text()
            assert "# seed = 11" in text
            assert "# config = " in text

    def test_byte_identical_rerun(self, tmp_path):
        panel_path = _write_small_panel(tmp_path)
        dirs = [str(tmp_path / d) for d in ("a", "b")]
        for d in dirs:
            rc = main(["fit-np", "--input", panel_path, "--output-dir", d,
                       "--seed", "13", "--burn", "20", "--keep", "30"])
            assert rc == 0
        for name in ("chain_0.npz", "inclusion.csv", "bands.csv", "summary.txt"):
            a = open(os.path.join(dirs[0], name), "rb").read()
            b = open(os.path.join(dirs[1], name), "rb").read()
            assert a == b, f"{name} differs between identical runs"

    def test_exit_codes(self, tmp_path, capsys):
        rc = main(["fit-np", "--input", "missing.csv",
                   "--output-dir", str(tmp_path), "--burn", "2", "--keep", "2"])
        assert rc == 3
        assert "missing.csv" in capsys.readouterr().err
        rc = main(["fit-np", "--input", "x.csv", "--output-dir", str(tmp_path),
                   "--seed", "-1"])
        assert rc == 3
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag,value", [
        ("fit-parametric", "--threshold", "-1"),
        ("fit-parametric", "--threshold", "0"),
        ("fit-np", "--threshold", "1.5"),
        ("fit-np", "--threshold", "nan"),
        ("fit-np", "--chains", "0"),
    ])
    def test_bad_threshold_or_chains_rejected_before_fitting(self, tmp_path, capsys,
                                                             command, flag, value):
        panel_path = _write_small_panel(tmp_path, n=10)
        outdir = tmp_path / "out"
        rc = main([command, "--input", panel_path, "--output-dir", str(outdir), flag, value])
        assert rc == 3
        assert f"got {value}" in capsys.readouterr().err
        assert not outdir.exists()     # so no chain or table was written

    @pytest.mark.parametrize("key", ["resid_concentration", "traj_concentration"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_concentration_rejected_before_fitting(self, tmp_path, capsys, key, value):
        panel_path = _write_small_panel(tmp_path, n=10)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        outdir = tmp_path / "out"
        rc = main(["fit-np", "--input", panel_path, "--output-dir", str(outdir),
                   "--config", str(cfg), "--burn", "2", "--keep", "2"])
        assert rc == 3
        assert key in capsys.readouterr().err
        assert not outdir.exists()     # so no chain_0.npz was written

    def test_console_entry_point(self, tmp_path):
        panel_path = _write_small_panel(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "arscreen", "standardize",
             "--input", panel_path, "--output-dir", str(tmp_path / "sub")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert os.path.exists(str(tmp_path / "sub" / "standardized.csv"))

    def test_cluster_mle_panel_mismatch(self, tmp_path):
        panel_path = _write_small_panel(tmp_path)
        npdir = str(tmp_path / "np")
        main(["fit-np", "--input", panel_path, "--output-dir", npdir,
              "--seed", "7", "--burn", "5", "--keep", "8"])
        other_path = _write_small_panel(tmp_path, n=9, name="other.csv")
        rc = main(["cluster-mle", "--input", other_path,
                   "--chain", os.path.join(npdir, "chain_0.npz"),
                   "--top", "2", "--output-dir", str(tmp_path / "x")])
        assert rc == 3
