"""Tests for the command-line driver, chain persistence, and MLE clustering."""

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import arscreen.cli as cli
import arscreen.trajectory
from arscreen.ar_core import ArParams, ObservedSeries, SeriesPanel
import oracles
from oracles import read_table
from arscreen.cli import (
    RunConfig,
    load_chain,
    load_run_config,
    main,
    mle_trajectory_set,
    parse_kv_file,
    report_summaries,
    save_chain,
    simulate_from_scenario,
    write_report,
)
from arscreen.errors import DomainError, InvalidInputError, NumericalError
from arscreen.mcmc import stream
from arscreen.panel_io import ColumnRows, read_panel, write_panel, write_table
from arscreen.parametric import ParametricPrior
from arscreen.simulation import simulate_ar1
from arscreen.trajectory import (
    DEFAULT_THRESHOLDS,
    ChainOutput,
    FdpState,
    GpKernelParams,
    frozen_cluster_rerun,
    run_chain,
)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

TEST_CONFIG = RunConfig(resid_concentration=1.2, traj_concentration=2.0,
                        trunc_resid=15, trunc_gp=18, trunc_flat=12)


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
    chain = run_chain(panel, TEST_CONFIG, n_burn=150, n_keep=300, seed=4)
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
        resid, traj = RunConfig().concentrations(100)
        assert resid == pytest.approx(10.0 / np.log(100))
        assert traj == pytest.approx(15.0 / np.log(100))
        assert RunConfig(resid_concentration=2.5).concentrations(100) == (2.5, traj)

    def test_kernel_and_base_built_from_keys(self):
        cfg = RunConfig(kernel_variance=2.0, kernel_length_scale=4.0, phi_mean=-0.3,
                        phi_var=0.5, var_shape=3.0, var_scale=0.5, shift_var=2.0)
        assert cfg.kernel == GpKernelParams(2.0, 4.0)
        assert cfg.base == ParametricPrior(-0.3, 0.5, 3.0, 0.5, 2.0)
        assert RunConfig().kernel == GpKernelParams() and RunConfig().base == ParametricPrior()

    @pytest.mark.parametrize("key,value,match", [
        ("trunc_flat", 1, "trunc_flat must be at least 2"),
        ("trunc_resid", 0, "trunc_resid must be at least 2"),
        ("resid_concentration", -1.0, "resid_concentration"),
        ("traj_concentration", float("nan"), "traj_concentration"),
        ("kernel_variance", 0.0, "kernel variance"),
        ("kernel_length_scale", float("inf"), "kernel length scale"),
        ("phi_mean", 1.0, "phi prior mean"),
        ("var_scale", -2.0, "var_scale"),
        ("n_draws", 1, "n_draws must be at least 2"),
    ])
    def test_invalid_value_rejected_when_built(self, key, value, match):
        with pytest.raises(DomainError, match=match):
            RunConfig(**{key: value})

    def test_readme_block_names_every_key_with_its_default(self, tmp_path):
        """README's "Run config" block is a config file naming exactly
        ``RunConfig``'s keys, each at its default."""
        text = open(README, encoding="utf-8").read()
        block = text.split("**Run config**", 1)[1].split("```", 2)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert list(parse_kv_file(str(path))) == [f.name for f in fields(RunConfig) if f.init]
        assert load_run_config(str(path)) == RunConfig()


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

    def test_line_ends_and_utf8(self, tmp_path):
        """CR, LF and CRLF each end a line; bytes that are not UTF-8 are
        named by their offset."""
        path = tmp_path / "f.cfg"
        path.write_bytes("a = 1\rb = 2\r\nc = Zürich\n".encode())
        assert parse_kv_file(str(path)) == {"a": "1", "b": "2", "c": "Zürich"}
        path.write_bytes(b"a = 1\nb = \xff\n")
        with pytest.raises(InvalidInputError, match=r"f\.cfg: not UTF-8 text at byte 10"):
            parse_kv_file(str(path))


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
        # out-of-range values name their key, as unparsable ones do
        for base in (mixture, prior):
            with pytest.raises(InvalidInputError, match="'n_units'.*at least one unit.*got 0"):
                simulate_from_scenario(dict(base, n_units="0"), seed=0)
        for base, key in [(mixture, "shift_prob"), (prior, "signal_prob")]:
            with pytest.raises(DomainError, match=fr"'{key}' must lie in \[0, 1\], got 2.0"):
                simulate_from_scenario(dict(base, **{key: "2"}), seed=0)
        for shift_var in ("-1.0", "nan", "inf"):
            with pytest.raises(DomainError, match=f"'shift_var'.*nonnegative, got {shift_var}"):
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


def _assert_same_chain(a: ChainOutput, b: ChainOutput) -> None:
    """Every field of ``a`` equals ``b``'s, arrays in dtype, shape and value."""
    for f in fields(ChainOutput):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert np.array_equal(x, y), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


class TestChainPersistence:
    def test_round_trip(self, fitted_chain, tmp_path):
        panel, chain = fitted_chain
        path = str(tmp_path / "chain.npz")
        save_chain(chain, path)
        loaded = load_chain(path)
        assert loaded.unit_ids == chain.unit_ids
        assert np.array_equal(loaded.inclusion, chain.inclusion)
        assert np.array_equal(loaded.logliks, chain.logliks)
        assert loaded.best_sweep == chain.best_sweep
        assert loaded.seed == chain.seed
        assert loaded.fingerprint == TEST_CONFIG.fingerprint()
        assert np.array_equal(loaded.best_flat_levels, chain.best_flat_levels)
        assert np.array_equal(loaded.best_gp_paths, chain.best_gp_paths)
        assert np.array_equal(loaded.band_samples, chain.band_samples)
        assert loaded.kernel == chain.kernel == TEST_CONFIG.kernel
        # Every field survives.
        _assert_same_chain(loaded, chain)
        assert report_summaries(loaded) == report_summaries(chain)

    def test_older_chain_file_reads_the_same(self, fitted_chain, tmp_path):
        """A chain file that also holds the two membership entries every
        chain file once carried, empty counts and the labels ("other",
        "null"), written after ``band_samples``, reads as the same chain."""
        _, chain = fitted_chain
        path = str(tmp_path / "chain.npz")
        save_chain(chain, path)
        with np.load(path) as z:
            entries = {k: z[k] for k in z.files}
        older = {}
        for k, v in entries.items():
            older[k] = v
            if k == "band_samples":
                older.update(membership_counts=np.zeros((0, 0), dtype=np.int64),
                             membership_labels=np.array(("other", "null"), dtype="U32"))
        old_path = str(tmp_path / "older.npz")
        np.savez(old_path, **older)
        _assert_same_chain(load_chain(old_path), load_chain(path))

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
        ("best_component_probs", lambda a: a[:2]),
        ("best_flat_levels", lambda a: a[:3]),
        ("best_flat_weights", lambda a: a[None]),
        ("best_gp_paths", lambda a: a[:, :-1]),
        ("best_gp_weights", lambda a: a[:, None]),
        ("best_unit_component", lambda a: a[:-1]),
        ("best_unit_atom", lambda a: a[1:]),
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

    def test_stride_invariant(self, monkeypatch):
        panel = _two_group_panel(seed=23)
        monkeypatch.setattr(arscreen.trajectory, "CHECKPOINT_STRIDE", 1)
        a = run_chain(panel, TEST_CONFIG, n_burn=40, n_keep=60, seed=8)
        monkeypatch.setattr(arscreen.trajectory, "CHECKPOINT_STRIDE", 17)
        b = run_chain(panel, TEST_CONFIG, n_burn=40, n_keep=60, seed=8)
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
    names, percent, digest = frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=6,
                                                  n_burn=100, n_keep=200)
    return panel, frozen, names, percent, digest


class TestFrozenRerun:
    def test_membership_rows_sum_to_100(self, rerun):
        _, _, names, percent, _ = rerun
        assert np.allclose(percent.sum(axis=1), 100.0, atol=1e-9)
        assert percent.shape == (36, len(names) + 2)

    def test_planted_units_join_their_cluster(self, rerun):
        _, frozen, names, percent, _ = rerun
        by_level = {round(a.level if a.kind == "flat" else float(np.median(a.path))):
                    names.index(n)
                    for n, a in zip(frozen.names, frozen.atoms)}
        hi, lo = by_level[4], by_level[-4]
        assert np.all(percent[:8, hi] > 50.0)
        assert np.all(percent[8:16, lo] > 50.0)
        null_col = len(names) + 1
        assert np.median(percent[16:, null_col]) > 50.0

    def test_frozen_atoms_unchanged(self, rerun):
        """The digest, checked unchanged after the run, is that of the
        frozen atoms' values and within-set weights, flat then gp, which
        is also the column order of the names."""
        _, frozen, names, _, digest = rerun
        flat = [i for i, a in enumerate(frozen.atoms) if a.kind == "flat"]
        gp = [i for i, a in enumerate(frozen.atoms) if a.kind == "gp"]
        h = hashlib.sha256()
        for arr in ([frozen.atoms[i].level for i in flat], frozen.set_weights[flat],
                    [frozen.atoms[i].path for i in gp], frozen.set_weights[gp]):
            h.update(np.array(arr, dtype=float).tobytes())
        assert digest == h.hexdigest()
        assert names == tuple(frozen.names[i] for i in flat + gp)

    def test_deterministic(self, fitted_chain):
        panel, chain = fitted_chain
        frozen = mle_trajectory_set(chain, 2)
        r1 = frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=3,
                                  n_burn=30, n_keep=50)
        r2 = frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=3,
                                  n_burn=30, n_keep=50)
        assert r1[0] == r2[0] and r1[2] == r2[2]
        assert np.array_equal(r1[1], r2[1])

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

    @pytest.mark.parametrize("n_burn, n_keep", [(-1, 2), (2, 0)])
    def test_sweep_counts_checked(self, fitted_chain, n_burn, n_keep):
        panel, chain = fitted_chain
        frozen = mle_trajectory_set(chain, 2)
        with pytest.raises(DomainError, match="n_burn >= 0 and n_keep >= 1"):
            frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=0, n_burn=n_burn,
                                 n_keep=n_keep)

    def test_empty_panel_rejected(self, fitted_chain):
        _, chain = fitted_chain
        frozen = mle_trajectory_set(chain, 2)
        with pytest.raises(InvalidInputError, match="empty panel"):
            frozen_cluster_rerun(SeriesPanel(()), frozen, TEST_CONFIG, seed=0,
                                 n_burn=2, n_keep=2)

    def test_built_state_validated(self, fitted_chain, monkeypatch):
        """The state the rerun builds is validated before any sweep: a
        failing check stops the run there."""
        panel, chain = fitted_chain
        frozen = mle_trajectory_set(chain, 2)
        seen = []

        def refuse(state):
            seen.append((state.unit_component.copy(), state.unit_atom.copy()))
            raise InvalidInputError("refused by the test")

        def no_sweep(*args):
            raise AssertionError("swept an unvalidated state")

        monkeypatch.setattr(FdpState, "validate", refuse)
        monkeypatch.setattr(arscreen.trajectory, "gibbs_sweep_joint", no_sweep)
        with pytest.raises(InvalidInputError, match="refused by the test"):
            frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=0, n_burn=2, n_keep=2)
        [(component, atom)] = seen
        assert np.all(component == 0) and np.all(atom == -1)

    def test_mutated_atoms_detected(self, fitted_chain, monkeypatch):
        """A sweep that moved a frozen atom fails the digest check."""
        panel, chain = fitted_chain
        frozen = mle_trajectory_set(chain, 2)
        real = arscreen.trajectory.gibbs_sweep_joint

        def nudging(state, table, rng):
            real(state, table, rng)
            tset = state.flat_set if state.flat_set.n_frozen else state.gp_set
            (tset.levels if tset.kind == "flat" else tset.paths)[0] += 1e-12
            return state

        monkeypatch.setattr(arscreen.trajectory, "gibbs_sweep_joint", nudging)
        with pytest.raises(NumericalError, match="frozen atoms were mutated"):
            frozen_cluster_rerun(panel, frozen, TEST_CONFIG, seed=0, n_burn=1, n_keep=1)


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


class TestReportWriter:
    """The report files written from columns are byte for byte those of the
    per-cell reference writer in ``oracles``."""

    @staticmethod
    def _compare(chain, tmp_path, thresholds=DEFAULT_THRESHOLDS):
        new, ref = tmp_path / "new", tmp_path / "ref"
        new.mkdir()
        ref.mkdir()
        write_report(report_summaries(chain, thresholds=thresholds), str(new),
                     chain.seed, chain.fingerprint)
        oracles.write_report_per_cell(chain, thresholds, str(ref), chain.seed, chain.fingerprint)
        names = sorted(os.listdir(ref))
        assert sorted(os.listdir(new)) == names
        for name in names:
            assert (new / name).read_bytes() == (ref / name).read_bytes(), name
        return names

    def test_fitted_chain(self, fitted_chain, tmp_path):
        _, chain = fitted_chain
        names = self._compare(chain, tmp_path, thresholds=(0.5, 0.75, 0.9))
        assert names == ["bands.csv", "inclusion.csv", "summary.txt"]

    def test_quoted_id_and_exponent_bands(self, fitted_chain, tmp_path):
        _, chain = fitted_chain
        bands = chain.band_samples.copy()
        bands[:, 0, :3] = (1e-05, 1e16, -0.0)
        chain = replace(chain, unit_ids=('id,"quoted"',) + chain.unit_ids[1:],
                        band_samples=bands)
        self._compare(chain, tmp_path)
        first = (tmp_path / "new" / "bands.csv").read_text().splitlines()[3:6]
        assert first[0].startswith('"id,""quoted""",') and "e-06" in first[0]
        assert "e+16" in first[1]

    def test_chain_without_bands(self, fitted_chain, tmp_path):
        """A chain that holds none of its bands, as ``fit-np`` keeps chain 0
        once its bands are written, writes no bands file."""
        _, chain = fitted_chain
        chain = replace(chain, band_samples=chain.band_samples[:0])
        assert self._compare(chain, tmp_path) == ["inclusion.csv", "summary.txt"]

    def test_column_rows_write_as_cells(self, tmp_path):
        """Floats whose repr takes exponent form, -0.0, non-finite values and a
        quoted string, written from columns and by the per-cell reference."""
        rows = ColumnRows(['a,"b', "c", "d"], [1, 2, 30], [1e-05, -0.0, 1e16],
                          [1.5e-300, float("inf"), -2.5], [float("nan"), 0.1, -1e22])
        header, comments = ("id", "t", "x", "y", "z"), ("seed = 1",)
        write_table(str(tmp_path / "new.csv"), header, rows, comments)
        oracles.write_table_per_cell(str(tmp_path / "ref.csv"), header, list(rows), comments)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert len(rows) == 3 and rows[1] == ("c", 2, -0.0, float("inf"), 0.1)


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

    @pytest.mark.parametrize("command,flag,value", [
        ("fit-np", "--burn", "-3"),
        ("fit-np", "--keep", "0"),
        ("cluster-mle", "--burn", "-1"),
        ("cluster-mle", "--keep", "0"),
        ("cluster-mle", "--top", "0"),
    ])
    def test_bad_sweep_counts_rejected_before_reading(self, tmp_path, capsys,
                                                      command, flag, value):
        """Checked before any input is read (the chain file does not exist)
        and before the output directory is made."""
        panel_path = _write_small_panel(tmp_path, n=10)
        outdir = tmp_path / "out"
        argv = [command, "--input", panel_path, "--output-dir", str(outdir)]
        if command == "cluster-mle":
            argv += ["--chain", str(tmp_path / "missing.npz"), "--top", "2"]
        assert main(argv + [flag, value]) == 3
        assert f"{flag} must be" in capsys.readouterr().err
        assert not outdir.exists()

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

    @pytest.mark.parametrize("command", ["standardize", "simulate", "fit-parametric", "fit-np",
                                         "report", "cluster-mle"])
    def test_invalid_config_rejected_by_every_command(self, tmp_path, capsys, command):
        """A config that no fit accepts exits 3 naming its key, whatever the
        command, before any output directory is made. The chain file does
        not exist: the config is checked before any input is read."""
        panel_path = _write_small_panel(tmp_path, n=10)
        scen = tmp_path / "scen.cfg"
        scen.write_text("kind = mixture\nn_units = 6\nlength = 8\ncomponents = 0.5:0.25:1.0\n")
        chain = str(tmp_path / "missing.npz")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trunc_flat = 1\n")
        outdir = tmp_path / "out"
        inputs = {"standardize": ["--input", panel_path], "simulate": ["--scenario", str(scen)],
                  "fit-parametric": ["--input", panel_path], "fit-np": ["--input", panel_path],
                  "report": ["--chain", chain],
                  "cluster-mle": ["--input", panel_path, "--chain", chain, "--top", "2"]}
        rc = main([command, *inputs[command], "--config", str(cfg), "--output-dir", str(outdir)])
        assert rc == 3
        assert "trunc_flat must be at least 2, got 1" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["standardize", "simulate", "fit-parametric", "fit-np",
                                         "report", "cluster-mle"])
    @pytest.mark.parametrize("under", [False, True])
    def test_output_dir_that_is_a_file_exits_3(self, tmp_path, capsys, command, under):
        """An --output-dir that is a file, or lies under one, exits 3 naming
        the file before any input is read (no input here exists)."""
        blocker = tmp_path / "taken.csv"
        blocker.write_text("unit_id,time,value\n")
        missing = str(tmp_path / "missing")
        inputs = {"standardize": ["--input", missing], "simulate": ["--scenario", missing],
                  "fit-parametric": ["--input", missing], "fit-np": ["--input", missing],
                  "report": ["--chain", missing],
                  "cluster-mle": ["--input", missing, "--chain", missing, "--top", "2"]}
        outdir = blocker / "sub" if under else blocker
        assert main([command, *inputs[command], "--output-dir", str(outdir)]) == 3
        err = capsys.readouterr().err
        assert f"{blocker} is not a directory" in err and "missing" not in err
        assert blocker.read_text() == "unit_id,time,value\n"

    @pytest.mark.parametrize("command", ["standardize", "simulate", "fit-parametric", "fit-np",
                                         "report", "cluster-mle"])
    def test_empty_output_dir_exits_3(self, tmp_path, capsys, command):
        """An empty --output-dir exits 3 before any input is read (no input
        here exists)."""
        missing = str(tmp_path / "missing")
        inputs = {"standardize": ["--input", missing], "simulate": ["--scenario", missing],
                  "fit-parametric": ["--input", missing], "fit-np": ["--input", missing],
                  "report": ["--chain", missing],
                  "cluster-mle": ["--input", missing, "--chain", missing, "--top", "2"]}
        assert main([command, *inputs[command], "--output-dir", ""]) == 3
        err = capsys.readouterr().err
        assert "--output-dir must not be empty" in err and "missing" not in err

    @pytest.mark.parametrize("command,flag", [("standardize", "--input"),
                                              ("simulate", "--scenario"),
                                              ("fit-np", "--config")])
    def test_directory_for_a_file_exits_3(self, tmp_path, capsys, command, flag):
        """A directory where a file is read exits 3 naming it, before the
        output directory is made."""
        folder = tmp_path / "folder"
        folder.mkdir()
        outdir = tmp_path / "out"
        argv = [command, flag, str(folder), "--output-dir", str(outdir)]
        if flag == "--config":
            argv += ["--input", _write_small_panel(tmp_path, n=10)]
        assert main(argv) == 3
        assert f"{folder}: Is a directory" in capsys.readouterr().err
        assert not outdir.exists()

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


def _digests(directory) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(directory))}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelChains:
    """``fit-np`` runs its chains in min(chains, usable CPUs) processes; the
    usable-CPU count is forced through ``cli._usable_cpus``."""

    FIT = ["--burn", "5", "--keep", "8", "--seed", "7"]

    def _fit(self, monkeypatch, panel_path, outdir, n_cpus, chains=3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: n_cpus)
        try:
            return main(["fit-np", "--input", panel_path, "--output-dir", str(outdir),
                         "--chains", str(chains), *self.FIT])
        finally:
            _assert_no_child_left()

    def test_worker_count_changes_no_output(self, tmp_path, monkeypatch):
        panel_path = _write_small_panel(tmp_path)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        digests = {}
        for n_cpus in (1, 2, 3):
            assert self._fit(monkeypatch, panel_path, tmp_path / f"cpus{n_cpus}", n_cpus) == 0
            digests[n_cpus] = _digests(tmp_path / f"cpus{n_cpus}")
            assert len(forks) == n_cpus - 1
            forks.clear()
        assert sorted(digests[1]) == ["bands.csv", "chain_0.npz", "chain_1.npz", "chain_2.npz",
                                      "inclusion.csv", "summary.txt"]
        assert digests[2] == digests[1] and digests[3] == digests[1]

    def test_workers_capped_by_cpus_not_chains(self, tmp_path, monkeypatch):
        panel_path = _write_small_panel(tmp_path, n=6, length=8)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        assert self._fit(monkeypatch, panel_path, tmp_path / "out", n_cpus=2, chains=5) == 0
        assert len(forks) == 1
        assert len(list((tmp_path / "out").glob("chain_*.npz"))) == 5

    def test_no_fork_runs_in_process(self, tmp_path, monkeypatch):
        panel_path = _write_small_panel(tmp_path, n=6, length=8)
        assert self._fit(monkeypatch, panel_path, tmp_path / "a", n_cpus=1) == 0
        monkeypatch.delattr(os, "fork")
        assert self._fit(monkeypatch, panel_path, tmp_path / "b", n_cpus=3) == 0
        assert _digests(tmp_path / "b") == _digests(tmp_path / "a")

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_numerical_failure_exits_4_as_in_process(self, tmp_path, monkeypatch, capsys,
                                                     n_cpus):
        panel_path = str(tmp_path / "bad.csv")
        (tmp_path / "bad.csv").write_text(
            "unit_id,time,value\na,0,0.1\na,5,0.3\nb,2,1e300\nb,3,-1e300\n")
        assert self._fit(monkeypatch, panel_path, tmp_path / "out", n_cpus, chains=2) == 4
        assert capsys.readouterr().err == \
            "error: assignment stage (a): no finite component score for unit 'b'\n"

    @staticmethod
    def _failing(monkeypatch, failures):
        """Make ``cli.run_chain`` raise ``failures[c]`` for chain c (seed 7 + c);
        a forked worker inherits the patch."""
        real = cli.run_chain

        def run_chain(panel, config, seed, **kw):
            if seed - 7 in failures:
                raise failures[seed - 7]
            return real(panel, config, seed=seed, **kw)
        monkeypatch.setattr(cli, "run_chain", run_chain)

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_only_chain_1_fails(self, tmp_path, monkeypatch, capsys, n_cpus):
        panel_path = _write_small_panel(tmp_path, n=6, length=8)
        self._failing(monkeypatch, {1: NumericalError("chain one diverged")})
        assert self._fit(monkeypatch, panel_path, tmp_path / "out", n_cpus) == 4
        assert capsys.readouterr().err == "error: chain one diverged\n"
        assert not (tmp_path / "out" / "inclusion.csv").exists()

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_bands_are_chain_0s_as_report_writes_them(self, tmp_path, monkeypatch, n_cpus):
        """``bands.csv`` is written once chain 0 is saved, while the other
        chains run: byte for byte what ``report`` writes from that file."""
        panel_path = _write_small_panel(tmp_path, n=6, length=8)
        assert self._fit(monkeypatch, panel_path, tmp_path / "fit", n_cpus) == 0
        assert main(["report", "--chain", str(tmp_path / "fit" / "chain_0.npz"),
                     "--output-dir", str(tmp_path / "rep")]) == 0
        bands = (tmp_path / "fit" / "bands.csv").read_bytes()
        assert bands == (tmp_path / "rep" / "bands.csv").read_bytes()
        assert bands.startswith(b"# seed = 7\n")

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_chain_1_failure_keeps_chain_0_and_its_bands(self, tmp_path, monkeypatch, n_cpus):
        panel_path = _write_small_panel(tmp_path, n=6, length=8)
        self._failing(monkeypatch, {1: NumericalError("chain one diverged")})
        assert self._fit(monkeypatch, panel_path, tmp_path / "out", n_cpus) == 4
        out = tmp_path / "out"
        assert (out / "chain_0.npz").exists() and (out / "bands.csv").exists()
        assert not (out / "inclusion.csv").exists() and not (out / "summary.txt").exists()

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_lowest_failing_chain_is_reported(self, tmp_path, monkeypatch, capsys, n_cpus):
        """With two CPUs, chain 2 fails in this process and chain 1 in the
        worker; chain 1's error is the one a loop in order would give."""
        panel_path = _write_small_panel(tmp_path, n=6, length=8)
        self._failing(monkeypatch, {1: InvalidInputError("one"), 2: NumericalError("two")})
        assert self._fit(monkeypatch, panel_path, tmp_path / "out", n_cpus) == 3
        assert capsys.readouterr().err == "error: one\n"

    def test_worker_crash_raises_its_traceback(self, tmp_path, monkeypatch):
        panel_path = _write_small_panel(tmp_path, n=6, length=8)
        self._failing(monkeypatch, {1: ValueError("kaboom")})
        with pytest.raises(RuntimeError, match="chain 1 failed") as exc:
            self._fit(monkeypatch, panel_path, tmp_path / "out", n_cpus=2, chains=2)
        assert "Traceback (most recent call last)" in str(exc.value)
        assert str(exc.value).endswith("ValueError: kaboom\n")

    @pytest.mark.parametrize("error", [KeyboardInterrupt(), NumericalError("chain zero")])
    def test_chain_0_failure_kills_and_reaps_workers(self, tmp_path, monkeypatch, capsys, error):
        """No chain comes before chain 0, so its failure or an interrupt
        ends the run at once, stopping a worker that is still running."""
        panel_path = _write_small_panel(tmp_path, n=6, length=8)

        def run_chain(panel, config, seed, **kw):
            if seed == 7:
                raise error
            time.sleep(60)      # the worker's chain: never finishes unless killed
        monkeypatch.setattr(cli, "run_chain", run_chain)
        start = time.perf_counter()
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                self._fit(monkeypatch, panel_path, tmp_path / "out", n_cpus=2, chains=2)
        else:
            assert self._fit(monkeypatch, panel_path, tmp_path / "out", n_cpus=2, chains=2) == 4
            assert capsys.readouterr().err == "error: chain zero\n"
        assert time.perf_counter() - start < 30
