import json
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from cvsym import runner, symmetrize
from cvsym.cli import main
from cvsym.config import ExperimentConfig, load_config
from cvsym.errors import ConfigError
from cvsym.keyrate import estimate_channel
from cvsym.protocol import (
    MAX_MODULATION_VARIANCE,
    MIN_MODULATION_VARIANCE,
    ModulationParams,
    alice_modulate,
    channel_and_heterodyne,
    postselect,
)
from cvsym.report import emit
from cvsym.runner import run
from cvsym.samples import mode_triples
from cvsym.stats import MomentSummary, sigma_est


def _write_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    return path


def _small_sweep(seed=5):
    return ExperimentConfig(kind="convergence-sweep", seed=seed,
                            n_grid=[50, 100], trials=[2000, 2000])


def test_config_validation_names_offending_field():
    cfg = ExperimentConfig(kind="convergence-sweep", seed=1, n_grid=[10], trials=100,
                           excess_noise=-0.5)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert "excess_noise" in err.value.fields


def test_config_validation_lists_every_problem():
    cfg = ExperimentConfig(kind="convergence-sweep", seed=1, n_grid=[10, 5], trials=100,
                           excess_noise=-0.5, transmittance=2.0)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert {"excess_noise", "transmittance", "n_grid"} <= set(err.value.fields)


def test_config_validation_names_every_object_rule():
    # Each rule lives in the object a run builds; validate() names the field.
    cfg = ExperimentConfig(kind="keyrate-report", seed=1, n=2000, modulation_variance=0.0,
                           transmittance=1.5, excess_noise=-0.1, perturbation="gaussian-mixture",
                           mixture_weights=[0.5, 0.6], mixture_transmittances=[0.9, 1.2],
                           mixture_excess_noises=[0.0, -1.0], postselection_rule="banana",
                           postselection_threshold=-1.0)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert sorted(err.value.fields) == sorted([
        "modulation_variance", "transmittance", "excess_noise", "mixture_weights",
        "mixture_transmittances", "mixture_excess_noises", "postselection_rule",
        "postselection_threshold"])


def test_config_roundtrip(tmp_path):
    cfg = _small_sweep()
    path = _write_config(cfg, tmp_path / "config.json")
    assert load_config(path) == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": "keyrate-report", "seed": 1, "bogus": 2}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bogus" in err.value.fields


def test_run_is_deterministic():
    cfg = _small_sweep()
    rep1 = run(cfg)
    rep2 = run(cfg)
    assert rep1.metrics == rep2.metrics


_MIXTURE = dict(perturbation="gaussian-mixture", mixture_weights=[0.8, 0.2],
                mixture_transmittances=[0.9, 0.3], mixture_excess_noises=[0.01, 1.0])


# Each config but design-compare (which runs in-process) is about the
# smallest of its kind that splits into two blocks, so two workers really
# share the work; test_run_is_worker_count_independent checks the block
# counts instead of assuming them.
_SPLIT_CONFIGS = [
    ExperimentConfig(kind="convergence-sweep", seed=5, n_grid=[50], trials=[(1 << 18) + 1]),
    ExperimentConfig(kind="convergence-sweep", seed=5, n_grid=[runner.BLOCK_COORDS // 2000 + 1],
                     trials=[1000], perturbation="phase-diffusion", phase_sigma=0.3),
    ExperimentConfig(kind="invariant-audit", seed=5, n=3, trials=513),
    ExperimentConfig(kind="design-compare", seed=5, n=1, trials=1, design_samples=64),
    ExperimentConfig(kind="keyrate-report", seed=5, n=runner.BLOCK_MODES + 1),
    ExperimentConfig(kind="estimation-error", seed=5, n=10, trials=runner.BLOCK_MODES // 1000 + 1,
                     est_m=1000, **_MIXTURE),
]


def test_run_is_worker_count_independent(monkeypatch):
    block_counts = []
    real = runner._map_blocks

    def spy(fn, seed, blocks, workers):
        blocks = list(blocks)
        block_counts.append(len(blocks))
        return real(fn, seed, blocks, workers)

    monkeypatch.setattr(runner, "_map_blocks", spy)
    for cfg in _SPLIT_CONFIGS:
        block_counts.clear()
        rep1 = run(cfg, workers=1)
        assert cfg.kind == "design-compare" or min(block_counts) >= 2, (cfg.kind, block_counts)
        rep2 = run(cfg, workers=2)
        assert json.dumps(rep1.metrics, sort_keys=True) == json.dumps(rep2.metrics, sort_keys=True), cfg.kind


def test_every_stream_key_is_distinct_and_pinned(monkeypatch):
    # A reordered or reused key passes every worker-count test while it
    # changes every result; these keys are the seeding layout.
    keys = []
    real = runner._stream_rng

    def spy(seed, *key):
        keys.append(key)
        return real(seed, *key)

    monkeypatch.setattr(runner, "_stream_rng", spy)
    for cfg in _SPLIT_CONFIGS:
        layouts = []
        for workers in (1, 2):
            keys.clear()
            run(cfg, workers=workers)
            assert len(set(keys)) == len(keys), (cfg.kind, keys)
            layouts.append(sorted(keys))
        assert layouts[0] == layouts[1], cfg.kind
    keys.clear()
    run(ExperimentConfig(kind="keyrate-report", seed=5, n=2 * runner.BLOCK_MODES + 1), workers=2)
    assert sorted(keys) == [(5, 0), (5, 1), (5, 2), (8,)]


@pytest.fixture
def recording_pool(monkeypatch):
    """The ``max_workers`` of every pool ``_map_blocks`` asks for; the stub maps in-process and starts no thread."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(runner, "ThreadPoolExecutor", RecordingPool)
    return started


def _negated(value, rng):
    return -value


def test_map_blocks_starts_no_more_workers_than_blocks(recording_pool):
    blocks = [((0, i), (-i,)) for i in (1, 2, 3)]
    assert list(runner._map_blocks(_negated, 0, blocks, 1000)) == [1, 2, 3]
    assert list(runner._map_blocks(_negated, 0, blocks[:1], 1000)) == [1]
    # On one CPU every block runs in-process and no pool is asked for.
    cpus = os.cpu_count() or 1
    assert recording_pool == ([min(3, cpus)] if cpus > 1 else [])


def test_map_blocks_starts_no_more_workers_than_cpus(recording_pool):
    # Each worker holds a block of about 2.5 MiB: a 10^9-mode key rate at
    # --workers 100000 asked for 30,518 threads before the cap.
    blocks = [((0, i), (-i,)) for i in range(64)]
    assert list(runner._map_blocks(_negated, 0, blocks, 10**6)) == list(range(64))
    assert all(workers <= (os.cpu_count() or 1) for workers in recording_pool)


def _slow_identity(value, rng):
    # Later blocks finish first, so an unordered map would yield them first.
    time.sleep(0.002 * (value % 3))
    return value


@pytest.mark.parametrize("workers", [1, 2])
def test_map_blocks_yields_in_block_order(workers):
    blocks = [((0, i), (i,)) for i in range(20)]
    assert list(runner._map_blocks(_slow_identity, 0, blocks, workers)) == list(range(20))


@pytest.mark.parametrize("workers", [1, 2])
def test_map_blocks_keeps_at_most_two_blocks_per_worker_unconsumed(workers):
    started, lock = [], threading.Lock()

    def counting(value, rng):
        with lock:
            started.append(value)
        return value

    blocks = [((0, i), (i,)) for i in range(40)]
    for consumed, value in enumerate(runner._map_blocks(counting, 0, blocks, workers)):
        assert value == consumed
        time.sleep(0.002)  # the pool runs ahead as far as it may
        with lock:
            assert len(started) <= consumed + 2 * workers, (consumed, len(started))
    assert sorted(started) == list(range(40))


def test_map_blocks_error_propagates_and_stops_the_pool():
    ran = []

    def failing(value, rng):
        ran.append(value)
        if value == 3:
            raise ValueError("block 3 failed")
        time.sleep(0.01)
        return value

    before = set(threading.enumerate())
    blocks = [((0, i), (i,)) for i in range(200)]
    with pytest.raises(ValueError, match="block 3 failed"):
        for _ in runner._map_blocks(failing, 0, blocks, 2):
            pass
    # The pool's threads are joined before the error reaches the caller, and
    # no block starts past the 2 x workers - 1 submitted ahead of block 3.
    assert set(threading.enumerate()) <= before
    assert max(ran) <= 3 + 2 * 2 - 1, ran


@pytest.mark.parametrize("cfg", [
    # One-block and multi-block grid points in one sweep: 1000 trials of n = 50
    # fit one phase block, of n = 2000 65 trials do; exact blocks hold 2^18 trials.
    ExperimentConfig(kind="convergence-sweep", seed=9, n_grid=[50, 2000, 3000], trials=[1000, 1000, 1200],
                     perturbation="phase-diffusion", phase_sigma=0.3),
    ExperimentConfig(kind="convergence-sweep", seed=9, n_grid=[50, 100, 200], trials=[1000, (1 << 18) + 5, 2000]),
], ids=["phase", "exact"])
def test_sweep_with_multi_block_grid_points_is_worker_count_independent(cfg):
    one = run(cfg, workers=1).metrics
    assert json.dumps(one, sort_keys=True) == json.dumps(run(cfg, workers=2).metrics, sort_keys=True)
    assert [row["trials"] for row in one["grid"]] == cfg.trials_for_grid()


def test_two_worker_runs_start_no_process(monkeypatch):
    # Workers are threads: no kind forks or starts a process, at any worker count.
    import multiprocessing.process

    def refuse(*args, **kwargs):
        raise AssertionError("a run started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    for cfg in _SPLIT_CONFIGS:
        run(cfg, workers=2)


def test_cli_import_loads_no_process_machinery():
    script = ("import sys\n"
              "import cvsym.cli\n"
              "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n")
    src = str(Path(runner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_keyrate_blocks_return_constant_size_summaries(monkeypatch):
    # What crosses back from a key-rate block is O(1) numbers, whether it
    # picked 1 % of its modes or all of them.
    returned = []
    real = runner._map_blocks

    def spy(fn, seed, blocks, workers):
        blocks = list(blocks)
        results = list(real(fn, seed, blocks, workers))
        returned.extend(zip(blocks, results))
        return iter(results)

    monkeypatch.setattr(runner, "_map_blocks", spy)
    for fraction in (0.01, 1.0):
        returned.clear()
        cfg = ExperimentConfig(kind="keyrate-report", seed=5, n=3 * runner.BLOCK_MODES + 7,
                               estimation_fraction=fraction)
        metrics = run(cfg).metrics
        assert len(returned) == 4
        for _, result in returned:
            assert len(pickle.dumps(result)) <= 2048
        assert sum(args[1] for (_, args), _ in returned) == metrics["estimation_modes"]


def test_keyrate_mode_limit_and_estimation_shares():
    # A key rate folds its block summaries as they arrive, so n has no cap below the float range,
    # and its blocks are made as they are read: the first of 10^15 modes' comes at once.
    ExperimentConfig(kind="keyrate-report", seed=1, n=10**15).validate()
    first = next(runner._keyrate_blocks(ExperimentConfig(kind="keyrate-report", seed=1, n=10**15)))
    assert first[0] == (5, 0) and first[1][:2] == (runner.BLOCK_MODES, runner.BLOCK_MODES // 10)
    # Each block's share of the m estimation modes is its proportional share, rounded.
    limit = 2 * (10**9 - 1)
    for fraction, m in ((1e-12, 4), (0.05, 10**8), (1.0, limit)):
        blocks = list(runner._keyrate_blocks(ExperimentConfig(kind="keyrate-report", seed=1, n=limit,
                                                              estimation_fraction=fraction)))
        assert sum(args[1] for _, args in blocks) == m
        for _, (size, share, *_) in blocks:
            assert share <= size and abs(share * limit - m * size) < limit


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(kind="convergence-sweep", seed=5, n_grid=[300], trials=[1000],
                     perturbation="phase-diffusion", phase_sigma=0.3),
    ExperimentConfig(kind="convergence-sweep", seed=5, n_grid=[3000], trials=[1000],
                     perturbation="phase-diffusion", phase_sigma=0.3),
    ExperimentConfig(kind="keyrate-report", seed=5, n=100_000),
    ExperimentConfig(kind="estimation-error", seed=5, n=10, trials=100, est_m=2000, **_MIXTURE),
], ids=["phase-sweep-300", "phase-sweep-3000", "keyrate", "estimation-2000"])
def test_one_pooled_block_peaks_within_the_block_budget(monkeypatch, cfg):
    # One full-size block of each pooled fan-out, as the run lays it out,
    # holds 2 to 2.6 MiB.  Key-rate and estimation blocks of 2^17 modes or
    # coordinate pairs peaked at 10.5 and 9.9 MiB.
    import tracemalloc

    class Captured(Exception):
        pass

    first = []
    real = runner._map_blocks

    def capture(fn, seed, blocks, workers):
        first.append((fn, seed, [next(iter(blocks))]))
        raise Captured

    monkeypatch.setattr(runner, "_map_blocks", capture)
    with pytest.raises(Captured):
        run(cfg)
    fn, seed, block = first[0]
    tracemalloc.start()
    try:
        list(real(fn, seed, block, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, peak / 2**20


def _whole_draw(cfg):
    """Every key-rate block's draw concatenated, as x and y of shape (n, 2), and the picked modes."""
    xs, ys, picked, start = [], [], [], 0
    for key, (modes, picks, model, modulation, _) in runner._keyrate_blocks(cfg):
        rng = runner._stream_rng(cfg.seed, *key)
        xs.append(alice_modulate(modulation, rng, modes))
        ys.append(channel_and_heterodyne(xs[-1], model, rng))
        picked.append(start + np.arange(picks))
        start += modes
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(picked)


def _picked_triples(cfg):
    x, y, picked = _whole_draw(cfg)
    return mode_triples(x[picked], y[picked])


def _assert_moments_close(got, want, rtol):
    for field in ("mean", "covariance", "third_abs", "lambda_min"):
        np.testing.assert_allclose(got[field], want[field], rtol=rtol, atol=0.0, err_msg=field)


def test_keyrate_report_matches_whole_array_reduction():
    # Reference: every block's draw concatenated and reduced as one array.
    cfg = ExperimentConfig(kind="keyrate-report", seed=5, n=runner.BLOCK_COORDS + 3,
                           postselection_rule="amplitude-threshold", postselection_threshold=2.0)
    metrics = run(cfg).metrics
    x, y, picked = _whole_draw(cfg)
    assert len(picked) == metrics["estimation_modes"]
    # Blocks summarize their own picked modes and the parent merges them, so
    # the sums run in another order than one pass over the gathered rows.
    _assert_moments_close(metrics["mode_moments"],
                          runner._summary_dict(MomentSummary.from_triples(mode_triples(x[picked], y[picked]))),
                          rtol=1e-12)
    est = sigma_est(np.column_stack([x[picked].ravel(), y[picked].ravel()]))
    gap = np.abs(est.matrix - cfg.channel().fourth_moment_matrix(ModulationParams(1, cfg.modulation_variance)))
    assert metrics["sigma_gap_max_se_units"] == pytest.approx((gap / est.stderr).max(), rel=1e-12)
    assert metrics["acceptance_fraction"] == postselect(x.ravel(), y.ravel(), cfg.region())[1]
    est = estimate_channel(x, y, cfg.modulation_variance, beta=cfg.reconciliation_efficiency)
    for field, name in (("transmittance_hat", "transmittance"), ("excess_noise_hat", "excess_noise"),
                        ("se_transmittance", "se_transmittance"), ("se_excess_noise", "se_excess_noise")):
        assert metrics[field] == pytest.approx(getattr(est, name), rel=1e-12), field


def _long_double_summary(triples):
    """Two-pass mean and covariance, E|V|^3 and lambda_min of (m, 3) triples in long double.

    lambda_min comes from one-sided Jacobi on the centred data columns, which
    never forms the covariance, so it keeps its relative accuracy where the
    covariance's own float64 rounding moves lambda_min (about 1e-4 at V = 1e6).
    """
    rows = np.array(np.asarray(triples, dtype=np.longdouble).T)
    norm_sq = np.einsum("ij,ij->j", rows, rows)
    third = np.mean(norm_sq * np.sqrt(norm_sq))
    mean = rows.mean(axis=1)
    rows -= mean[:, None]
    cov = rows @ rows.T / rows.shape[1]
    for _ in range(12):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            alpha, beta, gamma = rows[i] @ rows[i], rows[j] @ rows[j], rows[i] @ rows[j]
            if abs(gamma) <= 1e-18 * np.sqrt(alpha * beta):
                continue
            zeta = (beta - alpha) / (2 * gamma)
            t = np.copysign(1, zeta) / (abs(zeta) + np.sqrt(1 + zeta * zeta))
            c = 1 / np.sqrt(1 + t * t)
            rows[i], rows[j] = c * rows[i] - c * t * rows[j], c * t * rows[i] + c * rows[j]
    lam = np.einsum("ij,ij->i", rows, rows).min() / rows.shape[1]
    return {"mean": mean.astype(float), "covariance": cov.astype(float),
            "third_abs": float(third), "lambda_min": float(lam)}


def test_keyrate_mode_moments_match_long_double_reference():
    # Two blocks at V = 4: every field within 1e-12 relative.
    cfg = ExperimentConfig(kind="keyrate-report", seed=6, n=200_000)
    metrics = run(cfg).metrics
    want = _long_double_summary(_picked_triples(cfg))
    _assert_moments_close(metrics["mode_moments"], want, rtol=1e-12)


@pytest.mark.parametrize("t", [0.7, 1.0])
def test_keyrate_lambda_min_at_the_modulation_ceiling(t):
    # At V = 1e6 the covariance's condition number is about V^2: rounding the
    # exact covariance to float64 alone moves lambda_min by up to about 1e-4.
    cfg = ExperimentConfig(kind="keyrate-report", seed=6, n=200_000, modulation_variance=1e6,
                           transmittance=t, excess_noise=0.0)
    metrics = run(cfg).metrics
    want = _long_double_summary(_picked_triples(cfg))
    assert metrics["mode_moments"]["lambda_min"] == pytest.approx(want["lambda_min"], rel=1e-3)


def test_keyrate_blocks_that_pick_no_mode(monkeypatch):
    # Four picked modes over eight blocks: every other block picks none.
    picks = []
    real = runner._map_blocks

    def spy(fn, seed, blocks, workers):
        blocks = list(blocks)
        picks.extend(args[1] for _, args in blocks)
        return real(fn, seed, blocks, workers)

    monkeypatch.setattr(runner, "_map_blocks", spy)
    cfg = ExperimentConfig(kind="keyrate-report", seed=5, n=7 * runner.BLOCK_MODES + 7,
                           estimation_fraction=1e-6)
    metrics = run(cfg).metrics
    assert metrics["estimation_modes"] == 4 and picks == [0, 1, 0, 1, 0, 1, 0, 1], picks
    want = runner._summary_dict(MomentSummary.from_triples(_picked_triples(cfg)))
    _assert_moments_close(metrics["mode_moments"], want, rtol=1e-12)
    assert json.dumps(run(cfg, workers=2).metrics, sort_keys=True) == json.dumps(metrics, sort_keys=True)


@pytest.mark.parametrize("seed", range(5))
def test_keyrate_pick_reads_neither_data_nor_keep_mask(seed):
    # A postselected mixture keeps about 39 % of its modes.  The estimation
    # modes are summarized whether kept or not: their mean triple is the
    # exact mode mean, within 5 standard errors.
    cfg = ExperimentConfig(kind="keyrate-report", seed=seed, n=100_000, estimation_fraction=0.1,
                           perturbation="gaussian-mixture", modulation_variance=20.0,
                           mixture_weights=[0.85, 0.15], mixture_transmittances=[0.9, 0.15],
                           mixture_excess_noises=[0.01, 3.0],
                           postselection_rule="amplitude-threshold", postselection_threshold=4.0)
    metrics = run(cfg).metrics
    assert 0.3 < metrics["acceptance_fraction"] < 0.5
    exact = cfg.channel().mode_summary(ModulationParams(1, cfg.modulation_variance))
    se = np.sqrt(np.diag(exact.covariance) / metrics["estimation_modes"])
    z = (np.array(metrics["mode_moments"]["mean"]) - exact.mean) / se
    assert np.all(np.abs(z) <= 5.0), z


def test_keyrate_peak_memory_does_not_grow_with_the_picked_modes():
    # 4e6 modes, 4e5 or all of them picked: the run holds one block's arrays,
    # about 2.8 MiB, or 5.2 MiB when its moment rows cover every mode, and
    # O(1) numbers per block.  A pick drawn over all n modes took 16 bytes
    # per picked mode, 61 MiB at fraction 1.
    import tracemalloc

    for fraction in (0.1, 1.0):
        cfg = ExperimentConfig(kind="keyrate-report", seed=5, n=4_000_000, estimation_fraction=fraction)
        tracemalloc.start()
        try:
            run(cfg, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, (fraction, peak / 2**20)


def test_sweep_starts_one_pool_for_every_grid_point(monkeypatch):
    calls = []
    real = runner._map_blocks

    def spy(fn, seed, blocks, workers):
        blocks = list(blocks)
        calls.append(len(blocks))
        return real(fn, seed, blocks, workers)

    monkeypatch.setattr(runner, "_map_blocks", spy)
    cfg = ExperimentConfig(kind="convergence-sweep", seed=5, n_grid=[50, 2000], trials=[1000, 1000],
                           perturbation="phase-diffusion", phase_sigma=0.3)
    run(cfg)
    # 1000 trials of n = 50 fit one block; of n = 2000, 65 trials fit one.
    assert calls == [1 + 16]


def test_report_roundtrip(tmp_path):
    rep = run(_small_sweep())
    emit(rep, tmp_path)
    # Lossless round trip, wall clock included.  A sweep's metrics have only
    # string keys; design-compare's integer degree keys come back as strings.
    assert json.loads((tmp_path / "report.json").read_text()) == rep.to_dict()


def test_emitted_files_and_convergence_schema(tmp_path):
    rep = run(_small_sweep())
    paths = emit(rep, tmp_path)
    assert (tmp_path / "report.json") in paths
    table = tmp_path / "tables" / "convergence.csv"
    assert table in paths
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "n,tv,ks_max,be_bound_over_c"
    assert len(lines) == 3  # header + one row per grid point


def test_empty_sweep_gives_header_only_table(tmp_path):
    cfg = ExperimentConfig(kind="convergence-sweep", seed=1, n_grid=[], trials=[])
    rep = run(cfg)
    emit(rep, tmp_path)
    lines = (tmp_path / "tables" / "convergence.csv").read_text().strip().splitlines()
    assert lines == ["n,tv,ks_max,be_bound_over_c"]


def test_sweep_phase_diffusion_law_path():
    # Phase diffusion has no Wishart decomposition: the sweep draws its totals
    # from the phase-diffusion law and whitens them on the closed-form moments.
    cfg = ExperimentConfig(kind="convergence-sweep", seed=21, n_grid=[20, 60],
                           trials=[1500, 1500], perturbation="phase-diffusion",
                           phase_sigma=0.4)
    rep = run(cfg)
    rows = rep.metrics["grid"]
    assert len(rows) == 2
    for row in rows:
        assert np.isfinite(row["tv_estimate"])
        assert np.isfinite(row["ks_max_corrected"])
        assert abs(row["skew_x"]) < 1.0


def test_mixture_sweep_at_modulation_floor_has_finite_shape_stats():
    # Var X is 1e-200 per mode here: unstandardized, its square underflowed to 0.
    cfg = ExperimentConfig(kind="convergence-sweep", seed=23, n_grid=[100, 1000],
                           modulation_variance=MIN_MODULATION_VARIANCE, perturbation="gaussian-mixture",
                           mixture_weights=[0.85, 0.15], mixture_transmittances=[0.9, 0.15],
                           mixture_excess_noises=[0.01, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run(cfg).metrics["grid"]
    for row in rows:
        assert all(np.isfinite(row[f"{stat}_{col}"]) for stat in ("skew", "kurt") for col in "xyz")


def test_estimation_std_is_positive_at_modulation_floor():
    # Scaled errors are of order 1e-200 here: their unscaled squares underflowed to a zero std.
    cfg = ExperimentConfig(kind="estimation-error", seed=0, n=10, trials=50, est_m=200,
                           modulation_variance=MIN_MODULATION_VARIANCE)
    metrics = run(cfg).metrics
    assert np.all(np.array(metrics["std"]) > 0)
    assert np.all(np.array(metrics["se_mean"]) > 0)


@pytest.mark.parametrize("config", [
    {"kind": "convergence-sweep", "n_grid": [1, 100], "trials": 1000},
    {"kind": "keyrate-report", "n": 2000, "transmittance": 1.0, "excess_noise": 0.0},
    {"kind": "keyrate-report", "n": 2000, "transmittance": 1.0, "excess_noise": 1.0},
])
def test_largest_modulation_variance_runs(config):
    # T = 1 key rates are the first to find the triple covariance degenerate as V grows.
    run(ExperimentConfig(seed=2, modulation_variance=MAX_MODULATION_VARIANCE, **config))


def test_sweep_draws_no_moment_prepass(monkeypatch):
    # The per-mode summary is exact: no single-mode draw, and every row
    # reports model.mode_moments bit for bit.
    calls = []
    real = runner.coordinate_triples

    def spy(n, trials, *args):
        calls.append((n, trials))
        return real(n, trials, *args)

    monkeypatch.setattr(runner, "coordinate_triples", spy)
    for perturbation in ({}, {"perturbation": "phase-diffusion", "phase_sigma": 0.3}):
        cfg = ExperimentConfig(kind="convergence-sweep", seed=6, n_grid=[20, 50, 100],
                               trials=[1500, 1500, 1500], **perturbation)
        rows = run(cfg).metrics["grid"]
        mu, cov = cfg.channel().mode_moments(ModulationParams(1, cfg.modulation_variance))
        for row in rows:
            assert row["mode_moments"]["mean"] == mu.tolist()
            assert row["mode_moments"]["covariance"] == cov.tolist()
    # Only the phase-diffusion sweep draws through coordinate_triples, and
    # only its grid points' trials.
    assert sorted({n for n, _ in calls}) == [20, 50, 100]
    assert sum(trials for _, trials in calls) == 4500


def test_phase_diffusion_sweep_is_centred_on_exact_mean(monkeypatch):
    # The diagnostics whiten z = (totals - mean) cov^(-1/2).  Centring on a
    # Monte Carlo mode mean shifts z by sqrt(n) times that mean's error,
    # several standard errors of a column mean at this n and trial count
    # (7.7 in the first column at this seed).
    trials = 4000
    column_means = []
    real = runner.empirical_tv_3d

    def spy(samples, mean, cov, rng):
        vals, vecs = np.linalg.eigh(cov)
        z = (samples - mean) @ (vecs / np.sqrt(vals)) @ vecs.T
        column_means.append(z.mean(axis=0))
        return real(samples, mean, cov, rng)

    monkeypatch.setattr(runner, "empirical_tv_3d", spy)
    cfg = ExperimentConfig(kind="convergence-sweep", seed=6, n_grid=[1000], trials=[trials],
                           perturbation="phase-diffusion", phase_sigma=0.3,
                           modulation_variance=4.0, transmittance=0.7, excess_noise=0.02)
    run(cfg)
    assert np.all(np.abs(column_means[0]) < 5.0 / np.sqrt(trials))


def test_phase_diffusion_sweep_whitens_on_exact_mode_moments(monkeypatch):
    passed = []
    real = runner.empirical_tv_3d

    def spy(samples, mean, cov, rng):
        passed.append((mean, cov))
        return real(samples, mean, cov, rng)

    monkeypatch.setattr(runner, "empirical_tv_3d", spy)
    cfg = ExperimentConfig(kind="convergence-sweep", seed=8, n_grid=[20, 60], trials=[1500, 1500],
                           perturbation="phase-diffusion", phase_sigma=0.8)
    run(cfg)
    mu, cov = cfg.channel().mode_moments(ModulationParams(1, cfg.modulation_variance))
    assert len(passed) == 2
    for n, (mean_passed, cov_passed) in zip(cfg.n_grid, passed):
        assert np.array_equal(mean_passed, n * mu)
        assert np.array_equal(cov_passed, n * cov)


def test_invariant_audit_kind():
    cfg = ExperimentConfig(kind="invariant-audit", seed=3, n=4, trials=300)
    rep = run(cfg)
    results = rep.metrics["results"]
    assert set(results) == {"y_first_coord", "mode0_dot", "mode0_symplectic", "mode0_x_power"}
    assert not rep.metrics["underpowered"]
    assert rep.metrics["invariants_a"]["symp_xy"] == -rep.metrics["invariants_b"]["symp_xy"]


def test_design_compare_kind():
    cfg = ExperimentConfig(kind="design-compare", seed=4, n=1, trials=1,
                           design_kind="roots-of-unity", design_size=4,
                           design_degree=1, design_samples=64)
    rep = run(cfg)
    assert rep.metrics["design_size"] == 4
    assert set(rep.metrics["max_discrepancy_by_degree"]) == {1, 2}


def test_design_compare_haar_side_matches_channel_moments():
    # The benchmark's design-compare check at its sizes: second moments
    # E|a_k|^2 = 2<x^2> and E|b_k|^2 = 2<y^2>, and 0 for every p != q.
    cfg = ExperimentConfig(kind="design-compare", seed=7, n=40, trials=1,
                           design_kind="haar-sample", design_size=8,
                           design_degree=1, design_samples=100)
    m = run(cfg).metrics
    mean_x, mean_y, _ = cfg.channel().mode_moments(ModulationParams(cfg.n, cfg.modulation_variance))[0]
    checked = 0
    for key, (re, im) in m["moments_haar"].items():
        side, _, p, q = key.split(":")
        if p == q == "1":
            expected = mean_x if side == "x" else mean_y
        elif p != q:
            expected = 0.0
        else:
            continue
        checked += 1
        se = m["stderr_by_degree"][int(p) + int(q)]
        assert abs(complex(re, im) - expected) <= 5 * se, (key, complex(re, im), expected, se)
    assert checked == 2 * 40 * 5  # (1, 0), (0, 1), (2, 0), (0, 2) and (1, 1)


def test_validation_runs_no_design_average(monkeypatch):
    # The design's rules are checked without averaging over a stand-in design.
    def fail(*args, **kwargs):
        raise AssertionError("validation ran the design average")

    monkeypatch.setattr(symmetrize, "_monomial_exponents", fail)
    monkeypatch.setattr(np.linalg, "qr", fail)
    ExperimentConfig(kind="design-compare", seed=1, n=1, trials=1, design_degree=8).validate()


def test_report_json_is_strict_and_flags_nonfinite(tmp_path):
    rep = run(ExperimentConfig(kind="design-compare", seed=4, n=1, trials=1, design_samples=8))
    emit(rep, tmp_path / "finite")
    # A finite report is written as before: plain compact json.dumps, no flag.
    finite_text = (tmp_path / "finite" / "report.json").read_text()
    assert finite_text == json.dumps(rep.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    rep.metrics["se_excess_noise"] = float("inf")
    rep.metrics["grid"] = [{"tv": 0.5}, {"tv": float("nan")}]
    emit(rep, tmp_path / "nonfinite")
    assert sorted(p.name for p in (tmp_path / "nonfinite").iterdir()) == ["report.json", "tables"]

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    data = json.loads((tmp_path / "nonfinite" / "report.json").read_text(), parse_constant=reject)
    assert data["metrics"]["se_excess_noise"] is None
    assert data["metrics"]["grid"] == [{"tv": 0.5}, {"tv": None}]
    assert data["meta"]["nonfinite"] == ["metrics.grid.1.tv", "metrics.se_excess_noise"]


def test_keyrate_report_kind():
    cfg = ExperimentConfig(kind="keyrate-report", seed=6, n=50_000, trials=1,
                           transmittance=0.9, excess_noise=0.01, modulation_variance=10.0,
                           postselection_rule="amplitude-threshold", postselection_threshold=1.0)
    rep = run(cfg)
    m = rep.metrics
    assert abs(m["transmittance_hat"] - 0.9) <= 4 * m["se_transmittance"]
    assert m["rate"] > 0.0
    assert 0.0 < m["acceptance_fraction"] < 1.0
    assert all(nu >= 1.0 - 1e-9 for nu in m["symplectic_eigenvalues"])
    assert m["be_bound_over_c"] > 0.0


def test_keyrate_sigma_gap_under_mixture_channel():
    # The truth is the mixture's fourth-moment matrix, not sigma_g of the
    # averaged moments (6.8 % off in its largest entry, 10.3 SE at this n).
    cfg = ExperimentConfig(kind="keyrate-report", seed=10, n=1_000_000, modulation_variance=20.0,
                           perturbation="gaussian-mixture", mixture_weights=[0.85, 0.15],
                           mixture_transmittances=[0.9, 0.15], mixture_excess_noises=[0.01, 3.0])
    assert run(cfg).metrics["sigma_gap_max_se_units"] <= 5.0


def test_keyrate_sigma_gap_under_phase_diffusion():
    # The truth has <x^2 y^2> = a b + 2 E[cos^2 phi] c^2; with (E cos phi)^2
    # in its place this run read 10.0 standard errors.
    cfg = ExperimentConfig(kind="keyrate-report", seed=0, n=1_000_000,
                           perturbation="phase-diffusion", phase_sigma=0.8)
    assert run(cfg).metrics["sigma_gap_max_se_units"] <= 5.0


def test_estimation_error_kind():
    cfg = ExperimentConfig(kind="estimation-error", seed=7, n=10, trials=2000, est_m=200)
    rep = run(cfg)
    assert rep.metrics["max_mean_pull"] <= 4.0
    assert rep.metrics["m"] == 200


def test_estimation_error_mixture_channel():
    cfg = ExperimentConfig(kind="estimation-error", seed=8, n=10, trials=1500, est_m=200, **_MIXTURE)
    rep = run(cfg)
    assert rep.metrics["max_mean_pull"] <= 4.0


def test_every_report_carries_invariant_checks():
    rep = run(ExperimentConfig(kind="invariant-audit", seed=9, n=3, trials=120))
    checks = rep.metrics["invariant_checks"]
    assert checks["group_orthogonality_residual"] <= 1e-12
    assert checks["group_symplecticity_residual"] <= 1e-12
    assert checks["invariant_relative_deviation"] <= 1e-10
    assert checks["witness_mapping_residual"] <= 1e-8


def test_cli_full_run(tmp_path, capsys):
    cfg = _small_sweep()
    cfg_path = _write_config(cfg, tmp_path / "config.json")
    code = main(["convergence-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "tables" / "convergence.csv").exists()


def test_cli_validation_error_exit_code(tmp_path, capsys):
    cfg = ExperimentConfig(kind="convergence-sweep", seed=1, n_grid=[10], trials=10,
                           excess_noise=-1.0)
    path = Path(_write_config(cfg, tmp_path / "bad.json"))
    code = main(["convergence-sweep", "--config", str(path)])
    assert code == 2
    assert "excess_noise" in capsys.readouterr().err


def test_cli_validation_error_loads_no_scipy_stats(tmp_path):
    # scipy.stats is most of the import time; only KS p-values need it.
    cfg = ExperimentConfig(kind="convergence-sweep", seed=1, n_grid=[10], trials=10,
                           excess_noise=-1.0)
    path = _write_config(cfg, tmp_path / "bad.json")
    script = ("import sys\n"
              "from cvsym.cli import main\n"
              f"code = main(['convergence-sweep', '--config', {str(path)!r}])\n"
              "print('scipy.stats' in sys.modules)\n"
              "sys.exit(code)\n")
    src = str(Path(runner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "excess_noise" in done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("field_name, value", [
    ("transmittance", "0.7"),
    ("excess_noise", float("nan")),
    ("seed", True),
    ("mixture_weights", [0.5, float("nan")]),
])
def test_cli_rejects_mistyped_field(tmp_path, capsys, field_name, value):
    config = {"kind": "estimation-error", "seed": 1, "n": 1, "trials": 20, "est_m": 10,
              "out_dir": str(tmp_path / "out"), **_MIXTURE, field_name: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["estimation-error", "--config", str(path)])
    errors = capsys.readouterr().err
    assert code == 2
    assert field_name in errors
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, field_name", [
    ({"kind": "invariant-audit", "n": 1}, "n"),  # the default pair needs two modes
    ({"kind": "invariant-audit", "n": 2, "audit_dot_xy": 100}, "audit_dot_xy"),
    ({"kind": "keyrate-report", "n": 10}, "n"),
    ({"kind": "convergence-sweep", "n_grid": [10], "trials": 50}, "trials"),
    # The Berry-Esseen bound of the triples leaves the float range.
    ({"kind": "keyrate-report", "n": 2000, "modulation_variance": 1e-300}, "modulation_variance"),
    ({"kind": "estimation-error", "n": 1, "est_m": 10 ** 23}, "est_m"),
    ({"kind": "design-compare", "n": 1, "design_degree": 10 ** 8}, "design_degree"),
    ({"kind": "design-compare", "n": 1, "design_size": 0}, "design_size"),
    # One decade over the ceiling; at 1e8 this sweep's reference covariance is singular.
    ({"kind": "convergence-sweep", "n_grid": [100, 1000], "modulation_variance": 1e7}, "modulation_variance"),
    # Past the float range, the one upper limit on a key rate's n.
    ({"kind": "keyrate-report", "n": 10 ** 309}, "n"),
])
def test_cli_rejects_config_that_cannot_run(tmp_path, capsys, config, field_name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "out_dir": str(tmp_path / "out"), **config}))
    assert main([config["kind"], "--config", str(path)]) == 2
    assert f"{field_name}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_estimation_error_under_phase_diffusion(tmp_path, capsys):
    cfg = ExperimentConfig(kind="estimation-error", seed=1, n=1, trials=20, est_m=10,
                           perturbation="phase-diffusion", phase_sigma=0.3)
    path = _write_config(cfg, tmp_path / "config.json")
    assert main(["estimation-error", "--config", str(path)]) == 2
    assert "perturbation" in capsys.readouterr().err


@pytest.mark.parametrize("top_level", [5, None, [[1]]])
def test_cli_rejects_non_object_config(tmp_path, capsys, top_level):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(top_level))
    assert main(["keyrate-report", "--config", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_cli_rejects_postselected_sweep(tmp_path, capsys):
    cfg = ExperimentConfig(kind="convergence-sweep", seed=1, n_grid=[10], trials=10,
                           postselection_rule="amplitude-threshold", postselection_threshold=1.0)
    path = _write_config(cfg, tmp_path / "config.json")
    assert main(["convergence-sweep", "--config", str(path)]) == 2
    assert "postselection_rule" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_nonpositive_workers(tmp_path, capsys, workers):
    cfg_path = _write_config(_small_sweep(), tmp_path / "config.json")
    code = main(["convergence-sweep", "--config", str(cfg_path), "--workers", workers,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "workers" in err
    assert not (tmp_path / "out").exists()


def test_cli_kind_mismatch(tmp_path, capsys):
    cfg_path = _write_config(_small_sweep(), tmp_path / "config.json")
    code = main(["keyrate-report", "--config", str(cfg_path)])
    assert code == 2
    assert "kind" in capsys.readouterr().err


def test_cli_seed_override_changes_metrics(tmp_path):
    cfg_path = _write_config(_small_sweep(seed=5), tmp_path / "config.json")
    assert main(["convergence-sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "a"), "--format", "json"]) == 0
    assert main(["convergence-sweep", "--config", str(cfg_path), "--seed", "99",
                 "--out", str(tmp_path / "b"), "--format", "json"]) == 0
    rep_a = json.loads((tmp_path / "a" / "report.json").read_text())
    rep_b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep_a["metrics"] != rep_b["metrics"]
    assert rep_b["config"]["seed"] == 99


def test_cli_unwritable_output_is_runtime_error(tmp_path, capsys):
    cfg_path = _write_config(_small_sweep(), tmp_path / "config.json")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["convergence-sweep", "--config", str(cfg_path),
                 "--out", str(blocker / "nested")])
    assert code == 1


def test_cli_json_only_format(tmp_path):
    cfg_path = _write_config(_small_sweep(), tmp_path / "config.json")
    out = tmp_path / "out"
    assert main(["convergence-sweep", "--config", str(cfg_path),
                 "--out", str(out), "--format", "json"]) == 0
    assert (out / "report.json").exists()
    assert not (out / "tables").exists()
