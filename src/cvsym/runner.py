"""Experiment orchestration: deterministic seeding, worker fan-out, metric assembly.

Seeding: every random stream derives from the master seed through
``SeedSequence(seed, spawn_key=(stream, ...))`` with fixed stream ids and
block indices, so results are identical across runs and across worker
counts.  Work is cut into fixed-size blocks before scheduling, each a
(stream key, args) pair; :func:`_map_blocks` calls a library kernel on each
block's args and its own stream.  Workers only change how blocks are
executed, never what a block computes; results are consumed in block order
as they arrive.  A run looks its kernel up by module-level name when it
starts, so a wrapper installed on that name sees every block's call.

Workers are threads: block kernels are array-level numpy, which releases
the GIL, so blocks overlap with no process start-up or pickling.  A
per-element Python loop in a kernel would hold the GIL and serialize them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import chain, islice

import numpy as np

from . import __version__
# estimate_channel stays bound here: cvbench/spans.py wraps it as a runner-level name.
from .keyrate import ChannelMoments, estimate_channel, gaussian_keyrate  # noqa: F401
from .linalg import (
    haar_orthogonal_symplectic_stack,
    orthogonality_residual,
    symplecticity_residual,
)
from .protocol import (
    ModulationParams,
    alice_modulate,
    channel_and_heterodyne,
    postselect,
)
from .report import ExperimentReport
from .samples import InvariantTriple, SampleBatch, mode_triples
# sigma_est stays bound here as well: cvbench/spans.py wraps it as a runner-level name.
from .stats import (  # noqa: F401
    BivariateMixture,
    Moments,
    MomentSummary,
    SigmaEstimate,
    berry_esseen_bound,
    cholesky_2x2,
    columnwise_shape_stats,
    empirical_tv_3d,
    fourth_moment_moments,
    scaled_estimation_errors,
    sigma_est,
    summarize_scaled_errors,
    triple_moments,
)
from .symmetrize import (
    audit_report,
    batch_with_invariants,
    collect_audit_samples,
    finite_design_average,
    haar_design,
    roots_of_unity_design,
    witness_transform,
)

# Stream ids for SeedSequence spawn keys; retired ids 1 (moment pre-pass) and 6 (estimation split) stay unused.
_S_SWEEP, _S_DIAG, _S_AUDIT, _S_DESIGN = 0, 2, 3, 4
_S_KEYRATE, _S_ESTIMATION, _S_SELFCHECK = 5, 7, 8

# Float64 values a block keeps alive, 2 MiB (a per-core L2).  A phase-diffusion sweep block holds two
# (trials, n) arrays; key-rate and estimation blocks hold about ten per mode or coordinate pair, so they
# take BLOCK_MODES.  Blocks are fixed before scheduling: results depend on them, never on the worker count.
BLOCK_COORDS = 1 << 18
BLOCK_MODES = BLOCK_COORDS // 8


def _stream_rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _summary_dict(summary):
    return {name: np.asarray(value).tolist() for name, value in vars(summary).items()}


def _map_blocks(fn, seed, blocks, workers):
    """Yield ``fn(*args, rng)`` for every (stream key, args) block in block order, rng drawing the key's stream.

    One worker runs each block on the calling thread when its result is asked for; a pool keeps at most
    2 x workers blocks submitted but unconsumed, and joins its threads before an error reaches the caller."""
    def call(block):
        key, args = block
        return fn(*args, _stream_rng(seed, *key))

    # Each thread holds a block; more threads than CPUs or blocks only add memory.
    blocks = iter(blocks)
    head = list(islice(blocks, min(workers, os.cpu_count() or 1)))
    workers, blocks = len(head), chain(head, blocks)
    if workers <= 1:
        yield from map(call, blocks)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = []
        for block in blocks:
            pending.append(pool.submit(call, block))
            if len(pending) == 2 * workers:
                yield pending.pop(0).result()
        for future in pending:
            yield future.result()


def _blocks(total, block_size):
    """(block index, block length) pairs covering ``total`` items in order, made as they are read."""
    return ((index, min(block_size, total - start)) for index, start in enumerate(range(0, total, block_size)))


# ---------------------------------------------------------------------------
# triple sampling


def wishart_triples(n, trials, weights, components, rng):
    """Exact per-trial totals (X^n, Y^n, Z^n) for per-mode Gaussian(-mixture) channels.

    Grouped by component, a trial's scatter matrix is a sum of independent
    2x2 Wisharts with 2*m_k degrees of freedom, sampled through Bartlett
    factors: three scalar draws per component instead of O(n) coordinate
    draws.  ``tests/test_triple_laws.py`` checks the law against the
    coordinate-by-coordinate simulation.
    """
    out = np.zeros((trials, 3))
    # A lone component's count is the scalar n in every trial; no multinomial is drawn.
    counts = rng.multinomial(n, weights, size=trials).T if len(weights) > 1 else [n]
    for m, (a, b, c) in zip(counts, components):
        l11, l21, l22 = cholesky_2x2(a, b, c)
        nonzero = m > 0
        c11 = 2.0 * rng.standard_gamma(m, size=trials)
        c22 = 2.0 * rng.standard_gamma(np.maximum(m - 0.5, 0.0), size=trials) * nonzero
        z21 = rng.standard_normal(trials) * nonzero
        a11 = np.sqrt(c11)
        b11 = l11 * a11
        b21 = l21 * a11 + l22 * z21
        b22 = l22 * np.sqrt(c22)
        out[:, 0] += b11 * b11
        out[:, 2] += b11 * b21
        out[:, 1] += b21 * b21 + b22 * b22
    return out


def coordinate_triples(n, trials, model, modulation, rng):
    """Per-trial totals (X^n, Y^n, Z^n) of n modes under phase diffusion, drawn from their exact law.

    Gaussian and mixture channels have :func:`wishart_triples` instead.
    Write a mode's input as x = r e and its noise in the frame (e, e_perp) as
    (p, q) ~ N(0, s^2 I), s^2 = 1 + T xi / 2; then X = r^2,
    Z = sqrt(T) r^2 cos(phi) + r p and
    Y = T r^2 + 2 sqrt(T) r (p cos(phi) + q sin(phi)) + p^2 + q^2.  Summed
    over modes, the 2n noise coordinates enter only through their
    projections on two vectors u, w with |u|^2 = |w|^2 = X and
    u.w = C = sum r^2 cos(phi), and through their squared norm.  So per
    mode r^2 = V Exp(1), V = ``modulation.variance_a``, and
    phi ~ N(0, sigma^2), and per trial p1, p2 ~ N(0, s^2) and
    Q = s^2 chi^2_{2n-2} (zero at n = 1), drawn in that order:

        X = sum r^2,  Z = sqrt(T) C + sqrt(X) p1,
        Y = T X + 2 sqrt(T) (C / sqrt(X) p1 + sqrt(X - C^2 / X) p2)
            + p1^2 + p2^2 + Q.

    Only r^2 and cos(phi) are (trials, n) arrays.
    """
    t = model.transmittance
    noise_var = 1.0 + t * model.excess_noise / 2.0
    r2 = rng.standard_exponential((trials, n))
    r2 *= modulation.variance_a
    cos_phi = rng.standard_normal((trials, n))
    cos_phi *= model.perturbation.sigma
    np.cos(cos_phi, out=cos_phi)
    x_tot = r2.sum(axis=1)
    c = np.einsum("ij,ij->i", r2, cos_phi)
    p1, p2 = np.sqrt(noise_var) * rng.standard_normal((2, trials))
    q = 2.0 * noise_var * rng.standard_gamma(n - 1.0, size=trials)

    root_x = np.sqrt(x_tot)
    # At X = 0, u and w vanish and so do both noise projections.
    along = np.divide(c, root_x, out=np.zeros(trials), where=root_x > 0)
    across = np.sqrt(np.maximum(x_tot - along * along, 0.0))
    y_tot = t * x_tot + 2.0 * np.sqrt(t) * (along * p1 + across * p2) + p1 * p1 + p2 * p2 + q
    z_tot = np.sqrt(t) * c + root_x * p1
    return np.column_stack([x_tot, y_tot, z_tot])


def _sweep_block_size(n, exact):
    return 1 << 18 if exact else max(1, BLOCK_COORDS // (2 * n))


def _loglog_slope(ns, values):
    points = [(np.log10(n), np.log10(v)) for n, v in zip(ns, values) if v > 0]
    if len(points) < 2:
        return None, len(points)
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    return float(np.polyfit(xs, ys, 1)[0]), len(points)


def _run_convergence_sweep(config, workers):
    model = config.channel()
    # Per-mode moments do not depend on n: one exact summary serves every grid point.
    single_mode = ModulationParams(1, config.modulation_variance)
    mode_summary = model.mode_summary(single_mode)
    exact = model.mixture_components(single_mode) is not None
    kernel = wishart_triples if exact else coordinate_triples

    # One pool for every grid point's blocks, so grid points overlap; the run
    # holds one point's totals, three floats per trial, at a time.
    grid = list(zip(config.n_grid, config.trials_for_grid()))
    blocks = []
    for grid_index, (n, trials) in enumerate(grid):
        modulation = ModulationParams(n, config.modulation_variance)
        law = model.mixture_components(modulation) if exact else (model, modulation)
        blocks += [((_S_SWEEP, grid_index, bi), (n, bt, *law))
                   for bi, bt in _blocks(trials, _sweep_block_size(n, exact))]
    parts = _map_blocks(kernel, config.seed, blocks, workers)

    grid_rows = []
    for grid_index, (n, trials) in enumerate(grid):
        size = _sweep_block_size(n, exact)
        # A lone block is the totals; more are written into place as they arrive.
        totals = next(parts) if trials <= size else np.empty((trials, 3))
        for start in range(0, trials, size) if trials > size else ():
            totals[start:start + size] = next(parts)

        diag = empirical_tv_3d(totals, n * mode_summary.mean, n * mode_summary.covariance,
                               _stream_rng(config.seed, _S_DIAG, grid_index))
        # Shape statistics are per-component (skew/kurtosis are affine
        # invariant), so they come from the raw totals, not the whitened mix.
        skew, kurt, se_skew, se_kurt = columnwise_shape_stats(totals)
        del totals
        bound_over_c = berry_esseen_bound(mode_summary, n)

        row = {
            "n": n,
            "trials": int(trials),
            "tv_estimate": diag["tv_estimate"],
            "tv_bias_bound": diag["tv_bias_bound"],
            "ks_max": diag["ks_max"],
            "ks_floor": diag["ks_floor"],
            "ks_max_corrected": diag["ks_max_corrected"],
            "be_bound_over_c": bound_over_c,
            "be_bound": config.be_constant * bound_over_c,
            "skew_x": float(skew[0]), "skew_y": float(skew[1]), "skew_z": float(skew[2]),
            "kurt_x": float(kurt[0]), "kurt_y": float(kurt[1]), "kurt_z": float(kurt[2]),
            "se_skew": se_skew, "se_kurt": se_kurt,
            "acceptance_fraction": 1.0,
            "mode_moments": _summary_dict(mode_summary),
            "ks_detail": diag,
        }
        grid_rows.append(row)

    ns = [row["n"] for row in grid_rows]
    slope_ks, used_ks = _loglog_slope(ns, [row["ks_max_corrected"] for row in grid_rows])
    slope_tv, used_tv = _loglog_slope(ns, [row["tv_estimate"] for row in grid_rows])
    return {
        "grid": grid_rows,
        "slope_ks_corrected": slope_ks,
        "slope_ks_points_used": used_ks,
        "slope_tv": slope_tv,
        "slope_tv_points_used": used_tv,
    }


# ---------------------------------------------------------------------------
# invariant audit


def _run_invariant_audit(config, workers):
    nx, ny, dot, symp = config.audit_invariants()
    pair = tuple(batch_with_invariants(config.n, nx, ny, dot, s) for s in (symp, -symp))
    blocks = [((_S_AUDIT, bi), (pair, bt)) for bi, bt in _blocks(config.trials, 512)]
    parts = list(_map_blocks(collect_audit_samples, config.seed, blocks, workers))
    samples = {name: tuple(np.concatenate([part[name][side] for part in parts]) for side in (0, 1))
               for name in parts[0]}
    out = audit_report(samples, config.trials)
    out["invariants_a"] = {"norm_x_sq": nx, "norm_y_sq": ny, "dot_xy": dot, "symp_xy": symp}
    out["invariants_b"] = {"norm_x_sq": nx, "norm_y_sq": ny, "dot_xy": dot, "symp_xy": -symp}
    return out


# ---------------------------------------------------------------------------
# design compare


def _run_design_compare(config, workers):
    del workers  # cheap enough to run in-process
    model = config.channel()
    modulation = ModulationParams(config.n, config.modulation_variance)
    design_rng = _stream_rng(config.seed, _S_DESIGN, 0)
    if config.design_kind == "roots-of-unity":
        design = roots_of_unity_design(config.design_size)
    else:
        design = haar_design(config.n, config.design_size, design_rng)

    def sampler(rng):
        x = alice_modulate(modulation, rng)
        y = channel_and_heterodyne(x, model, rng)
        return SampleBatch(x, y)

    report = finite_design_average(sampler, design, config.design_degree,
                                   _stream_rng(config.seed, _S_DESIGN, 1),
                                   samples=config.design_samples)
    return report.to_dict()


# ---------------------------------------------------------------------------
# keyrate report


def _keyrate_blocks(config):
    """Every key-rate block, lazily: its stream key, then its modes and how many of its leading modes it summarizes.

    The block of modes [s, e) of n takes floor(m e / n) - floor(m s / n) of
    the m estimation modes, so the shares sum to m and none exceeds its
    block.  Every mode is drawn independently, so a pick that never looks at
    the data has the law of a uniform random one.
    """
    n = config.n
    # Four modes at least: the covariance of fewer 3-d triples is singular.
    m = max(4, int(np.ceil(config.estimation_fraction * n)))
    model, region = config.channel(), config.region()
    modulation = ModulationParams(1, config.modulation_variance)
    return (((_S_KEYRATE, bi), (bm, m * (bi * BLOCK_MODES + bm) // n - m * bi * BLOCK_MODES // n,
                                model, modulation, region))
            for bi, bm in _blocks(n, BLOCK_MODES))


def _keyrate_block(modes, picks, model, modulation, region, rng):
    """Kept-mode count, channel moments, and the triple and fourth-moment summaries of the first ``picks`` modes."""
    x = alice_modulate(modulation, rng, modes)
    y = channel_and_heterodyne(x, model, rng)
    mask, _ = postselect(x.ravel(), y.ravel(), region)
    kept, moments = int(np.count_nonzero(mask)), ChannelMoments.from_data(x, y)
    x, y = x[:picks], y[:picks]
    return kept, moments, triple_moments(mode_triples(x, y)), fourth_moment_moments(x, y)


def _run_keyrate_report(config, workers):
    # Each block draws and reduces its own data, its picked modes included,
    # and returns O(1) summaries; folded in block order as they arrive, they
    # do not depend on the worker count, and the run holds O(workers) of them.
    parts = _map_blocks(_keyrate_block, config.seed, _keyrate_blocks(config), workers)
    kept, moments, triples, products = next(parts)
    for part_kept, part_moments, part_triples, part_products in parts:
        kept, moments = kept + part_kept, ChannelMoments.merge([moments, part_moments])
        triples, products = Moments.merge([triples, part_triples]), Moments.merge([products, part_products])
    model, modulation = config.channel(), ModulationParams(1, config.modulation_variance)

    estimate = moments.estimate(config.modulation_variance, beta=config.reconciliation_efficiency)
    rate = gaussian_keyrate(estimate)
    acceptance = kept / config.n

    summary = MomentSummary.from_parts([triples])
    bound_over_c = berry_esseen_bound(summary, config.n)

    est = SigmaEstimate.from_moments(products)
    gap = np.abs(est.matrix - model.fourth_moment_matrix(modulation))
    with np.errstate(divide="ignore", invalid="ignore"):
        gap_in_se = np.where(est.stderr > 0, gap / est.stderr, 0.0)

    return {
        "modes": config.n,
        "transmittance_hat": estimate.transmittance,
        "se_transmittance": estimate.se_transmittance,
        "excess_noise_hat": estimate.excess_noise,
        "se_excess_noise": estimate.se_excess_noise,
        "mode_moments": _summary_dict(summary),
        "v_variance": estimate.v_variance,
        "beta": estimate.beta,
        "rate": rate.rate,
        "mutual_information": rate.mutual_information,
        "holevo_bound": rate.holevo_bound,
        "symplectic_eigenvalues": list(rate.symplectic_eigenvalues),
        "conditional_eigenvalue": rate.conditional_eigenvalue,
        "no_key": rate.no_key,
        "acceptance_fraction": acceptance,
        "estimation_modes": triples.count,
        "be_bound_over_c": bound_over_c,
        "be_bound": config.be_constant * bound_over_c,
        "sigma_gap_max_se_units": float(gap_in_se.max()),
    }


# ---------------------------------------------------------------------------
# estimation error


def _run_estimation_error(config, workers):
    model = config.channel()
    # Conditioned on its channel component every coordinate pair is
    # bivariate normal; the fourth-moment truth is the weighted component sum.
    weights, comps = model.mixture_components(ModulationParams(config.n, config.modulation_variance))
    law = BivariateMixture(tuple(weights), tuple(comps))
    m = config.est_m
    blocks = [((_S_ESTIMATION, bi), (law, m, bt)) for bi, bt in _blocks(config.trials, max(1, BLOCK_MODES // m))]
    errors = np.concatenate(list(_map_blocks(scaled_estimation_errors, config.seed, blocks, workers)), axis=0)
    report = summarize_scaled_errors(errors, m)
    out = report.to_dict()
    with np.errstate(divide="ignore", invalid="ignore"):
        pull = np.where(report.se_mean > 0, np.abs(report.mean) / report.se_mean, 0.0)
    out["max_mean_pull"] = float(pull.max())
    return out


# ---------------------------------------------------------------------------
# self-check recorded in every report


def _invariant_selfcheck(seed, n=8, samples=16):
    """Exercise the module-level invariant checks and record their residuals."""
    rng = _stream_rng(seed, _S_SELFCHECK)
    stack = haar_orthogonal_symplectic_stack(n, samples, rng)
    orth = float(np.max(orthogonality_residual(stack)))
    symp = float(np.max(symplecticity_residual(stack)))

    x = rng.standard_normal(2 * n)
    y = rng.standard_normal(2 * n)
    # (side, 1, 1, 2n), so that one product gives each vector's image v @ r.T
    # under every element r, and one reduction every image's invariants.
    pair = np.stack([x, y])[:, None, None]
    before = InvariantTriple.from_coords(*pair[:, 0])
    after = InvariantTriple.from_coords(*(pair @ stack.mT)[:, :, 0])
    worst = np.max(list(before.relative_deviations(after).values()))

    witness_resid = 0.0
    for r in stack[:4]:
        source = SampleBatch(rng.standard_normal(2 * n), rng.standard_normal(2 * n))
        target = SampleBatch(source.x @ r.T, source.y @ r.T)
        witness = witness_transform(source, target)
        scale = max(np.linalg.norm(source.x), np.linalg.norm(source.y))
        resid = max(np.max(np.abs(witness.apply(source.x) - target.x)),
                    np.max(np.abs(witness.apply(source.y) - target.y))) / scale
        witness_resid = max(witness_resid, float(resid))
    return {
        "group_orthogonality_residual": orth,
        "group_symplecticity_residual": symp,
        "invariant_relative_deviation": float(worst),
        "witness_mapping_residual": witness_resid,
    }


_RUNNERS = {
    "convergence-sweep": _run_convergence_sweep,
    "invariant-audit": _run_invariant_audit,
    "design-compare": _run_design_compare,
    "keyrate-report": _run_keyrate_report,
    "estimation-error": _run_estimation_error,
}


def run(config, workers=1):
    """Run one experiment; deterministic given (config, seed) for any worker count."""
    config.validate()
    started = time.perf_counter()
    metrics = _RUNNERS[config.kind](config, workers)
    metrics["invariant_checks"] = _invariant_selfcheck(config.seed)
    return ExperimentReport(
        config=config, metrics=metrics, version=__version__,
        wall_clock_s=time.perf_counter() - started)
