import warnings

import numpy as np
import pytest
from scipy import stats as sps

from cvsym.errors import ConfigError, InvalidDimensionError, PreconditionError
from cvsym.linalg import (
    complex_modes,
    haar_orthogonal_symplectic_stack,
    haar_unitary_stack,
    interleave_modes,
    orthogonality_residual,
    phase_fixed_qr,
    realify_stack,
    symplecticity_residual,
    unitary_to_symplectic,
)
from cvsym.samples import InvariantTriple, SampleBatch
from cvsym.symmetrize import (
    MAX_DESIGN_DEGREE,
    apply_symmetrization,
    audit_report,
    batch_with_invariants,
    collect_audit_samples,
    default_audit_statistics,
    finite_design_average,
    haar_design,
    haar_rotated_pairs,
    roots_of_unity_design,
    witness_transform,
)


def _haar_element(n, rng):
    return unitary_to_symplectic(haar_unitary_stack(n, 1, rng)[0])


def _random_batch(n, rng):
    return SampleBatch(rng.standard_normal(2 * n), rng.standard_normal(2 * n))


def _invariants(batch):
    return InvariantTriple.from_coords(batch.x, batch.y)


def _rotated_batch_with_invariants(n, *invariants, rng):
    """A batch with the given invariants, rotated by a Haar-random group element."""
    return apply_symmetrization(batch_with_invariants(n, *invariants), _haar_element(n, rng))


def test_identity_leaves_batch_unchanged():
    rng = np.random.default_rng(0)
    batch = _random_batch(3, rng)
    identity = unitary_to_symplectic(np.eye(3, dtype=complex))
    out = apply_symmetrization(batch, identity)
    np.testing.assert_allclose(out.x, batch.x, atol=1e-15)
    np.testing.assert_allclose(out.y, batch.y, atol=1e-15)


def test_quarter_rotation_single_mode():
    rotation = unitary_to_symplectic(np.array([[1j]]))
    batch = SampleBatch(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    out = apply_symmetrization(batch, rotation)
    np.testing.assert_allclose(out.x, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(out.y, [-2.0, 0.0], atol=1e-15)
    assert abs(np.dot(out.x, out.y) - np.dot(batch.x, batch.y)) < 1e-15


def test_all_four_invariants_preserved_at_n100():
    rng = np.random.default_rng(1)
    batch = _random_batch(100, rng)
    before = _invariants(batch)
    out = apply_symmetrization(batch, _haar_element(100, rng))
    assert max(before.relative_deviations(_invariants(out)).values()) <= 1e-10


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(InvalidDimensionError):
        apply_symmetrization(_random_batch(3, rng), _haar_element(2, rng))


def test_composition_matches_product():
    rng = np.random.default_rng(3)
    batch = _random_batch(4, rng)
    u1, u2 = haar_unitary_stack(4, 2, rng)
    twice = apply_symmetrization(apply_symmetrization(batch, unitary_to_symplectic(u1)),
                                 unitary_to_symplectic(u2))
    once = apply_symmetrization(batch, unitary_to_symplectic(u2 @ u1))
    assert np.max(np.abs(twice.x - once.x)) <= 1e-10 * max(1.0, np.max(np.abs(once.x)))
    assert np.max(np.abs(twice.y - once.y)) <= 1e-10 * max(1.0, np.max(np.abs(once.y)))


def _mapping_residual(witness, source, target):
    scale = max(np.linalg.norm(source.x), np.linalg.norm(source.y))
    return max(np.max(np.abs(witness.apply(source.x) - target.x)),
               np.max(np.abs(witness.apply(source.y) - target.y))) / scale


def test_witness_accepts_identical_batches():
    rng = np.random.default_rng(4)
    batch = _random_batch(4, rng)
    witness = witness_transform(batch, batch)
    assert _mapping_residual(witness, batch, batch) <= 1e-8
    assert orthogonality_residual(witness.matrix) <= 1e-12


def test_witness_colinear_pair():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    source = SampleBatch(x, 2.0 * x)
    r0 = _haar_element(3, rng)
    target = apply_symmetrization(source, r0)
    witness = witness_transform(source, target)
    assert _mapping_residual(witness, source, target) <= 1e-8


def test_witness_sampled_oracle_general_case():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(200):
        source = _random_batch(5, rng)
        target = apply_symmetrization(source, _haar_element(5, rng))
        witness = witness_transform(source, target)
        worst = max(worst, _mapping_residual(witness, source, target))
        assert orthogonality_residual(witness.matrix) <= 1e-12
        assert symplecticity_residual(witness.matrix) <= 1e-12
    assert worst <= 1e-8


def test_witness_names_offending_invariant():
    rng = np.random.default_rng(7)
    source = _random_batch(3, rng)
    target = SampleBatch(source.x, 1.5 * source.y)
    with pytest.raises(PreconditionError, match="norm_y_sq"):
        witness_transform(source, target)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_witness_maps_related_pair_at_extreme_scales(scale):
    # Squared norms underflow or overflow at these scales; the pair is related,
    # so the witness must still be found and map it.
    rng = np.random.default_rng(12)
    source = SampleBatch(scale * rng.standard_normal(8), scale * rng.standard_normal(8))
    target = apply_symmetrization(source, _haar_element(4, rng))
    witness = witness_transform(source, target)
    assert np.max(np.abs(witness.apply(source.x) - target.x)) <= 1e-8 * scale
    assert np.max(np.abs(witness.apply(source.y) - target.y)) <= 1e-8 * scale


@pytest.mark.parametrize("top", [1e307, 1.5e308])
def test_witness_maps_related_pair_near_the_float_maximum(top):
    # Largest |entries| 1.5e308 and 1.57e308: their sum overflowed, and the
    # finite pair was rejected as having non-finite coordinates.
    rng = np.random.default_rng(12)
    unit = SampleBatch(rng.standard_normal(8), rng.standard_normal(8))
    related = apply_symmetrization(unit, _haar_element(4, rng))
    scale = top / max(np.abs(unit.x).max(), np.abs(unit.y).max())
    source = SampleBatch(scale * unit.x, scale * unit.y)
    target = SampleBatch(scale * related.x, scale * related.y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        witness = witness_transform(source, target)
        miss = max(np.abs(witness.apply(source.x) - target.x).max(), np.abs(witness.apply(source.y) - target.y).max())
    assert miss <= 1e-12 * top


def _reference_witness_matrix(source, target):
    """The witness built as two separate QRs of real-vector-built amplitude pairs."""
    _, exp = np.frexp(max(np.max(np.abs(source.x)), np.max(np.abs(source.y))))
    sx, sy, tx, ty = (np.ldexp(v, -exp) for v in (source.x, source.y, target.x, target.y))
    src = np.column_stack([complex_modes(sx), complex_modes(sy)])
    tgt = np.column_stack([complex_modes(tx), complex_modes(ty)])
    if np.linalg.norm(sy) > np.linalg.norm(sx):
        src, tgt = src[:, ::-1], tgt[:, ::-1]
    return realify_stack(phase_fixed_qr(tgt) @ phase_fixed_qr(src).conj().T)


def _reference_pairs(rng):
    def complex_pair(n):
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n),
                rng.standard_normal(n) + 1j * rng.standard_normal(n))

    a, b = complex_pair(5)
    zero = np.zeros(3)
    cases = {"random": (a, b), "colinear": (a, (0.6 - 1.3j) * a),
             "zero-x": (zero, complex_pair(3)[1]), "zero-y": (complex_pair(3)[0], zero),
             "both zero": (zero, zero), "single-mode": complex_pair(1)}
    for k in (12, 13, 14):
        cases[f"near-colinear 1e-{k}"] = _near_colinear_amplitudes(5, k, rng)
    for scale in (1e-200, 1e200):
        cases[f"scale {scale:.0e}"] = tuple(scale * v for v in complex_pair(4))
    for name, (a, b) in cases.items():
        source = SampleBatch(interleave_modes(a), interleave_modes(b))
        yield name, source, apply_symmetrization(source, _haar_element(len(a), rng))


def test_witness_matches_reference_construction():
    # The one-stack pass builds exactly the matrix of the two-QR construction.
    for name, source, target in _reference_pairs(np.random.default_rng(21)):
        witness = witness_transform(source, target)
        assert np.array_equal(witness.matrix, _reference_witness_matrix(source, target)), name


@pytest.mark.parametrize("name, value", [("norm_x_sq", 2.5), ("norm_y_sq", 3.5),
                                         ("dot_xy", 1.2), ("symp_xy", 0.6)])
def test_witness_names_each_mismatched_invariant_alone(name, value):
    invariants = {"norm_x_sq": 2.0, "norm_y_sq": 3.0, "dot_xy": 1.0, "symp_xy": 0.8}
    source = _rotated_batch_with_invariants(4, *invariants.values(), rng=np.random.default_rng(22))
    target = _rotated_batch_with_invariants(4, *{**invariants, name: value}.values(), rng=np.random.default_rng(23))
    with pytest.raises(PreconditionError, match=rf"mismatch: {name} .*all mismatches: \['{name}'\]"):
        witness_transform(source, target)


@pytest.mark.parametrize("zero_x", [False, True])
@pytest.mark.parametrize("side", ["x", "y"])
def test_witness_rejects_nan_target_without_warning(side, zero_x):
    # A zero source x once let a NaN target x through the invariant check;
    # an infinite coordinate made the Gram product warn.  Either side fails.
    rng = np.random.default_rng(24)
    source = SampleBatch(0.0 * rng.standard_normal(6) if zero_x else rng.standard_normal(6),
                         rng.standard_normal(6))
    for value in (np.nan, np.inf, -np.inf):
        coords = {"x": source.x.copy(), "y": source.y.copy()}
        coords[side][2] = value
        bad = SampleBatch(coords["x"], coords["y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((source, bad), (bad, source)):
                with pytest.raises(PreconditionError, match="invariant mismatch"):
                    witness_transform(*pair)


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_witness_rejects_unrelated_pair_at_huge_equal_scales(scale):
    # Both pairs are scaled by the source's power of two first, so their
    # squared norms stay finite and the mismatch is an ordinary one.
    rng = np.random.default_rng(11)
    source = SampleBatch(scale * rng.standard_normal(8), scale * rng.standard_normal(8))
    target = SampleBatch(scale * rng.standard_normal(8), scale * rng.standard_normal(8))
    with pytest.raises(PreconditionError, match=r"relative \d"):
        witness_transform(source, target)


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_witness_rejects_target_whose_norms_overflow(scale):
    # Scaled by the source's power of two, a source near 1 leaves the
    # target's squared norms overflowing: every deviation is NaN.
    rng = np.random.default_rng(11)
    source = SampleBatch(rng.standard_normal(8), rng.standard_normal(8))
    target = SampleBatch(scale * rng.standard_normal(8), scale * rng.standard_normal(8))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PreconditionError) as err:
        witness_transform(source, target)
    assert "relative nan" in str(err.value)
    assert "['dot_xy', 'norm_x_sq', 'norm_y_sq', 'symp_xy']" in str(err.value)


def test_witness_requires_matching_symplectic_product():
    # Matching the three norm/dot quantities is not enough for the
    # constructive witness; opposite symplectic products must be rejected.
    source = batch_with_invariants(4, 2.0, 3.0, 1.0, 0.8)
    target = batch_with_invariants(4, 2.0, 3.0, 1.0, -0.8)
    with pytest.raises(PreconditionError, match="symp_xy"):
        witness_transform(source, target)


def test_witness_zero_vector_degenerate_case():
    rng = np.random.default_rng(8)
    cases = [(3, True, False), (3, False, True), (3, True, True), (1, True, False), (1, False, False)]
    for n, zero_x, zero_y in cases * 20:
        x, y = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
        source = SampleBatch(0.0 * x if zero_x else x, 0.0 * y if zero_y else y)
        target = apply_symmetrization(source, _haar_element(n, rng))
        witness = witness_transform(source, target)
        scale = max(np.linalg.norm(x), np.linalg.norm(y))
        assert np.max(np.abs(witness.apply(source.x) - target.x)) <= 1e-8 * scale
        assert np.max(np.abs(witness.apply(source.y) - target.y)) <= 1e-8 * scale


def _near_colinear_amplitudes(n, k, rng):
    """(a, b) with 1 - |cos(a, b)|^2 = eps = 10^-k.

    b = coef * |a| (sqrt(1 - eps) u + sqrt(eps) w) with u = a/|a| and w a
    unit vector orthogonal to it.
    """
    eps = 10.0 ** -k
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = a / np.linalg.norm(a)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w -= np.vdot(u, w) * u
    coef = complex(rng.standard_normal(), rng.standard_normal())
    return a, coef * np.linalg.norm(a) * (np.sqrt(1.0 - eps) * u + np.sqrt(eps) * w / np.linalg.norm(w))


@pytest.mark.parametrize("n", [2, 5, 20])
@pytest.mark.parametrize("k", [12, 13, 14])
def test_witness_near_colinear_pair(n, k):
    rng = np.random.default_rng(100 * n + k)
    for _ in range(5):
        a, b = _near_colinear_amplitudes(n, k, rng)
        source = SampleBatch(interleave_modes(a), interleave_modes(b))
        target = apply_symmetrization(source, _haar_element(n, rng))
        assert _mapping_residual(witness_transform(source, target), source, target) <= 1e-8


def test_batch_with_invariants_hits_requested_values():
    rng = np.random.default_rng(9)
    inv = _invariants(_rotated_batch_with_invariants(5, 2.5, 4.0, 1.2, -0.7, rng=rng))
    assert abs(inv.norm_x_sq - 2.5) <= 1e-10
    assert abs(inv.norm_y_sq - 4.0) <= 1e-10
    assert abs(inv.dot_xy - 1.2) <= 1e-10
    assert abs(inv.symp_xy + 0.7) <= 1e-10


def test_batch_with_invariants_rejects_cauchy_schwarz_violation():
    with pytest.raises(ValueError):
        batch_with_invariants(3, 1.0, 1.0, 0.9, 0.9)
    with pytest.raises(ValueError):  # dot^2 overflows, and so does the budget
        batch_with_invariants(3, 1e200, 1e200, 1e300, 0.0)


def _audit(pair, trials, seed):
    samples = collect_audit_samples(pair, trials, np.random.default_rng(seed))
    return audit_report(samples, trials)


def test_audit_identical_ensembles_consistent_with_null():
    batch = batch_with_invariants(4, 8.0, 16.0, 3.0, 2.0)
    report = _audit((batch, batch), 600, 10)
    assert not report["underpowered"]
    for result in report["results"].values():
        assert result["pvalue"] > 0.01


def test_audit_fixed_rotation_related_ensembles_consistent_with_null():
    rng = np.random.default_rng(11)
    batch = batch_with_invariants(4, 8.0, 16.0, 3.0, 2.0)
    rotated = apply_symmetrization(batch, _haar_element(4, rng))
    report = _audit((batch, rotated), 600, 12)
    for result in report["results"].values():
        assert result["pvalue"] > 0.01


def test_audit_opposite_symplectic_products_reports_measurement():
    # Pure measurement: same (|x|^2, |y|^2, x.y), opposite symplectic
    # product; the report carries the KS statistics without a verdict.
    plus = batch_with_invariants(4, 8.0, 16.0, 3.0, 2.0)
    minus = batch_with_invariants(4, 8.0, 16.0, 3.0, -2.0)
    report = _audit((plus, minus), 400, 13)
    assert set(report["results"]) == {"y_first_coord", "mode0_dot", "mode0_symplectic", "mode0_x_power"}
    for result in report["results"].values():
        assert 0.0 <= result["ks_statistic"] <= 1.0
        assert 0.0 <= result["pvalue"] <= 1.0


def test_audit_underpowered_flag():
    batch = batch_with_invariants(2, 1.0, 1.0, 0.0, 0.0)
    report = _audit((batch, batch), 50, 14)
    assert report["underpowered"]


def _full_haar_mode0(batch, trials, rng, chunk=500):
    """Mode-0 coordinates of ``batch`` under ``trials`` whole Haar elements, (trials, 2) per side."""
    rows = np.concatenate([haar_orthogonal_symplectic_stack(batch.n, chunk, rng)[:, :2].copy()
                           for _ in range(trials // chunk)])
    return rows @ batch.x, rows @ batch.y


@pytest.mark.parametrize("n", [2, 40])
def test_audit_row_sampler_matches_full_haar_path(n):
    # The audit draws one row per Haar element; rotating by whole elements
    # and reading mode 0 must give every statistic the same law.
    rng = np.random.default_rng(40 + n)
    pair = (_rotated_batch_with_invariants(n, 2.0 * n, 4.0 * n, 0.8 * n, 0.5 * n, rng=rng),
            _rotated_batch_with_invariants(n, 2.0 * n, 4.0 * n, 0.8 * n, -0.5 * n, rng=rng))
    trials = 2000
    sampled = collect_audit_samples(pair, trials, rng)
    for side, batch in enumerate(pair):
        x, y = _full_haar_mode0(batch, trials, rng)
        for name, fn in default_audit_statistics().items():
            pvalue = sps.ks_2samp(sampled[name][side], fn(x, y)).pvalue
            assert pvalue > 0.01, (side, name, pvalue)


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_audit_rows_are_the_normalized_complex_gaussian_draw(seed):
    # The rows are drawn in place; they are bit for bit the normalized
    # standard_normal(shape) + 1j * standard_normal(shape) of the same stream.
    pair = (batch_with_invariants(5, 2.0, 3.0, 0.4, 0.3), batch_with_invariants(5, 2.0, 3.0, 0.4, -0.3))
    sampled = collect_audit_samples(pair, 300, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 300, 5)) + 1j * rng.standard_normal((2, 300, 5))
    rows = z / np.linalg.norm(z, axis=-1, keepdims=True)
    amps = complex_modes(np.array([[b.x, b.y] for b in pair]))
    mode0 = interleave_modes((amps @ rows.swapaxes(-1, -2))[..., None])
    for name, fn in default_audit_statistics().items():
        for side in (0, 1):
            assert np.array_equal(sampled[name][side], fn(*mode0[side])), (name, side)


def _design_pair(kind, n, rng):
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "zero-first":
        a[:] = 0.0
    elif kind == "colinear":
        b = (0.6 - 1.3j) * a
    return np.column_stack([a, b])


def _pair_statistics(w):
    """Names and values of mode coordinates and cross terms of rotated pairs w (trials, n, 2)."""
    n = w.shape[1]
    stats = {}
    for mode in sorted({0, n - 1}):
        for side in (0, 1):
            stats[f"re {side} {mode}"] = w[:, mode, side].real
            stats[f"im {side} {mode}"] = w[:, mode, side].imag
        if n > 1:  # at n = 1, (U a) conj(U b) = a conj(b) for every U
            cross = w[:, mode, 0] * np.conj(w[:, mode, 1])
            stats[f"cross re {mode}"], stats[f"cross im {mode}"] = cross.real, cross.imag
    if n > 1:
        stats["cross modes"] = (w[:, 0, 0] * np.conj(w[:, 1, 1])).real
    return stats


@pytest.mark.parametrize("kind, n", [("random", 1), ("random", 2), ("random", 40),
                                     ("zero-first", 5), ("colinear", 5)])
def test_design_haar_side_matches_full_haar_path(kind, n):
    # The design's Haar side draws k = min(n, 2) columns per element; rotating
    # the pair by whole elements must give (U a, U b) the same joint law.
    rng = np.random.default_rng(70 + n)
    pair = _design_pair(kind, n, rng)
    trials, chunk = 2000, 500
    sampled = haar_rotated_pairs(pair[None], trials, rng)[0]
    full = np.concatenate([haar_unitary_stack(n, chunk, rng) @ pair for _ in range(trials // chunk)])
    reference = _pair_statistics(full)
    for name, values in _pair_statistics(sampled).items():
        pvalue = sps.ks_2samp(values, reference[name]).pvalue
        assert pvalue > 1e-3, (name, pvalue)


def test_symmetrized_statistics_well_defined():
    # Two unrelated batches sharing all four invariants produce statistically
    # indistinguishable symmetrized ensembles.
    rng = np.random.default_rng(30)
    batch_a = _rotated_batch_with_invariants(5, 6.0, 14.0, 2.5, -1.5, rng=rng)
    batch_b = _rotated_batch_with_invariants(5, 6.0, 14.0, 2.5, -1.5, rng=rng)
    assert np.max(np.abs(batch_a.x - batch_b.x)) > 0.1  # genuinely different vectors
    report = _audit((batch_a, batch_b), 1000, 31)
    for name, result in report["results"].items():
        assert result["pvalue"] > 0.01, (name, result)


def test_identity_design_reproduces_raw_moments():
    batch = SampleBatch(np.array([0.3, -0.4, 1.1, 0.2]), np.array([0.5, 0.1, -0.2, 0.9]))
    design = np.eye(2, dtype=complex)[None]
    report = finite_design_average(lambda rng: batch, design, 1, np.random.default_rng(15), samples=8)
    amps = {"x": batch.x[0::2] + 1j * batch.x[1::2], "y": batch.y[0::2] + 1j * batch.y[1::2]}
    for side, amp in amps.items():
        for mode in range(2):
            for p, q in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                key = f"{side}:{mode}:{p}:{q}"
                raw = amp[mode] ** p * np.conj(amp[mode]) ** q
                assert abs(report.moments_design[key] - raw) < 1e-12


def test_roots_of_unity_design_phase_moments():
    # Orders below the design size match Haar phase moments exactly;
    # order N aliases back to 1, showing the degree bound is sharp.
    batch = SampleBatch(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    design = roots_of_unity_design(4)
    report = finite_design_average(lambda rng: batch, design, 2, np.random.default_rng(16), samples=4)
    for p in range(5):
        for q in range(5):
            if not 1 <= p + q <= 4:
                continue
            val = report.moments_design[f"x:0:{p}:{q}"]
            if p == q:
                assert abs(val - 1.0) <= 1e-12
            elif abs(p - q) < 4:
                assert abs(val) <= 1e-12
            else:
                assert abs(val - 1.0) <= 1e-12  # |p-q| = 4 aliases with a 4-element design


def test_haar_sample_design_self_consistency():
    # A design made of Haar samples must agree with a fresh Haar run within
    # Monte Carlo error.
    rng = np.random.default_rng(17)
    design = haar_design(2, 400, rng)

    def sampler(r):
        return SampleBatch(r.standard_normal(4), r.standard_normal(4))

    report = finite_design_average(sampler, design, 2, rng, samples=50)
    for degree, disc in report.max_discrepancy_by_degree.items():
        scale = report.stderr_by_degree[degree]
        assert disc <= 8 * scale + 1e-12
    # The per-degree maxima are exactly those of the per-key moments.
    worst = {}
    for key, value in report.moments_design.items():
        p, q = map(int, key.split(":")[2:])
        worst[p + q] = max(worst.get(p + q, 0.0), abs(value - report.moments_haar[key]))
    assert worst == report.max_discrepancy_by_degree


def _design_case(kind, degree):
    """(sampler, design, seed, samples) of a small design comparison."""
    n, size = (3, 6) if kind == "haar" else (1, 5)
    design = haar_design(n, size, np.random.default_rng(60)) if kind == "haar" else roots_of_unity_design(size)

    def sampler(r):
        return SampleBatch(r.standard_normal(2 * n), r.standard_normal(2 * n))
    return sampler, design, 61 + degree, 7


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("kind", ["haar", "roots"])
def test_design_report_is_conjugate_symmetric(kind, degree):
    sampler, design, seed, samples = _design_case(kind, degree)
    report = finite_design_average(sampler, design, degree, np.random.default_rng(seed), samples=samples)
    for moments in (report.moments_design, report.moments_haar):
        lower = [key for key in moments if int(key.split(":")[2]) < int(key.split(":")[3])]
        # Two sides, n modes and p = q at each even total up to 2 degree stay on the diagonal.
        assert len(lower) == (len(moments) - 2 * design.shape[-1] * degree) // 2
        for key in lower:
            side, mode, p, q = key.split(":")
            assert moments[key] == moments[f"{side}:{mode}:{q}:{p}"].conjugate(), key


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("kind", ["haar", "roots"])
def test_design_average_matches_an_einsum_reference(kind, degree):
    # Every key computed directly: an einsum push through the design, the same
    # Haar draws, and a^p conj(a)^q with its own standard error for p < q too.
    sampler, design, seed, samples = _design_case(kind, degree)
    report = finite_design_average(sampler, design, degree, np.random.default_rng(seed), samples=samples)
    rng = np.random.default_rng(seed)
    batches = [sampler(rng) for _ in range(samples)]
    bases = [np.array([complex_modes(getattr(b, side)) for b in batches]) for side in "xy"]
    haar = haar_rotated_pairs(np.stack(bases, axis=-1), len(design), rng)
    ref_design, ref_haar, ref_se, size = {}, {}, {}, {}
    for s, side in enumerate("xy"):
        pushed = np.einsum("rij,sj->sri", design, bases[s])
        for total in range(1, 2 * degree + 1):
            for p in range(total + 1):
                q = total - p
                terms = [a ** p * np.conj(a) ** q for a in (pushed, haar[..., s])]
                for mode in range(design.shape[-1]):
                    key = f"{side}:{mode}:{p}:{q}"
                    ref_design[key], ref_haar[key] = (t[..., mode].mean() for t in terms)
                    ref_se[key] = np.sqrt((terms[1][..., mode].real.var() + terms[1][..., mode].imag.var())
                                          / terms[1][..., mode].size)
                    # Relative to the averaged |monomial|: odd roots-of-unity moments are rounding noise.
                    size[total] = max(size.get(total, 0.0), *(np.abs(t[..., mode]).mean() for t in terms))
    for got, ref in ((report.moments_design, ref_design), (report.moments_haar, ref_haar)):
        assert list(got) == list(ref)
        for total in range(1, 2 * degree + 1):
            keys = [key for key in ref if sum(map(int, key.split(":")[2:])) == total]
            assert max(abs(got[key] - ref[key]) for key in keys) <= 1e-12 * size[total], total
    for total, se in report.stderr_by_degree.items():
        want = max(v for key, v in ref_se.items() if sum(map(int, key.split(":")[2:])) == total)
        assert abs(se - want) <= 1e-12 * want, total


def test_design_validation():
    # The average holds the rules for the design's size and the degree.
    batch = SampleBatch(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    for design in ([], roots_of_unity_design(0)):
        with pytest.raises(ConfigError) as exc:
            finite_design_average(lambda rng: batch, design, 1, np.random.default_rng(0))
        assert exc.value.fields == ["design"]
    for degree in (0, MAX_DESIGN_DEGREE + 1):
        with pytest.raises(ConfigError) as exc:
            finite_design_average(lambda rng: batch, roots_of_unity_design(2), degree, np.random.default_rng(0))
        assert exc.value.fields == ["degree"]
    # and for the sample count: the standard error needs two matched Haar draws.
    for size, samples in ((2, 0), (1, 1)):
        with pytest.raises(ConfigError) as exc:
            finite_design_average(lambda rng: batch, roots_of_unity_design(size), 1, np.random.default_rng(0),
                                  samples=samples)
        assert exc.value.fields == ["samples"]


def test_invariant_triple_relative_scales():
    a = InvariantTriple(1.0, 4.0, 0.0, 0.0)
    b = InvariantTriple(1.0, 4.0, 2e-10, 0.0)
    # dot deviation is measured against the Cauchy-Schwarz scale sqrt(1*4).
    assert abs(a.relative_deviations(b)["dot_xy"] - 1e-10) < 1e-25
