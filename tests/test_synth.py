import numpy as np
import pytest

from anomex.data import load_csv, save_csv
from anomex.synth import SynthSpec, _random_correlation, generate

from conftest import traced_peak


def test_counts_and_labels():
    data = generate(SynthSpec(200, 30, 5, 1, 3.0, seed=0))
    assert data.n_rows == 230
    assert data.n_features == 5
    assert int(data.labels.sum()) == 30
    assert np.array_equal(np.nonzero(data.labels)[0], np.arange(200, 230))


@pytest.mark.parametrize("total", [1023, 1024, 1025, 2049, 3098])
@pytest.mark.parametrize("d", [1, 3, 50])
def test_blockwise_draw_matches_the_one_shot_draw(total, d):
    # The normals are one stream in C order. Every block has at least 1024
    # rows, so its product takes the one-shot product's BLAS kernel; at d=50
    # a last block of 1 to 26 rows (2049, 3098) differed in the last bit.
    spec = SynthSpec(total - 7, 7, d, d - 1, 2.5, seed=11)
    rng = np.random.default_rng(spec.seed)
    chol = np.linalg.cholesky(_random_correlation(d, rng))
    rows = rng.standard_normal((total, d)) @ chol.T
    rows[spec.n_normal :, spec.root_feature] += spec.shift
    assert np.array_equal(generate(spec).rows, rows)


def test_generate_holds_one_block_beside_its_rows():
    # Traced peak over the 8 MB of a 20000x50 result: 1.29 times drawing
    # 1024 rows at a time, 2.10 times drawing all rows at once, when the
    # normals and their product coexist.
    data, peak = traced_peak(lambda: generate(SynthSpec(19800, 200, 50, 0, 4.0, seed=7)))
    assert peak < 1.6 * data.rows.nbytes


def test_shift_lands_on_root_feature_mean():
    data = generate(SynthSpec(5000, 100, 10, 3, 4.0, seed=1))
    anomalies = data.rows[data.labels == 1]
    assert abs(anomalies[:, 3].mean() - 4.0) <= 0.5
    # other features stay centered
    others = np.delete(anomalies, 3, axis=1)
    assert np.abs(others.mean(axis=0)).max() <= 0.5


def test_normal_moments_within_sampling_bounds():
    n = 20000
    data = generate(SynthSpec(n, 1, 6, 0, 2.0, seed=2))
    normals = data.rows[data.labels == 0]
    # mean ~ N(0, 1/n): 3 sigma bound; variance similar order
    assert np.abs(normals.mean(axis=0)).max() <= 3.0 / np.sqrt(n)
    assert np.abs(normals.var(axis=0) - 1.0).max() <= 6.0 / np.sqrt(n)


def test_correlations_present_but_mild():
    data = generate(SynthSpec(50000, 1, 8, 0, 1.0, seed=3))
    corr = np.corrcoef(data.rows[data.labels == 0].T)
    off = corr[~np.eye(8, dtype=bool)]
    assert np.abs(off).max() < 0.5
    assert np.abs(off).max() > 0.01  # actually correlated, not iid


def test_zero_shift_allowed_and_labeled():
    data = generate(SynthSpec(100, 10, 3, 0, 0.0, seed=4))
    assert int(data.labels.sum()) == 10
    anomalies = data.rows[data.labels == 1]
    assert abs(anomalies[:, 0].mean()) <= 1.5  # statistically indistinguishable


def test_same_seed_identical_bytes(tmp_path):
    spec = SynthSpec(50, 5, 4, 2, 2.5, seed=9)
    a = generate(spec)
    b = generate(spec)
    assert a.rows.tobytes() == b.rows.tobytes()
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(a, pa)
    save_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_csv_round_trip_preserves_values(tmp_path):
    data = generate(SynthSpec(20, 3, 3, 1, 1.0, seed=5))
    p = tmp_path / "s.csv"
    save_csv(data, p)
    back = load_csv(p, has_labels=True)
    assert np.array_equal(back.rows, data.rows)
    assert np.array_equal(back.labels, data.labels)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SynthSpec(0, 1, 3, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        SynthSpec(10, 0, 3, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        SynthSpec(10, 1, 3, 5, 1.0, seed=0)
    with pytest.raises(ValueError):
        SynthSpec(10, 1, 3, 0, -1.0, seed=0)
    with pytest.raises(ValueError):
        SynthSpec(10, 1, 0, 0, 1.0, seed=0)
    for shift in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="shift must be finite"):
            SynthSpec(10, 1, 3, 0, shift, seed=0)
