import hashlib

import numpy as np
import pytest
from scipy.special import logsumexp

from synthrep.encoder import Encoder, EncoderConfig
from synthrep.evaluate import (
    EpisodeSpec,
    EvalReport,
    ProbeConfig,
    default_reg_grid,
    encode_dataset,
    fewshot_eval,
    fit_logreg,
    linear_probe,
    load_features,
    save_features,
    stratified_split,
)
from synthrep.evaluate import _logsumexp_rows


def clustered(num_classes, per_class, dim, spread, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim)) * 4.0
    labels = np.repeat(np.arange(num_classes), per_class)
    feats = centers[labels] + spread * rng.standard_normal((labels.size, dim))
    perm = rng.permutation(labels.size)
    return feats[perm], labels[perm]


def test_default_grid_shape_and_endpoints():
    grid = default_reg_grid()
    np.testing.assert_array_equal(grid, np.logspace(-6.0, 5.0, 45))
    assert grid.size == 45
    assert grid[0] == 1e-6
    assert grid[-1] == 1e5
    assert np.all(np.diff(grid) > 0)


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(reg_grid=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ProbeConfig(reg_grid=np.array([]))
    with pytest.raises(ValueError):
        ProbeConfig(max_iterations=0)
    with pytest.raises(ValueError):
        ProbeConfig(val_fraction=1.0)


def test_episode_spec_validation():
    with pytest.raises(ValueError):
        EpisodeSpec(ways=0)
    with pytest.raises(ValueError):
        EpisodeSpec(reg_lambda=-1.0)


def test_eval_report_validation():
    with pytest.raises(ValueError):
        EvalReport(kind="x", accuracy=1.5, ci95=0.0, count=1, config={}, details={})
    rep = EvalReport(kind="x", accuracy=0.5, ci95=0.1, count=4, config={}, details={})
    d = rep.to_dict()
    assert d["kind"] == "x" and d["accuracy"] == 0.5 and d["count"] == 4


def test_fit_logreg_reaches_first_order_optimality():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((80, 5))
    y = rng.integers(0, 3, size=80)
    lam = 0.1
    w, b, ok = fit_logreg(x, y, 3, lam, max_iterations=2000)
    assert ok

    # independently coded gradient of mean CE + 0.5 lam ||W||^2
    logits = x @ w + b
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.eye(3)[y]
    gw = x.T @ (p - onehot) / x.shape[0] + lam * w
    gb = (p - onehot).mean(axis=0)
    assert np.max(np.abs(gw)) < 1e-4
    assert np.max(np.abs(gb)) < 1e-4


def test_fit_logreg_huge_penalty_collapses_weights():
    x, y = clustered(3, 30, 4, spread=0.1, seed=1)
    w, _, _ = fit_logreg(x, y, 3, reg_lambda=1e6, max_iterations=500)
    assert np.max(np.abs(w)) < 1e-4


# sha256 over the bytes of (W, b) from fit_logreg on clustered(K, 12, 6, 3.0,
# seed 41) with max_iterations=200. Every L-BFGS iterate feeds the next, so
# these pin the objective and gradient bits over whole trajectories, the zero
# start included. Recorded with numpy 2.4 and scipy 1.17 on x86-64.
GOLDEN_LOGREG = {
    (2, 1e-6): "a1a9d1f9ab65cf5af07e6655038d9fbc1fe85f87d60756eeca0220f61bd8c144",
    (2, 1.0): "650be5fceea7a0c1f07a66cb5d3ed416617b28a8d635ba6d011176a08f10dbd6",
    (2, 1e5): "3e64fe4718b1d2ee0d0a2a1a3dcb4df42e1ede26ac03ff513b6bdbab66821187",
    (10, 1e-6): "27128f73735594d02e9f34dd91fd9232c6b3fa74c0389c13361f5e8c60060cb5",
    (10, 1.0): "a4b4ed835c2daaa7bcafd1bc86166a1394bd916422be749f3e163b28b8ad194a",
    (10, 1e5): "bf9a232d7c1cd851d8d148e59ae8d606c3badc4a91f865defa0dad8ffd62cd27",
}


@pytest.mark.parametrize("k, lam", sorted(GOLDEN_LOGREG))
def test_fit_logreg_golden_bits(k, lam):
    x, y = clustered(k, 12, 6, spread=3.0, seed=41)
    w, b, _ = fit_logreg(x, y, k, lam, max_iterations=200)
    digest = hashlib.sha256(w.tobytes() + b.tobytes()).hexdigest()
    assert digest == GOLDEN_LOGREG[(k, lam)]


def _lse_cases():
    rng = np.random.default_rng(12)
    ties = rng.integers(-2, 3, size=(40, 6)).astype(float)  # many tied maxima
    huge = rng.standard_normal((20, 5)) * 1e300
    huge[:, 0] = 1.7976931348623157e308
    inf_rows = np.array(
        [
            [np.inf, 1.0, -2.0],
            [np.inf, np.inf, 0.0],
            [-np.inf, 1.0, -2.0],
            [-np.inf, -np.inf, -np.inf],
            [np.inf, -np.inf, 3.0],
            [-np.inf, 5.0, 5.0],
        ]
    )
    return {
        "random": rng.standard_normal((400, 10)) * 3.0,
        "two_columns": rng.standard_normal((300, 2)),
        "tied_maxima": ties,
        "all_equal": np.full((7, 10), 0.25),
        "zeros": np.zeros((5, 4)),
        "large_magnitude": np.concatenate([huge, -huge, rng.standard_normal((8, 5)) * 700]),
        "infinite": inf_rows,
    }


@pytest.mark.parametrize("case", sorted(_lse_cases()))
def test_logsumexp_rows_matches_scipy_bit_for_bit(case):
    z = _lse_cases()[case]
    with np.errstate(over="ignore", invalid="ignore"):
        want = logsumexp(z, axis=1)
    got = _logsumexp_rows(z)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_stratified_split_properties():
    labels = np.repeat([0, 1, 2], [40, 25, 10])
    fit_rows, val_rows = stratified_split(labels, 0.2, seed=5)
    assert np.intersect1d(fit_rows, val_rows).size == 0
    assert np.array_equal(np.sort(np.concatenate([fit_rows, val_rows])), np.arange(75))
    for cls, total, want_val in ((0, 40, 8), (1, 25, 5), (2, 10, 2)):
        assert np.sum(labels[val_rows] == cls) == want_val
        assert np.sum(labels[fit_rows] == cls) == total - want_val
    again = stratified_split(labels, 0.2, seed=5)
    assert np.array_equal(again[0], fit_rows) and np.array_equal(again[1], val_rows)
    other = stratified_split(labels, 0.2, seed=6)
    assert not np.array_equal(other[1], val_rows)


def test_stratified_split_leaves_both_sides_nonempty():
    labels = np.repeat([0, 1], 2)  # 2 samples per class
    fit_rows, val_rows = stratified_split(labels, 0.9, seed=0)
    for cls in (0, 1):
        assert np.sum(labels[fit_rows] == cls) == 1
        assert np.sum(labels[val_rows] == cls) == 1


def test_probe_separable_data_is_perfect():
    x, y = clustered(3, 40, 6, spread=0.05, seed=2)
    xt, yt = clustered(3, 20, 6, spread=0.05, seed=2)
    cfg = ProbeConfig(reg_grid=np.logspace(-4, 0, 5), seed=0)
    rep = linear_probe(x, y, xt, yt, cfg)
    assert rep.accuracy == 1.0
    assert rep.count == 60
    assert rep.details["selected_lambda"] in cfg.reg_grid
    assert len(rep.details["val_curve"]) == 5
    assert rep.ci95 == 0.0


def test_probe_shuffled_labels_sit_at_chance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((250, 8))
    y = np.tile(np.arange(5), 50)
    xt = rng.standard_normal((1000, 8))
    yt = np.tile(np.arange(5), 200)
    cfg = ProbeConfig(reg_grid=np.logspace(-3, 1, 5), seed=0)
    rep = linear_probe(x, y, xt, yt, cfg)
    assert abs(rep.accuracy - 0.2) < 0.04


def test_probe_normalization_handles_bad_scaling():
    x, y = clustered(3, 40, 6, spread=0.05, seed=4)
    xt, yt = clustered(3, 20, 6, spread=0.05, seed=4)
    x, xt = x.copy(), xt.copy()
    x[:, 0] *= 1e6
    xt[:, 0] *= 1e6
    cfg = ProbeConfig(reg_grid=np.logspace(-4, 0, 5), normalize_features=True)
    rep = linear_probe(x, y, xt, yt, cfg)
    assert rep.accuracy == 1.0


def test_probe_input_validation():
    x, y = clustered(2, 10, 3, spread=0.1, seed=5)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        linear_probe(bad, y, x, y)
    with pytest.raises(ValueError):
        linear_probe(x, np.zeros_like(y), x, np.zeros_like(y))


def test_fewshot_separable_and_error_paths():
    x, y = clustered(4, 10, 5, spread=0.05, seed=6)
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=5, episodes=20, seed=1)
    rep = fewshot_eval(x, y, spec)
    assert rep.accuracy == 1.0
    assert rep.count == 20
    assert rep.config["queries_per_class"] == 5
    with pytest.raises(ValueError):
        fewshot_eval(x, y, EpisodeSpec(ways=5, shots=2, queries_per_class=5, episodes=2))
    with pytest.raises(ValueError):
        fewshot_eval(x, y, EpisodeSpec(ways=3, shots=6, queries_per_class=5, episodes=2))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fewshot_refuses_non_finite_features(value):
    x, y = clustered(4, 10, 5, spread=0.05, seed=6)
    x[7, 2] = value
    spec = EpisodeSpec(ways=3, shots=2, queries_per_class=5, episodes=20, seed=1)
    with pytest.raises(ValueError, match="features must be finite"):
        fewshot_eval(x, y, spec)


def test_fewshot_random_features_sit_at_chance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((200, 6))
    y = np.tile(np.arange(5), 40)
    spec = EpisodeSpec(ways=5, shots=5, queries_per_class=15, episodes=100, seed=2)
    rep = fewshot_eval(x, y, spec)
    assert abs(rep.accuracy - 0.2) < 0.02


def test_fewshot_deterministic():
    x, y = clustered(5, 12, 4, spread=0.5, seed=8)
    spec = EpisodeSpec(ways=3, shots=3, queries_per_class=4, episodes=10, seed=3)
    a = fewshot_eval(x, y, spec)
    b = fewshot_eval(x, y, spec)
    assert a.accuracy == b.accuracy
    assert a.details["episode_std"] == b.details["episode_std"]


def test_encode_dataset_batching_is_transparent():
    cfg = EncoderConfig(input_dim=4, mlp_widths=(8,), head_hidden=8, head_out=4)
    enc = Encoder(cfg)
    params = enc.init_params(0)
    state = enc.init_state()
    x = np.random.default_rng(9).standard_normal((17, 4))
    full = encode_dataset(x, enc, params, state, batch_size=512)
    chunked = encode_dataset(x, enc, params, state, batch_size=3)
    np.testing.assert_allclose(full, chunked, atol=1e-9)
    assert full.shape == (17, 8)


def test_feature_io_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    feats = rng.standard_normal((6, 3))
    sids = np.arange(6, dtype=np.int64) * 7
    cids = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    path = str(tmp_path / "f.jsonl")
    save_features(path, sids, cids, feats)
    s2, c2, f2 = load_features(path)
    np.testing.assert_array_equal(s2, sids)
    np.testing.assert_array_equal(c2, cids)
    np.testing.assert_array_equal(f2, feats)  # exact float formatting

    with pytest.raises(ValueError):
        save_features(str(tmp_path / "g.jsonl"), sids[:3], cids, feats)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_features(str(empty))
