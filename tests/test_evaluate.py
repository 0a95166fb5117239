import hashlib
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from feature_files import save_features
from scipy.special import logsumexp

from synthrep.encoder import Encoder, EncoderConfig
from synthrep.evaluate import (
    REG_GRID,
    EpisodeSpec,
    EvalReport,
    ProbeConfig,
    encode_dataset,
    fewshot_eval,
    fit_logreg,
    linear_probe,
    load_features,
    stratified_split,
)


def clustered(num_classes, per_class, dim, spread, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim)) * 4.0
    labels = np.repeat(np.arange(num_classes), per_class)
    feats = centers[labels] + spread * rng.standard_normal((labels.size, dim))
    perm = rng.permutation(labels.size)
    return feats[perm], labels[perm]


def test_default_grid_shape_and_endpoints():
    np.testing.assert_array_equal(REG_GRID, np.logspace(-6.0, 5.0, 45))
    assert REG_GRID.size == 45
    assert REG_GRID[0] == 1e-6
    assert REG_GRID[-1] == 1e5
    assert np.all(np.diff(REG_GRID) > 0)
    with pytest.raises(ValueError):
        REG_GRID[0] = 1.0


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(max_iterations=0)
    with pytest.raises(ValueError):
        ProbeConfig(val_fraction=1.0)
    with pytest.raises(ValueError):
        ProbeConfig(val_fraction=0.0)


def test_episode_spec_validation():
    with pytest.raises(ValueError):
        EpisodeSpec(ways=0)
    with pytest.raises(ValueError):
        EpisodeSpec(reg_lambda=-1.0)
    with pytest.raises(ValueError):
        EpisodeSpec(reg_lambda=np.nan)
    assert EpisodeSpec(reg_lambda=0.0).reg_lambda == 0.0


@pytest.mark.parametrize(
    "make, field, value",
    [
        (EpisodeSpec, "ways", 3.9),
        (EpisodeSpec, "episodes", True),
        (EpisodeSpec, "reg_lambda", "1"),
        (ProbeConfig, "max_iterations", 2.5),
        (ProbeConfig, "normalize_features", "no"),
        (ProbeConfig, "normalize_features", 1),
        (ProbeConfig, "val_fraction", None),
    ],
)
def test_eval_config_fields_are_type_checked(make, field, value):
    with pytest.raises(ValueError, match=field):
        make(**{field: value})


def test_eval_report_validation():
    with pytest.raises(ValueError):
        EvalReport(kind="x", accuracy=1.5, ci95=0.0, count=1, config={}, details={})
    for field, value, message in [
        ("ci95", float("nan"), "ci95 must be finite and >= 0"),
        ("ci95", float("inf"), "ci95 must be finite and >= 0"),
        ("ci95", -0.1, "ci95 must be finite and >= 0"),
        ("count", 0, "count must be >= 1"),
        ("count", -5, "count must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            EvalReport(**{"kind": "x", "accuracy": 0.5, "ci95": 0.1, "count": 4,
                          "config": {}, "details": {}, field: value})
    rep = EvalReport(kind="x", accuracy=0.5, ci95=0.1, count=4, config={}, details={})
    d = asdict(rep)
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
# these pin the objective, gradient, line-search and update bits over whole
# trajectories, the zero start included; (10, 1e-6) stops at the cap.
# Recorded for the batched numpy solver, with its objective on the package's
# one softmax kernel, with numpy 2.4 on x86-64.
GOLDEN_LOGREG = {
    (2, 1e-6): "90a87415acadd371c59d51da8f8f7e1b868fdc11c9cb9daf7a48fc45fa0a2631",
    (2, 1.0): "2b197440a34031939aae53778c4caad9b5522aff1c34ef1d69751b789d8071ef",
    (2, 1e5): "3c72b384f44f4398c058b110ca1cefd7a409db26da19d023ebe61e706a110bf3",
    (10, 1e-6): "137c293eb39f1a9cc15093798ccd9cd6ce4c0e39b02687668f0992f57a8b051c",
    (10, 1.0): "8ba57e442fff5519db2c14da815f9860ef0b6dd98b5fae246c0f716f9a31a083",
    (10, 1e5): "06baa5f5ee206a5657b7f325ca53c6e1e29707028c3c736a4272fc56702acfba",
}


@pytest.mark.parametrize("k, lam", sorted(GOLDEN_LOGREG))
def test_fit_logreg_golden_bits(k, lam):
    x, y = clustered(k, 12, 6, spread=3.0, seed=41)
    w, b, _ = fit_logreg(x, y, k, lam, max_iterations=200)
    digest = hashlib.sha256(w.tobytes() + b.tobytes()).hexdigest()
    assert digest == GOLDEN_LOGREG[(k, lam)]


def _bits(*arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def test_fit_logreg_shared_features_batch_is_bitwise_single_fits():
    x, y = clustered(4, 15, 6, spread=2.0, seed=51)
    lams = np.array([0.0, 1e-4, 1e-2, 1.0, 1e3])
    w, b, ok = fit_logreg(x, y, 4, lams, max_iterations=300)
    assert w.shape == (5, 6, 4) and b.shape == (5, 4) and ok.shape == (5,)
    for i, lam in enumerate(lams):
        wi, bi, oki = fit_logreg(x, y, 4, lam, max_iterations=300)
        assert wi.shape == (6, 4) and bi.shape == (4,) and oki.shape == ()
        assert _bits(wi, bi) == _bits(w[i], b[i])
        assert oki == ok[i]
    sub, sub_b, _ = fit_logreg(x, y, 4, lams[[4, 1]], max_iterations=300)
    assert _bits(sub, sub_b) == _bits(w[[4, 1]], b[[4, 1]])


def test_fit_logreg_per_problem_batch_is_bitwise_single_fits():
    # per-problem features under one label vector, as few-shot episodes are
    x, y = clustered(4, 15, 6, spread=2.0, seed=52)
    rng = np.random.default_rng(52)
    labels = np.repeat(np.arange(4), 5)
    by_class = [np.flatnonzero(y == c) for c in range(4)]
    xs = np.stack(
        [x[np.concatenate([rng.choice(rows, 5, replace=False) for rows in by_class])]
         for _ in range(6)]
    )
    lams = np.linspace(0.0, 2.0, 6)
    w, b, ok = fit_logreg(xs, labels, 4, lams, max_iterations=200)
    assert w.shape == (6, 6, 4) and ok.all()
    for i in range(6):
        wi, bi, _ = fit_logreg(xs[i], labels, 4, lams[i], max_iterations=200)
        assert _bits(wi, bi) == _bits(w[i], b[i])
    rev, rev_b, _ = fit_logreg(xs[::-2], labels, 4, lams[::-2], max_iterations=200)
    assert _bits(rev, rev_b) == _bits(w[::-2], b[::-2])


def test_fit_logreg_refuses_a_label_vector_per_problem():
    x, y = clustered(3, 10, 4, spread=1.0, seed=54)
    for labels in (np.stack([y, y]), y[:-1]):
        with pytest.raises(ValueError, match=r"one \(n,\) label vector"):
            fit_logreg(np.stack([x, x]), labels, 3, 1.0)


def test_fit_logreg_max_iterations_caps_each_problem():
    x, y = clustered(3, 20, 5, spread=1.0, seed=53)
    lams = np.array([1e-6, 1.0])
    _, _, ok = fit_logreg(x, y, 3, lams, max_iterations=1)
    assert not ok.any()
    _, _, ok = fit_logreg(x, y, 3, lams, max_iterations=500)
    assert ok.all()


@pytest.mark.parametrize(
    "seed, k, spread, lam",
    [(61, 2, 3.0, 1e-3), (62, 3, 3.0, 0.1), (63, 5, 3.0, 1.0), (64, 4, 8.0, 0.0)],
)
def test_fit_logreg_agrees_with_scipy_lbfgsb(seed, k, spread, lam):
    from scipy.optimize import minimize

    x, y = clustered(k, 15, 6, spread=spread, seed=seed)
    n, d = x.shape
    onehot = np.eye(k)[y]

    def objective(theta):
        w, b = theta[: d * k].reshape(d, k), theta[d * k :]
        logits = x @ w + b
        lse = logsumexp(logits, axis=1)
        g = (np.exp(logits - lse[:, None]) - onehot) / n
        loss = np.mean(lse - logits[np.arange(n), y]) + 0.5 * lam * np.sum(w * w)
        return loss, np.concatenate([(x.T @ g + lam * w).ravel(), g.sum(axis=0)])

    ref = minimize(
        objective, np.zeros(d * k + k), jac=True, method="L-BFGS-B",
        options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-10},
    )
    w, b, ok = fit_logreg(x, y, k, lam)
    assert ok
    got = objective(np.concatenate([w.ravel(), b]))[0]
    # the stopping rule bounds the last decrease, not the distance to the
    # optimum; scipy at its default tolerances lands 2.1e-7 off on seed 61
    assert abs(got - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))
    ref_w, ref_b = ref.x[: d * k].reshape(d, k), ref.x[d * k :]
    np.testing.assert_array_equal(
        np.argmax(x @ w + b, axis=1), np.argmax(x @ ref_w + ref_b, axis=1)
    )


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
    rep = linear_probe(x, y, xt, yt, ProbeConfig(seed=0))
    assert rep.accuracy == 1.0
    assert rep.count == 60
    assert rep.details["selected_lambda"] in REG_GRID
    assert len(rep.details["val_curve"]) == 45
    assert rep.config["reg_grid_size"] == 45
    assert (rep.config["reg_grid_min"], rep.config["reg_grid_max"]) == (1e-6, 1e5)
    assert rep.ci95 == 0.0


def test_probe_shuffled_labels_sit_at_chance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((250, 8))
    y = np.tile(np.arange(5), 50)
    xt = rng.standard_normal((1000, 8))
    yt = np.tile(np.arange(5), 200)
    rep = linear_probe(x, y, xt, yt, ProbeConfig(seed=0))
    assert abs(rep.accuracy - 0.2) < 0.04


def test_probe_normalization_handles_bad_scaling():
    x, y = clustered(3, 40, 6, spread=0.05, seed=4)
    xt, yt = clustered(3, 20, 6, spread=0.05, seed=4)
    x, xt = x.copy(), xt.copy()
    x[:, 0] *= 1e6
    xt[:, 0] *= 1e6
    rep = linear_probe(x, y, xt, yt, ProbeConfig(normalize_features=True))
    assert rep.accuracy == 1.0


def test_probe_input_validation():
    x, y = clustered(2, 10, 3, spread=0.1, seed=5)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        linear_probe(bad, y, x, y)
    with pytest.raises(ValueError):
        linear_probe(x, np.zeros_like(y), x, np.zeros_like(y))
    # one training row per class leaves nothing to select the penalty on
    with pytest.raises(ValueError, match="validation split is empty"):
        linear_probe(np.eye(3), np.arange(3), np.eye(3), np.arange(3))


def test_probe_refuses_train_and_test_features_of_two_widths(monkeypatch):
    x, y = clustered(3, 10, 6, spread=1.0, seed=5)

    def no_fit(*args, **kwargs):
        raise AssertionError("fit before the widths were checked")

    monkeypatch.setattr("synthrep.evaluate.fit_logreg", no_fit)
    with pytest.raises(ValueError, match="train features are 6-d and test features 4-d"):
        linear_probe(x, y, x[:, :4], y)


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
    x = np.random.default_rng(9).standard_normal((17, 4))
    full = encode_dataset(x, enc, params, batch_size=512)
    chunked = encode_dataset(x, enc, params, batch_size=3)
    np.testing.assert_allclose(full, chunked, atol=1e-9)
    assert full.shape == (17, 8)


@pytest.mark.parametrize("backbone", ["mlp", "transformer"])
def test_encode_dataset_is_forwards_pre_projection_bitwise(backbone):
    enc = Encoder(EncoderConfig(input_dim=16, backbone=backbone, patch_size=4))
    params = enc.init_params(3)
    x = np.random.default_rng(4).standard_normal((40, 16))
    pre, _, _ = enc.forward(params, x)
    feats = encode_dataset(x, enc, params)
    assert feats.shape == pre.shape
    assert feats.tobytes() == pre.tobytes()


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "backbone, bound_mb",
    # mlp: the whole head in eval mode, with its tape, traced 20.3 MB;
    # transformer: its backbone traced 38-39 MB without a tape, 144 MB with one
    [("mlp", 6.0), ("transformer", 60.0)],
    ids=["mlp", "transformer"],
)
def test_encode_dataset_runs_only_the_backbone_without_a_tape(backbone, bound_mb):
    enc = Encoder(EncoderConfig(backbone=backbone))
    params = enc.init_params(0)
    x = np.random.default_rng(5).standard_normal((1000, 32))
    assert _traced_peak_mb(encode_dataset, x, enc, params) < bound_mb


def test_linear_probe_at_sweep_shape_within_10_mb():
    # 501 train and 499 test rows of 128-d features in 10 classes, as a sweep
    # probes them; the 45 penalties in one solve traced 17.8 MB here
    x, y = clustered(10, 100, 128, spread=6.0, seed=12)
    peak = _traced_peak_mb(linear_probe, x[:501], y[:501], x[501:], y[501:])
    assert peak < 10.0


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


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"sample_id":0,"feature":[1.0]}\n', "line 1 has no field 'class_id'"),
        ("[1, 2]\n", "line 1 is not a JSON object"),
        (
            '{"sample_id":0,"class_id":0,"feature":[1.0]}\n\n'
            '{"sample_id":1,"class_id":1,"feature":[1.0,2.0]}\n',
            "line 3 field 'feature' has length 2, expected 1",
        ),
        ('{"sample_id":0,"class_id":1.5,"feature":[1.0]}\n', "line 1 field 'class_id' is invalid"),
        ('{"sample_id":true,"class_id":1,"feature":[1.0]}\n', "line 1 field 'sample_id' is invalid"),
        ('{"sample_id":0,"class_id":0,"feature":[[1.0]]}\n', "line 1 field 'feature' is invalid"),
        ('{"sample_id":0,"class_id":0,"feature":"1.0"}\n', "line 1 field 'feature' is invalid"),
        (
            '{"sample_id":0,"class_id":0,"feature":["0.5",true]}\n',
            "line 1 field 'feature' is invalid: expected a list of JSON numbers",
        ),
        ('{"sample_id":0,"class_id":0,"feature":[1.0]\n', "line 1 is not JSON"),
    ],
)
def test_load_features_names_file_line_and_field(tmp_path, text, message):
    path = tmp_path / "f.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_features(str(path))
    assert str(info.value).startswith(f"{path}: {message}")
