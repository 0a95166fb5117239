import numpy as np
import pytest

from synthrep.encoder import Encoder, EncoderConfig


def small_mlp_cfg():
    return EncoderConfig(
        input_dim=6, backbone="mlp", mlp_widths=(8, 8), head_hidden=8, head_out=4
    )


def small_transformer_cfg():
    return EncoderConfig(
        input_dim=8,
        backbone="transformer",
        patch_size=4,
        depth=2,
        width=8,
        heads=2,
        head_hidden=8,
        head_out=4,
    )


def proj_loss(enc, params, x, w):
    _, proj, _ = enc.forward(params, x, training=True)
    return float(np.sum(proj * w))


def check_param_grads_fd(cfg, seed, entries_per_array=3, h=1e-5):
    enc = Encoder(cfg)
    params = enc.init_params(seed)
    rng = np.random.default_rng(seed + 1000)
    x = rng.standard_normal((5, cfg.input_dim))
    w = rng.standard_normal((5, cfg.head_out))

    _, proj, tape = enc.forward(params, x, training=True)
    grads = enc.backward(params, tape, w)
    assert set(grads) == set(params)

    checked = 0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        picks = rng.choice(flat.size, size=min(entries_per_array, flat.size), replace=False)
        for j in picks:
            mutated = {k: v.copy() for k, v in params.items()}
            mv = mutated[key].reshape(-1)
            mv[j] += h
            up = proj_loss(enc, mutated, x, w)
            mv[j] -= 2 * h
            dn = proj_loss(enc, mutated, x, w)
            fd = (up - dn) / (2 * h)
            got = grads[key].reshape(-1)[j]
            assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd)), (key, j, got, fd)
            checked += 1
    assert checked >= 50


def test_mlp_param_gradients_match_finite_differences():
    check_param_grads_fd(small_mlp_cfg(), seed=0, entries_per_array=4)


def test_transformer_param_gradients_match_finite_differences():
    check_param_grads_fd(small_transformer_cfg(), seed=1, entries_per_array=2)


def test_projected_rows_are_unit_norm():
    for cfg in (small_mlp_cfg(), small_transformer_cfg()):
        enc = Encoder(cfg)
        params = enc.init_params(2)
        x = np.random.default_rng(3).standard_normal((7, cfg.input_dim))
        _, proj, _ = enc.forward(params, x, training=True)
        np.testing.assert_allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-12)


def test_init_params_deterministic_and_seed_sensitive():
    enc = Encoder(small_mlp_cfg())
    a = enc.init_params(11)
    b = enc.init_params(11)
    c = enc.init_params(12)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)
    assert enc.num_params() == sum(v.size for v in a.values())


def test_forward_deterministic():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(4)
    x = np.random.default_rng(5).standard_normal((6, 6))
    _, p1, _ = enc.forward(params, x, training=True)
    _, p2, _ = enc.forward(params, x, training=True)
    np.testing.assert_array_equal(p1, p2)


def test_running_stats_momentum_update():
    cfg = EncoderConfig(input_dim=4, mlp_widths=(5,), head_hidden=6, head_out=3)
    enc = Encoder(cfg)
    params = enc.init_params(6)
    state = enc.init_state()
    held = state["head.n0.mean"]
    x = np.random.default_rng(7).standard_normal((9, 4))

    # replicate the first norm layer's input: backbone affine then head.l0
    pre = x @ params["backbone.l0.W"] + params["backbone.l0.b"]
    h0 = pre @ params["head.l0.W"] + params["head.l0.b"]

    enc.forward(params, x, state=state, training=True, update_running=True)
    np.testing.assert_allclose(
        state["head.n0.mean"], 0.1 * h0.mean(axis=0), atol=1e-12
    )
    np.testing.assert_allclose(
        state["head.n0.var"], 0.9 + 0.1 * h0.var(axis=0), atol=1e-12
    )
    # update happens in place: callers holding the array see it
    assert held is state["head.n0.mean"]


def test_eval_with_exact_batch_stats_matches_training_forward():
    cfg = EncoderConfig(
        input_dim=6, mlp_widths=(8,), head_hidden=8, head_out=4, norm_momentum=0.0
    )
    enc = Encoder(cfg)
    params = enc.init_params(8)
    state = enc.init_state()
    x = np.random.default_rng(9).standard_normal((10, 6))
    _, train_proj, _ = enc.forward(params, x, state=state, training=True, update_running=True)
    _, eval_proj, _ = enc.forward(params, x, state=state, training=False)
    np.testing.assert_array_equal(train_proj, eval_proj)


def test_eval_requires_state_for_batch_norm():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(10)
    with pytest.raises(ValueError):
        enc.forward(params, np.zeros((3, 6)), training=False)


def test_per_sample_norm_needs_no_state():
    cfg = EncoderConfig(
        input_dim=6, mlp_widths=(8,), head_hidden=8, head_out=4, head_norm="per_sample"
    )
    enc = Encoder(cfg)
    assert enc.init_state() == {}
    params = enc.init_params(11)
    x = np.random.default_rng(12).standard_normal((4, 6))
    _, proj_eval, _ = enc.forward(params, x, training=False)
    _, proj_train, _ = enc.forward(params, x, training=True)
    # per-sample normalization has no train/eval split
    np.testing.assert_array_equal(proj_eval, proj_train)


def test_encode_single_matches_batch_row():
    cfg = small_mlp_cfg()
    enc = Encoder(cfg)
    params = enc.init_params(13)
    state = enc.init_state()
    x = np.random.default_rng(14).standard_normal((3, 6))
    pre, proj, _ = enc.forward(params, x, state=state)
    pre1, proj1, _ = enc.forward(params, x[1:2], state=state)
    # matmul kernels may differ between (1, d) and (n, d) shapes by an ulp
    np.testing.assert_allclose(proj1[0], proj[1], atol=1e-12)
    np.testing.assert_allclose(pre1[0], pre[1], atol=1e-12)


def test_zero_row_at_normalization_raises_value_error():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(16)
    params["head.l2.W"][:] = 0.0
    params["head.l2.b"][:] = 0.0
    x = np.random.default_rng(17).standard_normal((3, 6))
    with pytest.raises(ValueError, match="zero vector"):
        enc.forward(params, x, training=True)


def test_overflowed_norm_at_normalization_gives_nan_row():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(16)
    params["head.l2.b"][:] = 0.0
    params["head.l2.b"][0] = 1e300  # every row's squared norm overflows
    x = np.random.default_rng(17).standard_normal((3, 6))
    with np.errstate(over="ignore"):
        _, proj, _ = enc.forward(params, x, training=True)
    # x / inf would be a finite zero row; the projection marks it instead
    assert np.all(np.isnan(proj))


def test_input_shape_validation():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(15)
    with pytest.raises(ValueError):
        enc.forward(params, np.zeros((3, 5)), training=True)


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(input_dim=0)
    with pytest.raises(ValueError):
        EncoderConfig(backbone="cnn")
    with pytest.raises(ValueError):
        EncoderConfig(backbone="mlp", mlp_widths=())
    with pytest.raises(ValueError):
        EncoderConfig(backbone="transformer", input_dim=10, patch_size=4)
    with pytest.raises(ValueError):
        EncoderConfig(backbone="transformer", input_dim=8, patch_size=4, width=9, heads=2)
    with pytest.raises(ValueError):
        EncoderConfig(head_out=1)
    with pytest.raises(ValueError):
        EncoderConfig(head_norm="group")
    with pytest.raises(ValueError):
        EncoderConfig(norm_momentum=1.0)


def test_config_dict_round_trip():
    cfg = small_transformer_cfg()
    assert EncoderConfig.from_dict(cfg.to_dict()) == cfg
    cfg2 = small_mlp_cfg()
    back = EncoderConfig.from_dict(cfg2.to_dict())
    assert back == cfg2
    assert isinstance(back.mlp_widths, tuple)
