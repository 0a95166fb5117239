import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import erf, log_softmax, softmax

from synthrep.encoder import Encoder, EncoderConfig, _erf, _softmax


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
    _, proj, _ = enc.forward(params, x)
    return float(np.sum(proj * w))


def check_param_grads_fd(cfg, seed, entries_per_array=3, h=1e-5):
    enc = Encoder(cfg)
    params = enc.init_params(seed)
    rng = np.random.default_rng(seed + 1000)
    x = rng.standard_normal((5, cfg.input_dim))
    w = rng.standard_normal((5, cfg.head_out))

    _, proj, tape = enc.forward(params, x)
    grads = enc.backward(params, tape, w)
    assert list(grads) == list(params)  # in params order, for either backbone

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
        _, proj, _ = enc.forward(params, x)
        np.testing.assert_allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-12)


def test_init_params_deterministic_and_seed_sensitive():
    enc = Encoder(small_mlp_cfg())
    a = enc.init_params(11)
    b = enc.init_params(11)
    c = enc.init_params(12)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_forward_deterministic():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(4)
    x = np.random.default_rng(5).standard_normal((6, 6))
    _, p1, _ = enc.forward(params, x)
    _, p2, _ = enc.forward(params, x)
    np.testing.assert_array_equal(p1, p2)


def test_encode_single_matches_batch_row():
    cfg = small_mlp_cfg()
    enc = Encoder(cfg)
    params = enc.init_params(13)
    x = np.random.default_rng(14).standard_normal((3, 6))
    pre = enc.features(params, x)
    pre1 = enc.features(params, x[1:2])
    # matmul kernels may differ between (1, d) and (n, d) shapes by an ulp
    np.testing.assert_allclose(pre1[0], pre[1], atol=1e-12)


def test_zero_row_at_normalization_raises_value_error():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(16)
    params["head.l2.W"][:] = 0.0
    params["head.l2.b"][:] = 0.0
    x = np.random.default_rng(17).standard_normal((3, 6))
    with pytest.raises(ValueError, match="zero vector"):
        enc.forward(params, x)


def test_overflowed_norm_at_normalization_gives_nan_row():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(16)
    params["head.l2.b"][:] = 0.0
    params["head.l2.b"][0] = 1e300  # every row's squared norm overflows
    x = np.random.default_rng(17).standard_normal((3, 6))
    with np.errstate(over="ignore"):
        _, proj, _ = enc.forward(params, x)
    # x / inf would be a finite zero row; the projection marks it instead
    assert np.all(np.isnan(proj))


def test_input_shape_validation():
    enc = Encoder(small_mlp_cfg())
    params = enc.init_params(15)
    with pytest.raises(ValueError):
        enc.forward(params, np.zeros((3, 5)))


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
    for field, value in [("head_out", 2.5), ("mlp_widths", (8, 8.0)), ("head_hidden", "8")]:
        with pytest.raises(ValueError, match=field):
            EncoderConfig(**{field: value})


def test_config_dict_round_trip():
    cfg = small_transformer_cfg()
    assert EncoderConfig(**asdict(cfg)) == cfg
    cfg2 = small_mlp_cfg()
    back = EncoderConfig(**json.loads(json.dumps(asdict(cfg2))))
    assert back == cfg2
    assert isinstance(back.mlp_widths, tuple)


@pytest.mark.parametrize("scale", [0.1, 0.7, 2.0, 5.0, 1e3])
def test_erf_matches_scipy(scale):
    # scipy's own algorithm: its bits where |x| <= 1; above, numpy's exp can
    # be an ulp off libm's, which moves erf by at most one ulp
    x = np.random.default_rng(int(scale * 10)).standard_normal((300, 70)) * scale
    got, want = _erf(x), erf(x)
    assert got.shape == want.shape
    small = np.abs(x) <= 1.0
    assert got[small].tobytes() == want[small].tobytes()
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert ulps.max() <= 1


def _softmax_cases():
    rng = np.random.default_rng(17)
    with_inf = rng.standard_normal((6, 5))
    with_inf[:, 2] = -np.inf
    return {
        "random": (rng.standard_normal((200, 10)) * 3.0, -1),
        "minus_inf": (with_inf, -1),
        "magnitude_1e300": (rng.standard_normal((30, 6)) * 1e300, -1),
        "batch_axis_1": (rng.standard_normal((4, 7, 20)) * 5.0, 1),
    }


@pytest.mark.parametrize("case", sorted(_softmax_cases()))
def test_softmax_matches_scipy(case):
    z, axis = _softmax_cases()[case]
    q, log_q = _softmax(z, axis=axis)
    np.testing.assert_allclose(q, softmax(z, axis=axis), rtol=1e-14, atol=0)
    np.testing.assert_allclose(log_q, log_softmax(z, axis=axis), rtol=1e-14, atol=0)
    inf = np.isneginf(z)
    assert np.all(q[inf] == 0.0) and np.all(np.isneginf(log_q[inf]))


def test_erf_edge_values():
    x = np.array([0.0, -0.0, 1.0, -1.0, 6.0, -6.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
    with warnings.catch_warnings():
        # encode_dataset runs outside train_step's errstate, so huge inputs
        # must raise no RuntimeWarning under the default one
        warnings.simplefilter("error")
        got = _erf(x)
    assert got.tobytes() == erf(x).tobytes()
    assert np.array_equal(np.signbit(got[:2]), [False, True])
    assert np.array_equal(got[4:8], [1.0, -1.0, 1.0, -1.0])
    assert np.isnan(got[8])
    assert np.array_equal(got[9:], [1.0, -1.0])
