import math

import numpy as np
import pytest

from synthrep.losses import (
    EmbeddingBatch,
    contrastive_distribution,
    match_distribution,
    multi_positive_loss,
    pair_contrastive_loss,
)


def random_rows(count, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, dim))


def unit_rows(raw):
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def through_unit_rows(raw, grad_unit):
    """Chain a gradient with respect to unit_rows(raw) back to raw."""
    unit = unit_rows(raw)
    radial = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - radial * unit) / np.linalg.norm(raw, axis=1, keepdims=True)


def naive_multi_positive(e, ids, tau):
    """Scalar-loop reference: softmax over non-self candidates, uniform
    targets over same-caption partners, mean cross-entropy."""
    c = e.shape[0]
    total = 0.0
    for i in range(c):
        partners = [j for j in range(c) if j != i and ids[j] == ids[i]]
        others = [k for k in range(c) if k != i]
        logits = [float(e[i] @ e[k]) / tau for k in others]
        peak = max(logits)
        denom = sum(math.exp(v - peak) for v in logits)
        for j in partners:
            log_q = float(e[i] @ e[j]) / tau - peak - math.log(denom)
            total -= log_q / len(partners)
    return total / c


def naive_pair(img, ids, txt, tids, tau):
    """Scalar-loop reference: each image's softmax over the texts against its
    caption's text, each text's softmax over the images against a uniform
    target on its caption's images; half the sum of the two means."""

    def log_softmax_at(anchor, candidates, j):
        logits = [float(anchor @ c) / tau for c in candidates]
        peak = max(logits)
        return logits[j] - peak - math.log(sum(math.exp(v - peak) for v in logits))

    tids = list(tids)
    i2t = -sum(log_softmax_at(img[i], txt, tids.index(ids[i])) for i in range(len(img)))
    t2i = 0.0
    for g, tid in enumerate(tids):
        members = [i for i in range(len(img)) if ids[i] == tid]
        t2i -= sum(log_softmax_at(txt[g], img, i) for i in members) / len(members)
    return 0.5 * (i2t / len(img) + t2i / len(tids))


def fd_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def test_match_distribution_values_and_error():
    p = match_distribution(np.array([4, 4, 9, 9, 9]))
    expected = np.array(
        [
            [0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0.5, 0.5],
            [0, 0, 0.5, 0, 0.5],
            [0, 0, 0.5, 0.5, 0],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(p, expected)
    with pytest.raises(ValueError):
        match_distribution(np.array([1, 1, 2]))


def test_contrastive_distribution_rows():
    e = unit_rows(random_rows(6, 4, seed=0))
    q = contrastive_distribution(EmbeddingBatch(e, np.repeat([0, 1, 2], 2)), tau=0.3)
    np.testing.assert_allclose(np.sum(q, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(np.diag(q), 0.0)
    assert np.all(q >= 0)


def test_contrastive_distribution_survives_tiny_tau():
    e = unit_rows(random_rows(5, 3, seed=1))
    q = contrastive_distribution(EmbeddingBatch(e, np.arange(5)), tau=1e-6)
    assert np.all(np.isfinite(q))
    np.testing.assert_allclose(np.sum(q, axis=1), 1.0, atol=1e-12)


def test_multi_positive_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for trial in range(30):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        tau = float(rng.uniform(0.1, 2.0))
        e = unit_rows(random_rows(n * m, 6, seed=100 + trial))
        ids = np.repeat(rng.permutation(n) * 3 + 1, m)
        out = multi_positive_loss(EmbeddingBatch(e, ids), tau)
        ref = naive_multi_positive(e, ids, tau)
        assert abs(out.loss - ref) <= 1e-12 * max(1.0, abs(ref))


def test_multi_positive_orthogonal_embeddings_give_log_candidates():
    # all similarities zero: q uniform over the 3 non-self rows
    e = np.eye(4)
    out = multi_positive_loss(EmbeddingBatch(e, np.array([0, 0, 1, 1])), tau=0.7)
    assert abs(out.loss - math.log(3)) <= 1e-12


def test_multi_positive_collapse_value():
    # identical rows: q uniform over C-1 regardless of tau
    e = np.tile(unit_rows(random_rows(1, 5, seed=3)), (8, 1))
    out = multi_positive_loss(EmbeddingBatch(e, np.repeat([0, 1], 4)), tau=0.2)
    assert abs(out.loss - math.log(7)) <= 1e-10


def test_multi_positive_lower_bound_is_target_entropy():
    # H(p, q) >= H(p) = log(m - 1)
    for seed in range(5):
        e = unit_rows(random_rows(12, 4, seed=seed))
        ids = np.repeat(np.arange(4), 3)
        out = multi_positive_loss(EmbeddingBatch(e, ids), tau=0.5)
        assert out.loss >= math.log(2) - 1e-12


def test_multi_positive_permutation_invariant():
    e = unit_rows(random_rows(10, 5, seed=4))
    ids = np.repeat(np.arange(5), 2)
    base = multi_positive_loss(EmbeddingBatch(e, ids), tau=0.4)
    rng = np.random.default_rng(5)
    for _ in range(4):
        perm = rng.permutation(10)
        out = multi_positive_loss(EmbeddingBatch(e[perm], ids[perm]), tau=0.4)
        assert abs(out.loss - base.loss) <= 1e-12
        np.testing.assert_allclose(
            out.grad_embeddings, base.grad_embeddings[perm], atol=1e-12
        )


def test_multi_positive_gradient_matches_finite_differences():
    raw = random_rows(8, 4, seed=6)
    ids = np.repeat([2, 5, 7, 9], 2)
    tau = 0.6

    def f(x):
        return multi_positive_loss(
            EmbeddingBatch(x, ids), tau, normalize=True
        ).loss

    out = multi_positive_loss(EmbeddingBatch(raw, ids), tau, normalize=True)
    np.testing.assert_allclose(out.grad_embeddings, fd_grad(f, raw), rtol=1e-6, atol=1e-8)


def test_multi_positive_normalize_chains_projection():
    raw = random_rows(6, 3, seed=7) * 2.5
    ids = np.repeat([0, 1, 2], 2)
    tau = 0.8
    at_unit = multi_positive_loss(EmbeddingBatch(unit_rows(raw), ids), tau)
    at_raw = multi_positive_loss(EmbeddingBatch(raw, ids), tau, normalize=True)
    assert abs(at_unit.loss - at_raw.loss) <= 1e-12
    np.testing.assert_allclose(
        at_raw.grad_embeddings, through_unit_rows(raw, at_unit.grad_embeddings), atol=1e-12
    )


def test_two_positive_case_equals_classic_two_view_loss():
    # m = 2 reduces to the single-positive two-view objective
    raw = random_rows(12, 5, seed=8)
    e = unit_rows(raw)
    ids = np.repeat(np.arange(6) + 11, 2)
    tau = 0.35
    out = multi_positive_loss(EmbeddingBatch(e, ids), tau)

    total = 0.0
    for i in range(12):
        j = next(k for k in range(12) if k != i and ids[k] == ids[i])
        others = [k for k in range(12) if k != i]
        logits = np.array([e[i] @ e[k] for k in others]) / tau
        pos = e[i] @ e[j] / tau
        total -= pos - (np.max(logits) + np.log(np.sum(np.exp(logits - np.max(logits)))))
    assert abs(out.loss - total / 12) <= 1e-12


def test_validation_errors():
    e = unit_rows(random_rows(4, 3, seed=9))
    ids = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError):
        multi_positive_loss(EmbeddingBatch(e * 1.5, ids), tau=0.5)
    with pytest.raises(ValueError):
        multi_positive_loss(EmbeddingBatch(e, ids), tau=0.0)
    with pytest.raises(ValueError):
        multi_positive_loss(EmbeddingBatch(e, ids), tau=float("nan"))
    with pytest.raises(ValueError):
        multi_positive_loss(EmbeddingBatch(e, ids[:3]), tau=0.5)
    zero_row = e.copy()
    zero_row[1] = 0.0
    with pytest.raises(ValueError):
        multi_positive_loss(EmbeddingBatch(zero_row, ids), tau=0.5, normalize=True)
    nan_row = e.copy()
    nan_row[2] = np.nan
    with pytest.raises(ValueError, match="unit norm"):
        multi_positive_loss(EmbeddingBatch(nan_row, ids), tau=0.5)


def test_pair_loss_symmetric_when_encoders_agree():
    # identical towers, one image per caption: i2t and t2i mirror each other
    e = unit_rows(random_rows(5, 4, seed=10))
    ids = np.arange(5)
    batch = EmbeddingBatch(e, ids)
    _, grad_images, grad_texts = pair_contrastive_loss(batch, e.copy(), ids, 0.3)
    np.testing.assert_array_equal(grad_images, grad_texts)


def test_pair_loss_identity_logits_value():
    # orthonormal matched rows: logits = I / tau in both directions
    n, tau = 4, 0.5
    e = np.eye(n)
    ids = np.arange(n)
    loss, _, _ = pair_contrastive_loss(EmbeddingBatch(e, ids), e.copy(), ids, tau)
    expected = -math.log(math.exp(1 / tau) / (math.exp(1 / tau) + (n - 1)))
    assert abs(loss - expected) <= 1e-12


def test_pair_loss_matches_scalar_reference_with_several_images_per_caption():
    img = unit_rows(random_rows(6, 4, seed=20))
    txt = unit_rows(random_rows(3, 4, seed=21))
    ids = np.array([7, 7, 3, 3, 5, 5])
    tids = np.array([5, 7, 3])
    loss, _, _ = pair_contrastive_loss(EmbeddingBatch(img, ids), txt, tids, 0.4)
    assert abs(loss - naive_pair(img, ids, txt, tids, 0.4)) <= 1e-12


def test_pair_loss_gradients_match_finite_differences():
    img = random_rows(5, 3, seed=11)
    txt = random_rows(5, 3, seed=12)
    ids = np.arange(5)
    tau = 0.7

    # the loss takes unit rows; differentiate through the normalization
    def f(i, t):
        return pair_contrastive_loss(
            EmbeddingBatch(unit_rows(i), ids), unit_rows(t), ids, tau
        )[0]

    _, grad_images, grad_texts = pair_contrastive_loss(
        EmbeddingBatch(unit_rows(img), ids), unit_rows(txt), ids, tau
    )
    np.testing.assert_allclose(
        through_unit_rows(img, grad_images),
        fd_grad(lambda x: f(x, txt), img),
        rtol=1e-6,
        atol=1e-8,
    )
    np.testing.assert_allclose(
        through_unit_rows(txt, grad_texts),
        fd_grad(lambda x: f(img, x), txt),
        rtol=1e-6,
        atol=1e-8,
    )


def test_pair_loss_shape_and_norm_validation():
    e = unit_rows(random_rows(4, 3, seed=13))
    ids = np.arange(4)
    with pytest.raises(ValueError):
        pair_contrastive_loss(EmbeddingBatch(e, ids), e[:3], ids, tau=0.5)
    with pytest.raises(ValueError, match="unit norm"):
        pair_contrastive_loss(EmbeddingBatch(e * 2.0, ids), e, ids, tau=0.5)
    with pytest.raises(ValueError, match="unit norm"):
        pair_contrastive_loss(EmbeddingBatch(e, ids), e * 2.0, ids, tau=0.5)


def test_text_loss_combines_terms_exactly():
    # the multi_positive_text loss is the multi-positive term plus the
    # image-text term; their sum matches the two scalar references
    m, n = 3, 4
    img = unit_rows(random_rows(n * m, 5, seed=14))
    txt = unit_rows(random_rows(n, 5, seed=15))
    ids = np.repeat(np.arange(n) + 5, m)
    tids = np.arange(n) + 5
    tau = 0.45
    batch = EmbeddingBatch(img, ids)
    total = multi_positive_loss(batch, tau).loss + pair_contrastive_loss(batch, txt, tids, tau)[0]
    expected = naive_multi_positive(img, ids, tau) + naive_pair(img, ids, txt, tids, tau)
    assert abs(total - expected) <= 1e-12


def test_text_loss_gradients_match_finite_differences():
    m, n = 2, 3
    img = random_rows(n * m, 4, seed=16)
    txt = random_rows(n, 4, seed=17)
    ids = np.repeat(np.arange(n), m)
    tids = np.arange(n)
    tau = 0.9

    # the loss takes unit rows; differentiate through the normalization
    def f(i, t):
        batch = EmbeddingBatch(unit_rows(i), ids)
        return multi_positive_loss(batch, tau).loss + pair_contrastive_loss(
            batch, unit_rows(t), tids, tau
        )[0]

    batch = EmbeddingBatch(unit_rows(img), ids)
    _, grad_images, grad_texts = pair_contrastive_loss(batch, unit_rows(txt), tids, tau)
    grad_images = multi_positive_loss(batch, tau).grad_embeddings + grad_images
    np.testing.assert_allclose(
        through_unit_rows(img, grad_images),
        fd_grad(lambda x: f(x, txt), img),
        rtol=1e-6,
        atol=1e-8,
    )
    np.testing.assert_allclose(
        through_unit_rows(txt, grad_texts),
        fd_grad(lambda x: f(img, x), txt),
        rtol=1e-6,
        atol=1e-8,
    )


def test_text_loss_caption_coverage_errors():
    img = unit_rows(random_rows(4, 3, seed=18))
    txt = unit_rows(random_rows(2, 3, seed=19))
    ids = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError):
        pair_contrastive_loss(EmbeddingBatch(img, ids), txt, np.array([0, 2]), tau=0.5)
    with pytest.raises(ValueError):
        pair_contrastive_loss(EmbeddingBatch(img, ids), txt[:1], np.array([0]), tau=0.5)
