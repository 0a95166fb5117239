"""Multi-positive contrastive objective and its relatives.

Each anchor's candidates score a softmax over scaled cosine similarities,
q_ij = exp(e_i . e_j / tau) / sum_{k != i} exp(e_i . e_k / tau),
and the target distribution p spreads mass uniformly over the anchor's
same-caption partners. The loss is the mean cross-entropy H(p, q). Setting
every caption multiplicity to 2 recovers the classic single-positive
two-view loss; adding image-text pair terms gives the dual-encoder variant.

All gradients are analytic and exact, derived from d(loss)/d(logits) =
(q - p) / num_anchors. Self-masking removes the diagonal from the softmax
normalization exactly (a -inf logit, so exp is exactly 0), not via a large
negative sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import _l2norm_bwd, _l2norm_fwd

__all__ = [
    "EmbeddingBatch",
    "LossOutput",
    "PairLossOutput",
    "TextLossOutput",
    "contrastive_distribution",
    "match_distribution",
    "multi_positive_loss",
    "pair_contrastive_loss",
    "multi_positive_with_text_loss",
]

_NORM_TOL = 1e-6


def _check_unit_norm(name: str, rows: np.ndarray) -> None:
    err = np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0))
    if not err <= _NORM_TOL:  # NaN rows fail too
        raise ValueError(f"{name} rows must be unit norm (max dev {err:.3g})")


@dataclass
class EmbeddingBatch:
    """C embedding rows with parallel caption ids."""

    embeddings: np.ndarray  # (C, d)
    caption_ids: np.ndarray  # (C,)

    def validate(self) -> None:
        e = self.embeddings
        if e.ndim != 2 or e.shape[0] < 2:
            raise ValueError("embeddings must be (C, d) with C >= 2")
        if self.caption_ids.shape != (e.shape[0],):
            raise ValueError("caption_ids must parallel embeddings")
        _check_unit_norm("embedding", e)


@dataclass
class LossOutput:
    loss: float
    grad_embeddings: np.ndarray  # (C, d)


@dataclass
class PairLossOutput:
    loss_i2t: float
    loss_t2i: float
    grad_image: np.ndarray
    grad_text: np.ndarray


@dataclass
class TextLossOutput:
    total: float
    multi_positive: float
    loss_i2t: float
    loss_t2i: float
    grad_images: np.ndarray
    grad_texts: np.ndarray


def _check_tau(tau: float) -> float:
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError("temperature must be finite and > 0")
    return float(tau)


def _softmax(
    anchors: np.ndarray, candidates: np.ndarray, tau: float, self_mask: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax of scaled similarities, overflow-safe: returns (q, log q).

    With self_mask the diagonal is excluded from the normalization (requires
    square logits).
    """
    logits = anchors @ candidates.T / tau
    if self_mask:
        np.fill_diagonal(logits, -np.inf)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    expd = np.exp(shifted)
    denom = np.sum(expd, axis=1, keepdims=True)
    return expd / denom, shifted - np.log(denom)


def _softmax_ce(
    anchors: np.ndarray,
    candidates: np.ndarray,
    p: np.ndarray,
    tau: float,
    self_mask: bool,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy of softmax similarities against target rows p.

    Returns (loss, grad_anchors, grad_candidates).
    """
    a = anchors.shape[0]
    q, log_q = _softmax(anchors, candidates, tau, self_mask)
    active = p > 0
    if np.any(~np.isfinite(log_q[active])):
        raise FloatingPointError("log q diverged where p > 0")
    loss = float(-np.sum(p[active] * log_q[active]) / a)

    g = (q - p) / a
    grad_anchors = g @ candidates / tau
    grad_candidates = g.T @ anchors / tau
    return loss, grad_anchors, grad_candidates


def contrastive_distribution(batch: EmbeddingBatch, tau: float) -> np.ndarray:
    """Row-stochastic q with q[i][i] = 0, overflow-safe."""
    batch.validate()
    e = batch.embeddings
    return _softmax(e, e, _check_tau(tau), self_mask=True)[0]


def match_distribution(caption_ids: np.ndarray) -> np.ndarray:
    """Target rows: uniform over same-caption partners, zero diagonal."""
    ids = np.asarray(caption_ids)
    same = ids[:, None] == ids[None, :]
    np.fill_diagonal(same, False)
    counts = np.sum(same, axis=1)
    if np.any(counts == 0):
        bad = ids[np.argmax(counts == 0)]
        raise ValueError(f"anchor with no positive (caption {bad} appears once)")
    return same / counts[:, None]


def multi_positive_loss(
    batch: EmbeddingBatch, tau: float, normalize: bool = False
) -> LossOutput:
    """Mean cross-entropy between the match targets and the self-masked
    softmax similarities; gradient is exact.

    With normalize=False (default) rows must already be unit norm and the
    gradient is with respect to those normalized embeddings. With
    normalize=True rows are arbitrary nonzero vectors, normalized by the
    encoder's row-L2 layer, and the gradient chains through it.
    """
    tau = _check_tau(tau)
    if normalize:
        e, cache = _l2norm_fwd(batch.embeddings)
    else:
        batch.validate()
        e = batch.embeddings

    p = match_distribution(batch.caption_ids)
    loss, grad_a, grad_c = _softmax_ce(e, e, p, tau, self_mask=True)
    grad = grad_a + grad_c
    if normalize:
        grad = _l2norm_bwd(grad, cache)
    return LossOutput(loss=loss, grad_embeddings=grad)


def pair_contrastive_loss(
    image_emb: np.ndarray, text_emb: np.ndarray, tau: float
) -> PairLossOutput:
    """Symmetric dual-encoder loss over n matched unit-norm (image, text) rows.

    Image-to-text treats each image as an anchor over all n texts with a
    one-hot target at its own caption; text-to-image is the mirror. No self
    masking: the matching candidate is the positive.
    """
    tau = _check_tau(tau)
    if image_emb.shape != text_emb.shape or image_emb.ndim != 2:
        raise ValueError("image and text embeddings must share (n, d) shape")
    _check_unit_norm("image", image_emb)
    _check_unit_norm("text", text_emb)

    eye = np.eye(image_emb.shape[0])
    l_i2t, g_img_a, g_txt_c = _softmax_ce(image_emb, text_emb, eye, tau, self_mask=False)
    l_t2i, g_txt_a, g_img_c = _softmax_ce(text_emb, image_emb, eye, tau, self_mask=False)
    return PairLossOutput(
        loss_i2t=l_i2t,
        loss_t2i=l_t2i,
        grad_image=g_img_a + g_img_c,
        grad_text=g_txt_c + g_txt_a,
    )


def multi_positive_with_text_loss(
    batch: EmbeddingBatch,
    text_emb: np.ndarray,
    text_caption_ids: np.ndarray,
    tau: float,
) -> TextLossOutput:
    """Multi-positive loss plus 0.5 * (image-to-text + text-to-image).

    One unit-norm text row per caption group. Every image anchors a one-hot
    over the n texts; every text anchors a uniform target over its caption's
    m images. Gradients for image and text embeddings are summed across all
    three terms.
    """
    tau = _check_tau(tau)
    batch.validate()
    _check_unit_norm("text", text_emb)

    ids = np.asarray(batch.caption_ids)
    text_ids = np.asarray(text_caption_ids)
    if text_emb.shape[0] != text_ids.size:
        raise ValueError("one caption id per text row required")
    if set(ids.tolist()) != set(text_ids.tolist()):
        raise ValueError("text captions must cover exactly the batch captions")

    mp = multi_positive_loss(batch, tau)

    # membership[i][g] = 1 iff image i belongs to text g's caption
    member = (ids[:, None] == text_ids[None, :]).astype(float)
    p_i2t = member  # one-hot rows: each image matches exactly one text
    p_t2i = member.T / np.sum(member.T, axis=1, keepdims=True)  # uniform over m

    img = batch.embeddings
    l_i2t, g_img_a, g_txt_c = _softmax_ce(img, text_emb, p_i2t, tau, self_mask=False)
    l_t2i, g_txt_a, g_img_c = _softmax_ce(text_emb, img, p_t2i, tau, self_mask=False)
    return TextLossOutput(
        total=mp.loss + 0.5 * (l_i2t + l_t2i),
        multi_positive=mp.loss,
        loss_i2t=l_i2t,
        loss_t2i=l_t2i,
        grad_images=mp.grad_embeddings + 0.5 * (g_img_a + g_img_c),
        grad_texts=0.5 * (g_txt_c + g_txt_a),
    )
