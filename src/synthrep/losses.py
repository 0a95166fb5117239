"""Multi-positive contrastive objective and its relatives.

Each anchor's candidates score a softmax over scaled cosine similarities,
q_ij = exp(e_i . e_j / tau) / sum_{k != i} exp(e_i . e_k / tau),
and the target distribution p spreads mass uniformly over the anchor's
same-caption partners. The loss is the mean cross-entropy H(p, q). Setting
every caption multiplicity to 2 recovers the classic single-positive
two-view loss. The symmetric image-text term is the second loss term; a
train step sums whichever of the two its loss variant uses.

All gradients are analytic and exact, derived from d(loss)/d(logits) =
(q - p) / num_anchors. This module forms only the scaled similarities and
the self-mask; q and log q come from the encoder's softmax kernel, the one
the whole package uses. Self-masking removes the diagonal from the softmax
normalization exactly (a -inf logit, so exp is exactly 0), not via a large
negative sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import _l2norm, _softmax

__all__ = [
    "EmbeddingBatch",
    "contrastive_distribution",
    "match_distribution",
    "multi_positive_loss",
    "pair_contrastive_loss",
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


def _check_tau(tau: float) -> float:
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError("temperature must be finite and > 0")
    return float(tau)


def _similarity_softmax(
    anchors: np.ndarray, candidates: np.ndarray, tau: float, self_mask: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(q, log q) of the row softmax of scaled similarities. With self_mask
    the diagonal is excluded from the normalization (requires square
    logits)."""
    logits = anchors @ candidates.T / tau
    if self_mask:
        np.fill_diagonal(logits, -np.inf)
    return _softmax(logits)


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
    q, log_q = _similarity_softmax(anchors, candidates, tau, self_mask)
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
    return _similarity_softmax(e, e, _check_tau(tau), self_mask=True)[0]


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
        e, l2norm_back = _l2norm(batch.embeddings)
    else:
        batch.validate()
        e = batch.embeddings

    p = match_distribution(batch.caption_ids)
    loss, grad_a, grad_c = _softmax_ce(e, e, p, tau, self_mask=True)
    grad = grad_a + grad_c
    if normalize:
        grad = l2norm_back(grad, {})
    return LossOutput(loss=loss, grad_embeddings=grad)


def pair_contrastive_loss(
    batch: EmbeddingBatch,
    text_emb: np.ndarray,
    text_caption_ids: np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Symmetric image-text loss 0.5 * (image-to-text + text-to-image) over
    unit-norm rows with one text per caption: (loss, grad_images, grad_texts).

    Each image's target is one-hot on its caption's text, each text's is
    uniform over its caption's images; no self masking. With one image per
    caption this is the classic dual-encoder pair loss.
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

    # member[i][g] = 1 iff image i belongs to text g's caption
    member = (ids[:, None] == text_ids[None, :]).astype(float)
    p_t2i = member.T / np.sum(member.T, axis=1, keepdims=True)

    img = batch.embeddings
    l_i2t, g_img_a, g_txt_c = _softmax_ce(img, text_emb, member, tau, self_mask=False)
    l_t2i, g_txt_a, g_img_c = _softmax_ce(text_emb, img, p_t2i, tau, self_mask=False)
    return 0.5 * (l_i2t + l_t2i), 0.5 * (g_img_a + g_img_c), 0.5 * (g_txt_c + g_txt_a)
