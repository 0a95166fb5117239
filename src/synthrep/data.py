"""Caption management, generation budgets, and the batch sampler.

Batches group m samples of each of n captions in caption-major order; the
contrastive objective treats same-caption samples as positives. Augmentation
is feature-space noise plus random scaling, standing in for pixel transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import PromptSpec, prompt_from_text
from .manifest import _read_text
from .seeding import SALT_AUGMENT, SALT_BATCH, _check_numbers, rng_from

__all__ = [
    "BatchSpec",
    "load_captions",
    "synth_captions",
    "dedup_captions",
    "split_budget",
    "augment_batch",
    "sample_batch",
]


@dataclass(frozen=True)
class CaptionRecord:
    caption_id: int
    text: str
    prompt: PromptSpec


def normalize_text(text: str) -> str:
    """Lowercase and collapse runs of whitespace; used for duplicate detection."""
    return " ".join(text.lower().split())


def load_captions(path: str, num_classes: int) -> list[CaptionRecord]:
    """Read one caption per line; the line number is the caption_id.

    Blank lines are skipped but still consume an id, so ids are stable under
    edits elsewhere in the file. No de-duplication is applied here.
    """
    return [
        CaptionRecord(caption_id=i, text=text, prompt=prompt_from_text(i, text, num_classes))
        for i, text in enumerate(_read_text(path))
        if text.strip()
    ]


_ADJECTIVES = [
    "red", "blue", "golden", "tiny", "giant", "striped", "spotted",
    "glossy", "ancient", "crooked", "quiet", "bright",
]
_NOUNS = [
    "fox", "lantern", "bridge", "teapot", "bicycle", "lighthouse",
    "cactus", "violin", "kite", "windmill", "turtle", "clock",
]
_CONTEXTS = [
    "in the rain", "at dawn", "on a hill", "under water", "in the desert",
    "beside a river", "in deep snow", "at the market",
]


def synth_captions(num_captions: int, num_classes: int, seed: int) -> list[CaptionRecord]:
    """Deterministically synthesize distinct caption texts.

    Word choices come from a seeded generator; collisions get a variant
    suffix so the returned list is already duplicate-free.
    """
    if num_captions < 1:
        raise ValueError("num_captions must be >= 1")
    rng = rng_from(seed)
    seen: set[str] = set()
    records = []
    for i in range(num_captions):
        text = "a %s %s %s" % (
            _ADJECTIVES[rng.integers(len(_ADJECTIVES))],
            _NOUNS[rng.integers(len(_NOUNS))],
            _CONTEXTS[rng.integers(len(_CONTEXTS))],
        )
        k = 2
        candidate = text
        while normalize_text(candidate) in seen:
            candidate = f"{text}, variant {k}"
            k += 1
        seen.add(normalize_text(candidate))
        records.append(
            CaptionRecord(
                caption_id=i,
                text=candidate,
                prompt=prompt_from_text(i, candidate, num_classes),
            )
        )
    return records


def dedup_captions(records: list[CaptionRecord]) -> list[CaptionRecord]:
    """Keep the first occurrence of each normalized text; preserve order."""
    seen: set[str] = set()
    kept = []
    for rec in records:
        key = normalize_text(rec.text)
        if key in seen:
            continue
        seen.add(key)
        kept.append(rec)
    return kept


@dataclass(frozen=True)
class GenerationBudget:
    """A fixed image budget T split as T/l captions times l images each."""

    total_images: int
    images_per_caption: int
    num_captions: int


def split_budget(total_images: int, images_per_caption: int) -> GenerationBudget:
    if total_images < 1 or images_per_caption < 1:
        raise ValueError("budget quantities must be positive")
    if total_images % images_per_caption != 0:
        raise ValueError(
            f"images_per_caption={images_per_caption} does not divide "
            f"total_images={total_images}"
        )
    return GenerationBudget(
        total_images=total_images,
        images_per_caption=images_per_caption,
        num_captions=total_images // images_per_caption,
    )


@dataclass(frozen=True)
class BatchSpec:
    """n captions times m samples per caption; batch size C = n * m."""

    num_captions: int
    samples_per_caption: int

    def __post_init__(self) -> None:
        _check_numbers(self)
        if self.num_captions < 2:
            raise ValueError("num_captions must be >= 2")
        if self.samples_per_caption < 1:
            raise ValueError("samples_per_caption must be >= 1")

    @property
    def total(self) -> int:
        return self.num_captions * self.samples_per_caption


def augment_batch(features: np.ndarray, strength: float, seed: int) -> np.ndarray:
    """Additive Gaussian noise then uniform rescaling of each row, seeded.

    out_i = u_i * (x_i + strength * g_i) with g ~ N(0, I) one noise matrix and
    u_i ~ U[1 - strength, 1 + strength] one scale per row. strength=0 returns
    a copy of the input.
    """
    if not np.isfinite(strength) or strength < 0:
        raise ValueError("strength must be finite and >= 0")
    x = np.asarray(features, dtype=float)
    if strength == 0.0:
        return x.copy()
    rng = rng_from(SALT_AUGMENT, seed)
    g = rng.standard_normal(x.shape)
    u = rng.uniform(1.0 - strength, 1.0 + strength, size=x.shape[0])
    return u[:, None] * (x + strength * g)


def sample_batch(
    caption_rows: dict[int, np.ndarray],
    caption_ids: np.ndarray,
    samples_per_caption: int,
    seed: int,
) -> np.ndarray:
    """Manifest rows of a caption-major batch: for each caption in the given
    order, `samples_per_caption` of its rows drawn without replacement.

    `caption_rows` maps each caption id to its manifest rows in manifest
    order; epoch passes supply the captions as a slice of a permutation.
    """
    rng = rng_from(SALT_BATCH, seed)
    m = samples_per_caption
    rows = np.empty(len(caption_ids) * m, dtype=np.int64)
    for j, cid in enumerate(caption_ids):
        avail = caption_rows[int(cid)]
        pick = rng.choice(avail.size, size=m, replace=False)
        rows[j * m : (j + 1) * m] = avail[pick]
    return rows
