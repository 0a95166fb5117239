"""Toy text-to-image generator with closed-form noise predictions.

The "image" space is a low-dimensional feature space. Each caption maps to a
Gaussian component N(mu, sigma_c^2 I) whose mean is a class center plus a
caption-specific offset, both drawn deterministically from seeds. Because the
data distribution is Gaussian (conditionally) and a finite Gaussian mixture
(marginally), the variance-preserving diffusion process has exact noise
predictions at every level, so classifier-free guidance and DDIM sampling can
be run literally, without a learned denoiser:

    guided eps = w * eps_cond + (1 - w) * eps_uncond

All operations are pure functions of their arguments plus explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import _softmax
from .seeding import (
    SALT_CAPTION_OFFSET,
    SALT_CLASS_CENTER,
    SALT_GUIDANCE,
    SALT_LATENT,
    _check_numbers,
    caption_fingerprint,
    derive_u64,
    rng_from,
)

__all__ = [
    "PromptSpec",
    "GeneratorConfig",
    "prompt_from_text",
    "class_center",
    "caption_to_component",
    "epsilon_cond",
    "epsilon_uncond",
    "generate_dataset",
]


@dataclass(frozen=True)
class PromptSpec:
    """Identity of one caption: id, class assignment, and its derived seed."""

    caption_id: int
    class_id: int
    prompt_seed: int


def prompt_from_text(caption_id: int, text: str, num_classes: int) -> PromptSpec:
    """Derive a PromptSpec from caption text.

    The seed and class assignment depend only on the exact text, so the same
    caption always maps to the same component.
    """
    prompt_seed, selector = caption_fingerprint(text)
    return PromptSpec(
        caption_id=caption_id,
        class_id=int(selector % num_classes),
        prompt_seed=prompt_seed,
    )


@dataclass(frozen=True)
class DiffusionSchedule:
    """Variance-preserving noise levels along the reverse trajectory:
    alphas[i]^2 + sigmas[i]^2 == 1, alphas increasing from near 0 (pure noise)
    to near 1 (clean). `GeneratorConfig.schedule` builds it."""

    alphas: np.ndarray
    sigmas: np.ndarray


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the toy generator. All scales are in feature-space units."""

    feature_dim: int = 32
    num_classes: int = 10
    class_center_scale: float = 0.35
    caption_offset_scale: float = 1.0
    conditional_std: float = 0.5
    guidance_scale: float = 1.0
    ddim_steps: int = 50

    def __post_init__(self) -> None:
        _check_numbers(self)
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be >= 2")
        # a single class is allowed: the unconditional mixture degenerates to
        # one component, which is a documented reduction of epsilon_uncond
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        for name in ("class_center_scale", "caption_offset_scale"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        if not np.isfinite(self.conditional_std) or self.conditional_std <= 0:
            raise ValueError("conditional_std must be finite and > 0")
        if not np.isfinite(self.guidance_scale) or self.guidance_scale < 0:
            raise ValueError("guidance_scale must be finite and >= 0")
        if self.ddim_steps < 1:
            raise ValueError("ddim_steps must be >= 1")

    @property
    def schedule(self) -> DiffusionSchedule:
        """The cosine schedule of `ddim_steps` uniform angles, built on each
        read; its ends are clamped to alpha >= 1e-4 (noisy) and sigma >= 1e-4
        (clean), so the eps parameterization never divides by zero."""
        theta = np.linspace(np.arccos(1e-4), np.arcsin(1e-4), self.ddim_steps)
        return DiffusionSchedule(alphas=np.cos(theta), sigmas=np.sin(theta))


def class_center(class_id: int, cfg: GeneratorConfig) -> np.ndarray:
    """Center of a class component; a pure function of (class_id, cfg)."""
    rng = rng_from(SALT_CLASS_CENTER, class_id)
    return cfg.class_center_scale * rng.standard_normal(cfg.feature_dim)


def caption_to_component(
    prompt: PromptSpec, cfg: GeneratorConfig
) -> tuple[np.ndarray, int]:
    """Mean of the conditional distribution for this caption, and its class:
    the class center plus a caption offset drawn from the prompt seed."""
    rng = rng_from(SALT_CAPTION_OFFSET, prompt.prompt_seed)
    offset = cfg.caption_offset_scale * rng.standard_normal(cfg.feature_dim)
    return class_center(prompt.class_id, cfg) + offset, prompt.class_id


def _class_centers(cfg: GeneratorConfig) -> np.ndarray:
    """All K class centers stacked as a (K, d) array."""
    return np.stack([class_center(k, cfg) for k in range(cfg.num_classes)])


def _level(schedule: DiffusionSchedule, index: int) -> tuple[float, float]:
    if not 0 <= index < schedule.alphas.size:
        raise IndexError(f"schedule index {index} out of range [0, {schedule.alphas.size})")
    return float(schedule.alphas[index]), float(schedule.sigmas[index])


# -- noise-prediction kernels. Each formula has this one implementation; the
# public epsilon functions and the whole-dataset trajectory both call it.


def _cond_eps(
    z: np.ndarray, mean: np.ndarray, alpha: float, sigma: float, cfg: GeneratorConfig
) -> np.ndarray:
    var = cfg.conditional_std**2
    total = alpha**2 * var + sigma**2
    m = mean + (alpha * var / total) * (z - alpha * mean)
    return (z - alpha * m) / sigma


def _mixture_eps(
    z: np.ndarray, centers: np.ndarray, alpha: float, sigma: float, cfg: GeneratorConfig
) -> np.ndarray:
    var = cfg.conditional_std**2 + cfg.caption_offset_scale**2
    total = alpha**2 * var + sigma**2
    # responsibilities: softmax over k of -|z - alpha c_k|^2 / (2 total), with
    # the |z|^2 term, equal for every k, left out. Both products run one
    # matmul per row, so a row's bits do not depend on how many rows come along.
    logits = (z[..., None, :] @ centers.T)[..., 0, :]  # (..., K)
    logits -= 0.5 * alpha * np.sum(centers * centers, axis=-1)
    logits *= alpha / total
    resp = _softmax(logits)[0]
    # posterior mean m = s z + (1 - s alpha) sum_k r_k c_k with s = alpha var / total,
    # so z - alpha m = (sigma^2 / total) (z - alpha sum_k r_k c_k)
    return (z - alpha * (resp[..., None, :] @ centers)[..., 0, :]) * (sigma / total)


def epsilon_cond(
    z: np.ndarray, level_index: int, prompt: PromptSpec, cfg: GeneratorConfig
) -> np.ndarray:
    """Exact conditional noise prediction for p(x | caption) = N(mu, sigma_c^2 I).

    Under the variance-preserving forward process the posterior mean of x
    given a noisy z at level (alpha, sigma) is

        m = mu + (alpha * sigma_c^2 / (alpha^2 sigma_c^2 + sigma^2)) * (z - alpha * mu)

    and the noise prediction is (z - alpha * m) / sigma. Accepts z with any
    leading batch shape over the last (feature) axis.
    """
    alpha, sigma = _level(cfg.schedule, level_index)
    mu, _ = caption_to_component(prompt, cfg)
    return _cond_eps(z, mu, alpha, sigma, cfg)


def epsilon_uncond(z: np.ndarray, level_index: int, cfg: GeneratorConfig) -> np.ndarray:
    """Exact unconditional noise prediction for the class-level mixture.

    Marginalizing captions within a class inflates the component variance to
    sigma_c^2 + caption_offset_scale^2; the marginal of z is an equal-weight
    mixture over class centers. The prediction is (z - alpha * m) / sigma, as
    in epsilon_cond, for the responsibility-weighted posterior mean m.
    """
    alpha, sigma = _level(cfg.schedule, level_index)
    return _mixture_eps(np.asarray(z, dtype=float), _class_centers(cfg), alpha, sigma, cfg)


class SamplerNumericsError(RuntimeError):
    """Raised when a DDIM intermediate contains NaN or Inf."""


def _ddim_trajectory(
    z0: np.ndarray, means: np.ndarray, w: np.ndarray, centers: np.ndarray, cfg: GeneratorConfig
) -> np.ndarray:
    """Run the deterministic reverse updates on a stack of initial latents.

    Row r of z0 (N, d) is guided toward its caption mean means[r] with scale
    w[r] (an (N, 1) column); rows with w == 1 use the conditional prediction
    alone, the others blend in the mixture over `centers` (K, d). At each
    level: x_hat = (z - sigma * eps) / alpha, then
    z <- alpha' * x_hat + sigma' * eps. Returns the final x_hat. All updates
    are elementwise, per-row reductions or per-row matmuls, so any stack of
    rows gives the same bits as sampling each row alone.
    """
    schedule = cfg.schedule
    steps = schedule.alphas.size
    guided = np.flatnonzero(w[:, 0] != 1.0)
    w_guided = w[guided]
    z = z0
    # overflow here is not a warning condition: it surfaces as a non-finite
    # intermediate and raises with the offending step index
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            alpha, sigma = _level(schedule, i)
            eps = _cond_eps(z, means, alpha, sigma, cfg)
            if guided.size:
                eps_u = _mixture_eps(z[guided], centers, alpha, sigma, cfg)
                eps[guided] = w_guided * eps[guided] + (1.0 - w_guided) * eps_u
            x_hat = (z - sigma * eps) / alpha
            if not np.all(np.isfinite(x_hat)):
                raise SamplerNumericsError(f"non-finite intermediate at step {i}")
            if i + 1 < steps:
                alpha_next, sigma_next = _level(schedule, i + 1)
                z = alpha_next * x_hat + sigma_next * eps
    return x_hat


def generate_dataset(
    captions: list[PromptSpec],
    images_per_caption: int,
    cfg: GeneratorConfig,
    seed: int,
    guidance_scales: list[float] | None = None,
    sampler: str = "ddim",
):
    """Generate `images_per_caption` samples for every caption.

    Per-sample latent seeds are derived from (seed, caption_id, index) by
    counter-based splitting, so the result does not depend on iteration or
    thread order. When `guidance_scales` is given, each sample's w is a
    seeded uniform choice from that set (recorded per sample); otherwise
    cfg.guidance_scale applies to all samples. sampler="direct" draws from
    the exact conditional distribution instead of running the sampler,
    which is useful as held-out evaluation data. The DDIM sampler runs one
    trajectory over all rows at once.

    Returns a DatasetManifest.
    """
    from .manifest import DatasetManifest, _sampler

    _sampler(sampler)
    if images_per_caption < 1:
        raise ValueError("images_per_caption must be >= 1")
    if not captions:
        raise ValueError("captions must be non-empty")
    ids = [p.caption_id for p in captions]
    if len(set(ids)) != len(ids):
        raise ValueError("caption_ids must be unique")
    if guidance_scales is not None and len(guidance_scales) == 0:
        raise ValueError("guidance_scales must be non-empty when given")
    if guidance_scales is not None and not all(np.isfinite(w) and w >= 0 for w in guidance_scales):
        raise ValueError(f"guidance_scales must be finite and >= 0, not {list(guidance_scales)!r}")

    l = images_per_caption
    latent_seeds = []
    for prompt in captions:
        seeds = [derive_u64(seed, SALT_LATENT, prompt.caption_id, j) for j in range(l)]
        if len(set(seeds)) != l:
            raise RuntimeError("latent seed collision within a caption")
        latent_seeds.extend(seeds)
    if guidance_scales is None:
        sample_w = np.full(len(latent_seeds), float(cfg.guidance_scale))
    else:
        picks = [
            rng_from(seed, SALT_GUIDANCE, p.caption_id, j).integers(len(guidance_scales))
            for p in captions
            for j in range(l)
        ]
        sample_w = np.array([guidance_scales[int(k)] for k in picks], dtype=float)

    z0 = np.stack([rng_from(s).standard_normal(cfg.feature_dim) for s in latent_seeds])
    means = np.repeat([caption_to_component(p, cfg)[0] for p in captions], l, axis=0)
    if sampler == "direct":
        features = means + cfg.conditional_std * z0
    else:
        features = _ddim_trajectory(z0, means, sample_w[:, None], _class_centers(cfg), cfg)

    return DatasetManifest(
        config=cfg,
        master_seed=int(seed),
        caption_ids=np.repeat(np.array(ids, dtype=np.int64), l),
        class_ids=np.repeat(np.array([p.class_id for p in captions], dtype=np.int64), l),
        prompt_seeds=np.repeat(np.array([p.prompt_seed for p in captions], dtype=np.uint64), l),
        latent_seeds=np.array(latent_seeds, dtype=np.uint64),
        guidance_scales=sample_w,
        features=features,
        sampler=sampler,
    )
