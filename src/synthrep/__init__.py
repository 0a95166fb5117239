"""Contrastive representation learning on synthetic data at desk scale.

A guided toy diffusion sampler plays the role of a text-to-image generator:
each caption maps to a Gaussian component in feature space, and classifier-free
guidance trades sample diversity for prompt fidelity. Encoders are pretrained
with a multi-positive contrastive objective that treats every image sampled
from the same caption as a positive, then scored with linear probes and
episodic few-shot classification. Everything runs on numpy plus scipy and is
deterministic given a master seed.
"""

from .data import (
    Batch,
    BatchSpec,
    CaptionRecord,
    GenerationBudget,
    augment,
    augment_batch,
    dedup_captions,
    epoch_plan,
    load_captions,
    sample_batch,
    split_budget,
    synth_captions,
)
from .encoder import Encoder, EncoderConfig, Representation
from .evaluate import (
    EpisodeSpec,
    EvalReport,
    ProbeConfig,
    encode_dataset,
    fewshot_eval,
    fit_logreg,
    linear_probe,
    load_features,
    save_features,
    stratified_split,
)
from .generator import (
    DiffusionSchedule,
    GeneratorConfig,
    PromptSpec,
    SamplerNumericsError,
    SyntheticSample,
    caption_offset,
    caption_to_component,
    cfg_epsilon,
    class_center,
    ddim_sample,
    epsilon_cond,
    epsilon_uncond,
    generate_dataset,
    prompt_from_text,
)
from .losses import (
    EmbeddingBatch,
    LossOutput,
    PairLossOutput,
    TextLossOutput,
    contrastive_distribution,
    match_distribution,
    multi_positive_loss,
    multi_positive_with_text_loss,
    pair_contrastive_loss,
)
from .manifest import DatasetManifest, config_hash, fmt_float, read_manifest, write_manifest
from .report import emit_report
from .seeding import caption_fingerprint, derive_u64, rng_from, seed_sequence
from .train import (
    LOSS_VARIANTS,
    OptimizerState,
    TrainConfig,
    Trainer,
    TrainingDivergedError,
    TrainState,
    adamw_step,
    init_opt_state,
    load_checkpoint,
    lr_at,
    run_training,
    save_checkpoint,
    sub_params,
    train_config_hash,
    train_step,
    write_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # generator
    "DiffusionSchedule",
    "GeneratorConfig",
    "PromptSpec",
    "SamplerNumericsError",
    "SyntheticSample",
    "caption_offset",
    "caption_to_component",
    "cfg_epsilon",
    "class_center",
    "ddim_sample",
    "epsilon_cond",
    "epsilon_uncond",
    "generate_dataset",
    "prompt_from_text",
    # manifest
    "DatasetManifest",
    "config_hash",
    "fmt_float",
    "read_manifest",
    "write_manifest",
    # data
    "Batch",
    "BatchSpec",
    "CaptionRecord",
    "GenerationBudget",
    "augment",
    "augment_batch",
    "dedup_captions",
    "epoch_plan",
    "load_captions",
    "sample_batch",
    "split_budget",
    "synth_captions",
    # losses
    "EmbeddingBatch",
    "LossOutput",
    "PairLossOutput",
    "TextLossOutput",
    "contrastive_distribution",
    "match_distribution",
    "multi_positive_loss",
    "multi_positive_with_text_loss",
    "pair_contrastive_loss",
    # encoder
    "Encoder",
    "EncoderConfig",
    "Representation",
    # train
    "LOSS_VARIANTS",
    "OptimizerState",
    "TrainConfig",
    "TrainState",
    "Trainer",
    "TrainingDivergedError",
    "adamw_step",
    "init_opt_state",
    "load_checkpoint",
    "lr_at",
    "run_training",
    "save_checkpoint",
    "sub_params",
    "train_config_hash",
    "train_step",
    "write_metrics",
    # evaluate
    "EpisodeSpec",
    "EvalReport",
    "ProbeConfig",
    "encode_dataset",
    "fewshot_eval",
    "fit_logreg",
    "linear_probe",
    "load_features",
    "save_features",
    "stratified_split",
    # report
    "emit_report",
    # seeding
    "caption_fingerprint",
    "derive_u64",
    "rng_from",
    "seed_sequence",
]
