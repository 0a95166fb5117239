"""Contrastive representation learning on synthetic data at desk scale.

A guided toy diffusion sampler plays the role of a text-to-image generator:
each caption maps to a Gaussian component in feature space, and classifier-free
guidance trades sample diversity for prompt fidelity. Encoders are pretrained
with a multi-positive contrastive objective that treats every image sampled
from the same caption as a positive, then scored with linear probes and
episodic few-shot classification. Everything runs on numpy alone and is
deterministic given a master seed.
"""

from .data import BatchSpec, synth_captions
from .encoder import Encoder
from .evaluate import (
    EpisodeSpec,
    ProbeConfig,
    encode_dataset,
    fewshot_eval,
    linear_probe,
    stratified_split,
)
from .generator import GeneratorConfig, caption_to_component, generate_dataset
from .losses import (
    EmbeddingBatch,
    contrastive_distribution,
    match_distribution,
    multi_positive_loss,
)
from .train import TrainConfig, Trainer, sub_params

__version__ = "0.1.0"

# The names the demos and the README example use; everything else is
# imported from its submodule (synthrep.generator, synthrep.train, ...).
__all__ = [
    "__version__",
    # generator
    "GeneratorConfig",
    "caption_to_component",
    "generate_dataset",
    # data
    "BatchSpec",
    "synth_captions",
    # losses
    "EmbeddingBatch",
    "contrastive_distribution",
    "match_distribution",
    "multi_positive_loss",
    # encoder
    "Encoder",
    # train
    "TrainConfig",
    "Trainer",
    "sub_params",
    # evaluate
    "EpisodeSpec",
    "ProbeConfig",
    "encode_dataset",
    "fewshot_eval",
    "linear_probe",
    "stratified_split",
]
