"""Guided sampling walkthrough.

Draws samples for one caption at several guidance scales and shows the
trade-off the generator is built around: small scales keep the caption's
own variation, large scales collapse every draw onto a prototype. Also
checks the deterministic sampler against direct draws from the same
distribution at scale 1, where the two must agree in moments.
"""

import numpy as np

from synthrep import (
    GeneratorConfig,
    caption_to_component,
    generate_dataset,
    synth_captions,
)


def mean_pairwise_distance(x):
    """Mean Euclidean distance over the pairs of rows of x."""
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    i, j = np.triu_indices(len(x), k=1)
    return np.sqrt(np.maximum(d2[i, j], 0.0)).mean()


def main():
    cfg = GeneratorConfig()
    sched = cfg.schedule
    print(
        f"schedule: {sched.alphas.size} levels, alpha "
        f"{sched.alphas[0]:.4f} -> {sched.alphas[-1]:.4f}"
    )

    rec = synth_captions(1, cfg.num_classes, seed=7)[0]
    mean, class_id = caption_to_component(rec.prompt, cfg)
    print(f'caption: "{rec.text}" (class {class_id})')

    # sanity: the deterministic sampler at scale 1 reproduces the caption's
    # conditional distribution
    ddim = generate_dataset([rec.prompt], 4000, cfg, seed=11, sampler="ddim")
    direct = generate_dataset([rec.prompt], 4000, cfg, seed=12, sampler="direct")
    mean_err = np.abs(ddim.features.mean(axis=0) - direct.features.mean(axis=0)).max()
    print(
        f"scale 1 check: worst per-coordinate mean gap ddim vs direct "
        f"{mean_err:.4f} (sigma_c = {cfg.conditional_std})"
    )

    print("\nguidance scale sweep, 4000 samples each:")
    print(f"{'w':>6}  {'spread':>8}  {'center dist':>11}")
    for i, w in enumerate((1.0, 2.0, 4.0, 8.0)):
        man = generate_dataset(
            [rec.prompt], 4000, cfg, seed=20 + i, guidance_scales=np.full(4000, w)
        )
        spread = mean_pairwise_distance(man.features[:1500])
        center_dist = np.linalg.norm(man.features.mean(axis=0) - mean)
        print(f"{w:6.1f}  {spread:8.3f}  {center_dist:11.3f}")
    print(
        "\nlarger scales trade intra-caption spread for prototypicality; "
        "training data for the contrastive objective is drawn at scale 1 "
        "to keep positives diverse."
    )


if __name__ == "__main__":
    main()
