"""End-to-end run at demo scale: generate, pretrain, probe, few-shot.

Generates a caption-grouped synthetic dataset, pretrains two encoders on the
same images (multi-positive objective vs the two-view reduction that ignores
the extra positives), then compares frozen-feature quality with a linear
probe and a few-shot episode suite. Runs at the default schedule; expect
about a minute end to end.
"""

from synthrep import (
    BatchSpec,
    Encoder,
    EpisodeSpec,
    GeneratorConfig,
    ProbeConfig,
    TrainConfig,
    Trainer,
    encode_dataset,
    fewshot_eval,
    generate_dataset,
    linear_probe,
    stratified_split,
    sub_params,
    synth_captions,
)


def pretrain(manifest, variant, spec, seed=0):
    cfg = TrainConfig(batch_spec=spec, loss_variant=variant, seed=seed)
    trainer = Trainer(manifest, cfg)
    ts = trainer.init_state()
    metrics = trainer.run(ts)
    print(
        f"  {variant:18s} {ts.step:4d} steps, loss "
        f"{metrics[0]['loss']:.3f} -> {metrics[-1]['loss']:.3f}"
    )
    return cfg, ts


def frozen_features(manifest, cfg, ts):
    enc = Encoder(cfg.encoder)
    return encode_dataset(manifest, enc, sub_params(ts.params, "img."))


def main():
    gcfg = GeneratorConfig()
    records = synth_captions(500, gcfg.num_classes, seed=1)
    prompts = [r.prompt for r in records]
    train_man = generate_dataset(prompts, 10, gcfg, seed=2)
    print(f"pretraining data: {train_man.num_samples} images, 500 captions")

    eval_records = synth_captions(150, gcfg.num_classes, seed=3)
    eval_man = generate_dataset(
        [r.prompt for r in eval_records], 5, gcfg, seed=4, sampler="direct"
    )
    fit_rows, test_rows = stratified_split(eval_man.class_ids, 0.5, seed=5)

    print("pretraining (same images, same budget):")
    runs = {
        "multi_positive": pretrain(train_man, "multi_positive", BatchSpec(20, 6)),
        "simclr_reduction": pretrain(train_man, "simclr_reduction", BatchSpec(20, 2)),
    }

    print("\nfrozen-feature evaluation:")
    for name, (cfg, ts) in runs.items():
        feats = frozen_features(eval_man, cfg, ts)
        probe = linear_probe(
            feats[fit_rows],
            eval_man.class_ids[fit_rows],
            feats[test_rows],
            eval_man.class_ids[test_rows],
            ProbeConfig(seed=6),
        )
        few = fewshot_eval(
            feats,
            eval_man.class_ids,
            EpisodeSpec(ways=5, shots=5, queries_per_class=15, episodes=60, seed=7),
        )
        print(
            f"  {name:18s} probe {probe.accuracy:.3f} +- {probe.ci95:.3f}, "
            f"5-way 5-shot {few.accuracy:.3f} +- {few.ci95:.3f}"
        )
    print(
        "\nall samples of a caption act as positives for the multi-positive "
        "objective; the two-view run sees the same images but only ever pairs "
        "two augmentations of one of them."
    )


if __name__ == "__main__":
    main()
