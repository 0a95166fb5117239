import numpy as np
import pytest
from scipy.special import gammaln

from synthrep.data import (
    BatchSpec,
    augment_batch,
    dedup_captions,
    load_captions,
    normalize_text,
    sample_batch,
    split_budget,
    synth_captions,
)
from synthrep.encoder import EncoderConfig
from synthrep.generator import GeneratorConfig, generate_dataset
from synthrep.manifest import DatasetManifest
from synthrep.seeding import SALT_BATCH, derive_u64, rng_from
from synthrep.train import TrainConfig, Trainer


def toy_manifest(num_captions=8, per_caption=5):
    cfg = GeneratorConfig(feature_dim=4, num_classes=3, ddim_steps=5)
    recs = synth_captions(num_captions, 3, seed=1)
    return generate_dataset([r.prompt for r in recs], per_caption, cfg, seed=2)


def rows_by_caption(man):
    return {int(c): np.flatnonzero(man.caption_ids == c) for c in man.unique_caption_ids}


def test_normalize_text():
    assert normalize_text("  A  Dog\tRuns \n") == "a dog runs"


def test_load_captions_line_numbers_are_ids(tmp_path):
    p = tmp_path / "caps.txt"
    p.write_text("a cat\n\n  a DOG \na cat\n")
    recs = load_captions(str(p), num_classes=4)
    # blank line consumes id 1, so ids are 0, 2, 3
    assert [r.caption_id for r in recs] == [0, 2, 3]
    assert [r.text for r in recs] == ["a cat", "  a DOG ", "a cat"]
    assert all(0 <= r.prompt.class_id < 4 for r in recs)
    # same normalized text must map to the same component
    assert recs[0].prompt.prompt_seed == recs[2].prompt.prompt_seed


def test_dedup_keeps_first_occurrence(tmp_path):
    p = tmp_path / "caps.txt"
    p.write_text("a cat\na DOG\nA  cat\na bird\n")
    recs = dedup_captions(load_captions(str(p), num_classes=3))
    assert [r.text for r in recs] == ["a cat", "a DOG", "a bird"]


def test_synth_captions_distinct_and_deterministic():
    a = synth_captions(300, 5, seed=9)
    b = synth_captions(300, 5, seed=9)
    assert [r.text for r in a] == [r.text for r in b]
    assert len({normalize_text(r.text) for r in a}) == 300
    assert [r.caption_id for r in a] == list(range(300))
    c = synth_captions(300, 5, seed=10)
    assert [r.text for r in c] != [r.text for r in a]


def test_split_budget():
    b = split_budget(5000, 4)
    assert (b.num_captions, b.images_per_caption, b.total_images) == (1250, 4, 5000)
    with pytest.raises(ValueError):
        split_budget(5000, 3)
    with pytest.raises(ValueError):
        split_budget(0, 1)


def test_batch_spec_and_total():
    spec = BatchSpec(4, 3)
    assert spec.total == 12
    with pytest.raises(ValueError):
        BatchSpec(1, 3)
    with pytest.raises(ValueError):
        BatchSpec(4, 0)
    with pytest.raises(ValueError, match="num_captions"):
        BatchSpec(4.0, 3)
    assert BatchSpec(np.int64(4), 3).total == 12


def test_augment_strength_zero_is_copy():
    x = np.arange(8.0).reshape(2, 4)
    y = augment_batch(x, 0.0, seed=4)
    np.testing.assert_array_equal(x, y)
    assert y is not x


def test_augment_deterministic_and_strength_dependent():
    x = np.ones((3, 16))
    a = augment_batch(x, 0.3, seed=5)
    b = augment_batch(x, 0.3, seed=5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, augment_batch(x, 0.3, seed=6))
    assert not np.allclose(a, augment_batch(x, 0.2, seed=5))


def test_augment_noise_magnitude_oracle():
    # E || out/u - x || = s * E||g|| with ||g|| chi(d);
    # E chi(d) = sqrt(2) * Gamma((d+1)/2) / Gamma(d/2)
    d, s, n = 12, 0.7, 4000
    x = np.zeros((n, d))
    norms = np.linalg.norm(augment_batch(x, s, seed=3), axis=1)
    # each row draws its own u and g, independent, E[u] = 1, so
    # E||out_i|| = s * E chi(d)
    chi_mean = np.sqrt(2.0) * np.exp(gammaln((d + 1) / 2.0) - gammaln(d / 2.0))
    expected = s * chi_mean
    chi_std = np.sqrt(d - chi_mean**2)
    # u in [0.3, 1.7] inflates the spread; bound loosely at 6 sigma
    assert abs(norms.mean() - expected) < 6 * s * chi_std / np.sqrt(n)


def test_augment_batch_matches_elementwise_structure():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3))
    out = augment_batch(x, 0.2, seed=11)
    assert out.shape == x.shape
    # recover per-row scale: out = u * (x + s g); rows with the same seed share g
    out2 = augment_batch(x, 0.2, seed=11)
    np.testing.assert_array_equal(out, out2)
    assert not np.allclose(out, x)


def test_sample_batch_shapes_and_membership():
    man = toy_manifest()
    table = rows_by_caption(man)
    cids = man.unique_caption_ids[[6, 1, 3, 0]]
    rows = sample_batch(table, cids, 3, seed=21)
    assert rows.shape == (12,)
    # caption-major: three distinct rows of each caption, in the given order
    np.testing.assert_array_equal(man.caption_ids[rows], np.repeat(cids, 3))
    for j in range(4):
        assert len(set(rows[3 * j : 3 * j + 3].tolist())) == 3


def test_sample_batch_deterministic_and_seed_sensitive():
    man = toy_manifest()
    table = rows_by_caption(man)
    cids = man.unique_caption_ids[:3]
    r1 = sample_batch(table, cids, 2, seed=33)
    np.testing.assert_array_equal(r1, sample_batch(table, cids, 2, seed=33))
    assert not np.array_equal(r1, sample_batch(table, cids, 2, seed=34))


def test_sample_batch_explicit_caption_walk():
    # rows follow the caption order they are given
    man = toy_manifest()
    table = rows_by_caption(man)
    want = man.unique_caption_ids[[5, 0, 2]]
    rows = sample_batch(table, want, 2, seed=1)
    np.testing.assert_array_equal(man.caption_ids[rows][::2], want)
    again = sample_batch(table, want[[1, 0, 2]], 2, seed=1)
    np.testing.assert_array_equal(man.caption_ids[again][::2], want[[1, 0, 2]])


def test_sample_batch_requires_enough_samples():
    man = toy_manifest(per_caption=2)
    with pytest.raises(ValueError):
        sample_batch(rows_by_caption(man), man.unique_caption_ids[:2], 3, seed=0)
    cfg = TrainConfig(
        batch_spec=BatchSpec(2, 3),
        epochs=3,
        warmup_epochs=0.0,
        encoder=EncoderConfig(input_dim=4, mlp_widths=(8,), head_hidden=8, head_out=4),
    )
    with pytest.raises(ValueError, match="3 samples per caption; a caption has 2"):
        Trainer(man, cfg)


def interleaved(man, seed):
    """The manifest with its rows permuted, so caption rows interleave."""
    perm = np.random.default_rng(seed).permutation(man.num_samples)
    return DatasetManifest(
        config=man.config,
        master_seed=man.master_seed,
        caption_ids=man.caption_ids[perm],
        class_ids=man.class_ids[perm],
        prompt_seeds=man.prompt_seeds[perm],
        latent_seeds=man.latent_seeds[perm],
        guidance_scales=man.guidance_scales[perm],
        features=man.features[perm],
        sampler=man.sampler,
    )


@pytest.mark.parametrize("variant, m", [("multi_positive", 3), ("simclr_reduction", 2)])
def test_assemble_on_interleaved_manifest_matches_a_caption_scan(variant, m):
    # the row table must keep each caption's rows in manifest order; a manifest
    # from generate_dataset stores them contiguously, which hides an unstable sort
    man = interleaved(toy_manifest(num_captions=8, per_caption=5), seed=3)
    assert np.any(np.diff(man.caption_ids[:10]) != 0)
    cfg = TrainConfig(
        batch_spec=BatchSpec(4, m),
        loss_variant=variant,
        epochs=6,
        warmup_epochs=0.0,
        augment_strength=0.2,
        encoder=EncoderConfig(input_dim=4, mlp_widths=(8,), head_hidden=8, head_out=4),
        seed=7,
    )
    trainer = Trainer(man, cfg)
    for step in range(trainer.total_steps):
        feats, ids, texts = trainer.assemble(step)
        cids = trainer._caption_slice(step)
        step_seed = derive_u64(cfg.seed, 2, step)
        scans = [np.flatnonzero(man.caption_ids == c) for c in cids]
        if variant == "simclr_reduction":
            rows = np.repeat([scan[0] for scan in scans], 2)
        else:
            rng = rng_from(SALT_BATCH, step_seed)
            rows = np.concatenate(
                [scan[rng.choice(scan.size, size=m, replace=False)] for scan in scans]
            )
        expected = augment_batch(man.features[rows], cfg.augment_strength, step_seed)
        np.testing.assert_array_equal(feats, expected)
        np.testing.assert_array_equal(ids, man.caption_ids[rows])
        assert texts is None
