import numpy as np
import pytest
from scipy.special import gammaln

from synthrep.data import (
    Batch,
    BatchSpec,
    augment_batch,
    dedup_captions,
    load_captions,
    normalize_text,
    sample_batch,
    split_budget,
    synth_captions,
)
from synthrep.generator import GeneratorConfig, generate_dataset


def toy_manifest(num_captions=8, per_caption=5):
    cfg = GeneratorConfig(feature_dim=4, num_classes=3, ddim_steps=5)
    recs = synth_captions(num_captions, 3, seed=1)
    return generate_dataset([r.prompt for r in recs], per_caption, cfg, seed=2)


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


def test_batch_validates_caption_major_layout():
    feats = np.zeros((6, 2))
    Batch(feats, np.array([3, 3, 1, 1, 2, 2]))  # fine
    with pytest.raises(ValueError):
        Batch(feats, np.array([3, 1, 3, 1, 2, 2]))  # interleaved
    with pytest.raises(ValueError):
        Batch(feats, np.array([3, 3, 3, 1, 2, 2]))  # unequal runs


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
    spec = BatchSpec(4, 3)
    batch = sample_batch(man, spec, seed=21)
    assert batch.features.shape == (12, 4)
    assert batch.num_captions == 4
    assert batch.samples_per_caption == 3
    # every row must be an exact manifest row of its caption
    for i in range(12):
        rows = man.rows_for_caption(int(batch.caption_ids[i]))
        assert any(np.array_equal(batch.features[i], man.features[r]) for r in rows)
    # within a caption, no sample repeats
    for cid in np.unique(batch.caption_ids):
        sel = batch.features[batch.caption_ids == cid]
        assert len({tuple(row) for row in sel}) == len(sel)


def test_sample_batch_deterministic_and_seed_sensitive():
    man = toy_manifest()
    spec = BatchSpec(3, 2)
    b1 = sample_batch(man, spec, seed=33)
    b2 = sample_batch(man, spec, seed=33)
    np.testing.assert_array_equal(b1.features, b2.features)
    b3 = sample_batch(man, spec, seed=34)
    assert not np.array_equal(b1.features, b3.features)


def test_sample_batch_explicit_caption_walk():
    man = toy_manifest()
    spec = BatchSpec(3, 2)
    want = man.unique_caption_ids[[5, 0, 2]]
    batch = sample_batch(man, spec, seed=1, caption_ids=want)
    np.testing.assert_array_equal(batch.caption_ids[::2], want)
    with pytest.raises(ValueError):
        sample_batch(man, spec, seed=1, caption_ids=want[:2])


def test_sample_batch_uniform_caption_coverage():
    # unconstrained draws should hit every caption roughly equally
    man = toy_manifest(num_captions=6, per_caption=4)
    spec = BatchSpec(3, 2)
    counts = np.zeros(6)
    trials = 3000
    for s in range(trials):
        batch = sample_batch(man, spec, seed=s)
        for cid in np.unique(batch.caption_ids):
            counts[list(man.unique_caption_ids).index(cid)] += 1
    expected = trials * 3 / 6
    sd = np.sqrt(trials * (3 / 6) * (1 - 3 / 6))
    assert np.all(np.abs(counts - expected) < 6 * sd)


def test_sample_batch_requires_enough_samples():
    man = toy_manifest(per_caption=2)
    with pytest.raises(ValueError):
        sample_batch(man, BatchSpec(2, 3), seed=0)
    with pytest.raises(ValueError):
        sample_batch(man, BatchSpec(9, 1), seed=0)
