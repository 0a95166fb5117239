import dataclasses

import numpy as np
import pytest

from synthrep.evaluate import EpisodeSpec
from synthrep.generator import GeneratorConfig
from synthrep.seeding import (
    SALT_AUGMENT,
    SALT_BATCH,
    _check_numbers,
    caption_fingerprint,
    derive_u64,
    rng_from,
)
from synthrep.train import TrainConfig


def test_rng_from_is_deterministic():
    for seed in range(20):
        a = rng_from(SALT_BATCH, seed).standard_normal(8)
        b = rng_from(SALT_BATCH, seed).standard_normal(8)
        np.testing.assert_array_equal(a, b)


def test_different_salts_decorrelate():
    draws_a = rng_from(SALT_BATCH, 7).standard_normal(1000)
    draws_b = rng_from(SALT_AUGMENT, 7).standard_normal(1000)
    assert not np.allclose(draws_a, draws_b)
    # independent streams: correlation should be tiny
    corr = np.corrcoef(draws_a, draws_b)[0, 1]
    assert abs(corr) < 0.1


def test_seed_sequence_children_differ():
    rngs = [rng_from(SALT_BATCH, 3, i) for i in range(10)]
    firsts = [r.standard_normal() for r in rngs]
    assert len(set(firsts)) == 10


def test_derive_u64_range_and_determinism():
    seen = set()
    for i in range(100):
        v = derive_u64(42, i)
        assert 0 <= v < 2**64
        assert derive_u64(42, i) == v
        seen.add(v)
    assert len(seen) == 100


def test_derive_u64_argument_order_matters():
    assert derive_u64(1, 2) != derive_u64(2, 1)


def test_caption_fingerprint_depends_only_on_text():
    s1, c1 = caption_fingerprint("a photo of a dog")
    s2, c2 = caption_fingerprint("a photo of a dog")
    s3, c3 = caption_fingerprint("a photo of a cat")
    assert (s1, c1) == (s2, c2)
    assert (s1, c1) != (s3, c3)
    assert 0 <= s1 < 2**64 and 0 <= c1 < 2**64


def test_caption_fingerprint_matches_sha256():
    import hashlib

    text = "two birds on a wire"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    seed, selector = caption_fingerprint(text)
    assert seed == int.from_bytes(digest[0:8], "little")
    assert selector == int.from_bytes(digest[8:16], "little")


def test_seed_sequence_rejects_negative():
    # np.random.SeedSequence refuses negative entropy, so rng_from does too
    with pytest.raises(ValueError):
        rng_from(SALT_BATCH, -1)
    with pytest.raises(ValueError):
        derive_u64(SALT_BATCH, -1)


def test_an_integer_for_a_float_field_is_stored_as_a_float():
    # _check_numbers stores float(v), so 4 and 4.0 give one config and one dict
    cases = [
        (TrainConfig(tau=1, grad_clip=2), ("tau", "grad_clip")),
        (GeneratorConfig(guidance_scale=np.int64(4)), ("guidance_scale",)),
        (EpisodeSpec(reg_lambda=2), ("reg_lambda",)),
    ]
    for config, names in cases:
        for name in names:
            value = dataclasses.asdict(config)[name]
            assert type(value) is float and value == int(value)
    assert TrainConfig(tau=1) == TrainConfig(tau=1.0)
    assert type(TrainConfig(tau=1).epochs) is int

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        scales: "tuple[float, ...]"
        count: "int"

    frozen = Frozen(scales=(1, 2.5, np.int64(3)), count=2)
    _check_numbers(frozen)
    assert [type(v) for v in frozen.scales] == [float, float, float]
    assert frozen.scales == (1.0, 2.5, 3.0) and type(frozen.count) is int


def test_an_integer_beyond_float_range_is_refused_by_name():
    with pytest.raises(ValueError, match="guidance_scale must be a number within float range"):
        GeneratorConfig(guidance_scale=10**400)
