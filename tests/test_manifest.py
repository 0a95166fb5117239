import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from synthrep.generator import GeneratorConfig, generate_dataset, prompt_from_text
from synthrep.manifest import (
    DatasetManifest,
    _config_hash,
    fmt_float,
    read_manifest,
    write_manifest,
)


def make_manifest(seed=3, sampler="ddim", **cfg_kw):
    base = dict(feature_dim=5, num_classes=3, ddim_steps=8)
    base.update(cfg_kw)
    cfg = GeneratorConfig(**base)
    prompts = [prompt_from_text(i, f"caption {i}", cfg.num_classes) for i in range(6)]
    return generate_dataset(prompts, 4, cfg, seed=seed, sampler=sampler)


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(0)
    for v in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, 200):
        assert float(fmt_float(v)) == v
    assert float(fmt_float(0.1)) == 0.1


def test_write_read_round_trip_values(tmp_path):
    man = make_manifest()
    path = str(tmp_path / "manifest.jsonl")
    write_manifest(man, path)
    back = read_manifest(path)
    np.testing.assert_array_equal(back.features, man.features)
    np.testing.assert_array_equal(back.caption_ids, man.caption_ids)
    np.testing.assert_array_equal(back.class_ids, man.class_ids)
    np.testing.assert_array_equal(back.prompt_seeds, man.prompt_seeds)
    np.testing.assert_array_equal(back.latent_seeds, man.latent_seeds)
    np.testing.assert_array_equal(back.guidance_scales, man.guidance_scales)
    assert back.sampler == man.sampler
    assert back.config == man.config
    assert back.hash() == man.hash()


def test_manifest_without_samples_is_refused_at_construction():
    # so write_manifest cannot write one and read_manifest cannot return one
    none = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^the manifest holds no samples$"):
        DatasetManifest(
            config=GeneratorConfig(feature_dim=4, num_classes=3, ddim_steps=5),
            master_seed=0,
            caption_ids=none,
            class_ids=none,
            prompt_seeds=none.astype(np.uint64),
            latent_seeds=none.astype(np.uint64),
            guidance_scales=np.zeros(0),
            features=np.zeros((0, 4)),
        )


def test_write_is_byte_deterministic(tmp_path):
    man = make_manifest()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(man, str(p1))
    write_manifest(man, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_rewrite_after_read_is_byte_identical(tmp_path):
    man = make_manifest()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(man, str(p1))
    write_manifest(read_manifest(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = json.loads(p1.read_text().splitlines()[0])
    assert header["content_hash"] == man.hash()


@pytest.mark.parametrize("field", ["feature", "guidance_scale"])
def test_read_rejects_edited_row_value(tmp_path, field):
    # each value on its own parses fine; only the header's content hash
    # shows that the file is not what write_manifest wrote
    p = tmp_path / "m.jsonl"
    write_manifest(make_manifest(), str(p))
    lines = p.read_text().splitlines()
    rec = json.loads(lines[2])
    if field == "feature":
        rec["feature"][1] += 1.0
    else:
        rec["guidance_scale"] += 1.0
    p.write_text("\n".join(lines[:2] + [json.dumps(rec)] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="content hash mismatch") as exc:
        read_manifest(str(p))
    assert str(p) in str(exc.value)


# each edit is coerced by numpy back to the value written, so only a check
# of the JSON type tells the edited file from the original
@pytest.mark.parametrize(
    "field, edit",
    [
        ("caption_id", lambda v: v + 0.9),
        ("caption_id", str),
        ("class_id", float),
        ("latent_seed", str),
        ("guidance_scale", str),
        ("guidance_scale", lambda v: True),
        ("feature", lambda v: [fmt_float(v[0])] + v[1:]),
    ],
    ids=["id_float", "id_string", "class_float", "seed_string", "w_string", "w_bool", "feature"],
)
def test_read_rejects_value_of_the_wrong_json_type(tmp_path, field, edit):
    p = tmp_path / "m.jsonl"
    write_manifest(make_manifest(), str(p))
    lines = p.read_text().splitlines()
    rec = json.loads(lines[1])
    assert rec["guidance_scale"] == 1  # written as the JSON integer 1
    rec[field] = edit(rec[field])
    p.write_text("\n".join(lines[:1] + [json.dumps(rec)] + lines[2:]) + "\n")
    with pytest.raises(ValueError) as exc:
        read_manifest(str(p))
    assert str(exc.value).startswith(f"{p}: line 2 field {field!r} is invalid")


def test_hash_distinguishes_content():
    a = make_manifest(seed=3)
    b = make_manifest(seed=4)
    c = make_manifest(seed=3, sampler="direct")
    assert a.hash() != b.hash()
    assert a.hash() != c.hash()
    assert a.hash() == make_manifest(seed=3).hash()


def test_config_hash_ignores_key_order():
    cfg = GeneratorConfig(feature_dim=5, num_classes=3, ddim_steps=8)
    h1 = _config_hash(cfg, 7)
    h2 = _config_hash(GeneratorConfig(**dict(reversed(list(asdict(cfg).items())))), 7)
    assert h1 == h2
    assert h1 != _config_hash(cfg, 8)


def test_read_rejects_corrupt_header(tmp_path):
    man = make_manifest()
    p = tmp_path / "m.jsonl"
    write_manifest(man, str(p))
    lines = p.read_text().splitlines()

    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(['{"kind":"other"}'] + lines[1:]) + "\n")
    with pytest.raises(ValueError):
        read_manifest(str(bad))

    bad.write_text("\n".join(lines[:-1]) + "\n")  # truncated record list
    with pytest.raises(ValueError):
        read_manifest(str(bad))

    tampered = lines[0].replace('"master_seed":3', '"master_seed":4')
    assert tampered != lines[0]
    bad.write_text("\n".join([tampered] + lines[1:]) + "\n")
    with pytest.raises(ValueError):
        read_manifest(str(bad))


def test_read_names_missing_or_mistyped_fields(tmp_path):
    man = make_manifest()
    p = tmp_path / "m.jsonl"
    write_manifest(man, str(p))
    lines = p.read_text().splitlines()
    header = json.loads(lines[0])
    bad = tmp_path / "bad.jsonl"

    def rejects(head, records, field):
        text = [json.dumps(head, sort_keys=True, separators=(",", ":"))] + records
        bad.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError) as exc:
            read_manifest(str(bad))
        assert str(bad) in str(exc.value)
        assert repr(field) in str(exc.value)

    for field in ("config", "num_samples", "master_seed", "content_hash"):
        rejects({k: v for k, v in header.items() if k != field}, lines[1:], field)
    rejects({**header, "config": {**header["config"], "bogus": 1}}, lines[1:], "config")
    rejects({**header, "config": [1, 2]}, lines[1:], "config")
    rejects({**header, "num_samples": None}, lines[1:], "num_samples")

    rec = json.loads(lines[1])
    for field, value in (("feature", 3.0), ("caption_id", "x"), ("latent_seed", -1)):
        edited = json.dumps({**rec, field: value})
        rejects(header, [edited] + lines[2:], field)
        dropped = json.dumps({k: v for k, v in rec.items() if k != field})
        rejects(header, [dropped] + lines[2:], field)


@pytest.mark.parametrize("sampler", ["foo", 7, None])  # None: the field is missing
def test_read_names_the_file_for_a_bad_or_missing_sampler(tmp_path, sampler):
    p = tmp_path / "m.jsonl"
    write_manifest(make_manifest(), str(p))
    lines = p.read_text().splitlines()
    header = {k: v for k, v in json.loads(lines[0]).items() if k != "sampler"}
    if sampler is not None:
        header["sampler"] = sampler
    p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: header .*'sampler'"):
        read_manifest(str(p))


def test_write_matches_rows_built_with_fmt_float(tmp_path):
    man = make_manifest()
    man.features[0, :4] = [-0.0, 5e-324, 4.0, 1e300]
    man.prompt_seeds[:] = 2**63
    man.latent_seeds[1] = 2**64 - 1
    p = tmp_path / "m.jsonl"
    write_manifest(man, str(p))
    rows = p.read_text().splitlines()[1:]
    assert len(rows) == man.num_samples
    for i, line in enumerate(rows):
        feature = ",".join(fmt_float(v) for v in man.features[i])
        assert line == (
            '{"caption_id":%d,"class_id":%d,"prompt_seed":%d,"latent_seed":%d,'
            '"guidance_scale":%s,"feature":[%s]}'
            % (int(man.caption_ids[i]), int(man.class_ids[i]), int(man.prompt_seeds[i]),
               int(man.latent_seeds[i]), fmt_float(man.guidance_scales[i]), feature)
        )
    assert '"feature":[-0,4.9406564584124654e-324,4,1.0000000000000001e+300,' in rows[0]
    assert '"latent_seed":18446744073709551615,' in rows[1]


def test_manifest_validation_rejects_bad_shapes():
    man = make_manifest()
    with pytest.raises(ValueError):
        DatasetManifest(
            config=man.config,
            master_seed=man.master_seed,
            caption_ids=man.caption_ids[:-1],
            class_ids=man.class_ids,
            prompt_seeds=man.prompt_seeds,
            latent_seeds=man.latent_seeds,
            guidance_scales=man.guidance_scales,
            features=man.features,
        )
    bad_feats = man.features.copy()
    bad_feats[0, 0] = np.nan
    with pytest.raises(ValueError):
        DatasetManifest(
            config=man.config,
            master_seed=man.master_seed,
            caption_ids=man.caption_ids,
            class_ids=man.class_ids,
            prompt_seeds=man.prompt_seeds,
            latent_seeds=man.latent_seeds,
            guidance_scales=man.guidance_scales,
            features=bad_feats,
        )
