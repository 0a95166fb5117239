import hashlib
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import logsumexp

from synthrep.generator import (
    GeneratorConfig,
    PromptSpec,
    SamplerNumericsError,
    caption_to_component,
    class_center,
    epsilon_cond,
    epsilon_uncond,
    generate_dataset,
    prompt_from_text,
)
from synthrep.seeding import rng_from


def small_cfg(**kw):
    base = dict(feature_dim=6, num_classes=3, ddim_steps=20)
    base.update(kw)
    return GeneratorConfig(**base)


def random_prompt(rng, num_classes=3):
    return PromptSpec(
        caption_id=int(rng.integers(0, 1000)),
        class_id=int(rng.integers(0, num_classes)),
        prompt_seed=int(rng.integers(0, 2**63)),
    )


# -- independent log-density oracles. These recompute the noisy marginals from
# first principles: z_t = alpha*x0 + sigma*eps with x0 ~ N(mean, var*I), so
# z_t ~ N(alpha*mean, (alpha^2*var + sigma^2)*I). The score is differenced
# numerically, never taken from the implementation under test.


def cond_logpdf(z, mean, var, alpha, sigma):
    total = alpha**2 * var + sigma**2
    diff = z - alpha * mean
    d = z.shape[-1]
    return -0.5 * (diff @ diff) / total - 0.5 * d * np.log(2.0 * np.pi * total)


def uncond_logpdf(z, centers, var, alpha, sigma):
    comps = [cond_logpdf(z, c, var, alpha, sigma) for c in centers]
    return logsumexp(comps) - np.log(len(centers))


def fd_score(logpdf, z, h=1e-6):
    g = np.empty_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (logpdf(zp) - logpdf(zm)) / (2.0 * h)
    return g


def test_schedule_invariants():
    for steps in (1, 2, 50):
        sched = GeneratorConfig(ddim_steps=steps).schedule
        assert sched.alphas.shape == sched.sigmas.shape == (steps,)
        assert np.all(np.diff(sched.alphas) > 0)
        np.testing.assert_allclose(sched.alphas**2 + sched.sigmas**2, 1.0, rtol=0, atol=1e-12)
        assert min(sched.alphas.min(), sched.sigmas.min()) >= 1e-4 * (1 - 1e-12)
        assert sched.alphas[0] < 1e-3
    # one step is the noisy end alone, as np.linspace gives its start
    np.testing.assert_allclose(GeneratorConfig(ddim_steps=1).schedule.alphas, [1e-4], rtol=1e-12)
    assert sched.alphas[-1] > 0.999


def test_schedule_rejects_bad_steps():
    for steps in (0, -1):
        with pytest.raises(ValueError, match="ddim_steps"):
            GeneratorConfig(ddim_steps=steps)


def test_class_center_deterministic_and_scaled():
    cfg = small_cfg()
    c1 = class_center(0, cfg)
    c2 = class_center(0, cfg)
    np.testing.assert_array_equal(c1, c2)
    assert c1.shape == (6,)
    cfg2 = small_cfg(class_center_scale=2.0 * cfg.class_center_scale)
    np.testing.assert_allclose(class_center(0, cfg2), 2.0 * c1, rtol=1e-15)


def test_zero_scales_give_zero_mean():
    cfg = small_cfg(class_center_scale=0.0, caption_offset_scale=0.0)
    prompt = PromptSpec(caption_id=0, class_id=1, prompt_seed=123)
    mean, cls = caption_to_component(prompt, cfg)
    np.testing.assert_array_equal(mean, np.zeros(6))
    assert cls == 1


def test_caption_offsets_average_to_class_center():
    # Monte-Carlo over the deterministic offset generator: the mean of many
    # caption means should approach the class center at the 1/sqrt(n) rate.
    cfg = small_cfg(caption_offset_scale=1.0)
    rng = np.random.default_rng(0)
    means = []
    for _ in range(1000):
        prompt = PromptSpec(0, 2, int(rng.integers(0, 2**63)))
        mean, _ = caption_to_component(prompt, cfg)
        means.append(mean)
    avg = np.mean(means, axis=0)
    center = class_center(2, cfg)
    se = cfg.caption_offset_scale / np.sqrt(1000.0)
    assert np.all(np.abs(avg - center) < 3.5 * se)


def test_prompt_from_text_stable():
    p1 = prompt_from_text(0, "a dog", 3)
    p2 = prompt_from_text(5, "a dog", 3)
    assert p1.prompt_seed == p2.prompt_seed
    assert p1.class_id == p2.class_id
    assert 0 <= p1.class_id < 3


def test_epsilon_cond_matches_fd_score():
    # eps(z, t) must equal -sigma * grad_z log q_t(z | caption) for the exact
    # conditional Gaussian. 200 random (z, t) instances.
    cfg = small_cfg()
    rng = np.random.default_rng(1)
    sched = cfg.schedule
    worst = 0.0
    var = cfg.conditional_std**2
    for _ in range(200):
        prompt = random_prompt(rng)
        mean, _ = caption_to_component(prompt, cfg)
        k = int(rng.integers(0, sched.alphas.size))
        alpha, sigma = sched.alphas[k], sched.sigmas[k]
        z = rng.standard_normal(6) * 2.0
        eps = epsilon_cond(z, k, prompt, cfg)
        score = fd_score(lambda q: cond_logpdf(q, mean, var, alpha, sigma), z)
        rel = np.max(np.abs(eps - (-sigma * score))) / max(np.max(np.abs(eps)), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-5


def test_epsilon_uncond_matches_fd_score():
    cfg = small_cfg()
    rng = np.random.default_rng(2)
    sched = cfg.schedule
    centers = [class_center(c, cfg) for c in range(cfg.num_classes)]
    var = cfg.conditional_std**2 + cfg.caption_offset_scale**2
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(0, sched.alphas.size))
        alpha, sigma = sched.alphas[k], sched.sigmas[k]
        z = rng.standard_normal(6) * 2.0
        eps = epsilon_uncond(z, k, cfg)
        score = fd_score(lambda q: uncond_logpdf(q, centers, var, alpha, sigma), z)
        rel = np.max(np.abs(eps - (-sigma * score))) / max(np.max(np.abs(eps)), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-5


def test_epsilon_uncond_single_class_reduces_to_cond():
    # one component: the marginal is a single Gaussian at the class center with
    # the offset-inflated variance
    cfg = small_cfg(num_classes=1, caption_offset_scale=0.0)
    prompt = PromptSpec(0, 0, 77)
    sched = cfg.schedule
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(0, sched.alphas.size))
        z = rng.standard_normal(6)
        e_u = epsilon_uncond(z, k, cfg)
        e_c = epsilon_cond(z, k, prompt, cfg)
        np.testing.assert_allclose(e_u, e_c, atol=1e-12)

    cfg2 = small_cfg(num_classes=1, caption_offset_scale=0.7)
    center = class_center(0, cfg2)
    var = cfg2.conditional_std**2 + 0.7**2
    for k in (0, 10, 19):
        alpha, sigma = cfg2.schedule.alphas[k], cfg2.schedule.sigmas[k]
        z = rng.standard_normal(6)
        total = alpha**2 * var + sigma**2
        m = center + (alpha * var / total) * (z - alpha * center)
        np.testing.assert_allclose(
            epsilon_uncond(z, k, cfg2), (z - alpha * m) / sigma, atol=1e-12
        )


def test_epsilon_uncond_equidistant_cancels_center_pull():
    # A point equidistant from both scaled centers gets equal responsibilities,
    # so the mixture eps reduces to a shrinkage of z plus the shared-mean pull;
    # for symmetric centers that pull vanishes and eps is aligned with z.
    cfg = small_cfg(num_classes=2)
    c0, c1 = class_center(0, cfg), class_center(1, cfg)
    k = cfg.schedule.alphas.size - 5
    alpha, sigma = cfg.schedule.alphas[k], cfg.schedule.sigmas[k]
    rng = np.random.default_rng(4)
    axis = alpha * (c0 - c1)
    z = rng.standard_normal(6)
    z -= ((z - 0.5 * alpha * (c0 + c1)) @ axis) / (axis @ axis) * axis
    d0 = np.linalg.norm(z - alpha * c0)
    d1 = np.linalg.norm(z - alpha * c1)
    assert d0 == pytest.approx(d1, rel=1e-12)

    var = cfg.conditional_std**2 + cfg.caption_offset_scale**2
    shrink = alpha * var / (alpha**2 * var + sigma**2)
    expected = (z - alpha * (shrink * z + (1.0 - alpha * shrink) * 0.5 * (c0 + c1))) / sigma
    eps = epsilon_uncond(z, k, cfg)
    np.testing.assert_allclose(eps, expected, atol=1e-10)
    # the z-dependence alone is a pure rescaling: aligned with z
    residual = eps - (-(alpha / sigma) * (1.0 - alpha * shrink) * 0.5 * (c0 + c1))
    cosine = residual @ z / (np.linalg.norm(residual) * np.linalg.norm(z))
    assert cosine == pytest.approx(1.0, abs=1e-10)


def long_double_mixture_eps(z, centers, var, alpha, sigma):
    """The mixture prediction by the (rows, K, d) formula, in np.longdouble:
    responsibilities from the squared distances to the scaled centers, then
    the responsibility-weighted per-component posterior means."""
    z, centers, var, alpha, sigma = (np.asarray(v, dtype=np.longdouble)
                                     for v in (z, centers, var, alpha, sigma))
    total = alpha**2 * var + sigma**2
    diff = z[..., None, :] - alpha * centers
    logits = -0.5 * np.sum(diff * diff, axis=-1) / total
    resp = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    resp /= np.sum(resp, axis=-1, keepdims=True)
    m = np.sum(resp[..., None] * (centers + (alpha * var / total) * diff), axis=-2)
    return (z - alpha * m) / sigma


def test_epsilon_uncond_matches_a_long_double_reference():
    # |z| from 0.1 to about 1e3; the error is taken per row, relative to the
    # row's largest entry. At the last level sigma = 1e-4 turns the
    # reference's own rounding in z - alpha * m into about 1e-11 (and a
    # float64 evaluation of that formula errs by 2-6e-8).
    cfg = small_cfg(num_classes=5, ddim_steps=50)
    centers = np.stack([class_center(k, cfg) for k in range(cfg.num_classes)])
    var = cfg.conditional_std**2 + cfg.caption_offset_scale**2
    rng = np.random.default_rng(5)
    z = rng.standard_normal((200, 6)) * np.logspace(-1, 3, 200)[:, None]
    for k, bound in ((0, 1e-14), (25, 1e-14), (49, 1e-7)):
        alpha, sigma = cfg.schedule.alphas[k], cfg.schedule.sigmas[k]
        ref = long_double_mixture_eps(z, centers, var, alpha, sigma)
        err = np.max(np.abs(epsilon_uncond(z, k, cfg) - ref), axis=1)
        assert np.max(err / np.max(np.abs(ref), axis=1)) < bound, k


def one_step_row(man, row, prompt, cfg, eps_of):
    """A row of a ddim_steps=1 dataset rebuilt from its latent: the sampler
    returns x_hat = (z - sigma * eps) / alpha for eps = eps_of(z)."""
    alpha, sigma = cfg.schedule.alphas[0], cfg.schedule.sigmas[0]
    z = rng_from(int(man.latent_seeds[row])).standard_normal(cfg.feature_dim)
    return (z - sigma * eps_of(z)) / alpha


def test_cfg_epsilon_arithmetic():
    cfg = small_cfg(guidance_scale=3.0, ddim_steps=1)
    prompt = PromptSpec(0, 1, 99)
    man = generate_dataset([prompt], 4, cfg, seed=5)
    for row in range(4):
        expected = one_step_row(
            man, row, prompt, cfg,
            lambda z: 3.0 * epsilon_cond(z, 0, prompt, cfg) - 2.0 * epsilon_uncond(z, 0, cfg),
        )
        np.testing.assert_array_equal(man.features[row], expected)


def test_cfg_epsilon_w1_is_conditional():
    cfg = small_cfg(guidance_scale=1.0, ddim_steps=1)
    prompt = PromptSpec(0, 0, 7)
    man = generate_dataset([prompt], 3, cfg, seed=6)
    for row in range(3):
        expected = one_step_row(man, row, prompt, cfg, lambda z: epsilon_cond(z, 0, prompt, cfg))
        np.testing.assert_array_equal(man.features[row], expected)


def test_ddim_sample_deterministic():
    cfg = small_cfg()
    prompts = [PromptSpec(3, 2, 1234)]
    a = generate_dataset(prompts, 2, cfg, seed=42)
    np.testing.assert_array_equal(a.features, generate_dataset(prompts, 2, cfg, seed=42).features)
    assert not np.allclose(a.features[0], a.features[1])
    assert not np.allclose(a.features, generate_dataset(prompts, 2, cfg, seed=43).features)


def test_ddim_point_mass_limit():
    # conditional_std -> 0 at w=1 collapses the sampler onto the caption mean
    cfg = small_cfg(conditional_std=1e-8, guidance_scale=1.0, ddim_steps=200)
    prompt = PromptSpec(0, 1, 2024)
    mean, _ = caption_to_component(prompt, cfg)
    out = generate_dataset([prompt], 1, cfg, seed=5)
    assert np.linalg.norm(out.features[0] - mean) < 1e-3


def test_generate_dataset_batched_matches_single():
    # rows are independent: generating a subset of the captions, alone or in
    # another order, reproduces the full run's rows bit for bit. 30 captions x
    # 5 images put 150 rows through each step's one mixture evaluation.
    cfg = small_cfg(guidance_scale=2.0)
    prompts = [prompt_from_text(i, f"caption number {i}", 3) for i in range(30)]
    subsets = [[p] for p in prompts[:4]] + [[prompts[3], prompts[1]], prompts[:0:-1]]
    for kw in ({}, {"guidance_scales": [1.0, 2.5, 7.0]}):  # mixed w includes w=1 rows
        full = generate_dataset(prompts, 5, cfg, seed=11, **kw)
        assert full.features.shape == (150, 6)
        for subset in subsets:
            part = generate_dataset(subset, 5, cfg, seed=11, **kw)
            rows = np.concatenate([np.flatnonzero(full.caption_ids == p.caption_id)
                                   for p in subset])
            np.testing.assert_array_equal(part.features, full.features[rows])
            np.testing.assert_array_equal(part.guidance_scales, full.guidance_scales[rows])
    assert set(full.guidance_scales.tolist()) == {1.0, 2.5, 7.0}


# sha256 over features, latent_seeds and guidance_scales of a 6-caption x 4-image
# dataset (d=32, K=10, 10 DDIM steps, seed 17). Recorded with numpy 2.4 on
# x86-64; a numpy build whose exp() rounds differently, or (for w != 1) whose
# matmul kernel does, would need new values.
GOLDEN_BITS = {
    "w1": "dd3496fed483ab441164492c7de71f2e606f40b37a47104eb7222eebb448bcf1",
    "w4": "15c830a32f9062675bded2ac40842a6d7aec94d78ce6cc2a3a44b8f060825d3f",
    "mixed": "09a9f7c1ae40563f4d87641a7fb66cfcf21a8636614ede4874320757d2fbc07b",
    "mixed_with_w1": "655fc6a80aaed41390ebcf3738f5b8842437be1dbe69c9b7e8c2e5a9670af476",
    "direct": "609d6da5cfc0aa4949bac5695368c677c59d55fd1ff7adec19d2cbac05ccf3db",
}


@pytest.mark.parametrize(
    "mode,cfg_kw,gen_kw",
    [
        ("w1", {"guidance_scale": 1.0}, {}),
        ("w4", {"guidance_scale": 4.0}, {}),
        # the CLI's "mixed" guidance group
        ("mixed", {}, {"guidance_scales": [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0]}),
        ("mixed_with_w1", {}, {"guidance_scales": [1.0, 3.0]}),
        ("direct", {}, {"sampler": "direct"}),
    ],
)
def test_generate_dataset_golden_bits(mode, cfg_kw, gen_kw):
    cfg = GeneratorConfig(feature_dim=32, num_classes=10, ddim_steps=10, **cfg_kw)
    prompts = [prompt_from_text(i, f"golden caption {i}", 10) for i in range(6)]
    man = generate_dataset(prompts, 4, cfg, seed=17, **gen_kw)
    h = hashlib.sha256()
    for arr in (man.features, man.latent_seeds, man.guidance_scales):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == GOLDEN_BITS[mode]


def test_generate_dataset_guidance_set_frequencies():
    cfg = small_cfg()
    prompts = [prompt_from_text(i, f"c{i}", 3) for i in range(30)]
    man = generate_dataset(prompts, 20, cfg, seed=9, guidance_scales=[2.0, 8.0])
    vals, counts = np.unique(man.guidance_scales, return_counts=True)
    np.testing.assert_array_equal(vals, [2.0, 8.0])
    # uniform choice over two values: 600 draws, both sides within 5 sigma
    assert abs(counts[0] - 300) < 5 * np.sqrt(600 * 0.25)


def test_generate_dataset_direct_sampler_matches_conditional():
    cfg = small_cfg()
    prompts = [prompt_from_text(i, f"c{i}", 3) for i in range(3)]
    man = generate_dataset(prompts, 50, cfg, seed=13, sampler="direct")
    var = cfg.conditional_std**2
    for p in prompts:
        rows = np.flatnonzero(man.caption_ids == p.caption_id)
        mean, _ = caption_to_component(p, cfg)
        x = man.features[rows]
        assert np.all(np.abs(x.mean(axis=0) - mean) < 5 * np.sqrt(var / len(rows)))


def test_generate_dataset_rng_calls_do_not_grow_with_steps(monkeypatch):
    # seeds are drawn once per latent, per guidance choice, per caption mean and
    # per class center; nothing is re-derived inside the DDIM loop
    import synthrep.generator as gen

    calls = []

    def counting_rng_from(*entropy):
        calls.append(entropy)
        return rng_from(*entropy)

    monkeypatch.setattr(gen, "rng_from", counting_rng_from)
    prompts = [prompt_from_text(i, f"c{i}", 3) for i in range(5)]
    l, counts = 4, []
    for steps in (3, 25):
        cfg = small_cfg(ddim_steps=steps)
        calls.clear()
        generate_dataset(prompts, l, cfg, seed=4, guidance_scales=[1.0, 2.0, 4.0, 8.0])
        counts.append(len(calls))
    n = len(prompts) * l
    assert counts[0] == counts[1]
    assert counts[0] <= n + n + 2 * len(prompts) + cfg.num_classes


def test_sampler_numerics_error_carries_step():
    cfg = small_cfg(guidance_scale=1e160)
    prompt = PromptSpec(0, 0, 1)
    with pytest.raises(SamplerNumericsError) as exc:
        generate_dataset([prompt], 1, cfg, seed=1)
    assert "step" in str(exc.value)


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(feature_dim=1)
    with pytest.raises(ValueError):
        GeneratorConfig(num_classes=0)
    with pytest.raises(ValueError):
        GeneratorConfig(conditional_std=0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(guidance_scale=-0.5)
    for field, value in [
        ("ddim_steps", "5"),
        ("ddim_steps", 3.5),
        ("feature_dim", 4.5),
        ("num_classes", True),
        ("guidance_scale", "1"),
    ]:
        with pytest.raises(ValueError, match=field):
            GeneratorConfig(**{field: value})


def test_config_roundtrip():
    cfg = small_cfg(guidance_scale=4.0)
    again = GeneratorConfig(**asdict(cfg))
    assert asdict(again) == asdict(cfg)
    assert again == cfg
