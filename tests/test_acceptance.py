"""Package acceptance gates.

Ten checks covering the objective, its gradients, the guided generator, the
end-to-end training trends, the evaluation harness, and CLI reproducibility.
Each check records a single PASS/FAIL verdict line (rendered after the run in
the "acceptance summary" section, past pytest's capture) and asserts the same
condition.
"""

import json
import math
import os
import time

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import logsumexp

import conftest

from synthrep.cli import main as cli_main
from synthrep.data import BatchSpec, split_budget, synth_captions
from synthrep.encoder import Encoder, EncoderConfig
from synthrep.evaluate import (
    EpisodeSpec,
    ProbeConfig,
    encode_dataset,
    fewshot_eval,
    linear_probe,
    stratified_split,
)
from synthrep.generator import (
    GeneratorConfig,
    caption_to_component,
    class_center,
    epsilon_cond,
    epsilon_uncond,
    generate_dataset,
)
from synthrep.losses import EmbeddingBatch, multi_positive_loss
from synthrep.seeding import derive_u64
from synthrep.train import TrainConfig, Trainer, sub_params

TOTAL = 10


def _report(index: int, name: str, ok: bool, detail: str) -> None:
    line = "[%2d/%d] %s %s: %s" % (index, TOTAL, "PASS" if ok else "FAIL", name, detail)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, line


def _unit_rows(raw):
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _mixed_ids(rng, max_total=12):
    """Caption ids with 2..4 groups of 2..3 members, C <= max_total."""
    groups = int(rng.integers(2, 5))
    sizes = rng.integers(2, 4, size=groups)
    while sizes.sum() > max_total:
        sizes = sizes[:-1]
    if len(sizes) < 2:
        sizes = np.array([2, 2])
    return np.repeat(np.arange(len(sizes)) * 5 + 1, sizes), sizes


def _naive_loss(e, ids, tau):
    """Scalar-loop reference evaluation of the multi-positive objective."""
    c = e.shape[0]
    total = 0.0
    for i in range(c):
        partners = [j for j in range(c) if j != i and ids[j] == ids[i]]
        others = [k for k in range(c) if k != i]
        logits = [float(e[i] @ e[k]) / tau for k in others]
        peak = max(logits)
        denom = sum(math.exp(v - peak) for v in logits)
        for j in partners:
            log_q = float(e[i] @ e[j]) / tau - peak - math.log(denom)
            total -= log_q / len(partners)
    return total / c


def test_01_loss_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ids, _ = _mixed_ids(rng)
        d = int(rng.integers(2, 17))
        tau = float(rng.uniform(0.1, 2.0))
        e = _unit_rows(rng.standard_normal((ids.size, d)))
        got = multi_positive_loss(EmbeddingBatch(e, ids), tau).loss
        ref = _naive_loss(e, ids, tau)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(
        1,
        "loss oracle equivalence",
        ok,
        f"max rel err {worst:.3e} over 1000 mixed batches (limit 1e-12), {elapsed:.1f}s",
    )


def test_02_gradient_correctness():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    h = 1e-5

    worst_emb = 0.0
    for _ in range(100):
        ids, _ = _mixed_ids(rng, max_total=8)
        d = int(rng.integers(3, 6))
        tau = float(rng.uniform(0.2, 1.5))
        raw = rng.standard_normal((ids.size, d))
        out = multi_positive_loss(EmbeddingBatch(raw, ids), tau, normalize=True)
        fd = np.zeros_like(raw)
        for idx in np.ndindex(*raw.shape):
            up, dn = raw.copy(), raw.copy()
            up[idx] += h
            dn[idx] -= h
            fd[idx] = (
                multi_positive_loss(EmbeddingBatch(up, ids), tau, normalize=True).loss
                - multi_positive_loss(EmbeddingBatch(dn, ids), tau, normalize=True).loss
            ) / (2 * h)
        rel = np.max(np.abs(out.grad_embeddings - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst_emb = max(worst_emb, rel)

    mlp = EncoderConfig(input_dim=6, mlp_widths=(8,), head_hidden=8, head_out=4)
    tfm = EncoderConfig(
        input_dim=8, backbone="transformer", patch_size=4, depth=1, width=8,
        heads=2, head_hidden=8, head_out=4,
    )
    worst_par = 0.0
    for i in range(100):
        cfg = mlp if i < 50 else tfm
        enc = Encoder(cfg)
        params = enc.init_params(i)
        x = rng.standard_normal((6, cfg.input_dim))
        ids = np.repeat([0, 1, 2], 2)
        tau = 0.6

        def loss_of(p):
            _, proj, _ = enc.forward(p, x)
            return multi_positive_loss(EmbeddingBatch(proj, ids), tau).loss

        _, proj, tape = enc.forward(params, x)
        out = multi_positive_loss(EmbeddingBatch(proj, ids), tau)
        grads = enc.backward(params, tape, out.grad_embeddings)

        keys = sorted(params)
        analytic, numeric = [], []
        for _ in range(12):
            key = keys[int(rng.integers(len(keys)))]
            j = int(rng.integers(params[key].size))
            mutated = {k: v.copy() for k, v in params.items()}
            flat = mutated[key].reshape(-1)
            flat[j] += h
            up = loss_of(mutated)
            flat[j] -= 2 * h
            dn = loss_of(mutated)
            numeric.append((up - dn) / (2 * h))
            analytic.append(grads[key].reshape(-1)[j])
        analytic, numeric = np.array(analytic), np.array(numeric)
        rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        worst_par = max(worst_par, rel)

    elapsed = time.perf_counter() - t0
    ok = worst_emb < 1e-4 and worst_par < 1e-4 and elapsed < 60.0
    _report(
        2,
        "gradient correctness",
        ok,
        f"embedding grad max rel err {worst_emb:.3e}, parameter grad max rel err "
        f"{worst_par:.3e} (limits 1e-4), {elapsed:.1f}s",
    )


def test_03_two_view_reduction():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 17))
        tau = float(rng.uniform(0.1, 2.0))
        e = _unit_rows(rng.standard_normal((2 * n, d)))
        ids = np.repeat(np.arange(n), 2)
        got = multi_positive_loss(EmbeddingBatch(e, ids), tau).loss

        # independent single-positive reference: one partner, self-masked
        logits = e @ e.T / tau
        np.fill_diagonal(logits, -np.inf)
        partner = np.arange(2 * n) ^ 1
        ref = float(
            np.mean(logsumexp(logits, axis=1) - logits[np.arange(2 * n), partner])
        )
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    ok = worst <= 1e-12
    _report(
        3,
        "two-view reduction",
        ok,
        f"max rel err {worst:.3e} against the single-positive oracle (limit 1e-12)",
    )


def test_04_entropy_lower_bound():
    rng = np.random.default_rng(1004)
    violations = 0
    worst_margin = np.inf
    for _ in range(10000):
        ids, sizes = _mixed_ids(rng)
        e = _unit_rows(rng.standard_normal((ids.size, 5)))
        tau = float(rng.uniform(0.1, 2.0))
        loss = multi_positive_loss(EmbeddingBatch(e, ids), tau).loss
        bound = float(np.mean(np.repeat(np.log(sizes - 1), sizes)))
        margin = loss - bound
        worst_margin = min(worst_margin, margin)
        if margin < -1e-12:
            violations += 1
    ok = violations == 0
    _report(
        4,
        "entropy lower bound",
        ok,
        f"{violations} violations in 10000 batches, tightest margin {worst_margin:.3e}",
    )


def test_05_guided_sampler_fidelity():
    t0 = time.perf_counter()
    cfg = GeneratorConfig()
    rec = synth_captions(1, cfg.num_classes, seed=derive_u64(0, 40))[0]

    ddim = generate_dataset([rec.prompt], 10000, cfg, derive_u64(0, 41), sampler="ddim")
    direct = generate_dataset(
        [rec.prompt], 10000, cfg, derive_u64(0, 42), sampler="direct"
    )
    mean_err = float(
        np.max(np.abs(ddim.features.mean(axis=0) - direct.features.mean(axis=0)))
    )
    mean_limit = 0.05 * cfg.conditional_std
    std_ddim = float(np.sqrt(ddim.features.var(axis=0).mean()))
    std_direct = float(np.sqrt(direct.features.var(axis=0).mean()))
    std_dev = abs(std_ddim / std_direct - 1.0)

    # noise predictions against finite-difference scores of the exact
    # noisy marginals: z_t = alpha x0 + sigma eps
    def cond_logpdf(z, mean, var, alpha, sigma):
        total = alpha**2 * var + sigma**2
        diff = z - alpha * mean
        return -0.5 * (diff @ diff) / total - 0.5 * z.size * np.log(
            2.0 * np.pi * total
        )

    def fd_score(logpdf, z, h=1e-6):
        g = np.empty_like(z)
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            g[i] = (logpdf(zp) - logpdf(zm)) / (2.0 * h)
        return g

    rng = np.random.default_rng(1005)
    sched = cfg.schedule
    centers = [class_center(c, cfg) for c in range(cfg.num_classes)]
    cond_var = cfg.conditional_std**2
    uncond_var = cfg.conditional_std**2 + cfg.caption_offset_scale**2
    mean, _ = caption_to_component(rec.prompt, cfg)
    worst_score = 0.0
    for _ in range(100):
        k = int(rng.integers(0, sched.alphas.size))
        alpha, sigma = sched.alphas[k], sched.sigmas[k]
        z = rng.standard_normal(cfg.feature_dim) * 2.0

        eps = epsilon_cond(z, k, rec.prompt, cfg)
        score = fd_score(lambda q: cond_logpdf(q, mean, cond_var, alpha, sigma), z)
        rel = np.max(np.abs(eps - (-sigma * score))) / max(np.max(np.abs(eps)), 1e-12)
        worst_score = max(worst_score, rel)

        epsu = epsilon_uncond(z, k, cfg)
        mix = fd_score(
            lambda q: logsumexp(
                [cond_logpdf(q, c, uncond_var, alpha, sigma) for c in centers]
            )
            - np.log(len(centers)),
            z,
        )
        rel = np.max(np.abs(epsu - (-sigma * mix))) / max(np.max(np.abs(epsu)), 1e-12)
        worst_score = max(worst_score, rel)

    elapsed = time.perf_counter() - t0
    ok = (
        mean_err < mean_limit
        and std_dev <= 0.05
        and worst_score < 1e-5
        and elapsed < 120.0
    )
    _report(
        5,
        "guided sampler fidelity",
        ok,
        f"worst per-coordinate mean err {mean_err:.4f} (limit {mean_limit:.4f}), "
        f"std ratio dev {std_dev:.4f} (limit 0.05), score max rel err "
        f"{worst_score:.3e} (limit 1e-5), {elapsed:.1f}s",
    )


def test_06_diversity_guidance_trend():
    cfg = GeneratorConfig()
    rec = synth_captions(1, cfg.num_classes, seed=derive_u64(0, 43))[0]
    dists = []
    for i, w in enumerate((1.0, 2.0, 4.0, 8.0)):
        man = generate_dataset(
            [rec.prompt],
            5000,
            cfg,
            derive_u64(0, 44, i),
            guidance_scales=np.full(5000, w),
        )
        dists.append(float(pdist(man.features).mean()))
    ok = all(dists[i + 1] <= dists[i] * 1.02 for i in range(3))
    _report(
        6,
        "diversity-guidance trend",
        ok,
        "mean intra-caption pairwise distance "
        + " -> ".join(f"{d:.3f}" for d in dists)
        + " across guidance 1/2/4/8 (non-increasing, 2% slack)",
    )


def _probe_frozen(ts, tcfg, seed):
    """Linear probe on held-out direct-sampled data, fixed seed paths."""
    gcfg = GeneratorConfig()
    recs = synth_captions(200, gcfg.num_classes, derive_u64(seed, 20))
    man = generate_dataset(
        [r.prompt for r in recs], 5, gcfg, derive_u64(seed, 21), sampler="direct"
    )
    train_rows, test_rows = stratified_split(man.class_ids, 0.5, derive_u64(seed, 22))
    enc = Encoder(tcfg.encoder)
    feats = encode_dataset(man, enc, sub_params(ts.params, "img."))
    rep = linear_probe(
        feats[train_rows],
        man.class_ids[train_rows],
        feats[test_rows],
        man.class_ids[test_rows],
        ProbeConfig(seed=derive_u64(seed, 30)),
    )
    return rep.accuracy


def test_07_method_ordering_end_to_end():
    variants = (
        ("m6", BatchSpec(20, 6), "multi_positive"),
        ("m2", BatchSpec(20, 2), "multi_positive"),
        ("two_view", BatchSpec(20, 2), "simclr_reduction"),
    )
    accs = {name: [] for name, _, _ in variants}
    max_train = 0.0
    for seed in (0, 1, 2):
        gcfg = GeneratorConfig()
        recs = synth_captions(500, gcfg.num_classes, derive_u64(seed, 10))
        man = generate_dataset([r.prompt for r in recs], 10, gcfg, derive_u64(seed, 11))
        for name, spec, variant in variants:
            tcfg = TrainConfig(batch_spec=spec, loss_variant=variant, seed=seed)
            trainer = Trainer(man, tcfg)
            ts = trainer.init_state()
            t0 = time.perf_counter()
            trainer.run(ts)
            max_train = max(max_train, time.perf_counter() - t0)
            accs[name].append(_probe_frozen(ts, tcfg, seed))
    m6 = float(np.mean(accs["m6"]))
    m2 = float(np.mean(accs["m2"]))
    tv = float(np.mean(accs["two_view"]))
    ok = (m6 >= m2 - 0.005) and (m6 > tv) and (max_train < 300.0)
    _report(
        7,
        "method ordering end to end",
        ok,
        f"probe acc m=6 {m6:.4f}, m=2 {m2:.4f}, two-view {tv:.4f} over 3 seeds "
        f"(need m6 >= m2 - 0.005 and m6 > two-view); slowest run {max_train:.0f}s "
        f"(limit 300s)",
    )


def test_08_budget_split_trend():
    epochs = 24
    accs = {1: [], 4: []}
    for seed in (0, 1, 2):
        for l in (1, 4):
            budget = split_budget(5000, l)
            gcfg = GeneratorConfig()
            recs = synth_captions(
                budget.num_captions, gcfg.num_classes, derive_u64(seed, 10)
            )
            man = generate_dataset(
                [r.prompt for r in recs], l, gcfg, derive_u64(seed, 11)
            )
            if l == 1:
                tcfg = TrainConfig(
                    batch_spec=BatchSpec(20, 2),
                    loss_variant="simclr_reduction",
                    epochs=epochs,
                    seed=seed,
                )
            else:
                m = min(6, l)
                n = 20
                while n > 2 and (
                    budget.num_captions % n != 0
                    or (2 * epochs * budget.num_captions) % (n * m) != 0
                ):
                    n -= 1
                tcfg = TrainConfig(
                    batch_spec=BatchSpec(n, m),
                    loss_variant="multi_positive",
                    epochs=epochs,
                    seed=seed,
                )
            trainer = Trainer(man, tcfg)
            ts = trainer.init_state()
            trainer.run(ts)
            accs[l].append(_probe_frozen(ts, tcfg, seed))
    acc1, acc4 = float(np.mean(accs[1])), float(np.mean(accs[4]))
    ok = acc4 > acc1
    _report(
        8,
        "budget split trend",
        ok,
        f"fixed budget 5000: probe acc l=4 {acc4:.4f} vs l=1 {acc1:.4f} over 3 seeds "
        f"(need l=4 > l=1)",
    )


def test_09_evaluation_harness_calibration():
    rng = np.random.default_rng(derive_u64(0, 45))

    centers = np.eye(4) * 8.0
    labels = np.repeat(np.arange(4), 30)
    sep = centers[labels] + 0.05 * rng.standard_normal((120, 4))
    sep_rep = linear_probe(sep, labels, sep, labels, ProbeConfig(seed=derive_u64(0, 46)))

    shuf_train = rng.standard_normal((500, 16))
    shuf_test = rng.standard_normal((2000, 16))
    shuf_rep = linear_probe(
        shuf_train,
        np.tile(np.arange(5), 100),
        shuf_test,
        np.tile(np.arange(5), 400),
        ProbeConfig(seed=derive_u64(0, 46)),
    )

    collapsed_labels = np.repeat(np.arange(6), 25)
    collapsed = np.eye(6)[collapsed_labels] * 3.0
    spec = EpisodeSpec(seed=derive_u64(0, 47))
    coll_rep = fewshot_eval(collapsed, collapsed_labels, spec)

    rand_rep = fewshot_eval(
        rng.standard_normal((600, 16)), np.tile(np.arange(6), 100), spec
    )

    ok = (
        sep_rep.accuracy == 1.0
        and abs(shuf_rep.accuracy - 0.2) <= 0.03
        and coll_rep.accuracy == 1.0
        and abs(rand_rep.accuracy - 0.2) <= 0.02
        and spec.queries_per_class == 15
        and spec.episodes == 600
    )
    _report(
        9,
        "evaluation harness calibration",
        ok,
        f"probe separable {sep_rep.accuracy:.3f} (need 1.0), shuffled "
        f"{shuf_rep.accuracy:.4f} (need 0.2 +- 0.03); few-shot collapsed "
        f"{coll_rep.accuracy:.3f} (need 1.0), random {rand_rep.accuracy:.4f} "
        f"(need 0.2 +- 0.02, 600 episodes, 15 queries/class)",
    )


def test_10_cli_reproducibility(tmp_path):
    cfg = {
        "generator": {"feature_dim": 4, "num_classes": 3, "ddim_steps": 5},
        "data": {"num_captions": 8, "images_per_caption": 3},
        "train": {
            "batch_spec": {"num_captions": 4, "samples_per_caption": 2},
            "epochs": 2,
            "warmup_epochs": 0.5,
            "encoder": {"mlp_widths": [8], "head_hidden": 8, "head_out": 4},
        },
        "probe": {"max_iterations": 200},
        "eval_data": {"num_captions": 6, "samples_per_caption": 4, "train_fraction": 0.5},
    }
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)

    pairs = []
    for rep in ("a", "b"):
        gen = str(tmp_path / f"gen_{rep}")
        trn = str(tmp_path / f"train_{rep}")
        prb = str(tmp_path / f"probe_{rep}")
        evl = str(tmp_path / f"eval_{rep}")
        assert cli_main(["generate", "--config", cfg_path, "--seed", "5", "--out", gen]) == 0
        assert cli_main(["generate", "--config", cfg_path, "--seed", "6", "--out", evl]) == 0
        assert (
            cli_main(
                ["train", "--config", cfg_path, "--seed", "5", "--data",
                 os.path.join(gen, "manifest.jsonl"), "--out", trn]
            )
            == 0
        )
        assert (
            cli_main(
                ["probe", "--config", cfg_path, "--seed", "5", "--data",
                 os.path.join(gen, "manifest.jsonl"), "--eval-data",
                 os.path.join(evl, "manifest.jsonl"), "--out", prb]
            )
            == 0
        )
        pairs.append(
            [
                os.path.join(gen, "manifest.jsonl"),
                os.path.join(trn, "metrics.jsonl"),
                os.path.join(trn, "checkpoint.bin"),
                os.path.join(prb, "report.json"),
                os.path.join(prb, "report.csv"),
            ]
        )
    mismatched = [
        os.path.basename(a)
        for a, b in zip(*pairs)
        if open(a, "rb").read() != open(b, "rb").read()
    ]
    ok = not mismatched
    _report(
        10,
        "reproducibility",
        ok,
        "manifest, metrics, checkpoint, and reports byte-identical across reruns"
        if ok
        else f"mismatched artifacts: {mismatched}",
    )
