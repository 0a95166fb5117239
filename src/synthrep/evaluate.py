"""Frozen-representation evaluation.

The linear probe fits multinomial logistic regression with L-BFGS at 45
logarithmically spaced l2 penalties, picks the penalty on a stratified
validation split, refits on the full training set, and reports test accuracy
with a binomial 95% interval. Few-shot evaluation runs episodic N-way K-shot
tasks, fitting the same classifier on each episode's support set at a fixed
penalty and averaging query accuracy over episodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .encoder import Encoder
from .manifest import fmt_float
from .seeding import SALT_EVAL, rng_from

__all__ = [
    "ProbeConfig",
    "EpisodeSpec",
    "EvalReport",
    "default_reg_grid",
    "fit_logreg",
    "stratified_split",
    "linear_probe",
    "fewshot_eval",
    "encode_dataset",
    "save_features",
    "load_features",
]


def default_reg_grid() -> np.ndarray:
    """45 logarithmically spaced l2 penalties from 1e-6 to 1e5."""
    return np.logspace(-6.0, 5.0, 45)


@dataclass
class ProbeConfig:
    reg_grid: np.ndarray = field(default_factory=default_reg_grid)
    max_iterations: int = 500
    normalize_features: bool = False
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        self.reg_grid = np.asarray(self.reg_grid, dtype=float)
        if self.reg_grid.ndim != 1 or self.reg_grid.size < 1:
            raise ValueError("reg_grid must be a non-empty vector")
        if np.any(np.diff(self.reg_grid) <= 0):
            raise ValueError("reg_grid must be strictly increasing")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")


@dataclass
class EpisodeSpec:
    ways: int = 5
    shots: int = 5
    queries_per_class: int = 15
    episodes: int = 600
    reg_lambda: float = 1.0
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.ways, self.shots, self.queries_per_class, self.episodes) < 1:
            raise ValueError("episode quantities must be positive")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be nonnegative")


@dataclass
class EvalReport:
    kind: str
    accuracy: float
    ci95: float
    count: int  # test points or episodes
    config: dict
    details: dict
    dataset_id: str = ""
    checkpoint_id: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "accuracy": self.accuracy,
            "ci95": self.ci95,
            "count": self.count,
            "config": self.config,
            "details": self.details,
            "dataset_id": self.dataset_id,
            "checkpoint_id": self.checkpoint_id,
        }


def minimize(fun, x0, **kwargs):
    """`scipy.optimize.minimize`, imported on the first fit.

    Importing scipy.optimize takes about 0.3 s, which commands that never fit
    a classifier (generate, train) should not pay.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(z))) of a 2-D float64 array.

    The algorithm of scipy 1.17's `logsumexp(z, axis=1)`, bit for bit: the m
    tied row maxima are left out of the shifted sum, which is divided by m to
    give s, and the result is log1p(s) + log(m) + max; rows whose result is
    not finite fall back to log(sum(exp(z))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(z, axis=1, keepdims=True)
        is_max = z == a_max
        m = np.sum(is_max, axis=1, keepdims=True, dtype=z.dtype)
        shifted = z - a_max
        np.copyto(shifted, -np.inf, where=is_max)
        s = np.sum(np.exp(shifted), axis=1, keepdims=True) / m
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(z[bad]), axis=1))
    return out


def fit_logreg(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    reg_lambda: float,
    max_iterations: int = 500,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Multinomial logistic regression via L-BFGS from a zero start.

    Objective: mean cross-entropy + reg_lambda * 0.5 * ||W||^2 (bias
    unregularized). Returns (W, b, converged).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    n, d = x.shape
    k = num_classes

    def pack(w, b):
        return np.concatenate([w.ravel(), b])

    def unpack(theta):
        return theta[: d * k].reshape(d, k), theta[d * k :]

    rows = np.arange(n)
    onehot = np.zeros((n, k))
    onehot[rows, y] = 1.0

    def objective(theta):
        w, b = unpack(theta)
        logits = x @ w + b
        lse = _logsumexp_rows(logits)
        loss = float(np.mean(lse - logits[rows, y]))
        loss += reg_lambda * 0.5 * float(np.sum(w * w))
        p = np.exp(logits - lse[:, None])
        g = (p - onehot) / n
        gw = x.T @ g + reg_lambda * w
        gb = g.sum(axis=0)
        return loss, pack(gw, gb)

    res = minimize(
        objective,
        pack(np.zeros((d, k)), np.zeros(k)),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": max_iterations},
    )
    w, b = unpack(res.x)
    return w, b, bool(res.success)


def _accuracy(w, b, features, labels) -> float:
    pred = np.argmax(features @ w + b, axis=1)
    return float(np.mean(pred == labels))


def stratified_split(
    labels: np.ndarray, val_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class seeded split into (fit_rows, val_rows)."""
    rng = rng_from(SALT_EVAL, seed)
    fit_rows, val_rows = [], []
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        rows = rows[rng.permutation(rows.size)]
        n_val = max(1, int(round(val_fraction * rows.size)))
        if n_val >= rows.size:
            n_val = rows.size - 1
        val_rows.append(rows[:n_val])
        fit_rows.append(rows[n_val:])
    return np.sort(np.concatenate(fit_rows)), np.sort(np.concatenate(val_rows))


def linear_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    cfg: ProbeConfig | None = None,
) -> EvalReport:
    """Penalty-swept probe: select on validation, refit, report on test."""
    cfg = cfg or ProbeConfig()
    x = np.asarray(train_features, dtype=float)
    y = np.asarray(train_labels)
    xt = np.asarray(test_features, dtype=float)
    yt = np.asarray(test_labels)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xt))):
        raise ValueError("features must be finite")
    classes = np.unique(np.concatenate([y, yt]))
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    # relabel to 0..K-1 in sorted order
    remap = {int(c): i for i, c in enumerate(classes)}
    y = np.array([remap[int(v)] for v in y])
    yt = np.array([remap[int(v)] for v in yt])
    k = classes.size

    if cfg.normalize_features:
        mean = x.mean(axis=0)
        std = np.sqrt(x.var(axis=0) + 1e-5)
        x = (x - mean) / std
        xt = (xt - mean) / std

    fit_rows, val_rows = stratified_split(y, cfg.val_fraction, cfg.seed)
    best_lam, best_acc = None, -1.0
    val_curve, converged = [], []
    for lam in cfg.reg_grid:
        w, b, ok = fit_logreg(
            x[fit_rows], y[fit_rows], k, float(lam), cfg.max_iterations
        )
        acc = _accuracy(w, b, x[val_rows], y[val_rows])
        val_curve.append(acc)
        converged.append(ok)
        if acc > best_acc:  # ties keep the smaller (earlier) penalty
            best_acc, best_lam = acc, float(lam)

    w, b, _ = fit_logreg(x, y, k, best_lam, cfg.max_iterations)
    acc = _accuracy(w, b, xt, yt)
    ci = 1.96 * np.sqrt(max(acc * (1.0 - acc), 0.0) / yt.size)
    return EvalReport(
        kind="linear_probe",
        accuracy=acc,
        ci95=float(ci),
        count=int(yt.size),
        config={
            "reg_grid_size": int(cfg.reg_grid.size),
            "reg_grid_min": float(cfg.reg_grid[0]),
            "reg_grid_max": float(cfg.reg_grid[-1]),
            "max_iterations": cfg.max_iterations,
            "normalize_features": cfg.normalize_features,
            "val_fraction": cfg.val_fraction,
            "seed": cfg.seed,
        },
        details={
            "selected_lambda": best_lam,
            "val_accuracy": best_acc,
            "val_curve": [float(v) for v in val_curve],
            "unconverged_grid_points": int(sum(not c for c in converged)),
        },
    )


def fewshot_eval(
    features: np.ndarray, labels: np.ndarray, spec: EpisodeSpec | None = None
) -> EvalReport:
    """Episodic ways-way shots-shot evaluation with a linear classifier head.

    Each episode draws `ways` classes and, per class, `shots` support and
    `queries_per_class` query samples without replacement; the head is the
    probe solver at the fixed penalty spec.reg_lambda. Episodes are keyed by
    (seed, episode index), so they are independent of evaluation order.
    """
    spec = spec or EpisodeSpec()
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    classes = np.unique(y)
    if classes.size < spec.ways:
        raise ValueError(f"need >= {spec.ways} classes, have {classes.size}")
    need = spec.shots + spec.queries_per_class
    rows_by_class = {int(c): np.flatnonzero(y == c) for c in classes}
    for c, rows in rows_by_class.items():
        if rows.size < need:
            raise ValueError(f"class {c} has {rows.size} samples, episode needs {need}")

    accs = np.empty(spec.episodes)
    for ep in range(spec.episodes):
        rng = rng_from(SALT_EVAL, spec.seed, ep)
        chosen = classes[rng.choice(classes.size, size=spec.ways, replace=False)]
        sup_x, sup_y, qry_x, qry_y = [], [], [], []
        for new_label, c in enumerate(chosen):
            rows = rows_by_class[int(c)]
            pick = rows[rng.choice(rows.size, size=need, replace=False)]
            sup_x.append(x[pick[: spec.shots]])
            qry_x.append(x[pick[spec.shots :]])
            sup_y.extend([new_label] * spec.shots)
            qry_y.extend([new_label] * spec.queries_per_class)
        w, b, _ = fit_logreg(
            np.concatenate(sup_x),
            np.array(sup_y),
            spec.ways,
            spec.reg_lambda,
            spec.max_iterations,
        )
        accs[ep] = _accuracy(w, b, np.concatenate(qry_x), np.array(qry_y))

    mean = float(np.mean(accs))
    ci = float(1.96 * np.std(accs) / np.sqrt(spec.episodes))
    return EvalReport(
        kind="fewshot",
        accuracy=mean,
        ci95=ci,
        count=spec.episodes,
        config={
            "ways": spec.ways,
            "shots": spec.shots,
            "queries_per_class": spec.queries_per_class,
            "episodes": spec.episodes,
            "reg_lambda": spec.reg_lambda,
            "seed": spec.seed,
        },
        details={"episode_std": float(np.std(accs))},
    )


def encode_dataset(
    manifest_or_features,
    enc: Encoder,
    params: dict,
    norm_state: dict,
    batch_size: int = 512,
) -> np.ndarray:
    """Eval-mode pre-projection features for every row, batched for speed."""
    feats = getattr(manifest_or_features, "features", manifest_or_features)
    out = []
    for start in range(0, feats.shape[0], batch_size):
        pre, _, _ = enc.forward(
            params, feats[start : start + batch_size], state=norm_state, training=False
        )
        out.append(pre)
    return np.concatenate(out, axis=0)


def save_features(
    path: str, sample_ids: np.ndarray, class_ids: np.ndarray, features: np.ndarray
) -> None:
    """Line-delimited {sample_id, class_id, feature} records, exact floats."""
    n = features.shape[0]
    if sample_ids.shape != (n,) or class_ids.shape != (n,):
        raise ValueError("ids must parallel features")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            vec = ",".join(fmt_float(v) for v in features[i])
            fh.write(
                '{"sample_id":%d,"class_id":%d,"feature":[%s]}\n'
                % (int(sample_ids[i]), int(class_ids[i]), vec)
            )


def load_features(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sample_ids, class_ids, rows = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            sample_ids.append(rec["sample_id"])
            class_ids.append(rec["class_id"])
            rows.append(rec["feature"])
    if not rows:
        raise ValueError(f"{path}: no feature records")
    return (
        np.array(sample_ids, dtype=np.int64),
        np.array(class_ids, dtype=np.int64),
        np.array(rows, dtype=float),
    )
