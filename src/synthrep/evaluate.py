"""Frozen-representation evaluation.

The linear probe fits multinomial logistic regression with L-BFGS at 45
logarithmically spaced l2 penalties, picks the penalty on a stratified
validation split, refits on the full training set, and reports test accuracy
with a binomial 95% interval. Few-shot evaluation runs episodic N-way K-shot
tasks, fitting the same classifier on each episode's support set at a fixed
penalty and averaging query accuracy over episodes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .encoder import Encoder, _softmax
from .manifest import _read_rows, _read_text
from .seeding import SALT_EVAL, _check_numbers, rng_from

__all__ = [
    "ProbeConfig",
    "EpisodeSpec",
    "EvalReport",
    "fit_logreg",
    "stratified_split",
    "linear_probe",
    "fewshot_eval",
    "encode_dataset",
    "load_features",
]


# the linear probe's l2 penalties: 45 logarithmically spaced from 1e-6 to 1e5
REG_GRID = np.logspace(-6.0, 5.0, 45)
REG_GRID.flags.writeable = False


@dataclass(frozen=True)
class ProbeConfig:
    max_iterations: int = 500
    normalize_features: bool = False
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_numbers(self)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")


@dataclass(frozen=True)
class EpisodeSpec:
    ways: int = 5
    shots: int = 5
    queries_per_class: int = 15
    episodes: int = 600
    reg_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_numbers(self)
        if min(self.ways, self.shots, self.queries_per_class, self.episodes) < 1:
            raise ValueError("episode quantities must be positive")
        if not 0.0 <= self.reg_lambda < np.inf:
            raise ValueError("reg_lambda must be finite and nonnegative")


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
        if not 0.0 <= self.ci95 < np.inf:
            raise ValueError(f"ci95 must be finite and >= 0, not {self.ci95!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, not {self.count!r}")


# L-BFGS settings: scipy's L-BFGS-B defaults (maxcor, pgtol, factr * eps, maxls)
_MEMORY = 10
_GTOL = 1e-5
_FTOL = 2.220446049250313e-09
_MAX_TRIALS = 20
_ARMIJO = 1e-4


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _keep_rows(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """a[keep] for ascending `keep`, moved to the front of `a` in place, so
    the L-BFGS history is never held twice."""
    for new, old in enumerate(keep):
        if new != old:
            a[new] = a[old]
    return a[: keep.size]


def fit_logreg(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    reg_lambda: float | np.ndarray,
    max_iterations: int = 500,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multinomial logistic regression for a batch of independent problems.

    Each problem minimises mean cross-entropy + reg_lambda * 0.5 * ||W||^2
    (bias unregularized) by L-BFGS from a zero start. `features` is (n, d),
    shared by every problem, or (B, n, d); `labels` is one (n,) vector that
    every problem shares, and `reg_lambda` a scalar or (B,). Returns
    (W, b, converged) of shapes (B, d, k), (B, k) and (B,); B is dropped
    when no input has a batch axis.

    Every problem runs its own iterations, line search and stopping test, and
    every product is a per-problem matmul, so a problem's result has the same
    bits alone as in any batch. A problem leaves the batch when max|grad| <=
    1e-5 or its relative decrease is <= 2.22e-9 (converged), or when it has
    made `max_iterations` iterations or its line search fails (not converged).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    lam = np.asarray(reg_lambda, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-2], lam.shape)
    if len(batch) > 1 or x.ndim not in (2, 3) or y.shape != x.shape[-2:-1]:
        raise ValueError(
            "fit_logreg takes (n, d) or (B, n, d) features, one (n,) label vector, one batch axis"
        )
    size = batch[0] if batch else 1
    n, d = x.shape[-2:]
    k, dk = num_classes, d * num_classes
    if x.ndim == 3 and x.shape[0] == 1:
        x = x[0]
    y = y.reshape(1, 1, n)
    onehot = (y == np.arange(k)[:, None]).astype(float)
    # per-problem data: the features (when batched) and the penalties
    data = [x, np.ascontiguousarray(np.swapaxes(x, -1, -2)), np.broadcast_to(lam, (size,)).copy()]

    def take(data, i):
        x, xt, lam = data
        return [x[i], xt[i], lam[i]] if x.ndim == 3 else [x, xt, lam[i]]

    def objective(theta, x, xt, lam):
        # a row of theta is W^T (k, d) row-major, then b; logits are (B, k, n),
        # so the reductions over classes run along a middle axis
        w = theta[:, :dk]
        logits = w.reshape(-1, k, d) @ xt
        logits += theta[:, dk:, None]
        err, log_q = _softmax(logits, axis=1)
        f = -np.mean(np.take_along_axis(log_q, y, axis=1)[:, 0], axis=-1)
        f += 0.5 * lam * _rowdot(w, w)
        err -= onehot
        err /= n
        gw = (err @ x).reshape(-1, dk)
        gw += lam[:, None] * w
        return f, np.concatenate([gw, err.sum(axis=2)], axis=1)

    # state of the problems still running; `rows` are their batch positions
    rows = np.arange(size)
    theta = np.zeros((size, dk + k))
    s_hist = np.zeros((size, _MEMORY, dk + k))
    y_hist = np.zeros_like(s_hist)
    rho = np.zeros((size, _MEMORY))  # 0 marks an empty or skipped pair
    gamma = np.ones(size)
    out = np.zeros_like(theta)
    converged = np.zeros(size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, g = objective(theta, *data)
        stop = np.max(np.abs(g), axis=1) <= _GTOL
        converged[stop] = True
        for it in range(max_iterations + 1):
            if it == max_iterations:
                stop[:] = True
            if stop.any():
                out[rows[stop]] = theta[stop]
                keep = np.flatnonzero(~stop)
                rows, theta, f, g = rows[keep], theta[keep], f[keep], g[keep]
                s_hist, y_hist = _keep_rows(s_hist, keep), _keep_rows(y_hist, keep)
                rho, gamma = rho[keep], gamma[keep]
                data = take(data, keep)
            if rows.size == 0:
                break

            # two-loop recursion over the stored pairs, newest first
            slots = [j % _MEMORY for j in range(it - 1, max(it - _MEMORY, 0) - 1, -1)]
            q = g.copy()
            alpha = np.zeros_like(rho)
            for j in slots:
                alpha[:, j] = rho[:, j] * _rowdot(s_hist[:, j], q)
                q -= alpha[:, j, None] * y_hist[:, j]
            q *= gamma[:, None]
            for j in reversed(slots):
                beta = rho[:, j] * _rowdot(y_hist[:, j], q)
                q += (alpha[:, j] - beta)[:, None] * s_hist[:, j]
            p = -q
            slope = _rowdot(g, p)

            # backtracking line search (Armijo) with safeguarded quadratic steps;
            # the first iteration starts at step 1/||g||, like L-BFGS-B
            t = 1.0 / np.sqrt(_rowdot(g, g)) if it == 0 else np.ones(rows.size)
            trial = theta + t[:, None] * p
            f_new, g_new = objective(trial, *data)
            descent = slope < 0
            short = ~(f_new <= f + _ARMIJO * t * slope) & descent
            for _ in range(_MAX_TRIALS - 1):
                if not short.any():
                    break
                i = np.flatnonzero(short)
                ti, si = t[i], slope[i]
                quad = -si * ti * ti / (2.0 * (f_new[i] - f[i] - si * ti))
                ti = np.where(np.isfinite(quad), np.clip(quad, 0.1 * ti, 0.5 * ti), 0.5 * ti)
                t[i] = ti
                trial[i] = theta[i] + ti[:, None] * p[i]
                f_new[i], g_new[i] = objective(trial[i], *take(data, i))
                short[i] = ~(f_new[i] <= f[i] + _ARMIJO * ti * si)
            failed = short | ~descent

            # the curvature pair goes into this iteration's slot; a pair with
            # s'y <= eps * y'y (or from a failed search) leaves it empty
            s, yv = trial - theta, g_new - g
            sy, yy = _rowdot(s, yv), _rowdot(yv, yv)
            good = (sy > np.finfo(float).eps * yy) & ~failed
            slot = it % _MEMORY
            s_hist[:, slot], y_hist[:, slot] = s, yv
            s_hist[~good, slot] = 0.0
            y_hist[~good, slot] = 0.0
            rho[:, slot] = np.divide(1.0, sy, out=np.zeros_like(sy), where=good)
            np.divide(sy, yy, out=gamma, where=good)

            done = f - f_new <= _FTOL * np.maximum(np.maximum(abs(f), abs(f_new)), 1.0)
            done |= np.max(np.abs(g_new), axis=1) <= _GTOL
            done &= ~failed
            if failed.any():  # a failed problem keeps its last accepted point
                trial[failed], f_new[failed], g_new[failed] = theta[failed], f[failed], g[failed]
            theta, f, g = trial, f_new, g_new
            converged[rows[done]] = True
            stop = done | failed
    w = np.ascontiguousarray(np.swapaxes(out[:, :dk].reshape(size, k, d), 1, 2))
    return w.reshape(batch + (d, k)), out[:, dk:].reshape(batch + (k,)), converged.reshape(batch)


def _accuracy(w, b, features, labels) -> np.ndarray:
    """Accuracy of each classifier of a (batch of) fit_logreg results."""
    pred = np.argmax(features @ w + b[..., None, :], axis=-1)
    return np.mean(pred == labels, axis=-1)


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


# penalties fitted together: the probe's grid runs as 3 calls of 15. A call's
# L-BFGS history grows with its size; at a sweep's probe shape (501 rows of
# 128-d features, 10 classes) the whole grid at once traced 18 MB and set the
# process's peak RSS (84 MB, against 72 MB with blocks of 15). 15 traces 7 MB
# in the same time; 9 traces 5 MB but ran about 5% slower and left that peak
_PENALTY_BLOCK = 15

# episodes fitted together. On 600 five-way 5-shot episodes of 128-d
# features, blocks of 25, 50 and 100 took the same time; 25 holds the least
# memory (about 9 MB against 28 MB for 100)
_EPISODE_BLOCK = 25


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
    if x.shape[-1] != xt.shape[-1]:
        raise ValueError(f"train features are {x.shape[-1]}-d and test features {xt.shape[-1]}-d")
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
    if val_rows.size == 0:
        raise ValueError(
            "the probe's validation split is empty: every class has one training row"
        )
    x_fit, y_fit = x[fit_rows], y[fit_rows]
    fits = [
        fit_logreg(x_fit, y_fit, k, REG_GRID[i : i + _PENALTY_BLOCK], cfg.max_iterations)
        for i in range(0, REG_GRID.size, _PENALTY_BLOCK)
    ]
    w, b, converged = (np.concatenate(parts) for parts in zip(*fits))
    val_curve = _accuracy(w, b, x[val_rows], y[val_rows])
    best = int(np.argmax(val_curve))  # ties keep the smaller (earlier) penalty
    best_lam, best_acc = float(REG_GRID[best]), float(val_curve[best])

    w, b, _ = fit_logreg(x, y, k, best_lam, cfg.max_iterations)
    acc = float(_accuracy(w, b, xt, yt))
    ci = 1.96 * np.sqrt(max(acc * (1.0 - acc), 0.0) / yt.size)
    return EvalReport(
        kind="linear_probe",
        accuracy=acc,
        ci95=float(ci),
        count=int(yt.size),
        config={
            "reg_grid_size": REG_GRID.size,
            "reg_grid_min": float(REG_GRID[0]),
            "reg_grid_max": float(REG_GRID[-1]),
            **asdict(cfg),
        },
        details={
            "selected_lambda": best_lam,
            "val_accuracy": best_acc,
            "val_curve": [float(v) for v in val_curve],
            "unconverged_grid_points": int(np.sum(~converged)),
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
    rows_by_class = [np.flatnonzero(y == c) for c in classes]
    for c, rows in zip(classes, rows_by_class):
        if rows.size < need:
            raise ValueError(f"class {c} has {rows.size} samples, episode needs {need}")

    # per episode and way: the chosen class's support rows, then its query rows
    picks = np.empty((spec.episodes, spec.ways, need), dtype=np.intp)
    for ep in range(spec.episodes):
        rng = rng_from(SALT_EVAL, spec.seed, ep)
        for way, c in enumerate(rng.choice(classes.size, size=spec.ways, replace=False)):
            rows = rows_by_class[c]
            picks[ep, way] = rows[rng.choice(rows.size, size=need, replace=False)]
    support = picks[:, :, : spec.shots].reshape(spec.episodes, -1)
    query = picks[:, :, spec.shots :].reshape(spec.episodes, -1)
    support_y = np.repeat(np.arange(spec.ways), spec.shots)
    query_y = np.repeat(np.arange(spec.ways), spec.queries_per_class)

    accs = np.empty(spec.episodes)
    for start in range(0, spec.episodes, _EPISODE_BLOCK):
        block = slice(start, start + _EPISODE_BLOCK)
        w, b, _ = fit_logreg(x[support[block]], support_y, spec.ways, spec.reg_lambda)
        accs[block] = _accuracy(w, b, x[query[block]], query_y)

    mean = float(np.mean(accs))
    ci = float(1.96 * np.std(accs) / np.sqrt(spec.episodes))
    return EvalReport(
        kind="fewshot",
        accuracy=mean,
        ci95=ci,
        count=spec.episodes,
        config=asdict(spec),
        details={"episode_std": float(np.std(accs))},
    )


def encode_dataset(
    manifest_or_features,
    enc: Encoder,
    params: dict,
    batch_size: int = 512,
) -> np.ndarray:
    """Pre-projection features for every row, `batch_size` rows at a time.

    Only the backbone runs (`Encoder.features`): the projection head is
    discarded after pretraining, and no tape is kept, so each batch frees its
    intermediates. The rows are those of `forward`'s pre-projection output,
    bit for bit."""
    feats = getattr(manifest_or_features, "features", manifest_or_features)
    out = [
        enc.features(params, feats[start : start + batch_size])
        for start in range(0, feats.shape[0], batch_size)
    ]
    return np.concatenate(out, axis=0)


def load_features(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sample_ids, class_ids, features) from a file of one JSON object per
    line, {"sample_id": int, "class_id": int, "feature": [float, ...]}.

    A line that is not such an object, whose feature length differs from the
    first line's or whose feature holds a non-finite entry raises a
    ValueError naming the file, line and field (see manifest._read_rows).
    """
    records = _read_text(path, "records")
    if not records:
        raise ValueError(f"{path}: no feature records")
    columns, features = _read_rows(path, records, {"sample_id": np.int64, "class_id": np.int64})
    return columns["sample_id"], columns["class_id"], features
