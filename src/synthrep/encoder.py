"""Small trainable encoders with exact manual gradients.

An encoder maps a feature vector to (pre_projection, projected): the
pre-projection output of a configurable backbone (MLP by default, tiny
transformer optionally) is the probe-facing representation, and a 3-affine
projection head with normalization and GELU produces the unit-norm embedding
consumed by the contrastive losses. The same class serves as the text tower,
encoding caption vectors with its own parameter set.

Forward passes record a cache; `backward` replays it exactly, including the
Jacobian of the final row normalization, (I - u u^T) / ||v||. Everything is
plain numpy so gradients can be verified against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import SALT_INIT, rng_from

__all__ = ["EncoderConfig", "Encoder"]

_EPS = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class EncoderConfig:
    input_dim: int = 32
    backbone: str = "mlp"  # "mlp" or "transformer"
    mlp_widths: tuple = (128, 128)
    patch_size: int = 8
    depth: int = 2
    width: int = 64
    heads: int = 4
    head_hidden: int = 256
    head_out: int = 64
    head_norm: str = "batch"  # "batch" or "per_sample"
    norm_momentum: float = 0.9

    def __post_init__(self) -> None:
        self.mlp_widths = tuple(self.mlp_widths)
        self.validate()

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.backbone not in ("mlp", "transformer"):
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.backbone == "mlp" and len(self.mlp_widths) < 1:
            raise ValueError("mlp_widths must be non-empty")
        if self.backbone == "transformer":
            if self.input_dim % self.patch_size != 0:
                raise ValueError("patch_size must divide input_dim")
            if self.width % self.heads != 0:
                raise ValueError("heads must divide width")
            if self.depth < 1:
                raise ValueError("depth must be >= 1")
        if self.head_out < 2:
            raise ValueError("head_out must be >= 2")
        if self.head_norm not in ("batch", "per_sample"):
            raise ValueError(f"unknown head_norm {self.head_norm!r}")
        if not 0.0 <= self.norm_momentum < 1.0:
            raise ValueError("norm_momentum must be in [0, 1)")

    @property
    def backbone_dim(self) -> int:
        return self.mlp_widths[-1] if self.backbone == "mlp" else self.width

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "backbone": self.backbone,
            "mlp_widths": list(self.mlp_widths),
            "patch_size": self.patch_size,
            "depth": self.depth,
            "width": self.width,
            "heads": self.heads,
            "head_hidden": self.head_hidden,
            "head_out": self.head_out,
            "head_norm": self.head_norm,
            "norm_momentum": self.norm_momentum,
        }

    @staticmethod
    def from_dict(d: dict) -> "EncoderConfig":
        d = dict(d)
        if "mlp_widths" in d:
            d["mlp_widths"] = tuple(d["mlp_widths"])
        return EncoderConfig(**d)


# ---------------------------------------------------------------------------
# primitive layers: each forward returns (out, cache), each backward consumes
# the upstream gradient and cache and returns (dx, param grads...)

def _affine_fwd(x, w, b):
    return x @ w + b, (x, w)


def _affine_bwd(dy, cache):
    x, w = cache
    dx = dy @ w.T
    dw = np.tensordot(x, dy, axes=(tuple(range(x.ndim - 1)),) * 2)
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    return dx, dw, db


def _erf(x):
    # imported on the first GELU, so commands that never run an encoder
    # (generate, report) do not pay for loading scipy.special
    from scipy.special import erf

    return erf(x)


def _gelu_fwd(x):
    return 0.5 * x * (1.0 + _erf(x * _INV_SQRT2)), x


def _gelu_bwd(dy, x):
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return dy * (cdf + x * pdf)


def _batchnorm_fwd(x, gamma, beta, mean, var):
    inv = 1.0 / np.sqrt(var + _EPS)
    xhat = (x - mean) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _batchnorm_bwd(dy, cache):
    # batch-statistics path: mean/var were functions of x
    xhat, inv, gamma = cache
    n = xhat.shape[0]
    dxhat = dy * gamma
    dgamma = np.sum(dy * xhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    dx = (inv / n) * (
        n * dxhat - np.sum(dxhat, axis=0) - xhat * np.sum(dxhat * xhat, axis=0)
    )
    return dx, dgamma, dbeta


def _batchnorm_eval_bwd(dy, cache):
    # running-statistics path: mean/var are constants
    _, inv, gamma = cache
    xhat = cache[0]
    dgamma = np.sum(dy * xhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    return dy * gamma * inv, dgamma, dbeta


def _layernorm_fwd(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _EPS)
    xhat = (x - mean) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    d = xhat.shape[-1]
    dxhat = dy * gamma
    axes = tuple(range(dy.ndim - 1))
    dgamma = np.sum(dy * xhat, axis=axes)
    dbeta = np.sum(dy, axis=axes)
    dx = (inv / d) * (
        d * dxhat
        - np.sum(dxhat, axis=-1, keepdims=True)
        - xhat * np.sum(dxhat * xhat, axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def _l2norm_fwd(x):
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero vector reached the normalization layer")
    unit = x / norms
    if not np.all(np.isfinite(norms)):
        # an overflowed norm leaves no direction; x / inf would be a zero row
        unit[~np.isfinite(norms[..., 0])] = np.nan
    return unit, (unit, norms)


def _l2norm_bwd(dy, cache):
    unit, norms = cache
    radial = np.sum(dy * unit, axis=-1, keepdims=True)
    return (dy - radial * unit) / norms


def _attention_fwd(x, p, prefix, heads):
    b, t, d = x.shape
    dk = d // heads

    def split(z):
        return z.reshape(b, t, heads, dk).transpose(0, 2, 1, 3)

    q = split(x @ p[prefix + ".Wq"] + p[prefix + ".bq"])
    k = split(x @ p[prefix + ".Wk"] + p[prefix + ".bk"])
    v = split(x @ p[prefix + ".Wv"] + p[prefix + ".bv"])
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
    scores -= scores.max(axis=-1, keepdims=True)
    a = np.exp(scores)
    a /= a.sum(axis=-1, keepdims=True)
    ctx = (a @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    out = ctx @ p[prefix + ".Wo"] + p[prefix + ".bo"]
    return out, (x, q, k, v, a, ctx)


def _attention_bwd(dy, cache, p, prefix, heads, grads):
    x, q, k, v, a, ctx = cache
    b, t, d = x.shape
    dk = d // heads

    grads[prefix + ".Wo"] += np.tensordot(ctx, dy, axes=([0, 1], [0, 1]))
    grads[prefix + ".bo"] += dy.sum(axis=(0, 1))
    dctx = (dy @ p[prefix + ".Wo"].T).reshape(b, t, heads, dk).transpose(0, 2, 1, 3)

    da = dctx @ v.transpose(0, 1, 3, 2)
    dv = a.transpose(0, 1, 3, 2) @ dctx
    dscores = a * (da - np.sum(da * a, axis=-1, keepdims=True))
    dscores /= np.sqrt(dk)
    dq = dscores @ k
    dkk = dscores.transpose(0, 1, 3, 2) @ q

    def merge(z):
        return z.transpose(0, 2, 1, 3).reshape(b, t, d)

    dx = np.zeros_like(x)
    for name, dz in (("q", dq), ("k", dkk), ("v", dv)):
        dz = merge(dz)
        w_key, b_key = f"{prefix}.W{name}", f"{prefix}.b{name}"
        grads[w_key] += np.tensordot(x, dz, axes=([0, 1], [0, 1]))
        grads[b_key] += dz.sum(axis=(0, 1))
        dx += dz @ p[w_key].T
    return dx


class Encoder:
    """Backbone + projection head with explicit parameter dictionaries."""

    def __init__(self, cfg: EncoderConfig):
        cfg.validate()
        self.cfg = cfg

    # -- parameter and state construction -----------------------------------

    def init_params(self, seed: int) -> dict[str, np.ndarray]:
        cfg = self.cfg
        rng = rng_from(SALT_INIT, seed)
        p: dict[str, np.ndarray] = {}

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        def add_affine(name, d_in, d_out):
            p[name + ".W"] = uniform((d_in, d_out), d_in)
            p[name + ".b"] = uniform((d_out,), d_in)

        if cfg.backbone == "mlp":
            dims = (cfg.input_dim,) + cfg.mlp_widths
            for i in range(len(cfg.mlp_widths)):
                add_affine(f"backbone.l{i}", dims[i], dims[i + 1])
        else:
            t = cfg.input_dim // cfg.patch_size
            add_affine("backbone.embed", cfg.patch_size, cfg.width)
            p["backbone.cls"] = uniform((cfg.width,), cfg.width)
            p["backbone.pos"] = uniform((t + 1, cfg.width), cfg.width)
            for i in range(cfg.depth):
                blk = f"backbone.b{i}"
                for ln in (".ln1", ".ln2"):
                    p[blk + ln + ".g"] = np.ones(cfg.width)
                    p[blk + ln + ".b"] = np.zeros(cfg.width)
                attn = blk + ".attn"
                for proj in ("q", "k", "v", "o"):
                    p[f"{attn}.W{proj}"] = uniform((cfg.width, cfg.width), cfg.width)
                    p[f"{attn}.b{proj}"] = uniform((cfg.width,), cfg.width)
                add_affine(blk + ".mlp.l0", cfg.width, 4 * cfg.width)
                add_affine(blk + ".mlp.l1", 4 * cfg.width, cfg.width)
            p["backbone.lnf.g"] = np.ones(cfg.width)
            p["backbone.lnf.b"] = np.zeros(cfg.width)

        add_affine("head.l0", cfg.backbone_dim, cfg.head_hidden)
        add_affine("head.l1", cfg.head_hidden, cfg.head_hidden)
        add_affine("head.l2", cfg.head_hidden, cfg.head_out)
        for i in range(2):
            p[f"head.n{i}.g"] = np.ones(cfg.head_hidden)
            p[f"head.n{i}.b"] = np.zeros(cfg.head_hidden)
        return p

    def init_state(self) -> dict[str, np.ndarray]:
        """Running normalization statistics (used only by head_norm='batch')."""
        if self.cfg.head_norm != "batch":
            return {}
        state = {}
        for i in range(2):
            state[f"head.n{i}.mean"] = np.zeros(self.cfg.head_hidden)
            state[f"head.n{i}.var"] = np.ones(self.cfg.head_hidden)
        return state

    def num_params(self) -> int:
        return sum(v.size for v in self.init_params(0).values())

    # -- forward / backward --------------------------------------------------

    def forward(
        self,
        params: dict,
        x: np.ndarray,
        state: dict | None = None,
        training: bool = False,
        update_running: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, list]:
        """Batched forward. Returns (pre_projection, projected, cache)."""
        cfg = self.cfg
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ValueError(f"expected (batch, {cfg.input_dim}) input, got {x.shape}")
        if cfg.head_norm == "batch" and not training and state is None:
            raise ValueError("eval mode with batch normalization requires state")
        tape: list = []

        def push(kind, cache):
            tape.append((kind, cache))

        h = x
        if cfg.backbone == "mlp":
            for i in range(len(cfg.mlp_widths)):
                h, c = _affine_fwd(h, params[f"backbone.l{i}.W"], params[f"backbone.l{i}.b"])
                push(("affine", f"backbone.l{i}"), c)
                if i + 1 < len(cfg.mlp_widths):
                    h, c = _gelu_fwd(h)
                    push(("gelu", None), c)
        else:
            b = h.shape[0]
            t = cfg.input_dim // cfg.patch_size
            tokens = h.reshape(b, t, cfg.patch_size)
            tokens, c = _affine_fwd(
                tokens, params["backbone.embed.W"], params["backbone.embed.b"]
            )
            push(("affine", "backbone.embed"), c)
            cls = np.broadcast_to(params["backbone.cls"], (b, 1, cfg.width))
            h = np.concatenate([cls, tokens], axis=1) + params["backbone.pos"]
            push(("assemble", (b, t)), None)
            for i in range(cfg.depth):
                blk = f"backbone.b{i}"
                # attention sub-block: h <- h + attn(ln(h))
                push(("res_begin", None), None)
                y, c = _layernorm_fwd(h, params[blk + ".ln1.g"], params[blk + ".ln1.b"])
                push(("layernorm", blk + ".ln1"), c)
                y, c = _attention_fwd(y, params, blk + ".attn", cfg.heads)
                push(("attention", blk + ".attn"), c)
                push(("res_end", None), None)
                h = h + y
                # mlp sub-block: h <- h + mlp(ln(h))
                push(("res_begin", None), None)
                y, c = _layernorm_fwd(h, params[blk + ".ln2.g"], params[blk + ".ln2.b"])
                push(("layernorm", blk + ".ln2"), c)
                y, c = _affine_fwd(y, params[blk + ".mlp.l0.W"], params[blk + ".mlp.l0.b"])
                push(("affine", blk + ".mlp.l0"), c)
                y, c = _gelu_fwd(y)
                push(("gelu", None), c)
                y, c = _affine_fwd(y, params[blk + ".mlp.l1.W"], params[blk + ".mlp.l1.b"])
                push(("affine", blk + ".mlp.l1"), c)
                push(("res_end", None), None)
                h = h + y
            h, c = _layernorm_fwd(h, params["backbone.lnf.g"], params["backbone.lnf.b"])
            push(("layernorm", "backbone.lnf"), c)
            h = h[:, 0, :]
            push(("take_cls", (b, t + 1, cfg.width)), None)

        pre = h
        for i in range(3):
            h, c = _affine_fwd(h, params[f"head.l{i}.W"], params[f"head.l{i}.b"])
            push(("affine", f"head.l{i}"), c)
            if i < 2:
                g, bta = params[f"head.n{i}.g"], params[f"head.n{i}.b"]
                if cfg.head_norm == "per_sample":
                    h, c = _layernorm_fwd(h, g, bta)
                    push(("layernorm", f"head.n{i}"), c)
                elif training:
                    mean = h.mean(axis=0)
                    var = h.var(axis=0)
                    if update_running and state is not None:
                        # in-place so callers holding views see the update
                        mom = cfg.norm_momentum
                        rmean = state[f"head.n{i}.mean"]
                        rvar = state[f"head.n{i}.var"]
                        rmean *= mom
                        rmean += (1 - mom) * mean
                        rvar *= mom
                        rvar += (1 - mom) * var
                    h, c = _batchnorm_fwd(h, g, bta, mean, var)
                    push(("batchnorm", f"head.n{i}"), c)
                else:
                    h, c = _batchnorm_fwd(
                        h, g, bta, state[f"head.n{i}.mean"], state[f"head.n{i}.var"]
                    )
                    push(("batchnorm_eval", f"head.n{i}"), c)
                h, c = _gelu_fwd(h)
                push(("gelu", None), c)
        proj, c = _l2norm_fwd(h)
        push(("l2norm", None), c)
        return pre, proj, tape

    def backward(
        self, params: dict, tape: list, grad_projected: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Exact gradients of all parameters given d(loss)/d(projected)."""
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        dy = np.asarray(grad_projected, dtype=float)
        skip: list[np.ndarray] = []
        for (kind, name), cache in reversed(tape):
            if kind == "l2norm":
                dy = _l2norm_bwd(dy, cache)
            elif kind == "affine":
                dy, dw, db = _affine_bwd(dy, cache)
                grads[name + ".W"] += dw
                grads[name + ".b"] += db
            elif kind == "gelu":
                dy = _gelu_bwd(dy, cache)
            elif kind == "batchnorm":
                dy, dg, db = _batchnorm_bwd(dy, cache)
                grads[name + ".g"] += dg
                grads[name + ".b"] += db
            elif kind == "batchnorm_eval":
                dy, dg, db = _batchnorm_eval_bwd(dy, cache)
                grads[name + ".g"] += dg
                grads[name + ".b"] += db
            elif kind == "layernorm":
                dy, dg, db = _layernorm_bwd(dy, cache)
                grads[name + ".g"] += dg
                grads[name + ".b"] += db
            elif kind == "attention":
                dy = _attention_bwd(dy, cache, params, name, self.cfg.heads, grads)
            elif kind == "res_end":
                # upstream gradient feeds both the branch and the skip path
                skip.append(dy)
            elif kind == "res_begin":
                dy = dy + skip.pop()
            elif kind == "take_cls":
                b, t1, w = name
                full = np.zeros((b, t1, w))
                full[:, 0, :] = dy
                dy = full
            elif kind == "assemble":
                b, t = name
                grads["backbone.pos"] += dy.sum(axis=0)
                grads["backbone.cls"] += dy[:, 0, :].sum(axis=0)
                dy = dy[:, 1:, :]
            else:
                raise AssertionError(f"unknown tape entry {kind}")
        return grads
