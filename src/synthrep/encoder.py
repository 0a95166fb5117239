"""Small trainable encoders with exact manual gradients.

An encoder maps a feature vector to (pre_projection, projected): the
pre-projection output of a configurable backbone (MLP by default, tiny
transformer optionally) is the probe-facing representation, and a 3-affine
projection head with normalization and GELU produces the unit-norm embedding
consumed by the contrastive losses. The head serves only those losses, so it
has one mode: each norm uses the mean and variance of the batch at hand (or
of each sample), and no running statistics are kept. `Encoder.features` runs
the backbone alone, as evaluation needs it; `Encoder.forward` runs it and
then the head.
The same class serves as the text tower, encoding caption vectors with its
own parameter set.

A pass records each layer's backward closure on a tape, which `backward`
replays in reverse: exact gradients, including the row normalization's
Jacobian (I - u u^T) / ||v||, in plain numpy, checkable by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import SALT_INIT, _check_numbers, rng_from

__all__ = ["EncoderConfig", "Encoder"]

_EPS = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 32
    backbone: str = "mlp"  # "mlp" or "transformer"
    mlp_widths: tuple[int, ...] = (128, 128)
    patch_size: int = 8
    depth: int = 2
    width: int = 64
    heads: int = 4
    head_hidden: int = 256
    head_out: int = 64
    head_norm: str = "batch"  # "batch" or "per_sample"

    def __post_init__(self) -> None:
        object.__setattr__(self, "mlp_widths", tuple(self.mlp_widths))
        _check_numbers(self)
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

    @property
    def backbone_dim(self) -> int:
        return self.mlp_widths[-1] if self.backbone == "mlp" else self.width


# ---------------------------------------------------------------------------
# layers: each returns (out, back); back(dy, grads) returns the input gradient
# and writes the layer's parameter gradients into grads

def _backprop(tape, dy, grads):
    for back in reversed(tape):
        dy = back(dy, grads)
    return dy


def _record(tape, layer):
    """The out of an (out, back) `layer`; back goes on `tape` when there is one."""
    out, back = layer
    if tape is not None:
        tape.append(back)
    return out


def _affine(x, params, name, proj=""):
    """The affine layer with parameters name.W<proj> and name.b<proj>."""
    wkey, bkey = f"{name}.W{proj}", f"{name}.b{proj}"
    w = params[wkey]

    def back(dy, grads):
        grads[wkey] = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
        grads[bkey] = dy.sum(axis=tuple(range(dy.ndim - 1)))
        return dy @ w.T

    return x @ w + params[bkey], back


# cephes' erf, the algorithm of scipy's erf ufunc: x T(x^2) / U(x^2) for
# |x| <= 1 and 1 - exp(-x^2) P(|x|) / Q(|x|) above. Coefficients are cephes'
# (ndtr.c), highest power first. U and Q carry the leading 1 that cephes'
# p1evl implies, and T a leading 0, so each pair is one stacked Horner loop.
_ERF_TU = np.array([
    (0.0, 9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4),
    (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4),
])
_ERF_PQ = np.array([
    (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
    (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2),
])


def _horner_pair(x, coefs):
    """Both polynomials of the (2, k) `coefs` at the 1-d x, as a (2, x.size)
    array, in the order of operations of cephes' polevl and p1evl: a leading
    0 or 1 makes the first step c1 or x + c1 exactly, as theirs does."""
    acc = np.multiply.outer(coefs[:, 0], x)
    acc += coefs[:, 1:2]
    for k in range(2, coefs.shape[1]):
        acc *= x
        acc += coefs[:, k : k + 1]
    return acc


def _erf(x):
    """scipy's erf in numpy: its bits for |x| <= 1, and within 1 ulp
    above, where numpy's exp and libm's differ by an ulp on a few inputs."""
    flat = x.reshape(-1)
    # the |x| <= 1 branch runs on every entry, clipped, so nothing overflows
    c = np.clip(flat, -1.0, 1.0)
    tu = _horner_pair(c * c, _ERF_TU)
    out = c * tu[0]
    out /= tu[1]
    ax = np.abs(flat)
    big = np.flatnonzero(ax > 1.0)  # NaN compares False and stays NaN
    if big.size:
        # erfc(6) < 2**-54, so erf is exactly +-1 from about 5.9 on; the cap
        # keeps inf (inf / inf) and huge inputs out of the polynomials
        a = np.minimum(ax[big], 6.0)
        pq = _horner_pair(a, _ERF_PQ)
        y = np.exp(-a * a)
        y *= pq[0]
        y /= pq[1]
        out[big] = np.copysign(1.0 - y, flat[big])
    return out.reshape(x.shape)


def _gelu(x):
    # x * (0.5 * (1 + erf)) equals 0.5 * x * (1 + erf) bit for bit (a product
    # with 0.5 is exact); back keeps the cdf, so it needs no erf
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))

    def back(dy, grads):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return dy * (cdf + x * pdf)

    return x * cdf, back


def _norm(x, params, name, axis):
    """Normalize x over `axis` (0: batch norm, -1: layer norm) by its own
    mean and variance, then scale by name.g and shift by name.b."""
    gamma = params[name + ".g"]
    mean = x.mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=axis, keepdims=True) + _EPS)
    xhat = (x - mean) * inv

    def back(dy, grads):
        # the statistics were functions of x, so they carry gradient too
        n = xhat.shape[axis]
        dxhat = dy * gamma
        axes = tuple(range(dy.ndim - 1))
        grads[name + ".g"] = np.sum(dy * xhat, axis=axes)
        grads[name + ".b"] = np.sum(dy, axis=axes)
        return (inv / n) * (
            n * dxhat
            - np.sum(dxhat, axis=axis, keepdims=True)
            - xhat * np.sum(dxhat * xhat, axis=axis, keepdims=True)
        )

    return gamma * xhat + params[name + ".b"], back


def _softmax(z, axis=-1):
    """Softmax of z along `axis`, overflow-safe: returns (q, log q). A -inf
    entry gets q exactly 0 and log q -inf. The package's one softmax: the
    losses, attention, the sampler's mixture posterior and the probe."""
    shifted = z - np.max(z, axis=axis, keepdims=True)
    q = np.exp(shifted)
    denom = np.sum(q, axis=axis, keepdims=True)
    q /= denom
    shifted -= np.log(denom)
    return q, shifted


def _l2norm(x):
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero vector reached the normalization layer")
    unit = x / norms
    if not np.all(np.isfinite(norms)):
        # an overflowed norm leaves no direction; x / inf would be a zero row
        unit[~np.isfinite(norms[..., 0])] = np.nan

    def back(dy, grads):
        radial = np.sum(dy * unit, axis=-1, keepdims=True)
        return (dy - radial * unit) / norms

    return unit, back


def _attention(x, params, name, heads):
    b, t, d = x.shape
    dk = d // heads
    affines = [_affine(x, params, name, proj) for proj in "qkv"]
    # q, k and v are split into heads: (b, heads, t, dk)
    q, k, v = (z.reshape(b, t, heads, dk).transpose(0, 2, 1, 3) for z, _ in affines)
    a = _softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk))[0]
    ctx = (a @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    out, back_o = _affine(ctx, params, name, "o")

    def back(dy, grads):
        dctx = back_o(dy, grads).reshape(b, t, heads, dk).transpose(0, 2, 1, 3)
        da = dctx @ v.transpose(0, 1, 3, 2)
        dv = a.transpose(0, 1, 3, 2) @ dctx
        dscores = a * (da - np.sum(da * a, axis=-1, keepdims=True))
        dscores /= np.sqrt(dk)
        dqkv = (dscores @ k, dscores.transpose(0, 1, 3, 2) @ q, dv)
        # x fed all three projections: dx sums their input gradients, q + k + v
        dx = None
        for (_, back_z), dz in zip(affines, dqkv):
            dxz = back_z(dz.transpose(0, 2, 1, 3).reshape(b, t, d), grads)
            dx = dxz if dx is None else dx + dxz
        return dx

    return out, back


def _residual(h, y, branch):
    """h + y, where the layers on the tape `branch` made y from h."""
    return h + y, lambda dy, grads: dy + _backprop(branch, dy, grads)


class Encoder:
    """Backbone + projection head with explicit parameter dictionaries."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg

    # -- parameter construction ---------------------------------------------

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

    # -- forward / backward --------------------------------------------------

    def features(self, params: dict, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """Backbone output of a (batch, input_dim) input: the pre-projection
        features. Records its layers on `tape` when one is given; without it,
        nothing of the pass is kept."""
        cfg = self.cfg
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ValueError(f"expected (batch, {cfg.input_dim}) input, got {x.shape}")

        h = x
        if cfg.backbone == "mlp":
            for i in range(len(cfg.mlp_widths)):
                h = _record(tape, _affine(h, params, f"backbone.l{i}"))
                if i + 1 < len(cfg.mlp_widths):
                    h = _record(tape, _gelu(h))
            return h

        b = h.shape[0]
        tokens = _record(tape, _affine(h.reshape(b, -1, cfg.patch_size), params, "backbone.embed"))
        cls = np.broadcast_to(params["backbone.cls"], (b, 1, cfg.width))

        def embed_back(dy, grads):
            grads["backbone.pos"] = dy.sum(axis=0)
            grads["backbone.cls"] = dy[:, 0, :].sum(axis=0)
            return dy[:, 1:, :]

        h = np.concatenate([cls, tokens], axis=1) + params["backbone.pos"]
        h = _record(tape, (h, embed_back))
        for i in range(cfg.depth):
            blk = f"backbone.b{i}"
            # attention sub-block: h <- h + attn(ln(h))
            branch = None if tape is None else []
            y = _record(branch, _norm(h, params, blk + ".ln1", -1))
            y = _record(branch, _attention(y, params, blk + ".attn", cfg.heads))
            h = _record(tape, _residual(h, y, branch))
            # mlp sub-block: h <- h + mlp(ln(h))
            branch = None if tape is None else []
            y = _record(branch, _norm(h, params, blk + ".ln2", -1))
            y = _record(branch, _affine(y, params, blk + ".mlp.l0"))
            y = _record(branch, _gelu(y))
            y = _record(branch, _affine(y, params, blk + ".mlp.l1"))
            h = _record(tape, _residual(h, y, branch))
        h = _record(tape, _norm(h, params, "backbone.lnf", -1))

        def take_cls_back(dy, grads):
            full = np.zeros(h.shape)
            full[:, 0, :] = dy
            return full

        return _record(tape, (h[:, 0, :], take_cls_back))

    def forward(self, params: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """Batched forward. Returns (pre_projection, projected, tape). Each head
        norm normalizes by the statistics of this batch (head_norm='batch') or
        of each sample (head_norm='per_sample')."""
        tape: list = []
        axis = 0 if self.cfg.head_norm == "batch" else -1
        pre = h = self.features(params, x, tape)
        for i in range(3):
            h = _record(tape, _affine(h, params, f"head.l{i}"))
            if i < 2:
                h = _record(tape, _norm(h, params, f"head.n{i}", axis))
                h = _record(tape, _gelu(h))
        return pre, _record(tape, _l2norm(h)), tape

    def backward(
        self, params: dict, tape: list, grad_projected: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Exact gradients of all parameters given d(loss)/d(projected), from
        the tape of `forward`; each is written once."""
        grads: dict[str, np.ndarray] = {}
        _backprop(tape, np.asarray(grad_projected, dtype=float), grads)
        # in params order: the trainer's gradient norm sums in this order
        return {k: grads[k] for k in params}
