"""Minimal reverse-mode autodiff over float64 numpy arrays.

Values live in row-major float64 arrays. Applying an op to tensors that
require gradients records the op on the output node (parents + one
vector-Jacobian closure per parent); `backward` topologically sorts that
recorded graph from a scalar loss and visits each node exactly once.
Gradients accumulate (+=) into requires-grad leaves, so calling backward
twice doubles them and micro-batch accumulation works without ceremony.

Ops applied to constants only produce constants and record nothing, which
keeps data-preparation code off the tape. Inside a `no_grad()` block no op
records anything either, so inference builds no tape even though the
parameters require gradients.
"""
from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericsError, ShapeError
from .workers import split_halves

DTYPE = np.float64

# GELU tanh approximation constants.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715
# Half-width of the bracket around v * v * v that must hold np.power(v, 3):
# _GELU_CUBE_SLACK units in the last place of the cube, plus _GELU_CUBE_FLOOR.
# The floor covers cubes that underflow and sends v = ±0 to np.power, whose
# zero signs an equality test cannot tell apart. tests/test_tensor.py checks
# that the two cubes stay within a quarter of the slack.
_GELU_CUBE_SLACK = 16.0
_GELU_CUBE_FLOOR = 1e-300
_EXPONENT_BITS = np.int64(0x7FF0000000000000)    # of a float64

LAYER_NORM_EPS = 1e-6


class _GradMode(threading.local):
    """Per-thread tape switch, on in every new thread; no_grad() turns it off
    in its own thread only, and _node then records no parents or VJPs."""

    enabled = True


_grad_mode = _GradMode()


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=DTYPE)


def _require_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by op '{op}'")


class Tensor:
    """N-d value node; leaves created with requires_grad=True collect gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple = ()
        self._vjps: tuple = ()
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # Small operator surface so model code reads naturally.
    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return subtract(self, _lift(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return multiply(self, other)


class Parameter(Tensor):
    """Named trainable leaf; names must be unique within a model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op output is a constant.

    Values are computed exactly as with the tape on, and the per-op finite
    check still runs. The previous mode is restored on exit, also when the
    block raises, so blocks nest. The mode belongs to the calling thread:
    other threads keep recording (or not) as their own blocks say.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor], vjps: Sequence[Callable]) -> Tensor:
    """Build an output tensor, recording parents/vjps only when a parent is live
    and no no_grad() block is active."""
    _require_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjps = tuple(vjps)
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjps = ()
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# - Arithmetic -


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data + b.data
    return _node(out, "add", (a, b), (
        lambda g: _unbroadcast(g, a.shape),
        lambda g: _unbroadcast(g, b.shape),
    ))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data - b.data
    return _node(out, "subtract", (a, b), (
        lambda g: _unbroadcast(g, a.shape),
        lambda g: _unbroadcast(-g, b.shape),
    ))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data * b.data
    return _node(out, "multiply", (a, b), (
        lambda g: _unbroadcast(g * b.data, a.shape),
        lambda g: _unbroadcast(g * a.data, b.shape),
    ))


def scale(a: Tensor, s: float) -> Tensor:
    a = _lift(a)
    s = float(s)
    return _node(a.data * s, "scale", (a,), (lambda g: g * s,))


def square(a: Tensor) -> Tensor:
    a = _lift(a)
    return _node(a.data * a.data, "square", (a,), (lambda g: 2.0 * a.data * g,))


def _matmul_vjps(a: np.ndarray, b: np.ndarray) -> tuple[Callable, Callable]:
    """The VJPs of a @ b for a and b."""

    def grad_a(g):
        return _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)

    def grad_b(g):
        return _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)

    return grad_a, grad_b


def _matmul(a: Tensor, b: Tensor) -> tuple[np.ndarray, tuple[Callable, Callable]]:
    """a @ b on the data after the shape checks, and its VJPs for a and b."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return a.data @ b.data, _matmul_vjps(a.data, b.data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy stacked-batch semantics; operands must be >= 2-d."""
    a, b = _lift(a), _lift(b)
    out, vjps = _matmul(a, b)
    return _node(out, "matmul", (a, b), vjps)


# - Shape ops -


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = _lift(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _node(np.transpose(a.data, axes), "transpose", (a,),
                 (lambda g: np.transpose(g, inverse),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)
    return _node(a.data.reshape(shape), "reshape", (a,),
                 (lambda g: g.reshape(a.shape),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return _node(out, "concat", parts, tuple(make_vjp(i) for i in range(len(parts))))


def gather(a: Tensor, indices, axis: int) -> Tensor:
    """Select rows along `axis` with a 1-d integer index; repeats allowed."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather index must be 1-d, got shape {idx.shape}")
    out = np.take(a.data, idx, axis=axis)

    def vjp(g):
        z = np.zeros_like(a.data)
        np.add.at(z, (slice(None),) * axis + (idx,), g)
        return z

    return _node(out, "gather", (a,), (vjp,))


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape).copy()
    return _node(out, "broadcast_to", (a,), (lambda g: _unbroadcast(g, a.shape),))


# - Nonlinearities and normalization -


def softmax(a: Tensor, allowed: np.ndarray | None = None) -> Tensor:
    """Max-subtracted softmax over the last axis.

    `allowed` is an optional boolean array broadcastable to `a`; positions
    where it is False get exactly zero weight (used for window masking).
    Rows with no allowed position are an error, not a NaN.
    """
    a = _lift(a)
    x = a.data
    if allowed is None:
        m = np.max(x, axis=-1, keepdims=True)
        e = np.exp(x - m)
    else:
        mask = np.broadcast_to(np.asarray(allowed, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise ShapeError("softmax row with no allowed positions (empty window)")
        neg = np.where(mask, x, -np.inf)
        m = np.max(neg, axis=-1, keepdims=True)
        e = np.exp(np.where(mask, x - m, -np.inf))
    s = e / np.sum(e, axis=-1, keepdims=True)

    def vjp(g):
        dot = np.sum(g * s, axis=-1, keepdims=True)
        return s * (g - dot)

    return _node(s, "softmax", (a,), (vjp,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match dim {d}")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def grad_x(g):
        gh = g * gain.data
        mean_gh = np.mean(gh, axis=-1, keepdims=True)
        mean_ghx = np.mean(gh * xhat, axis=-1, keepdims=True)
        return inv * (gh - mean_gh - xhat * mean_ghx)

    def grad_gain(g):
        return _unbroadcast(g * xhat, gain.shape)

    def grad_bias(g):
        return _unbroadcast(g, bias.shape)

    return _node(out, "layer_norm", (x, gain, bias), (grad_x, grad_gain, grad_bias))


def _gelu_forward(vs: np.ndarray, ts: np.ndarray, outs: np.ndarray, ss: np.ndarray) -> None:
    """GELU of vs into outs, elementwise; ts ends as tanh(C * (v + K * v ** 3)).

    The four arrays are flat and of one length; ts and ss are work space.
    """
    # t = v + K * y at y = c - d, out = the same at y = c + d, ss = d
    np.multiply(vs, vs, out=ts)
    np.multiply(ts, vs, out=ts)
    # c's exponent bits alone are the power of two 2^e <= |c|, and
    # 2^-52 of it is np.spacing(|c|) at a fraction of its cost (0, not
    # the smallest subnormal, when c is subnormal; the floor covers it)
    np.bitwise_and(ts.view(np.int64), _EXPONENT_BITS, out=ss.view(np.int64))
    np.multiply(_GELU_CUBE_SLACK * 2.0 ** -52, ss, out=ss)
    np.add(ss, _GELU_CUBE_FLOOR, out=ss)
    np.add(ts, ss, out=outs)
    np.multiply(_GELU_K, outs, out=outs)
    np.add(vs, outs, out=outs)
    np.subtract(ts, ss, out=ts)
    np.multiply(_GELU_K, ts, out=ts)
    np.add(vs, ts, out=ts)
    # lanes whose ends differ (or are NaN) take v + K * v ** 3
    differ = ss.view(np.bool_)[:vs.size]
    np.not_equal(ts, outs, out=differ)
    idx = np.flatnonzero(differ)
    # out (the bracket's upper end) and scratch (the mask, now read into
    # idx) are free again; mode="clip" lets take write into out
    # unbuffered, and idx is in range anyway
    vi, cube = outs[:idx.size], ss[:idx.size]
    np.take(vs, idx, out=vi, mode="clip")
    np.power(vi, 3, out=cube)
    np.multiply(_GELU_K, cube, out=cube)
    np.add(vi, cube, out=cube)
    ts[idx] = cube
    # t = tanh(C * (v + K * v ** 3)), built in t's own buffer
    np.multiply(_GELU_C, ts, out=ts)
    np.tanh(ts, out=ts)
    # out = 0.5 * v * (1.0 + t)
    np.multiply(0.5, vs, out=outs)
    np.add(1.0, ts, out=ss)
    np.multiply(outs, ss, out=outs)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).

    The bits are those of the expression with numpy's `v ** 3`, but
    np.power, slow on negative inputs, runs only where it can change them.
    Every lane first takes the cheap cube c = v * v * v and the tanh argument
    v + K * y at both ends of y in [c - d, c + d], d = _GELU_CUBE_SLACK ulps
    of c plus _GELU_CUBE_FLOOR. Since np.power(v, 3) lies in that bracket and
    y -> fl(v + fl(K * y)) is monotone, where the two ends agree the argument
    has exactly the bits np.power would give it. The other lanes, NaN and
    inf ones among them, gather v, take v + K * np.power(v, 3) and scatter it
    back. At the bench models' activations that is about 4% of the lanes.

    The forward needs three buffers of its range: the bracket, those lanes
    and their cubes live in t, out and scratch, and it allocates only the
    indices of the lanes np.power takes. The bits of an element do not
    depend on the range it is computed in.
    - When it records a tape, the VJP reads t, so t, out and scratch are
      full-size, allocated in the caller's thread, and the forward runs
      over the flattened arrays through workers.split_halves: on a free
      core the helper computes the second half.
    - With no tape (under no_grad, or on a constant), t dies with the
      forward, so it runs as two halves in turn, in the caller's thread,
      through one half-size t and scratch: two full-size arrays in all,
      against three. Segmentation's chunks, the largest tape-free GELUs,
      run on workers that leave no core free to split for.

    The VJP is not split: the hand-off made it slower on the encoder's
    activations (0.17 -> 0.42 ms at 26,624 values). It has no pow, yet costs
    nearly as much as the forward: under cProfile, 64 bench-shaped
    pretraining steps on a 2-core box spent 0.25 s in it against 0.30 s in
    the forward.
    """
    x = _lift(x)
    v = x.data.reshape(-1)
    out = np.empty_like(v)
    if not (_grad_mode.enabled and x.requires_grad):
        half = (v.size + 1) // 2
        t, scratch = np.empty(half, dtype=DTYPE), np.empty(half, dtype=DTYPE)
        for lo, hi in ((0, half), (half, v.size)):
            _gelu_forward(v[lo:hi], t[:hi - lo], out[lo:hi], scratch[:hi - lo])
        del t, scratch      # before _node's finite check, as below
        return _node(out.reshape(x.shape), "gelu", (x,), ())
    t, scratch = np.empty_like(v), np.empty_like(v)
    split_halves(lambda lo, hi: _gelu_forward(v[lo:hi], t[lo:hi], out[lo:hi], scratch[lo:hi]),
                 v.size)
    del scratch     # before _node's finite check, so it adds nothing to the peak

    def vjp(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_K * v * v)
        grad = g.reshape(-1) * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du)
        return grad.reshape(x.shape)

    return _node(out.reshape(x.shape), "gelu", (x,), (vjp,))


# - Reductions -


def _norm_axis(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    axes = _norm_axis(axis, a.ndim)
    out = np.sum(a.data, axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()

    return _node(np.asarray(out, dtype=DTYPE), "sum", (a,), (vjp,))


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    axes = _norm_axis(axis, a.ndim)
    count = int(np.prod([a.shape[i] for i in axes])) if axes else 1
    out = np.mean(a.data, axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g / count, a.shape).copy()

    return _node(np.asarray(out, dtype=DTYPE), "mean", (a,), (vjp,))


def cross_entropy_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of integer labels; gradient is (p - onehot)/B."""
    logits = _lift(logits)
    y = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or y.shape != (logits.shape[0],):
        raise ShapeError(f"cross entropy wants (B, C) logits and (B,) labels, got {logits.shape} / {y.shape}")
    z = logits.data
    m = np.max(z, axis=1, keepdims=True)
    zs = z - m
    lse = np.log(np.sum(np.exp(zs), axis=1)) + m[:, 0]
    picked = z[np.arange(z.shape[0]), y]
    loss = np.mean(lse - picked)
    probs = np.exp(zs) / np.sum(np.exp(zs), axis=1, keepdims=True)

    def vjp(g):
        grad = probs.copy()
        grad[np.arange(z.shape[0]), y] -= 1.0
        return grad * (g / z.shape[0])

    return _node(np.asarray(loss, dtype=DTYPE), "cross_entropy", (logits,), (vjp,))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one tape node, with the bits and gradients of add(matmul(x, w), b)."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    out, vjps = _matmul(x, w)
    out += b.data
    return _node(out, "linear", (x, w, b), vjps + (lambda g: _unbroadcast(g, b.shape),))


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor,
              wo: Tensor, bo: Tensor, n_heads: int, allowed: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention over (batch, tokens, dim) as one tape node.

    The forward is the composition linear -> split heads -> q @ k^T ->
    scale -> softmax(allowed) -> weights @ v -> merge heads -> linear, with
    the same numpy expressions on the same array layouts, so its values
    carry the same bits. The weights come from a call to this module's
    `softmax` on a constant tensor (wrappers of it still see them). The
    node keeps x, q, k, v, the weights and the merged heads; the raw and
    scaled scores are freed as soon as the softmax has read them.

    The VJP computes every parent's gradient in one pass on its first call
    and hands each requires-grad parent its own once. It repeats the
    composition's products, its _unbroadcast sums and the order in which
    backward summed x's three projection gradients (q, then k, then v), so
    every gradient bit matches.
    """
    x, wq, bq, wk, bk, wv, bv, wo, bo = (_lift(p) for p in (x, wq, bq, wk, bk, wv, bv, wo, bo))
    parents = (x, wq, bq, wk, bk, wv, bv, wo, bo)
    if x.ndim != 3:
        raise ShapeError(f"attention wants (batch, tokens, dim) input, got {x.shape}")
    b, t, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"dim {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    split = (b, t, n_heads, hd)
    s = float(1.0 / np.sqrt(hd))

    def project(w, bias):
        z = x.data @ w.data
        z += bias.data
        return np.transpose(z.reshape(split), (0, 2, 1, 3))

    q, k, v = project(wq, bq), project(wk, bk), project(wv, bv)
    kt = np.transpose(k, (0, 1, 3, 2))
    scores = q @ kt
    scores *= s
    weights = softmax(Tensor(scores), allowed=allowed).data
    del scores
    merged = np.transpose(weights @ v, (0, 2, 1, 3)).reshape((b, t, d))
    out = merged @ wo.data
    out += bo.data

    def linear_vjp(inp, w, bias, g):
        """linear's VJPs for its input, weight and bias."""
        grad_inp, grad_w = _matmul_vjps(inp, w.data)
        return grad_inp(g), grad_w(g), _unbroadcast(g, bias.shape)

    def parent_grads(g) -> dict[int, np.ndarray]:
        g_merged, g_wo, g_bo = linear_vjp(merged, wo, bo, g)
        g_heads = np.transpose(g_merged.reshape(split), (0, 2, 1, 3))
        grad_weights, grad_v = _matmul_vjps(weights, v)
        g_scores, g_v = grad_weights(g_heads), grad_v(g_heads)
        # softmax then scale VJPs, in place: weights * (g - dot) * s
        dot = np.sum(g_scores * weights, axis=-1, keepdims=True)
        g_scores -= dot
        g_scores *= weights
        g_scores *= s
        grad_q, grad_kt = _matmul_vjps(q, kt)
        g_q, g_k = grad_q(g_scores), np.transpose(grad_kt(g_scores), (0, 1, 3, 2))
        del g_merged, g_heads, g_scores
        (gx_q, g_wq, g_bq), (gx_k, g_wk, g_bk), (gx_v, g_wv, g_bv) = (
            linear_vjp(x.data, w, bias, np.transpose(g_head, (0, 2, 1, 3)).reshape((b, t, d)))
            for w, bias, g_head in ((wq, bq, g_q), (wk, bk, g_k), (wv, bv, g_v)))
        grads = ((gx_q + gx_k) + gx_v, g_wq, g_bq, g_wk, g_bk, g_wv, g_bv, g_wo, g_bo)
        return {i: grad for i, grad in enumerate(grads) if parents[i].requires_grad}

    pending: dict[int, np.ndarray] = {}

    def make_vjp(i):
        def vjp(g):
            if not pending:         # first call of a backward pass
                pending.update(parent_grads(g))
            return pending.pop(i)

        return vjp

    return _node(out, "attention", parents, tuple(make_vjp(i) for i in range(len(parents))))


# - Backward -


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Each recorded node is visited exactly once. Gradients land in the .grad
    arrays of requires-grad leaves via +=, so repeated calls accumulate.
    A constant scalar is a legal no-op (nothing reachable, all grads stay).
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.grad is not None:
            node.grad += g
        for parent, vjp in zip(node._parents, node._vjps):
            if not parent.requires_grad:
                continue
            pg = vjp(g)
            acc = flowing.get(id(parent))
            # a VJP may hand two parents the same array (add's _unbroadcast
            # returns g itself), so never accumulate in place
            flowing[id(parent)] = pg if acc is None else acc + pg


# - Finite-difference checking -


def grad_check(fn: Callable[[Tensor], Tensor], point, step: float = 1e-5,
               max_coords: int | None = None, rng: np.random.Generator | None = None) -> float:
    """Compare backward gradients of fn at `point` against central differences.

    Returns max over checked coordinates of |a - n| / max(|a|, |n|, 1e-8).
    All coordinates are checked unless max_coords caps them, in which case a
    seeded sample is used (pass an rng for a non-default sample).
    """
    base = point.data if isinstance(point, Tensor) else _as_array(point)
    x = Tensor(np.array(base, dtype=DTYPE, copy=True), requires_grad=True)
    out = fn(x)
    if out.size != 1:
        raise ShapeError("grad_check closure must return a scalar")
    backward(out)
    analytic = x.grad.reshape(-1).copy()

    flat = x.data.reshape(-1)
    n = flat.size
    if max_coords is not None and n > max_coords:
        gen = rng if rng is not None else np.random.default_rng(0)
        coords = np.sort(gen.choice(n, size=max_coords, replace=False))
    else:
        coords = np.arange(n)

    probe = Tensor(x.data)   # shares x's buffer, so the nudges below reach it; no grad

    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + step
        hi = float(fn(probe).data)
        flat[i] = orig - step
        lo = float(fn(probe).data)
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * step)
        a = analytic[i]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def grad_check_params(loss_fn: Callable[[], Tensor], params: Iterable[Parameter],
                      step: float = 1e-5, coords_per_param: int | None = None,
                      rng: np.random.Generator | None = None) -> float:
    """grad_check over model Parameters against a deterministic loss closure.

    `loss_fn` must be a pure function of the current parameter values (fix
    batches and masks before calling). A central difference of an f64 loss of
    magnitude f carries about eps*f/step of rounding noise, so a coordinate
    whose gradient sits near or below that floor cannot be compared at any
    meaningful relative tolerance; per parameter this probes the
    coords_per_param largest-gradient coordinates among those the quotient
    can resolve (all resolvable ones when None). Wrong gradients hiding in
    the unprobed coordinates are exposed by one extra probe along a random
    unit direction through the full parameter vector, whose directional
    derivative has healthy magnitude whenever any parameter influences the
    loss at all.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if loss.size != 1:
        raise ShapeError("grad_check_params loss must be scalar")
    backward(loss)
    analytic = [p.grad.reshape(-1).copy() for p in params]

    # probe only coordinates whose expected quotient noise is <= 1e-5 of the
    # gradient itself, an order of magnitude inside the usual 1e-4 tolerance
    f_scale = max(abs(float(loss.data)), 1.0)
    resolvable = 2.0 * np.finfo(DTYPE).eps * f_scale / step * 1e5

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        eligible = np.flatnonzero(np.abs(a) >= resolvable)
        if coords_per_param is not None and eligible.size > coords_per_param:
            order = np.argsort(np.abs(a[eligible]))[::-1]
            coords = eligible[order[:coords_per_param]]
        else:
            coords = eligible
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn().item()
            flat[i] = orig - step
            lo = loss_fn().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            rel = abs(a[i] - numeric) / max(abs(a[i]), abs(numeric), 1e-8)
            worst = max(worst, rel)

    gen = rng if rng is not None else np.random.default_rng(0)
    direction = [gen.normal(size=p.data.shape) for p in params]
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]
    saved = [p.data.copy() for p in params]
    for p, d in zip(params, direction):
        p.data += step * d
    hi = loss_fn().item()
    for p, s, d in zip(params, saved, direction):
        np.copyto(p.data, s - step * d)
    lo = loss_fn().item()
    for p, s in zip(params, saved):
        np.copyto(p.data, s)
    numeric = (hi - lo) / (2.0 * step)
    along = sum(float(np.sum(a.reshape(d.shape) * d)) for a, d in zip(analytic, direction))
    rel = abs(along - numeric) / max(abs(along), abs(numeric), 1e-8)
    return max(worst, rel)
