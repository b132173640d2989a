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

LAYER_NORM_EPS = 1e-6


class _GradMode(threading.local):
    """Per-thread tape switch, on in every new thread; no_grad() turns it off
    in its own thread only, and _node then records no parents or VJPs."""

    enabled = True


_grad_mode = _GradMode()


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=DTYPE)


def _require_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
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

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return subtract(self, _lift(other))

    def __rsub__(self, other):
        return subtract(_lift(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return multiply(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)


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


def _matmul(a: Tensor, b: Tensor) -> tuple[np.ndarray, tuple[Callable, Callable]]:
    """a @ b on the data after the shape checks, and its VJPs for a and b."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def grad_a(g):
        return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)

    def grad_b(g):
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return a.data @ b.data, (grad_a, grad_b)


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


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).

    The forward runs over the flattened arrays through workers.split_halves,
    so on a free core the helper computes the second half. Each element
    gets the expressions in the comments, in that order, whatever the
    split, so the bits do not change. The halves allocate nothing; the
    caller allocates every array. The VJP is not split: it has no pow or
    tanh, costs about a tenth of the forward, and the hand-off made it
    slower on the encoder's activations (0.17 -> 0.42 ms at 26,624 values).
    """
    x = _lift(x)
    v = x.data.reshape(-1)
    t, out, scratch = np.empty_like(v), np.empty_like(v), np.empty_like(v)

    def forward(lo, hi):
        vs, ts, outs, ss = v[lo:hi], t[lo:hi], out[lo:hi], scratch[lo:hi]
        # t = tanh(C * (v + K * v ** 3)), built in t's own buffer
        np.power(vs, 3, out=ts)
        np.multiply(_GELU_K, ts, out=ts)
        np.add(vs, ts, out=ts)
        np.multiply(_GELU_C, ts, out=ts)
        np.tanh(ts, out=ts)
        # out = 0.5 * v * (1.0 + t)
        np.multiply(0.5, vs, out=outs)
        np.add(1.0, ts, out=ss)
        np.multiply(outs, ss, out=outs)

    split_halves(forward, v.size)
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
            if acc is None:
                flowing[id(parent)] = pg
            else:
                acc += pg


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
