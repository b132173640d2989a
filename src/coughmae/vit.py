"""ViT encoder over spectrogram patches.

Spectrograms are cut into square patches in raster order (time-major), each
patch is linearly projected, a learnable CLS token is prepended at position
0, and fixed 1-d sinusoidal encodings are added. The encoder is a stack of
pre-norm transformer blocks with a final layer norm. Positional encodings
are a pure function of (length, dim), so the same weights run on any input
length. For CLS pooling, encode(..., cls_only=True) computes the last
block after its attention for the CLS rows alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .rng import seeded_rng, truncated_normal
from .tensor import Parameter, Tensor

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    """Encoder/decoder dimensions. Defaults are the desk-scale configuration;
    full_scale() gives the publication-size stack."""

    dim: int = 64
    n_heads: int = 4
    n_blocks: int = 2
    patch_size: int = 16
    patch_stride: int = 16
    decoder_dim: int = 64
    decoder_heads: int = 4
    decoder_blocks: int = 2
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.dim % self.n_heads != 0:
            raise ShapeError(f"dim {self.dim} not divisible by n_heads {self.n_heads}")
        if self.decoder_dim % self.decoder_heads != 0:
            raise ShapeError(f"decoder_dim {self.decoder_dim} not divisible by decoder_heads {self.decoder_heads}")
        if self.patch_size <= 0 or self.patch_stride <= 0 or self.patch_stride > self.patch_size:
            raise ShapeError(f"bad patch geometry size={self.patch_size} stride={self.patch_stride}")

    @property
    def patch_values(self) -> int:
        return self.patch_size * self.patch_size

    @classmethod
    def full_scale(cls) -> "ModelConfig":
        return cls(dim=768, n_heads=12, n_blocks=12,
                   decoder_dim=512, decoder_heads=16, decoder_blocks=16)


# - Patch extraction -


def patch_grid(width: int, height: int, side: int, stride: int) -> tuple[int, int]:
    """Patch counts along each axis for a (width, height) grid."""
    if side <= 0 or stride <= 0:
        raise ShapeError(f"bad patch geometry side={side} stride={stride}")
    if width < side or height < side:
        raise ShapeError(f"grid {width}x{height} smaller than patch side {side}")
    return ((width - side + stride) // stride, (height - side + stride) // stride)


def patchify(values: np.ndarray, side: int = 16,
             stride: int = 16) -> tuple[np.ndarray, tuple[int, int]]:
    """Cut spectrograms into side x side patches, raster order, row-major cells.

    `values` is one (frames, mels) spectrogram, giving (n_patches, side*side)
    patches, or a stacked (n, frames, mels) array of equally sized
    spectrograms, giving (n, n_patches, side*side). Returns the patches and
    the grid shape (patches along time, patches along mel). Trailing
    rows/columns that do not fill a whole patch are dropped.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (2, 3):
        raise ShapeError(f"expected (frames, mels) or (n, frames, mels) values, got {values.shape}")
    rows, cols = patch_grid(values.shape[-2], values.shape[-1], side, stride)
    windows = np.lib.stride_tricks.sliding_window_view(values, (side, side), axis=(-2, -1))
    patches = np.empty((*values.shape[:-2], rows, cols, side, side), dtype=np.float64)
    patches[...] = windows[..., ::stride, ::stride, :, :]    # a fresh array, never a view
    return patches.reshape(*values.shape[:-2], rows * cols, side * side), (rows, cols)


# - Positional encodings -


def sinusoidal_positions(n_positions: int, dim: int) -> np.ndarray:
    """Fixed sin/cos table: PE[p, 2i] = sin(p / 10000^(2i/d)), PE[p, 2i+1] = cos(...)."""
    if dim % 2 != 0:
        raise ShapeError(f"positional encoding dim must be even, got {dim}")
    positions = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, 2.0 * i / dim)
    table = np.empty((n_positions, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


# - Parameters -
#
# A `seed` of None allocates every parameter without drawing from its init
# stream: the model is about to be filled from a checkpoint.


def init_param(name: str, shape, seed: int | None) -> Parameter:
    """Truncated-normal(0, INIT_STD) weight drawn from stream init.<name>,
    or zeros when seed is None."""
    if seed is None:
        return Parameter(np.zeros(shape), name)
    return Parameter(truncated_normal(seeded_rng(seed, f"init.{name}"), shape, INIT_STD), name)


class LinearParams:
    def __init__(self, prefix: str, d_in: int, d_out: int, seed: int | None):
        self.w = init_param(f"{prefix}.w", (d_in, d_out), seed)
        self.b = Parameter(np.zeros(d_out), f"{prefix}.b")

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class AttentionParams:
    def __init__(self, prefix: str, dim: int, seed: int | None):
        self.wq = LinearParams(f"{prefix}.q", dim, dim, seed)
        self.wk = LinearParams(f"{prefix}.k", dim, dim, seed)
        self.wv = LinearParams(f"{prefix}.v", dim, dim, seed)
        self.wo = LinearParams(f"{prefix}.out", dim, dim, seed)

    def parameters(self) -> list[Parameter]:
        return [*self.wq.parameters(), *self.wk.parameters(),
                *self.wv.parameters(), *self.wo.parameters()]


class BlockParams:
    """Pre-norm transformer block: LN -> MHA -> residual, LN -> MLP -> residual."""

    def __init__(self, prefix: str, dim: int, mlp_ratio: int, seed: int | None):
        self.ln1_gain = Parameter(np.ones(dim), f"{prefix}.ln1.gain")
        self.ln1_bias = Parameter(np.zeros(dim), f"{prefix}.ln1.bias")
        self.attn = AttentionParams(f"{prefix}.attn", dim, seed)
        self.ln2_gain = Parameter(np.ones(dim), f"{prefix}.ln2.gain")
        self.ln2_bias = Parameter(np.zeros(dim), f"{prefix}.ln2.bias")
        self.mlp_in = LinearParams(f"{prefix}.mlp.fc1", dim, mlp_ratio * dim, seed)
        self.mlp_out = LinearParams(f"{prefix}.mlp.fc2", mlp_ratio * dim, dim, seed)

    def parameters(self) -> list[Parameter]:
        return [self.ln1_gain, self.ln1_bias, *self.attn.parameters(),
                self.ln2_gain, self.ln2_bias,
                *self.mlp_in.parameters(), *self.mlp_out.parameters()]


class EncoderParams:
    """Patch projection, CLS token, block stack and final norm."""

    def __init__(self, cfg: ModelConfig, seed: int | None):
        self.cfg = cfg
        self.patch_proj = LinearParams("encoder.patch_proj", cfg.patch_values, cfg.dim, seed)
        self.cls = init_param("encoder.cls", (cfg.dim,), seed)
        self.blocks = [BlockParams(f"encoder.blocks.{i}", cfg.dim, cfg.mlp_ratio, seed)
                       for i in range(cfg.n_blocks)]
        self.ln_gain = Parameter(np.ones(cfg.dim), "encoder.ln_f.gain")
        self.ln_bias = Parameter(np.zeros(cfg.dim), "encoder.ln_f.bias")

    def parameters(self) -> list[Parameter]:
        out = [*self.patch_proj.parameters(), self.cls]
        for b in self.blocks:
            out.extend(b.parameters())
        out.extend([self.ln_gain, self.ln_bias])
        return out


# - Sequences -


@dataclass
class TokenSequence:
    """Batched tokens (batch, tokens, dim): embedded patches or encoder output.

    CLS occupies slot 0 and carries positional encoding 0; patch p carries
    encoding p + 1. The type stays a wrapper, not a bare Tensor, because
    the benchmark tracer reads `tokens` going into encode and `features`
    coming out.
    """

    tokens: Tensor

    @property
    def n_patches(self) -> int:
        """Patch tokens in the sequence: the full grid, unless masking dropped some."""
        return self.tokens.shape[1] - 1

    @property
    def features(self) -> Tensor:
        """The tokens, under the name readers of encoder output use."""
        return self.tokens


def embed(patches: np.ndarray, params: EncoderParams) -> TokenSequence:
    """Project stacked (batch, n, side*side) patches, prepend CLS and add
    positional encodings."""
    arr = np.asarray(patches, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected (batch, patches, values) array, got {arr.shape}")
    if arr.shape[2] != params.cfg.patch_values:
        raise ShapeError(f"patch has {arr.shape[2]} values, projection expects {params.cfg.patch_values}")
    batch, n, _ = arr.shape
    x = T.linear(Tensor(arr), params.patch_proj.w, params.patch_proj.b)
    pe = sinusoidal_positions(n + 1, params.cfg.dim)
    cls = T.broadcast_to(T.reshape(params.cls, (1, 1, params.cfg.dim)),
                         (batch, 1, params.cfg.dim))
    x = T.concat([cls, x], axis=1)
    x = x + Tensor(pe[None, :, :])
    return TokenSequence(tokens=x)


def multi_head_attention(x: Tensor, params: AttentionParams, n_heads: int,
                         window_map: np.ndarray | None = None) -> Tensor:
    """Standard scaled dot-product MHA over (batch, tokens, dim), one tape node.

    window_map assigns a window id to every token; attention between tokens
    with different ids gets exactly zero weight. tensor.attention runs the
    whole op: under grad it records one node that keeps x, q, k, v, the
    (batch, heads, tokens, tokens) softmax weights and the merged heads,
    never the raw or scaled scores; under no_grad it records nothing. The
    weights come from a tensor.softmax call, so a wrapper around it observes
    them. A non-finite value inside attention is reported by the `softmax`
    op (scores) or the `attention` op (output).
    """
    allowed = None
    if window_map is not None:
        t = x.shape[1]
        ids = np.asarray(window_map)
        if ids.shape != (t,):
            raise ShapeError(f"window_map length {ids.shape} does not match {t} tokens")
        allowed = (ids[:, None] == ids[None, :])
    return T.attention(x, params.wq.w, params.wq.b, params.wk.w, params.wk.b,
                       params.wv.w, params.wv.b, params.wo.w, params.wo.b, n_heads, allowed)


def cls_rows(x: Tensor) -> Tensor:
    """The CLS rows of a (batch, tokens, dim) sequence as one (rows, dim) matrix.

    numpy sends a one-row product to GEMV, whose bits differ from the same
    row of a GEMM; in a GEMM of two or more rows, each row gets the bits of
    the per-sample (tokens, dim) product. So a batch of one carries its
    rows 0 and 1, and the caller keeps row 0.
    """
    b, t, d = x.shape
    idx = np.arange(min(2, t)) if b == 1 else np.array([0])
    return T.reshape(T.gather(x, idx, axis=1), (b * len(idx), d))


def transformer_block(x: Tensor, block: BlockParams, n_heads: int,
                      window_map: np.ndarray | None = None, cls_only: bool = False) -> Tensor:
    """Pre-norm block over (batch, tokens, dim). With cls_only, attention
    still runs over every token, and the rest of the block over cls_rows(x)
    only, giving a (rows, dim) matrix."""
    h = T.layer_norm(x, block.ln1_gain, block.ln1_bias)
    a = multi_head_attention(h, block.attn, n_heads, window_map)
    if cls_only:
        x, a = cls_rows(x), cls_rows(a)
    x = x + a
    h = T.layer_norm(x, block.ln2_gain, block.ln2_bias)
    h = T.linear(h, block.mlp_in.w, block.mlp_in.b)
    h = T.gelu(h)
    h = T.linear(h, block.mlp_out.w, block.mlp_out.b)
    return x + h


def encode(seq: TokenSequence, params: EncoderParams, cls_only: bool = False) -> TokenSequence:
    """Run the pre-norm block stack plus final layer norm (global attention).

    cls_only is for CLS pooling, which reads nothing but the CLS slot: the
    last block's attention runs over every token, its residuals, MLP and
    the final norm over the CLS rows only, and the output is the one-token
    (batch, 1, dim) sequence. Its values are bit-identical to slot 0 of the
    full output (see cls_rows).
    """
    x = seq.tokens
    batch, _, dim = x.shape
    last = len(params.blocks) - 1
    for i, block in enumerate(params.blocks):
        x = transformer_block(x, block, params.cfg.n_heads, cls_only=cls_only and i == last)
    x = T.layer_norm(x, params.ln_gain, params.ln_bias)
    if cls_only:
        x = T.reshape(x, (batch, -1, dim))      # the rows carried per sample
        if x.shape[1] > 1:
            x = T.gather(x, np.array([0]), axis=1)
    return TokenSequence(tokens=x)
