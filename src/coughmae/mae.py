"""Masked-autoencoder pretraining.

Per step: embed patches, drop a random subset of patch tokens (CLS is never
masked), encode only the visible tokens, reinsert a shared learnable mask
token at the masked slots to restore the original ordering, add decoder-side
positional encodings, and decode back to per-patch pixel vectors. The loss
is mean squared error against per-patch normalized targets, averaged over
masked patches only.

The decoder runs either global attention or shifted-window attention (4x4
patch windows, alternate blocks offset by (2, 2)). Window partitions live in
patch-grid index space; grids that 4 does not divide simply produce shorter
boundary windows, and the CLS slot sits in a singleton window of its own.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import save_model
from .dsp import (DatasetManifest, MelConfig, fit_length, normalize,
                  spectrogram_for_file, stats_from_values)
from .errors import ConfigError, DataError, NumericsError, ShapeError
from .optim import AdamW, warmup_cosine_lr
from .rng import seeded_rng
from .tensor import Parameter, Tensor
from .vit import (BlockParams, EncoderParams, LinearParams, ModelConfig,
                  TokenSequence, embed, encode, init_param, patchify,
                  sinusoidal_positions, transformer_block)
from .workers import in_order


@dataclass(frozen=True)
class MaskPlan:
    """A masking decision over n_patches patch slots (CLS excluded)."""

    n_patches: int
    masked: tuple[int, ...]
    visible: tuple[int, ...]


def sample_mask(n_patches: int, ratio: float, rng: np.random.Generator) -> MaskPlan:
    """Uniformly choose floor(ratio * n + 0.5) slots to mask."""
    if n_patches <= 0:
        raise ShapeError(f"cannot mask {n_patches} patches")
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"mask ratio must be in [0, 1), got {ratio}")
    n_masked = int(np.floor(ratio * n_patches + 0.5))
    perm = rng.permutation(n_patches)
    masked = np.sort(perm[:n_masked])
    visible = np.sort(perm[n_masked:])
    return MaskPlan(n_patches=n_patches, masked=tuple(int(i) for i in masked),
                    visible=tuple(int(i) for i in visible))


def apply_mask(seq: TokenSequence, plan: MaskPlan) -> TokenSequence:
    """Keep CLS plus the visible patch tokens, original order."""
    if plan.n_patches != seq.n_patches:
        raise ShapeError(f"mask plan for {plan.n_patches} patches applied to {seq.n_patches}")
    keep = [0] + [1 + i for i in plan.visible]
    tokens = T.gather(seq.tokens, np.array(keep, dtype=np.intp), axis=1)
    return TokenSequence(tokens=tokens)


# - Decoder -


# Shifted-window attention layout: window extent in patches (time, mel) and
# the offset applied on alternating decoder blocks.
WINDOW_EXTENT = (4, 4)
WINDOW_SHIFT = (2, 2)


class DecoderParams:
    """Mask token (encoder width), input projection, block stack, pixel head."""

    def __init__(self, cfg: ModelConfig, seed: int | None):
        self.cfg = cfg
        self.mask_token = init_param("decoder.mask_token", (cfg.dim,), seed)
        self.in_proj = LinearParams("decoder.in_proj", cfg.dim, cfg.decoder_dim, seed)
        self.blocks = [BlockParams(f"decoder.blocks.{i}", cfg.decoder_dim, cfg.mlp_ratio, seed)
                       for i in range(cfg.decoder_blocks)]
        self.ln_gain = Parameter(np.ones(cfg.decoder_dim), "decoder.ln_f.gain")
        self.ln_bias = Parameter(np.zeros(cfg.decoder_dim), "decoder.ln_f.bias")
        self.out_proj = LinearParams("decoder.out_proj", cfg.decoder_dim, cfg.patch_values, seed)

    def parameters(self) -> list[Parameter]:
        out = [self.mask_token, *self.in_proj.parameters()]
        for b in self.blocks:
            out.extend(b.parameters())
        out.extend([self.ln_gain, self.ln_bias, *self.out_proj.parameters()])
        return out


def restore_with_mask_tokens(feats: TokenSequence, plan: MaskPlan,
                             dec: DecoderParams) -> TokenSequence:
    """Rebuild the full-length sequence: encoded features at their original
    slots, the shared mask token at masked slots, then decoder positional
    encodings over the restored order (CLS keeps position 0)."""
    x = feats.tokens
    batch = x.shape[0]
    expected = 1 + len(plan.visible)
    if x.shape[1] != expected:
        raise ShapeError(f"restore expected {expected} encoded tokens, got {x.shape[1]}")
    n_masked = len(plan.masked)
    if n_masked:
        mask_block = T.broadcast_to(T.reshape(dec.mask_token, (1, 1, dec.cfg.dim)),
                                    (batch, n_masked, dec.cfg.dim))
        stacked = T.concat([x, mask_block], axis=1)
    else:
        stacked = x
    # Slot j of the output pulls from: CLS feature, visible feature, or a mask token.
    source = np.empty(1 + plan.n_patches, dtype=np.intp)
    source[0] = 0
    for rank, patch in enumerate(plan.visible):
        source[1 + patch] = 1 + rank
    for rank, patch in enumerate(plan.masked):
        source[1 + patch] = 1 + len(plan.visible) + rank
    restored = T.gather(stacked, source, axis=1)
    pe = sinusoidal_positions(plan.n_patches + 1, dec.cfg.dim)
    restored = restored + Tensor(pe[None, :, :])
    return TokenSequence(tokens=restored)


def window_map_for_grid(grid_shape: tuple[int, int], shifted: bool) -> np.ndarray:
    """Window id per token (CLS first) for a patch grid in raster order.

    Ids label 4x4 tiles of the (optionally shifted) partition; boundary
    windows on non-divisible grids are simply smaller. CLS gets a private id.
    """
    rows, cols = grid_shape
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"bad patch grid {grid_shape}")
    dt, df = WINDOW_SHIFT if shifted else (0, 0)
    t_ids = (np.arange(rows) + dt) // WINDOW_EXTENT[0]
    f_ids = (np.arange(cols) + df) // WINDOW_EXTENT[1]
    grid_ids = t_ids[:, None] * (f_ids.max() + 2) + f_ids[None, :]
    return np.concatenate([[-1], grid_ids.reshape(-1)])


def decode(seq: TokenSequence, dec: DecoderParams, mode: str = "global",
           grid_shape: tuple[int, int] | None = None) -> Tensor:
    """Decode a restored sequence to per-patch pixel vectors (batch, n, side^2).

    mode 'global' attends over everything; 'windowed' alternates unshifted
    and shifted 4x4 patch windows across blocks of the (time, mel) patch
    grid_shape, which only this mode needs. The CLS slot rides along but is
    dropped from the output.
    """
    if mode not in ("global", "windowed"):
        raise ConfigError(f"unknown decoder attention mode {mode!r}")
    if mode == "windowed" and grid_shape is None:
        raise ShapeError("windowed decoding needs the patch grid shape")
    x = T.linear(seq.tokens, dec.in_proj.w, dec.in_proj.b)
    for i, block in enumerate(dec.blocks):
        wm = None
        if mode == "windowed":
            wm = window_map_for_grid(grid_shape, shifted=(i % 2 == 1))
        x = transformer_block(x, block, dec.cfg.decoder_heads, wm)
    x = T.layer_norm(x, dec.ln_gain, dec.ln_bias)
    x = T.linear(x, dec.out_proj.w, dec.out_proj.b)
    return T.gather(x, np.arange(1, seq.n_patches + 1, dtype=np.intp), axis=1)


# - Loss -

PATCH_NORM_EPS = 1e-6


def patch_norm_targets(patches: np.ndarray) -> np.ndarray:
    """Normalize each patch to zero mean / unit variance over its own cells."""
    mu = patches.mean(axis=-1, keepdims=True)
    var = patches.var(axis=-1, keepdims=True)
    return (patches - mu) / np.sqrt(var + PATCH_NORM_EPS)


def masked_mse(pred: Tensor, targets: np.ndarray, plan: MaskPlan) -> Tensor:
    """Mean squared error over masked patches only.

    pred and targets are (batch, n_patches, side^2); visible slots cannot
    influence the value. Raises when the plan masks nothing.
    """
    if len(plan.masked) == 0:
        raise NumericsError("masked_mse with zero masked patches")
    if pred.shape[-2] != plan.n_patches:
        raise ShapeError(f"prediction covers {pred.shape[-2]} patches, plan has {plan.n_patches}")
    idx = np.array(plan.masked, dtype=np.intp)
    pred_masked = T.gather(pred, idx, axis=pred.ndim - 2)
    target_masked = np.take(np.asarray(targets, dtype=np.float64), idx, axis=-2)
    if pred_masked.shape != target_masked.shape:
        raise ShapeError(f"prediction {pred_masked.shape} vs targets {target_masked.shape}")
    return T.reduce_mean(T.square(pred_masked - Tensor(target_masked)))


# - Pretraining loop -


@dataclass(frozen=True)
class PretrainConfig:
    mask_ratio: float = 0.75
    epochs: int = 100
    batch_size: int = 4
    target_frames: int = 98
    decoder_attention: str = "global"
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.05
    warmup_frac: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"pretraining needs mask_ratio in (0, 1), got {self.mask_ratio}")
        if self.decoder_attention not in ("global", "windowed"):
            raise ConfigError(f"unknown decoder attention {self.decoder_attention!r}")
        if self.epochs <= 0 or self.batch_size <= 0 or self.target_frames <= 0:
            raise ConfigError("epochs, batch_size and target_frames must be positive")


@dataclass
class PretrainResult:
    encoder: EncoderParams
    decoder: DecoderParams
    stats: "object"
    history: list[dict] = field(default_factory=list)  # step, epoch, lr, loss


def prepare_patches(manifest: DatasetManifest, mel_cfg: MelConfig, target_frames: int,
                    model_cfg: ModelConfig, stats=None) -> tuple[np.ndarray, tuple[int, int], dict]:
    """Feature-extract every manifest entry into one (n, patches, values) array.

    Each log-mel is normalized with stats when given, then cropped or padded
    to target_frames with silence: ln(log_floor) raw, 0 normalized.
    Returns the stacked patches, the patch grid shape, and the raw
    spectrogram values (pre fit_length) keyed by entry path, for statistics.
    """
    if len(manifest) == 0:
        raise DataError("empty manifest")
    silence = math.log(mel_cfg.log_floor) if stats is None else 0.0
    fitted = []
    raw_values = {}
    for entry in manifest.entries:
        values = raw_values[entry.path] = spectrogram_for_file(manifest.resolve(entry), mel_cfg)
        if stats is not None:
            values = normalize(values, stats.mean, stats.std)
        fitted.append(fit_length(values, target_frames, silence))
    patches, grid_shape = patchify(np.stack(fitted), model_cfg.patch_size, model_cfg.patch_stride)
    return patches, grid_shape, raw_values


def pretrain_step_loss(batch_patches: np.ndarray, encoder: EncoderParams,
                       decoder: DecoderParams, plan: MaskPlan, mode: str = "global",
                       grid_shape: tuple[int, int] | None = None) -> Tensor:
    """Forward pass of one pretraining step: embed, mask, encode, restore, decode."""
    seq = embed(batch_patches, encoder)
    visible = apply_mask(seq, plan)
    feats = encode(visible, encoder)
    restored = restore_with_mask_tokens(feats, plan, decoder)
    pred = decode(restored, decoder, mode=mode, grid_shape=grid_shape)
    targets = patch_norm_targets(batch_patches)
    return masked_mse(pred, targets, plan)


def pretrain(manifest: DatasetManifest, mel_cfg: MelConfig, model_cfg: ModelConfig,
             cfg: PretrainConfig, seed: int, out_dir=None,
             log=None) -> PretrainResult:
    """Run masked-autoencoder pretraining over the manifest.

    Spectrograms stay unnormalized; dataset statistics are computed anyway
    and stored in the checkpoint for downstream fine-tuning. When out_dir is
    given, the latest checkpoint is rewritten each epoch and the loss history
    lands next to it as loss.csv. One pool thread runs every epoch in order
    and keeps one heap (see workers.in_order); it also calls log and writes
    the epoch's files. A failed epoch stops the rest, and an interrupt waits
    for the running one only.
    """
    patches, grid_shape, raw_values = prepare_patches(manifest, mel_cfg,
                                                      cfg.target_frames, model_cfg)
    stats = stats_from_values(raw_values)
    del raw_values                     # freed before training, which sets the peak
    encoder, decoder = EncoderParams(model_cfg, seed), DecoderParams(model_cfg, seed)
    n_patches = patches.shape[1]
    if int(np.floor(cfg.mask_ratio * n_patches + 0.5)) == 0:
        raise ConfigError(f"mask_ratio {cfg.mask_ratio} masks nothing at {n_patches} patches")

    params = encoder.parameters() + decoder.parameters()
    opt = AdamW(params, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay)
    shuffle_rng = seeded_rng(seed, "pretrain.shuffle")
    mask_rng = seeded_rng(seed, "pretrain.mask")

    n = patches.shape[0]
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    history: list[dict] = []
    started = time.monotonic()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def train_epoch(epoch: int) -> None:
        order = shuffle_rng.permutation(n)
        for b in range(steps_per_epoch):
            step = len(history)
            batch_idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            batch = patches[batch_idx]
            plan = sample_mask(n_patches, cfg.mask_ratio, mask_rng)
            lr = warmup_cosine_lr(step, total_steps, cfg.lr, cfg.warmup_frac)
            loss = pretrain_step_loss(batch, encoder, decoder, plan,
                                      mode=cfg.decoder_attention, grid_shape=grid_shape)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericsError(f"non-finite pretraining loss at step {step}")
            opt.zero_grad()
            T.backward(loss)
            del loss                    # the step's tape, freed before the next forward
            opt.step(lr=lr)
            history.append({"step": step, "epoch": epoch, "lr": lr, "loss": value})
        if log is not None:
            log(f"epoch {epoch + 1}/{cfg.epochs} loss {history[-1]['loss']:.6f} "
                f"({time.monotonic() - started:.1f}s)")
        if out_dir is not None:
            save_model(out_dir / "checkpoint.bin", params, stats, "pretrain", seed,
                       mel_cfg, model_cfg, pretrain=cfg)
            write_loss_csv(out_dir / "loss.csv", history)

    with in_order(train_epoch, range(cfg.epochs), 1) as results:
        for _ in results:
            pass
    return PretrainResult(encoder=encoder, decoder=decoder, stats=stats, history=history)


def write_loss_csv(path, history: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("step,epoch,lr,loss\n")
        for row in history:
            fh.write(f"{row['step']},{row['epoch']},{row['lr']:.10g},{row['loss']:.10g}\n")
