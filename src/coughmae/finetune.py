"""Binary-classification fine-tuning and evaluation.

The encoder output is pooled (CLS token or mean over patch features), a
two-logit linear head plus softmax gives class probabilities, and quality is
measured by rank-based AUROC. Fine-tuning updates the whole network with
separate learning rates for encoder and head, after clipping the gradient of
encoder and head together to one global L2 norm (MAX_GRAD_NORM, 1.0 as in
ViT fine-tuning).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, load_into
from .dsp import (DatasetManifest, DatasetStats, MelConfig, Waveform, frame_count,
                  log_mel_spectrogram, normalize)
from .errors import (CheckpointError, ConfigError, CoughMaeError, DataError,
                     NumericsError, ShapeError)
from .mae import prepare_patches
from .optim import AdamW, clip_grad_norm, warmup_cosine_lr
from .rng import seeded_rng
from .tensor import Tensor
from .vit import (EncoderParams, LinearParams, ModelConfig, TokenSequence, embed,
                  encode, patchify)
from .workers import in_order, worker_count

N_CLASSES = 2
MAX_GRAD_NORM = 1.0   # ViT fine-tuning value, Dosovitskiy et al. 2021, App. B.1
SCORE_BATCH = 32      # samples per tape-free forward in score_samples


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 10
    batch_size: int = 8
    encoder_lr: float = 1e-4
    head_lr: float = 1e-3
    pooling: str = "cls"
    k_folds: int = 5
    target_frames: int = 98
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.0
    warmup_frac: float = 0.05

    def __post_init__(self):
        if self.pooling not in ("cls", "mean"):
            raise ConfigError(f"pooling must be cls or mean, got {self.pooling!r}")
        if self.epochs <= 0 or self.batch_size <= 0 or self.k_folds < 2:
            raise ConfigError("epochs/batch_size must be positive and k_folds >= 2")


class ClassifierHead(LinearParams):
    """Linear map from pooled features to two logits."""

    def __init__(self, dim: int, seed: int | None):
        super().__init__("head", dim, N_CLASSES, seed)


def pool(feats: TokenSequence, mode: str) -> Tensor:
    """Collapse a feature sequence to one vector per sample.

    'cls' takes the CLS slot; 'mean' averages the patch features (CLS
    excluded). The mean is computed over value-sorted cells so it is exactly
    invariant to patch order.
    """
    if mode == "cls":
        picked = T.gather(feats.tokens, np.array([0], dtype=np.intp), axis=1)
        return T.reshape(picked, (feats.tokens.shape[0], feats.tokens.shape[2]))
    if mode == "mean":
        idx = np.arange(1, 1 + feats.n_patches, dtype=np.intp)
        patch_feats = T.gather(feats.tokens, idx, axis=1)
        return _order_invariant_mean(patch_feats)
    raise ConfigError(f"unknown pooling mode {mode!r}")


def _order_invariant_mean(x: Tensor) -> Tensor:
    """Mean over axis 1 with the summation done in sorted order.

    Sorting canonicalizes the reduction order, so permuting the tokens gives
    a bit-identical result; the gradient of a mean is uniform either way.
    """
    b, n, d = x.shape
    data = np.sort(x.data, axis=1)
    out = data.sum(axis=1) / n

    def vjp(g):
        return np.broadcast_to(g[:, None, :] / n, (b, n, d)).copy()

    return T._node(out, "sorted_mean", (x,), (vjp,))


def logits(pooled: Tensor, head: ClassifierHead) -> Tensor:
    return T.linear(pooled, head.w, head.b)


def classify(pooled: Tensor, head: ClassifierHead) -> Tensor:
    """Class probabilities (batch, 2): softmax over the two logits."""
    return T.softmax(logits(pooled, head))


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties credit 0.5.

    Equals the fraction of (positive, negative) pairs the scores order
    correctly, computed from average ranks so ties are shared evenly.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeError(f"scores {s.shape} vs labels {y.shape}")
    if not np.isfinite(s).all():
        raise NumericsError("non-finite scores in auroc")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("auroc needs at least one positive and one negative")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    rank_sum = ranks[y == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# - Folds -


def kfold_split(labels, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Partition sample indices into k stratified folds, deterministically
    from the seed.

    Each class's shuffled members are dealt round-robin, so per-fold class
    counts differ from perfect proportion by at most one.
    """
    y = np.asarray(labels)
    n = len(y)
    if k < 2 or k > n:
        raise DataError(f"k={k} incompatible with {n} samples")
    rng = seeded_rng(seed, "kfold")
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(set(y.tolist())):
        members = np.flatnonzero(y == cls)
        if len(members) < k:
            raise DataError(f"class {cls} has {len(members)} members, fewer than k={k}")
        members = members[rng.permutation(len(members))]
        for i, idx in enumerate(members):
            folds[i % k].append(int(idx))
    return tuple(tuple(sorted(f)) for f in folds)


# - Fine-tuning -


@dataclass
class FinetuneResult:
    encoder: EncoderParams
    head: ClassifierHead
    curve: list[float]            # validation AUROC per epoch; empty without validation
    best_epoch: int               # the last epoch without validation
    best_auroc: float             # nan without validation
    train_loss: list[float] = field(default_factory=list)


def score_samples(patches: np.ndarray, encoder: EncoderParams, head: ClassifierHead,
                  pooling: str) -> np.ndarray:
    """Positive-class probability for each sample in a stacked patch array (no tape)."""
    out = []
    with T.no_grad():
        for lo in range(0, patches.shape[0], SCORE_BATCH):
            chunk = patches[lo:lo + SCORE_BATCH]
            seq = embed(chunk, encoder)
            feats = encode(seq, encoder, cls_only=pooling == "cls")
            probs = classify(pool(feats, pooling), head)
            out.append(probs.data[:, 1])
    return np.concatenate(out)


def finetune_arrays(encoder: EncoderParams, patches: np.ndarray, labels: np.ndarray,
                    train_idx, val_idx, cfg: FinetuneConfig, seed: int,
                    log=None) -> FinetuneResult:
    """Fine-tune encoder+head on pre-extracted patches.

    Full fine-tuning: the encoder moves at cfg.encoder_lr and the fresh head
    at cfg.head_lr, both on the warmup/cosine schedule. Between backward and
    the two optimizer steps, the gradient of encoder and head together is
    clipped to one global L2 norm, MAX_GRAD_NORM (clipping each group on
    its own leaves more runs from a pretrained encoder stalled). After every
    epoch the validation AUROC is recorded, and best_epoch/best_auroc name
    the curve's maximum; the returned model always carries the final
    epoch's weights. val_idx=None trains without validation: nothing is
    scored and the curve is empty.
    Each step's autodiff tape is freed before the next step's forward.
    """
    train_idx = np.asarray(train_idx, dtype=np.intp)
    if val_idx is not None:
        val_idx = np.asarray(val_idx, dtype=np.intp)
    if len(train_idx) == 0 or (val_idx is not None and len(val_idx) == 0):
        raise DataError("fine-tuning needs non-empty train and validation sets")
    head = ClassifierHead(encoder.cfg.dim, seed)
    enc_params = encoder.parameters()
    head_params = head.parameters()
    all_params = enc_params + head_params
    opt_enc = AdamW(enc_params, lr=cfg.encoder_lr, betas=cfg.betas,
                    weight_decay=cfg.weight_decay)
    opt_head = AdamW(head_params, lr=cfg.head_lr, betas=cfg.betas,
                     weight_decay=cfg.weight_decay)
    shuffle_rng = seeded_rng(seed, "finetune.shuffle")

    steps_per_epoch = (len(train_idx) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    curve: list[float] = []
    train_loss: list[float] = []
    best_epoch, best_auroc = -1, -np.inf
    step = 0
    for epoch in range(cfg.epochs):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        for b in range(steps_per_epoch):
            chunk = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            seq = embed(patches[chunk], encoder)
            feats = encode(seq, encoder, cls_only=cfg.pooling == "cls")
            z = logits(pool(feats, cfg.pooling), head)
            loss = T.cross_entropy_with_logits(z, labels[chunk])
            value = loss.item()
            if not np.isfinite(value):
                raise NumericsError(f"non-finite fine-tune loss at step {step}")
            opt_enc.zero_grad()
            opt_head.zero_grad()
            T.backward(loss)
            del seq, feats, z, loss     # the step's tape, freed before the next forward
            clip_grad_norm(all_params, MAX_GRAD_NORM)
            lr_scale = warmup_cosine_lr(step, total_steps, 1.0, cfg.warmup_frac)
            opt_enc.step(lr=cfg.encoder_lr * lr_scale)
            opt_head.step(lr=cfg.head_lr * lr_scale)
            train_loss.append(value)
            step += 1
        if val_idx is None:
            continue
        val_scores = score_samples(patches[val_idx], encoder, head, cfg.pooling)
        epoch_auroc = auroc(val_scores, labels[val_idx])
        curve.append(epoch_auroc)
        if epoch_auroc > best_auroc:
            best_epoch, best_auroc = epoch, epoch_auroc
        if log is not None:
            log(f"epoch {epoch + 1}/{cfg.epochs} val_auroc {epoch_auroc:.4f}")
    if val_idx is None:
        best_epoch, best_auroc = cfg.epochs - 1, float("nan")
    return FinetuneResult(encoder=encoder, head=head, curve=curve,
                          best_epoch=best_epoch, best_auroc=best_auroc,
                          train_loss=train_loss)


# - Models from checkpoints -


@dataclass
class Model:
    """A network rebuilt from a checkpoint."""

    encoder: EncoderParams
    head: ClassifierHead | None   # fine-tuned checkpoints only
    pooling: str
    stats: DatasetStats | None    # None: the model takes raw log-mels


def load_model(ckpt: Checkpoint, mel_cfg: MelConfig, model_cfg: ModelConfig) -> Model:
    """Rebuild the model a checkpoint header describes (keys: see checkpoint).

    The header's mel and model sections are what the model was trained
    with; a caller config that differs from either is a ConfigError naming
    the first differing field. Only a fine-tuned model trained on raw input
    may lack stats. Parameters are allocated without init draws, then
    filled from the checkpoint arrays.
    """
    for key, run_cfg in (("mel", mel_cfg), ("model", model_cfg)):
        try:
            stored = type(run_cfg)(**ckpt.config[key])
        except (KeyError, TypeError, CoughMaeError) as exc:
            raise CheckpointError(f"checkpoint header: missing or bad {key!r} section ({exc})") from None
        for f in fields(stored):
            have, want = getattr(run_cfg, f.name), getattr(stored, f.name)
            if have != want:
                raise ConfigError(f"config {key}.{f.name} is {have!r} but the checkpoint "
                                  f"was trained with {want!r}")
    finetuned = ckpt.config.get("kind") == "finetuned"
    if ckpt.stats is None and not finetuned:
        raise DataError("checkpoint has no normalization statistics; cannot fine-tune from it")
    stats = None if ckpt.stats is None else _header_stats(ckpt.stats)
    encoder = EncoderParams(model_cfg, seed=None)
    head = ClassifierHead(model_cfg.dim, seed=None) if finetuned else None
    load_into(ckpt.arrays, encoder.parameters() + (head.parameters() if finetuned else []))
    pooling = ckpt.config.get("finetune", {}).get("pooling", "cls")
    return Model(encoder=encoder, head=head, pooling=pooling, stats=stats)


def _header_stats(stats: dict) -> DatasetStats:
    """A header's stats object: exactly `mean` and `std`, each a finite real number."""
    def finite_real(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    if set(stats) != {"mean", "std"} or not all(map(finite_real, stats.values())):
        raise CheckpointError(f"checkpoint header: bad 'stats' section {str(stats)[:120]} "
                              f"(needs exactly finite real mean and std)")
    return DatasetStats(mean=stats["mean"], std=stats["std"])


def build_scorer(encoder: EncoderParams, head: ClassifierHead, mel_cfg: MelConfig,
                 pooling: str, stats=None):
    """Window scorer for segmentation: (wave, offsets, win) -> probabilities.

    Returns one positive-class probability per offset, for the windows
    wave.samples[o:o + win]. Each window is featurized exactly like training
    data (log-mel at the window's length; normalized only when the model was
    trained on normalized input). When every offset lies a whole number of
    hops after the first, one log-mel of the span the windows cover is cut
    into the windows' rows: frames are fully contained (no centre padding),
    so those rows are each window's own log-mel. Otherwise each window gets
    its own log-mel. All windows then run through one encoder forward with
    no tape.
    """
    hop = mel_cfg.frame_hop_samples

    def features(samples: np.ndarray, rate: int) -> np.ndarray:
        spec = log_mel_spectrogram(Waveform(samples=samples, sample_rate=rate), mel_cfg)
        if stats is not None:
            spec = normalize(spec, stats.mean, stats.std)
        return spec.values

    def embed_windows(wave: Waveform, offsets: np.ndarray, win: int):
        samples, rate = wave.samples, wave.sample_rate
        shifts = offsets - offsets[0]
        if np.all(shifts % hop == 0):
            span = features(samples[offsets[0]:offsets[-1] + win], rate)
            n_frames = frame_count(win, mel_cfg)
            values = np.stack([span[k:k + n_frames] for k in shifts // hop])
        else:
            values = np.stack([features(samples[o:o + win], rate) for o in offsets])
        patches, _ = patchify(values, encoder.cfg.patch_size, encoder.cfg.patch_stride)
        return embed(patches, encoder)

    def scorer(wave: Waveform, offsets, win: int) -> np.ndarray:
        with T.no_grad():
            # Spectrograms and patches are freed before the encoder runs,
            # which sets the peak memory of segmentation.
            seq = embed_windows(wave, np.asarray(offsets, dtype=np.intp), win)
            feats = encode(seq, encoder, cls_only=pooling == "cls")
            return classify(pool(feats, pooling), head).data[:, 1]

    return scorer


@dataclass
class FinetuneData:
    """A labelled corpus featurized once for every fine-tuning run of a
    command, and the model each run starts from (None: scratch)."""

    patches: np.ndarray
    labels: np.ndarray
    model_cfg: ModelConfig
    init: Model | None

    def run(self, train_idx, val_idx, cfg: FinetuneConfig, seed: int,
            log=None) -> FinetuneResult:
        """finetune_arrays from a fresh encoder: a copy of the init's, or drawn from seed."""
        encoder = EncoderParams(self.model_cfg, seed if self.init is None else None)
        if self.init is not None:
            load_into({p.name: p.data for p in self.init.encoder.parameters()},
                      encoder.parameters())
        return finetune_arrays(encoder, self.patches, self.labels, train_idx, val_idx,
                               cfg, seed, log=log)


def prepare_finetune(init: Checkpoint | None, manifest: DatasetManifest,
                     mel_cfg: MelConfig, model_cfg: ModelConfig,
                     cfg: FinetuneConfig) -> FinetuneData:
    """Check every entry has a label, load the init checkpoint (None: scratch), then
    featurize the corpus, normalized with the checkpoint's statistics when it
    has them (left raw from scratch)."""
    labels = manifest.labels()
    model = None if init is None else load_model(init, mel_cfg, model_cfg)
    patches, _, _ = prepare_patches(manifest, mel_cfg, cfg.target_frames, model_cfg,
                                    stats=None if model is None else model.stats)
    return FinetuneData(patches=patches, labels=labels, model_cfg=model_cfg, init=model)


# - Cross-validation -


@dataclass
class EvalReport:
    """Per-fold fine-tuning outcomes plus the raw epoch curves."""

    pooling: str
    fold_auroc: list[float]
    best_epochs: list[int]
    curves: list[list[float]]
    mean_auroc: float
    init_kind: str

    def to_json(self) -> str:
        return json.dumps({
            "pooling": self.pooling,
            "init": self.init_kind,
            "fold_auroc": self.fold_auroc,
            "best_epochs": self.best_epochs,
            "mean_auroc": self.mean_auroc,
            "curves": self.curves,
        }, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["fold,best_epoch,auroc,pooling,init"]
        for i, (a, e) in enumerate(zip(self.fold_auroc, self.best_epochs)):
            lines.append(f"{i},{e},{a:.10g},{self.pooling},{self.init_kind}")
        lines.append(f"mean,,{self.mean_auroc:.10g},{self.pooling},{self.init_kind}")
        return "\n".join(lines) + "\n"


def cross_validate(data: FinetuneData, cfg: FinetuneConfig, seed: int,
                   log=None) -> EvalReport:
    """Stratified k-fold fine-tuning; each fold starts from the same init.

    Fold f trains on the other folds and validates on fold f, seeded with
    seed * 1000 + f. Folds share only read-only inputs, so they run in
    workers.worker_count() ordered worker threads with OpenBLAS at one
    thread, and each gives the bits it gives alone. Results, and each
    fold's buffered progress lines, are taken in fold order in the caller's
    thread, so the report is byte-identical at any worker count and `log`
    is only ever called from the caller's thread.
    """
    folds = kfold_split(data.labels, cfg.k_folds, seed)

    def run_fold(f: int):
        fold = folds[f]
        val_idx = np.array(fold, dtype=np.intp)
        train_idx = np.array(sorted(set(range(len(data.labels))) - set(fold)), dtype=np.intp)
        lines: list[str] = []
        result = data.run(train_idx, val_idx, cfg, seed * 1000 + f,
                          log=lines.append if log else None)
        return result.best_auroc, result.best_epoch, result.curve, lines

    fold_auroc, best_epochs, curves = [], [], []
    with in_order(run_fold, range(len(folds)), worker_count()) as results:
        for f, (best_auroc, best_epoch, curve, lines) in results:
            for line in lines:
                log(f"fold {f}: {line}")
            fold_auroc.append(best_auroc)
            best_epochs.append(best_epoch)
            curves.append(curve)
    return EvalReport(pooling=cfg.pooling, fold_auroc=fold_auroc,
                      best_epochs=best_epochs, curves=curves,
                      mean_auroc=float(np.mean(fold_auroc)),
                      init_kind="pretrained" if data.init is not None else "scratch")
