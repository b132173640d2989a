"""Binary-classification fine-tuning and evaluation.

A Model is the downstream classifier: the encoder, a linear head from the
pooled features (CLS token or mean over patch features) to two logits, and
the pooling mode. `forward` is its one forward pass, for training steps,
validation and segmentation alike; softmax over the logits gives class
probabilities, and quality is measured by rank-based AUROC. Fine-tuning
updates the whole network with separate learning rates for encoder and
head, after clipping the gradient of encoder and head together to one
global L2 norm (MAX_GRAD_NORM, 1.0 as in ViT fine-tuning). Cross-validation
reports each fold's best-epoch and last-epoch AUROC, and can train the
final model, on every sample by the folds' recipe, as one more job.
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
from .tensor import Parameter, Tensor
from .vit import (EncoderParams, LinearParams, ModelConfig, TokenSequence, embed,
                  encode, patchify)
from .workers import in_order, worker_count

N_CLASSES = 2
MAX_GRAD_NORM = 1.0   # ViT fine-tuning value, Dosovitskiy et al. 2021, App. B.1
SCORE_BATCH = 32      # samples per tape-free forward in score_samples
POOLINGS = ("cls", "mean")   # the modes pool knows


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
        if self.pooling not in POOLINGS:
            raise ConfigError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")
        if self.epochs <= 0 or self.batch_size <= 0 or self.k_folds < 2:
            raise ConfigError("epochs/batch_size must be positive and k_folds >= 2")


@dataclass
class Model:
    """The downstream classifier: an encoder, a linear head from pooled
    features to two logits, and the pooling mode between them.

    The head is LinearParams("head", dim, N_CLASSES, seed); a pretraining
    checkpoint loads without one. `stats` normalize the log-mels the model
    takes; None means raw log-mels.
    """

    encoder: EncoderParams
    head: LinearParams | None
    pooling: str
    stats: DatasetStats | None

    def parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + self.head.parameters()


def pool(feats: TokenSequence, mode: str) -> Tensor:
    """Collapse a feature sequence to one vector per sample.

    'cls' takes the CLS slot; 'mean' averages the patch features (CLS
    excluded). The mean is computed over value-sorted cells so it is exactly
    invariant to patch order.
    """
    if mode not in POOLINGS:
        raise ConfigError(f"unknown pooling mode {mode!r}")
    if mode == "cls":
        picked = T.gather(feats.tokens, np.array([0], dtype=np.intp), axis=1)
        return T.reshape(picked, (feats.tokens.shape[0], feats.tokens.shape[2]))
    idx = np.arange(1, 1 + feats.n_patches, dtype=np.intp)
    return _order_invariant_mean(T.gather(feats.tokens, idx, axis=1))


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


def forward(model: Model, patches: np.ndarray) -> Tensor:
    """The two logits (batch, 2) of each sample in a stacked patch array.

    embed, encode, pool, head: the one forward of training, validation and
    segmentation (validation and segmentation through probabilities). Under
    CLS pooling the encoder runs its last block for the CLS rows only
    (vit.encode's cls_only).
    """
    return T.linear(_pooled(model, embed(patches, model.encoder)), model.head.w, model.head.b)


def _pooled(model: Model, seq: TokenSequence) -> Tensor:
    """The pooled features (batch, dim) of an embedded token sequence."""
    return pool(encode(seq, model.encoder, cls_only=model.pooling == "cls"), model.pooling)


def probabilities(model: Model, seq: TokenSequence) -> np.ndarray:
    """forward's positive-class probability of each sample of an embedded
    token sequence, with no tape.

    The head's (M, dim) @ (dim, 2) product gives a row the bits it has in a
    larger product only when M is a multiple of four. So the head runs on
    the pooled rows padded with copies of the first to a multiple of four,
    and a sample's probability does not depend on the batch or chunk it is
    scored in. Batches of a multiple of four rows keep forward's bits.
    """
    with T.no_grad():
        feats = _pooled(model, seq).data
        rows = np.concatenate([feats, np.repeat(feats[:1], -len(feats) % 4, axis=0)])
        return T.softmax(T.linear(rows, model.head.w, model.head.b)).data[:len(feats), 1]


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
    model: Model                  # the final epoch's weights
    curve: list[float]            # validation AUROC per epoch; empty without validation
    train_loss: list[float] = field(default_factory=list)


def score_samples(patches: np.ndarray, model: Model) -> np.ndarray:
    """Positive-class probability for each sample in a stacked patch array,
    SCORE_BATCH samples per forward, with no tape (see probabilities)."""
    out = []
    with T.no_grad():
        for lo in range(0, patches.shape[0], SCORE_BATCH):
            out.append(probabilities(model, embed(patches[lo:lo + SCORE_BATCH], model.encoder)))
    return np.concatenate(out)


def finetune_arrays(model: Model, patches: np.ndarray, labels: np.ndarray,
                    train_idx, val_idx, cfg: FinetuneConfig, seed: int,
                    log=None) -> FinetuneResult:
    """Fine-tune the model's encoder and head in place on pre-extracted patches.

    Full fine-tuning: the encoder moves at cfg.encoder_lr and the head at
    cfg.head_lr, both on the warmup/cosine schedule; the batch order is
    drawn from seed, and the pooling is the model's. Between backward and
    the two optimizer steps, the gradient of encoder and head together is
    clipped to one global L2 norm, MAX_GRAD_NORM (clipping each group on
    its own leaves more runs from a pretrained encoder stalled). After every
    epoch the validation AUROC is appended to the curve; the model keeps the
    final epoch's weights. val_idx=None trains without validation: nothing
    is scored and the curve is empty.
    Each step's autodiff tape is freed before the next step's forward.
    """
    train_idx = np.asarray(train_idx, dtype=np.intp)
    if val_idx is not None:
        val_idx = np.asarray(val_idx, dtype=np.intp)
    if len(train_idx) == 0 or (val_idx is not None and len(val_idx) == 0):
        raise DataError("fine-tuning needs non-empty train and validation sets")
    enc_params = model.encoder.parameters()
    head_params = model.head.parameters()
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
    step = 0
    for epoch in range(cfg.epochs):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        for b in range(steps_per_epoch):
            chunk = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            z = forward(model, patches[chunk])
            loss = T.cross_entropy_with_logits(z, labels[chunk])
            value = loss.item()
            if not np.isfinite(value):
                raise NumericsError(f"non-finite fine-tune loss at step {step}")
            opt_enc.zero_grad()
            opt_head.zero_grad()
            T.backward(loss)
            del z, loss                 # the step's tape, freed before the next forward
            clip_grad_norm(all_params, MAX_GRAD_NORM)
            lr_scale = warmup_cosine_lr(step, total_steps, 1.0, cfg.warmup_frac)
            opt_enc.step(lr=cfg.encoder_lr * lr_scale)
            opt_head.step(lr=cfg.head_lr * lr_scale)
            train_loss.append(value)
            step += 1
        if val_idx is None:
            continue
        curve.append(auroc(score_samples(patches[val_idx], model), labels[val_idx]))
        if log is not None:
            log(f"epoch {epoch + 1}/{cfg.epochs} val_auroc {curve[-1]:.4f}")
    return FinetuneResult(model=model, curve=curve, train_loss=train_loss)


# - Models from checkpoints -


def load_model(ckpt: Checkpoint, mel_cfg: MelConfig, model_cfg: ModelConfig) -> Model:
    """Rebuild the model a checkpoint header describes (keys: see checkpoint).

    The header's mel and model sections are what the model was trained
    with; a caller config that differs from either is a ConfigError naming
    the first differing field. Only a fine-tuned model trained on raw input
    may lack stats. Without a finetune section the pooling is cls; a
    section that is no object, or whose pooling is not cls or mean, is a
    CheckpointError. Parameters are allocated without init draws, then
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
    section = ckpt.config.get("finetune", {})
    pooling = section.get("pooling", "cls") if isinstance(section, dict) else None
    if pooling not in POOLINGS:
        raise CheckpointError(f"checkpoint header: bad 'finetune' section {str(section)[:120]} "
                              f"(needs an object whose pooling is one of {POOLINGS})")
    encoder = EncoderParams(model_cfg, seed=None)
    head = LinearParams("head", model_cfg.dim, N_CLASSES, seed=None) if finetuned else None
    load_into(ckpt.arrays, encoder.parameters() + (head.parameters() if finetuned else []))
    return Model(encoder=encoder, head=head, pooling=pooling, stats=stats)


def _header_stats(stats: dict) -> DatasetStats:
    """A header's stats object: exactly `mean` and `std`, each a finite real number."""
    def finite_real(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    if set(stats) != {"mean", "std"} or not all(map(finite_real, stats.values())):
        raise CheckpointError(f"checkpoint header: bad 'stats' section {str(stats)[:120]} "
                              f"(needs exactly finite real mean and std)")
    return DatasetStats(mean=stats["mean"], std=stats["std"])


def build_scorer(model: Model, mel_cfg: MelConfig):
    """Window scorer for segmentation: (wave, offsets, win) -> probabilities.

    Returns one positive-class probability per offset, for the windows
    wave.samples[o:o + win]. Each window is featurized exactly like training
    data (log-mel at the window's length; normalized only when the model
    has stats). The offsets are grouped by hop phase (o % hop): each group
    takes one log-mel of the span its windows cover, and each window's rows
    are cut from it. Frames are fully contained (no centre padding), so
    those rows are the window's own log-mel; at a step of whole hops, as
    the default 0.01 s, a chunk is one group. The windows then run as one
    tape-free batch through probabilities, with the bits score_samples gives
    each window, but with the patches freed once embedded.
    """
    hop = mel_cfg.frame_hop_samples

    def window_patches(wave: Waveform, offsets: list[int], win: int) -> np.ndarray:
        n_frames = frame_count(win, mel_cfg)
        phases: dict[int, list[int]] = {}
        for o in offsets:
            phases.setdefault(o % hop, []).append(o)
        rows = {}
        for group in phases.values():
            first = min(group)
            span = log_mel_spectrogram(Waveform(samples=wave.samples[first:max(group) + win],
                                                sample_rate=wave.sample_rate), mel_cfg)
            if model.stats is not None:
                span = normalize(span, model.stats.mean, model.stats.std)
            for o in group:
                k = (o - first) // hop
                rows[o] = span[k:k + n_frames]
        patches, _ = patchify(np.stack([rows[o] for o in offsets]),
                              model.encoder.cfg.patch_size, model.encoder.cfg.patch_stride)
        return patches

    def scorer(wave: Waveform, offsets, win: int) -> np.ndarray:
        # One forward, split so that nothing holds the spectrograms or the
        # patches once they are embedded: they are freed before the encoder runs.
        with T.no_grad():
            seq = embed(window_patches(wave, np.asarray(offsets, dtype=np.intp).tolist(), win),
                        model.encoder)
        return probabilities(model, seq)

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
        """finetune_arrays on a fresh model: the init's encoder copied (or
        drawn from seed), a head drawn from seed, cfg's pooling, and the
        statistics the patches were normalized with."""
        encoder = EncoderParams(self.model_cfg, seed if self.init is None else None)
        if self.init is not None:
            load_into({p.name: p.data for p in self.init.encoder.parameters()},
                      encoder.parameters())
        head = LinearParams("head", self.model_cfg.dim, N_CLASSES, seed)
        model = Model(encoder=encoder, head=head, pooling=cfg.pooling,
                      stats=None if self.init is None else self.init.stats)
        return finetune_arrays(model, self.patches, self.labels, train_idx, val_idx,
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
    """Per-fold validation AUROC curves, and the fold figures read off them.

    A fold's best epoch is the first maximum of its curve and fold_auroc
    the AUROC there. That epoch is picked on the fold it is reported on, so
    their mean is optimistic; last_epoch_auroc is the AUROC of the weights
    fine-tuning keeps, picked on nothing. final_model, when cross_validate
    trained one, is that same recipe run on every sample, so the last-epoch
    AUROCs are the figures that describe it; to_json and to_csv omit it.
    """

    pooling: str
    curves: list[list[float]]
    init_kind: str
    final_model: Model | None = field(default=None, repr=False, compare=False)

    @property
    def best_epochs(self) -> list[int]:
        return [int(np.argmax(c)) for c in self.curves]

    @property
    def fold_auroc(self) -> list[float]:
        return [c[e] for c, e in zip(self.curves, self.best_epochs)]

    @property
    def last_epoch_auroc(self) -> list[float]:
        return [c[-1] for c in self.curves]

    @property
    def mean_auroc(self) -> float:
        return float(np.mean(self.fold_auroc))

    @property
    def mean_last_epoch_auroc(self) -> float:
        return float(np.mean(self.last_epoch_auroc))

    def to_json(self) -> str:
        return json.dumps({
            "pooling": self.pooling,
            "init": self.init_kind,
            "fold_auroc": self.fold_auroc,
            "best_epochs": self.best_epochs,
            "mean_auroc": self.mean_auroc,
            "last_epoch_auroc": self.last_epoch_auroc,
            "mean_last_epoch_auroc": self.mean_last_epoch_auroc,
            "curves": self.curves,
        }, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["fold,best_epoch,auroc,last_epoch_auroc,pooling,init"]
        for i, (a, e, last) in enumerate(zip(self.fold_auroc, self.best_epochs,
                                             self.last_epoch_auroc)):
            lines.append(f"{i},{e},{a:.10g},{last:.10g},{self.pooling},{self.init_kind}")
        lines.append(f"mean,,{self.mean_auroc:.10g},{self.mean_last_epoch_auroc:.10g},"
                     f"{self.pooling},{self.init_kind}")
        return "\n".join(lines) + "\n"


def cross_validate(data: FinetuneData, cfg: FinetuneConfig, seed: int,
                   log=None, final_model: bool = False) -> EvalReport:
    """Stratified k-fold fine-tuning; each fold starts from the same init.

    Fold f trains on the other folds and validates on fold f, seeded with
    seed * 1000 + f. With final_model, job k trains the final model: every
    sample, no validation, cfg as the folds use it and the run's own seed;
    it lands in the report's final_model. Jobs share only read-only inputs,
    so they run in workers.worker_count() ordered worker threads with
    OpenBLAS at one thread, and each gives the bits it gives alone. Curves,
    and each fold's buffered progress lines, are taken in fold order in the
    caller's thread, so the report is byte-identical at any worker count,
    with or without the final model, and `log` is only ever called from the
    caller's thread.
    """
    folds = kfold_split(data.labels, cfg.k_folds, seed)

    def run_job(f: int):
        if f == len(folds):
            return data.run(np.arange(len(data.labels)), None, cfg, seed).model, []
        fold = folds[f]
        val_idx = np.array(fold, dtype=np.intp)
        train_idx = np.array(sorted(set(range(len(data.labels))) - set(fold)), dtype=np.intp)
        lines: list[str] = []
        result = data.run(train_idx, val_idx, cfg, seed * 1000 + f,
                          log=lines.append if log else None)
        return result.curve, lines

    outputs = []
    with in_order(run_job, range(len(folds) + int(final_model)), worker_count()) as results:
        for f, (output, lines) in results:
            for line in lines:
                log(f"fold {f}: {line}")
            outputs.append(output)
    return EvalReport(pooling=cfg.pooling, curves=outputs[:len(folds)],
                      init_kind="pretrained" if data.init is not None else "scratch",
                      final_model=outputs[-1] if final_model else None)
