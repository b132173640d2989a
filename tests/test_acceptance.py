"""End-to-end acceptance battery.

Ten independent checks covering gradients, the patch/mask/loss contracts,
desk-scale training behavior, scoring oracles, variable-length operation and
bitwise reproducibility. Each test prints one `criterion N PASS|FAIL` line
(visible under pytest -s) before asserting, so a full run reads as a
checklist. The training experiments rebuild their corpora from fixed seeds
into temporary directories; everything runs on CPU well inside the stated
time budgets.
"""
import json
import time
from pathlib import Path

import numpy as np

from coughmae.checkpoint import load_checkpoint
from coughmae.cli import main as cli_main
from coughmae.diagnostics import TOLERANCE, full_battery, pretrain_loss_check
from coughmae.dsp import (DatasetManifest, ManifestEntry, MelConfig, Waveform,
                          save_manifest, save_wav, synth_dataset)
from coughmae.finetune import FinetuneConfig, auroc, finetune_arrays, prepare_finetune
from coughmae.mae import (DecoderParams, PretrainConfig, decode, masked_mse,
                          patch_norm_targets, prepare_patches, pretrain,
                          restore_with_mask_tokens, sample_mask, window_map_for_grid)
from coughmae.rng import seeded_rng
from coughmae.segment import (Event, F1Scores, SegmentationConfig, event_f1,
                              per_window, sample_f1, slide)
from coughmae.tensor import Tensor
from coughmae.vit import (EncoderParams, ModelConfig, TokenSequence, embed,
                          encode, patch_grid)


def report(n: int, ok: bool, detail: str = "") -> bool:
    line = f"criterion {n} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


# 1. Gradient correctness ----------------------------------------------------


def test_criterion_1_gradient_battery():
    t0 = time.monotonic()
    rows = full_battery(seed=0)
    dt = time.monotonic() - t0
    worst = max(err for _, err in rows)
    ok = worst < TOLERANCE and dt < 120.0
    assert report(1, ok, f"{len(rows)} checks, worst rel err {worst:.2e}, {dt:.0f}s")


# 2. Patch-count oracle ------------------------------------------------------


def test_criterion_2_patch_count_enumeration():
    rng = np.random.default_rng(20202)
    mismatches = 0
    for _ in range(200):
        side = int(rng.integers(1, 25))
        stride = int(rng.integers(1, side + 4))
        width = int(rng.integers(side, 220))
        height = int(rng.integers(side, 220))
        rows_bf = sum(1 for _ in range(0, width - side + 1, stride))
        cols_bf = sum(1 for _ in range(0, height - side + 1, stride))
        if patch_grid(width, height, side, stride) != (rows_bf, cols_bf):
            mismatches += 1
    assert report(2, mismatches == 0, f"200 shapes, {mismatches} mismatches")


# 3. Masked-loss contract ----------------------------------------------------


def test_criterion_3_masked_loss_contract():
    rng = np.random.default_rng(33)
    n = 48
    plan = sample_mask(n, 0.75, seeded_rng(3, "acceptance.mask"))
    targets = rng.normal(size=(2, n, 256))
    pred = rng.normal(size=(2, n, 256))
    base = masked_mse(Tensor(pred), targets, plan).data.item()
    tampered = pred.copy()
    tampered[:, list(plan.visible), :] += 1e6
    invariant = masked_mse(Tensor(tampered), targets, plan).data.item() == base

    patches = rng.normal(loc=3.0, scale=2.5, size=(4, n, 256))
    norm = patch_norm_targets(patches)
    worst_mean = float(np.abs(norm.mean(axis=-1)).max())
    worst_var = float(np.abs(norm.var(axis=-1) - 1.0).max())
    ok = invariant and worst_mean < 1e-10 and worst_var < 1e-4
    assert report(3, ok, f"visible-slot invariant={invariant}, "
                         f"|mean|<={worst_mean:.1e}, |var-1|<={worst_var:.1e}")


# 4. Overfit experiment ------------------------------------------------------


def overfit_corpus(root: Path) -> DatasetManifest:
    """Four 1-second recordings sharing one tonal skeleton and noise bed.

    Every sample carries the same three decaying tones and the same additive
    noise floor; only the overall gain and per-tone amplitudes vary. The
    shared structure makes per-patch normalized targets consistent across
    samples, so a desk-scale model can drive the masked loss far down.
    """
    rate = 16000
    n = 16000
    t = np.arange(n) / rate
    skel = seeded_rng(5, "overfit.skeleton")
    tones = [(skel.uniform(300.0, 4000.0), skel.uniform(0.05, 0.5),
              skel.uniform(8.0, 20.0)) for _ in range(3)]
    bed = 3e-3 * seeded_rng(5, "overfit.bed").normal(size=n)
    entries = []
    for i in range(4):
        rng = seeded_rng(5, f"overfit.{i}")
        gain = 10.0 ** (rng.uniform(-6.0, 0.0) / 20.0)
        x = np.zeros(n)
        for f0, start, decay in tones:
            amp = 0.12 * 10.0 ** (rng.uniform(-2.0, 2.0) / 20.0)
            env = np.where(t >= start, np.exp(-decay * (t - start)), 0.0)
            x += gain * amp * env * np.sin(2 * np.pi * f0 * t)
        name = f"tone{i}.wav"
        save_wav(root / name, Waveform(samples=x + bed, sample_rate=rate))
        entries.append(ManifestEntry(path=name, label=i % 2))
    manifest = DatasetManifest(entries=entries, root=root)
    save_manifest(manifest, root / "manifest.csv")
    return manifest


def test_criterion_4_overfit_experiment(tmp_path):
    t0 = time.monotonic()
    manifest = overfit_corpus(tmp_path)
    result = pretrain(manifest, MelConfig(), ModelConfig(),
                      PretrainConfig(epochs=500, batch_size=4), seed=0)
    dt = time.monotonic() - t0
    initial = result.history[0]["loss"]
    final = result.history[-1]["loss"]
    ratio = final / initial
    ok = ratio < 0.10 and dt < 300.0
    assert report(4, ok, f"masked loss {initial:.4f} -> {final:.4f} "
                         f"(ratio {ratio:.3f}), {dt:.0f}s")


# 5. Pre-training utility ----------------------------------------------------


# The experiment; scripts/pretrain_vs_scratch.py reruns it and takes its
# size options' defaults from here.
CRITERION_5_SIZES = {"pool_size": 256, "task_size": 96, "pretrain_epochs": 100, "seeds": 5}

# Small batches buy enough optimizer steps for the 10-epoch budget.
UTILITY_RECIPE = FinetuneConfig(pooling="mean", encoder_lr=3e-3, head_lr=3e-2,
                                batch_size=2, warmup_frac=0.2)


def stratified_split(labels: np.ndarray, per_class_train: int, per_class_test: int,
                     seed: int) -> tuple[list[int], list[int]]:
    """Disjoint sorted train/test indices with a fixed count from each class."""
    rng = seeded_rng(seed, "split")
    train: list[int] = []
    test: list[int] = []
    for c in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == c)
        perm = idx[rng.permutation(idx.size)]
        train += perm[:per_class_train].tolist()
        test += perm[per_class_train:per_class_train + per_class_test].tolist()
    return sorted(train), sorted(test)


def pretraining_utility(root: Path, pool_size: int, task_size: int, pretrain_epochs: int,
                        seeds: int, log=None) -> tuple[list[float], list[float]]:
    """Pretrain on one synthetic corpus, then fine-tune a pretrained and a
    scratch encoder on a disjoint labelled one with the same recipe.

    The task splits 2/3 : 1/3 per class into train and test. Returns the
    per-seed last-epoch test AUROCs of the pretrained and the scratch arm.
    """
    pool = synth_dataset(root / "pool", pool_size, seed=777)
    pretrain(pool, MelConfig(), ModelConfig(),
             PretrainConfig(epochs=pretrain_epochs, batch_size=8), seed=7,
             out_dir=root / "pretrained", log=log)
    ckpt = load_checkpoint(root / "pretrained" / "checkpoint.bin")

    task = synth_dataset(root / "task", task_size, seed=123)
    per_class = task_size // 2
    train_idx, test_idx = stratified_split(task.labels(), per_class * 2 // 3,
                                           per_class // 3, seed=123)
    arms = [prepare_finetune(init, task, MelConfig(), ModelConfig(), UTILITY_RECIPE)
            for init in (ckpt, None)]
    pre_scores, scratch_scores = [], []
    for seed in range(seeds):
        for arm, scores in zip(arms, (pre_scores, scratch_scores)):
            scores.append(arm.run(train_idx, test_idx, UTILITY_RECIPE, seed).curve[-1])
        if log is not None:
            log(f"seed {seed}: pretrained {pre_scores[-1]:.4f} "
                f"vs scratch {scratch_scores[-1]:.4f}")
    return pre_scores, scratch_scores


def test_criterion_5_pretraining_utility(tmp_path):
    t0 = time.monotonic()
    pre_scores, scratch_scores = pretraining_utility(tmp_path, **CRITERION_5_SIZES)
    dt = time.monotonic() - t0
    mean_pre = float(np.mean(pre_scores))
    mean_scr = float(np.mean(scratch_scores))
    ok = mean_pre >= 0.90 and (mean_pre - mean_scr) >= 0.03 and dt < 1200.0
    assert report(5, ok, f"pretrained {mean_pre:.3f} vs scratch {mean_scr:.3f} "
                         f"over {len(pre_scores)} seeds, {dt:.0f}s")


# 6. Ablation machinery ------------------------------------------------------


def ablation_matrix(manifest: DatasetManifest, out_root: Path) -> dict:
    """Train every (mask ratio, attention, pooling) config; return loss curves."""
    curves = {}
    n = len(manifest)
    for rho in (0.5, 0.75):
        for attn in ("global", "windowed"):
            pre_dir = out_root / f"rho{rho}_{attn}"
            res = pretrain(manifest, MelConfig(), ModelConfig(),
                           PretrainConfig(mask_ratio=rho, decoder_attention=attn,
                                          epochs=3, batch_size=4),
                           seed=11, out_dir=pre_dir)
            pre_curve = tuple(h["loss"] for h in res.history)
            ckpt = load_checkpoint(pre_dir / "checkpoint.bin")
            for pooling in ("cls", "mean"):
                ft_cfg = FinetuneConfig(epochs=2, batch_size=4, pooling=pooling)
                data = prepare_finetune(ckpt, manifest, MelConfig(), ModelConfig(), ft_cfg)
                r = data.run(np.arange(n), np.arange(n), ft_cfg, seed=11)
                curves[(rho, attn, pooling)] = pre_curve + tuple(r.train_loss)
    return curves


def test_criterion_6_ablation_matrix(tmp_path, record_softmax):
    manifest = synth_dataset(tmp_path / "data", 8, seed=9)
    first = ablation_matrix(manifest, tmp_path / "runA")
    second = ablation_matrix(manifest, tmp_path / "runB")

    all_finite = all(np.all(np.isfinite(c)) for c in first.values())
    distinct = len(set(first.values())) == 8
    reproducible = first == second

    cfg = ModelConfig()
    dec = DecoderParams(cfg, seed=0)
    feats = np.random.default_rng(1).normal(size=(1, 49, cfg.dim))
    plan = sample_mask(48, 0.75, seeded_rng(1, "acceptance.windows"))
    fs = TokenSequence(Tensor(feats[:, :1 + len(plan.visible)]))
    restored = restore_with_mask_tokens(fs, plan, dec)
    sink = record_softmax()
    decode(restored, dec, mode="windowed", grid_shape=(6, 8))
    zero_cross = True
    for i, weights in enumerate(sink):
        wm = window_map_for_grid((6, 8), shifted=(i % 2 == 1))
        blocked = wm[:, None] != wm[None, :]
        zero_cross = zero_cross and bool(np.all(weights[:, :, blocked] == 0.0))

    ok = all_finite and distinct and reproducible and zero_cross
    assert report(6, ok, f"8 configs trained, distinct={distinct}, "
                         f"reproducible={reproducible}, zero cross-window={zero_cross}")


# 7. AUROC oracle ------------------------------------------------------------


def pairwise_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_criterion_7_auroc_oracle():
    rng = np.random.default_rng(7007)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        decimals = int(rng.integers(0, 3))      # coarse rounding forces ties
        s = np.round(rng.normal(size=n), decimals)
        worst = max(worst, abs(auroc(s, y) - pairwise_auroc(s, y)))
    assert report(7, worst <= 1e-12, f"1000 sets, worst deviation {worst:.1e}")


# 8. Segmentation scoring ----------------------------------------------------


def test_criterion_8_segmentation_scoring(rng):
    cfg = SegmentationConfig()

    ident = event_f1([Event(0.1, 0.5)], [Event(0.1, 0.5)]).f1 == 1.0
    low_iou = event_f1([Event(0.0, 0.4)], [Event(0.3, 0.7)]).f1 == 0.0
    spurious = event_f1([Event(0.1, 0.5), Event(2.0, 2.4)], [Event(0.1, 0.5)])
    spurious_ok = (spurious.precision, spurious.recall, spurious.f1) == (0.5, 1.0, 2 / 3)
    samp_ident = sample_f1([Event(0.05, 0.35)], [Event(0.05, 0.35)], 1.0).f1 == 1.0
    samp_null = sample_f1([], [Event(0.0, 0.2)], 1.0).f1 == 0.0
    samp_bins = sample_f1([Event(0.1, 0.3)], [Event(0.0, 0.2)], 1.0) == F1Scores(0.5, 0.5, 0.5)
    events_exact = ident and low_iou and spurious_ok and samp_ident and samp_null and samp_bins

    rate = 100
    ramp = Waveform(samples=np.arange(100, dtype=np.float64), sample_rate=rate)
    single = slide(ramp, per_window(lambda w: 1.0 if int(w.samples[0]) == 10 else 0.0), cfg)
    merged = slide(ramp, per_window(lambda w: 1.0 if 10 <= int(w.samples[0]) <= 20 else 0.0), cfg)
    slide_exact = (single == [Event(0.10, 0.50)] and merged == [Event(0.10, 0.60)])

    shift_ok = True
    for _ in range(20):
        n = int(rng.integers(150, 300))
        x = rng.normal(size=n)
        x[int(rng.integers(45, n - 45))] = 50.0       # interior pulse

        def scorer(w):
            return 1.0 if np.max(np.abs(w.samples)) > 10.0 else 0.0

        k = int(rng.integers(1, 30))
        base = slide(Waveform(x, rate), per_window(scorer), cfg)
        delayed = slide(Waveform(np.concatenate([np.zeros(k), x]), rate), per_window(scorer), cfg)
        shift_ok = shift_ok and len(base) == len(delayed) and all(
            abs(d.start - (b.start + k * cfg.step)) < 1e-9
            and abs(d.end - (b.end + k * cfg.step)) < 1e-9
            for b, d in zip(base, delayed))

    ok = events_exact and slide_exact and shift_ok
    assert report(8, ok, f"worked examples exact={events_exact and slide_exact}, "
                         f"20 shift checks={shift_ok}")


# 9. Variable-length contract ------------------------------------------------


def test_criterion_9_variable_length(tmp_path):
    t0 = time.monotonic()
    cfg = ModelConfig()
    corpus = synth_dataset(tmp_path / "data", 8, seed=3)
    labels = corpus.labels()
    ft_cfg = FinetuneConfig(epochs=1, batch_size=4)

    finite = True
    patch_counts = []
    for frames in (98, 160):
        patches, _, _ = prepare_patches(corpus, MelConfig(), frames, cfg)
        patch_counts.append(patches.shape[1])
        enc = EncoderParams(cfg, seed=0)       # identical parameter set each time
        feats = encode(embed(patches[:2], enc), enc)
        finite = finite and bool(np.isfinite(feats.features.data).all())
        r = finetune_arrays(enc, patches, labels, np.arange(8), np.arange(8),
                            ft_cfg, seed=0)
        finite = finite and len(r.train_loss) > 0 and bool(np.all(np.isfinite(r.train_loss)))

    err48 = pretrain_loss_check(seed=0, n_patches=48)
    err80 = pretrain_loss_check(seed=0, n_patches=80)
    dt = time.monotonic() - t0
    ok = (patch_counts == [48, 80] and finite
          and err48 < TOLERANCE and err80 < TOLERANCE)
    assert report(9, ok, f"48/80 patches finite={finite}, grad err "
                         f"{err48:.1e}/{err80:.1e}, {dt:.0f}s")


# 10. Reproducibility --------------------------------------------------------


MODEL_JSON = {"dim": 32, "n_heads": 2, "n_blocks": 1, "decoder_dim": 16,
              "decoder_heads": 2, "decoder_blocks": 1}


def run_all_commands(tag: str, tmp_path: Path, manifest: Path, wav: Path) -> dict:
    """pretrain + finetune + segment via the CLI; return artifact bytes."""
    pre_out = tmp_path / f"pre_{tag}"
    ft_out = tmp_path / f"ft_{tag}"
    seg_out = tmp_path / f"seg_{tag}"
    pre_cfg = tmp_path / f"pre_{tag}.json"
    pre_cfg.write_text(json.dumps({
        "seed": 3, "model": MODEL_JSON,
        "pretrain": {"epochs": 2, "batch_size": 4},
        "paths": {"manifest": str(manifest), "output_dir": str(pre_out)},
    }))
    assert cli_main(["pretrain", "--config", str(pre_cfg)]) == 0
    ft_cfg = tmp_path / f"ft_{tag}.json"
    ft_cfg.write_text(json.dumps({
        "seed": 3, "model": MODEL_JSON,
        "finetune": {"epochs": 1, "batch_size": 4, "k_folds": 2},
        "paths": {"manifest": str(manifest),
                  "checkpoint": str(pre_out / "checkpoint.bin"),
                  "output_dir": str(ft_out)},
    }))
    assert cli_main(["finetune", "--config", str(ft_cfg)]) == 0
    seg_cfg = tmp_path / f"seg_{tag}.json"
    seg_cfg.write_text(json.dumps({
        "model": MODEL_JSON, "paths": {"output_dir": str(seg_out)},
    }))
    assert cli_main(["segment", "--config", str(seg_cfg), "--audio", str(wav),
                     "--checkpoint", str(ft_out / "model.bin")]) == 0
    return {
        "checkpoint.bin": (pre_out / "checkpoint.bin").read_bytes(),
        "loss.csv": (pre_out / "loss.csv").read_bytes(),
        "eval_report.json": (ft_out / "eval_report.json").read_bytes(),
        "eval_report.csv": (ft_out / "eval_report.csv").read_bytes(),
        "model.bin": (ft_out / "model.bin").read_bytes(),
        "events.csv": (seg_out / "events.csv").read_bytes(),
    }


def test_criterion_10_reproducibility(tmp_path, capsys):
    corpus_dir = tmp_path / "data"
    assert cli_main(["synth-data", "--out", str(corpus_dir), "--n", "8",
                     "--seed", "2"]) == 0
    manifest = corpus_dir / "manifest.csv"
    wav = sorted(corpus_dir.glob("*.wav"))[0]
    first = run_all_commands("one", tmp_path, manifest, wav)
    second = run_all_commands("two", tmp_path, manifest, wav)
    capsys.readouterr()      # drop CLI prints so the criterion line stands alone
    same = {name: first[name] == second[name] for name in first}
    ok = all(same.values())
    detail = ", ".join(name for name, eq in same.items() if not eq)
    assert report(10, ok, "all artifacts byte-identical" if ok
                  else f"differs: {detail}")
