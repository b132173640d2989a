#!/usr/bin/env python3
"""Does pretraining help? Fine-tune from a pretrained checkpoint vs scratch.

Builds two disjoint synthetic corpora (an unlabelled-style pretraining pool
and a smaller labelled task), pretrains once, then fine-tunes both arms over
several seeds with an identical budget and prints the per-seed AUROC table.

    python3 scripts/pretrain_vs_scratch.py --out runs/utility
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coughmae.checkpoint import load_checkpoint
from coughmae.dsp import MelConfig, synth_dataset
from coughmae.finetune import FinetuneConfig, prepare_finetune
from coughmae.mae import PretrainConfig, pretrain
from coughmae.rng import seeded_rng
from coughmae.vit import ModelConfig


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def stratified_split(labels: np.ndarray, per_class_train: int, per_class_test: int,
                     seed: int) -> tuple[list[int], list[int]]:
    rng = seeded_rng(seed, "split")
    train: list[int] = []
    test: list[int] = []
    for c in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == c)
        perm = idx[rng.permutation(idx.size)]
        train += perm[:per_class_train].tolist()
        test += perm[per_class_train:per_class_train + per_class_test].tolist()
    return sorted(train), sorted(test)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--pool-size", type=int, default=256)
    ap.add_argument("--task-size", type=int, default=96)
    ap.add_argument("--pretrain-epochs", type=int, default=100)
    ap.add_argument("--seeds", type=int, default=5, help="fine-tuning seed count")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mel_cfg = MelConfig()
    model_cfg = ModelConfig()

    pool = synth_dataset(out / "pool", args.pool_size, seed=777)
    log(f"pretraining on {len(pool)} samples for {args.pretrain_epochs} epochs")
    pretrain(pool, mel_cfg, model_cfg,
             PretrainConfig(epochs=args.pretrain_epochs, batch_size=8),
             seed=7, out_dir=out / "pretrained", log=log)
    ckpt = load_checkpoint(out / "pretrained" / "checkpoint.bin")

    task = synth_dataset(out / "task", args.task_size, seed=123)
    labels = task.labels()
    per_class = args.task_size // 2
    train_idx, test_idx = stratified_split(labels, per_class * 2 // 3,
                                           per_class // 3, seed=123)
    log(f"task split: {len(train_idx)} train / {len(test_idx)} test")

    # small batches buy enough optimizer steps for the 10-epoch budget
    ft_cfg = FinetuneConfig(pooling="mean", encoder_lr=3e-3, head_lr=3e-2,
                            batch_size=2, warmup_frac=0.2)
    pretrained = prepare_finetune(ckpt, task, mel_cfg, model_cfg, ft_cfg)
    scratch = prepare_finetune(None, task, mel_cfg, model_cfg, ft_cfg)
    rows = ["seed,pretrained_auroc,scratch_auroc"]
    pre_scores, scratch_scores = [], []
    for seed in range(args.seeds):
        pre_scores.append(pretrained.run(train_idx, test_idx, ft_cfg, seed).curve[-1])
        scratch_scores.append(scratch.run(train_idx, test_idx, ft_cfg, seed).curve[-1])
        rows.append(f"{seed},{pre_scores[-1]:.4f},{scratch_scores[-1]:.4f}")
        log(f"seed {seed}: pretrained {pre_scores[-1]:.4f} "
            f"vs scratch {scratch_scores[-1]:.4f}")

    mean_pre = float(np.mean(pre_scores))
    mean_scr = float(np.mean(scratch_scores))
    rows.append(f"mean,{mean_pre:.4f},{mean_scr:.4f}")
    (out / "comparison.csv").write_text("\n".join(rows) + "\n")
    print(f"pretrained mean AUROC {mean_pre:.4f}")
    print(f"scratch    mean AUROC {mean_scr:.4f}")
    print(f"margin     {mean_pre - mean_scr:+.4f}")
    print(out / "comparison.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
