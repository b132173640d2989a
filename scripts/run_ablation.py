#!/usr/bin/env python3
"""Ablation sweep: mask ratio x decoder attention x pooling.

Pretrains one model per (mask_ratio, attention) cell, then fine-tunes each
checkpoint with both pooling modes under stratified cross-validation, and
writes a results CSV plus the raw loss curves. The CSV gives each cell's
mean best-epoch AUROC (the epoch picked on the fold it is reported on) and
its mean last-epoch AUROC. Without --manifest a
synthetic labelled corpus is generated first.

Typical desk-scale run:
    python3 scripts/run_ablation.py --out runs/ablation --n 32 \
        --pretrain-epochs 20 --finetune-epochs 5
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coughmae.checkpoint import load_checkpoint
from coughmae.dsp import MelConfig, load_manifest, synth_dataset
from coughmae.finetune import FinetuneConfig, cross_validate, prepare_finetune
from coughmae.mae import PretrainConfig, pretrain
from coughmae.vit import ModelConfig

MASK_RATIOS = (0.5, 0.75)
ATTENTIONS = ("global", "windowed")
POOLINGS = ("cls", "mean")


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", default=None, help="labelled corpus; default: synthesize")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--n", type=int, default=32, help="synthetic corpus size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pretrain-epochs", type=int, default=20)
    ap.add_argument("--finetune-epochs", type=int, default=5)
    ap.add_argument("--k-folds", type=int, default=4)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.manifest:
        manifest = load_manifest(args.manifest)
    else:
        manifest = synth_dataset(out / "data", args.n, args.seed)
        log(f"synthesized {args.n} samples under {out / 'data'}")

    mel_cfg = MelConfig()
    model_cfg = ModelConfig()
    ft_cfg = FinetuneConfig(epochs=args.finetune_epochs, k_folds=args.k_folds)
    rows = ["mask_ratio,attention,pooling,mean_auroc,mean_last_epoch_auroc,final_pretrain_loss"]
    curves: dict[str, list] = {}

    for rho in MASK_RATIOS:
        for attn in ATTENTIONS:
            cell = f"rho{rho}_{attn}"
            pre_dir = out / cell
            log(f"pretraining {cell}")
            result = pretrain(manifest, mel_cfg, model_cfg,
                              PretrainConfig(mask_ratio=rho, decoder_attention=attn,
                                             epochs=args.pretrain_epochs),
                              args.seed, out_dir=pre_dir, log=log)
            pre_loss = result.history[-1]["loss"]
            curves[cell] = [h["loss"] for h in result.history]
            data = prepare_finetune(load_checkpoint(pre_dir / "checkpoint.bin"), manifest,
                                    mel_cfg, model_cfg, ft_cfg)
            for pooling in POOLINGS:
                log(f"fine-tuning {cell} pooling={pooling}")
                report = cross_validate(data, replace(ft_cfg, pooling=pooling), args.seed)
                rows.append(f"{rho},{attn},{pooling},{report.mean_auroc:.6f},"
                            f"{report.mean_last_epoch_auroc:.6f},{pre_loss:.6f}")
                log(f"  mean auroc {report.mean_last_epoch_auroc:.4f} at the last epoch")

    (out / "ablation.csv").write_text("\n".join(rows) + "\n")
    (out / "pretrain_curves.json").write_text(json.dumps(curves, indent=2) + "\n")
    print(out / "ablation.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
