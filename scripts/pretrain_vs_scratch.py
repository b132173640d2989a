#!/usr/bin/env python3
"""Does pretraining help? Rerun acceptance criterion 5: pretrained vs scratch.

Runs the experiment tests/test_acceptance.py defines: two disjoint synthetic
corpora (an unlabelled-style pretraining pool and a smaller labelled task),
one pretraining run, then both arms fine-tuned over several seeds with the
same recipe. Prints the per-seed last-epoch AUROC table; the default sizes
are the criterion's own, so they give its numbers.

    python3 scripts/pretrain_vs_scratch.py --out runs/utility
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import CRITERION_5_SIZES, pretraining_utility


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    for name, default in CRITERION_5_SIZES.items():
        ap.add_argument("--" + name.replace("_", "-"), type=int, default=default)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pre_scores, scratch_scores = pretraining_utility(
        out, **{name: getattr(args, name) for name in CRITERION_5_SIZES}, log=log)

    rows = ["seed,pretrained_auroc,scratch_auroc"]
    rows += [f"{seed},{pre:.4f},{scr:.4f}"
             for seed, (pre, scr) in enumerate(zip(pre_scores, scratch_scores))]
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
