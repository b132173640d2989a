"""Command-line interface.

Subcommands: pretrain, finetune, segment, synth-data, grad-check, stats,
show-config.
Exit codes: 0 on success, 1 for internal or numeric failures, 2 for usage
and input errors, 130 on Ctrl-C. Progress goes to stderr; artifacts land in
the configured output directory and are byte-identical across reruns with
the same config and seed (log lines are the only place timestamps may appear).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .checkpoint import load_checkpoint, save_model
from .config import RunConfig, load_config, serialize_config
from .dsp import WavStream, load_manifest, dataset_stats, synth_dataset
from .errors import AudioError, ConfigError, CoughMaeError, DataError
from .finetune import build_scorer, cross_validate, load_model, prepare_finetune
from .mae import pretrain
from .segment import (MALLOC_THRESHOLDS, event_f1, read_events_csv, sample_f1, slide,
                      write_events_csv)
from .workers import pin_malloc_thresholds


def _log(message: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr)


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _require_manifest(cfg: RunConfig):
    if not cfg.paths.manifest:
        raise ConfigError("config paths.manifest is empty")
    return load_manifest(cfg.paths.manifest)


def _output_dir(cfg: RunConfig) -> Path:
    """paths.output_dir, created if missing; a ConfigError naming it if that fails."""
    out_dir = Path(cfg.paths.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"paths.output_dir {out_dir}: {exc.strerror}") from None
    return out_dir


def cmd_pretrain(args) -> int:
    cfg = _load_run_config(args)
    manifest = _require_manifest(cfg)
    out_dir = _output_dir(cfg)
    result = pretrain(manifest, cfg.mel, cfg.model, cfg.pretrain, cfg.seed,
                      out_dir=out_dir, log=_log)
    _log(f"final loss {result.history[-1]['loss']:.6f}")
    print(out_dir / "checkpoint.bin")
    return 0


def cmd_finetune(args) -> int:
    cfg = _load_run_config(args)
    manifest = _require_manifest(cfg)
    out_dir = _output_dir(cfg)

    init_arg = args.init or (cfg.paths.checkpoint or "scratch")
    ckpt = None if init_arg == "scratch" else load_checkpoint(init_arg)
    data = prepare_finetune(ckpt, manifest, cfg.mel, cfg.model, cfg.finetune)
    report = cross_validate(data, cfg.finetune, cfg.seed, log=_log,
                            final_model=args.final_model)
    (out_dir / "eval_report.json").write_text(report.to_json())
    (out_dir / "eval_report.csv").write_text(report.to_csv())
    _log(f"mean auroc {report.mean_last_epoch_auroc:.4f} at the last epoch over "
         f"{cfg.finetune.k_folds} folds (pooling={report.pooling}, init={report.init_kind})")

    model = report.final_model      # trained on all labelled data, as each fold was
    if model is not None:
        save_model(out_dir / "model.bin", model.parameters(), model.stats, "finetuned", cfg.seed,
                   cfg.mel, cfg.model, finetune=cfg.finetune, normalized=model.stats is not None)
        _log(f"final model trained on all labelled data for {cfg.finetune.epochs} epochs "
             f"-> {out_dir / 'model.bin'}")
    print(out_dir / "eval_report.json")
    return 0


def cmd_segment(args) -> int:
    """Detect events in one recording, read in blocks (see segment.slide).

    The WAV is read block by block through a dsp.WavStream, so memory does
    not grow with the recording. glibc's malloc thresholds are pinned
    (segment.MALLOC_THRESHOLDS) before scoring; the setting lasts for the
    rest of the process. With --truth, sample F1 takes the duration from
    the WAV header.
    """
    cfg = _load_run_config(args)
    ckpt_path = args.checkpoint or cfg.paths.checkpoint
    if not ckpt_path:
        raise ConfigError("segment needs a fine-tuned checkpoint (--checkpoint or paths.checkpoint)")
    model = load_model(load_checkpoint(ckpt_path), cfg.mel, cfg.model)
    if model.head is None:
        raise DataError("checkpoint has no classifier head; fine-tune first")
    scorer = build_scorer(model, cfg.mel)
    out_dir = _output_dir(cfg)
    audio = WavStream(args.audio, cfg.mel.target_rate)
    pin_malloc_thresholds(*MALLOC_THRESHOLDS)
    events = slide(audio, scorer, cfg.segment)
    events_path = out_dir / "events.csv"
    write_events_csv(events_path, events)
    _log(f"{len(events)} events -> {events_path}")
    if args.truth:
        truth = read_events_csv(args.truth)
        ev = event_f1(events, truth, cfg.segment)
        sm = sample_f1(events, truth, audio.duration, cfg.segment)
        print(json.dumps({
            "event_f1": {"precision": ev.precision, "recall": ev.recall, "f1": ev.f1},
            "sample_f1": {"precision": sm.precision, "recall": sm.recall, "f1": sm.f1},
        }, sort_keys=True))
    else:
        print(events_path)
    return 0


def cmd_synth_data(args) -> int:
    manifest = synth_dataset(args.out, args.n, args.seed)
    print(Path(args.out) / "manifest.csv")
    _log(f"wrote {len(manifest)} samples to {args.out}")
    return 0


def cmd_stats(args) -> int:
    cfg = _load_run_config(args)
    manifest_path = args.manifest or cfg.paths.manifest
    if not manifest_path:
        raise ConfigError("stats needs --manifest or config paths.manifest")
    manifest = load_manifest(manifest_path)
    stats = dataset_stats(manifest, cfg.mel)
    payload = {"mean": stats.mean, "std": stats.std, "degenerate": stats.degenerate}
    sidecar = Path(str(manifest_path) + ".stats.json")
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, sort_keys=True))
    if stats.degenerate:
        _log("warning: degenerate dataset (all spectrogram cells equal)")
    return 0


def cmd_grad_check(args) -> int:
    from .diagnostics import TOLERANCE, full_battery
    rows = full_battery(seed=args.seed if args.seed is not None else 0)
    width = max(len(name) for name, _ in rows)
    print(f"{'op'.ljust(width)}  max_rel_err")
    worst = 0.0
    for name, err in rows:
        print(f"{name.ljust(width)}  {err:.3e}")
        worst = max(worst, err)
    if worst >= TOLERANCE:
        print(f"FAIL: worst {worst:.3e} >= {TOLERANCE:.0e}", file=sys.stderr)
        return 1
    print(f"all gradients within {TOLERANCE:.0e} (worst {worst:.3e})")
    return 0


def cmd_show_config(args) -> int:
    cfg = _load_run_config(args)
    sys.stdout.write(serialize_config(cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coughmae",
                                     description="Masked-autoencoder pipeline for cough audio")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="masked-autoencoder pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="cross-validated classifier fine-tuning")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--init", default=None,
                   help="pretraining checkpoint path, or 'scratch' (default: config checkpoint)")
    p.add_argument("--final-model", action=argparse.BooleanOptionalAction, default=True,
                   help="also train on all labelled data, for finetune.epochs as each fold "
                        "does, and save model.bin")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("segment", help="sliding-window event detection on one file")
    p.add_argument("--config", default=None)
    p.add_argument("--audio", required=True)
    p.add_argument("--checkpoint", default=None, help="fine-tuned model checkpoint")
    p.add_argument("--truth", default=None, help="reference events CSV for scoring")
    p.set_defaults(func=cmd_segment, seed=None)

    p = sub.add_parser("synth-data", help="generate the synthetic labelled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("grad-check", help="finite-difference gradient battery")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("stats", help="dataset spectrogram statistics")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_stats, seed=None)

    p = sub.add_parser("show-config", help="print the resolved configuration")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CoughMaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, DataError, AudioError)) else 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
