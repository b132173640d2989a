"""Command-line workflows, exit codes, and artifact determinism."""
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coughmae
import coughmae.cli
import coughmae.dsp
import coughmae.finetune
import coughmae.mae
from coughmae.checkpoint import load_checkpoint, save_checkpoint
from coughmae.cli import main
from coughmae.config import RunConfig, load_config, serialize_config
from coughmae.dsp import load_manifest, load_wav
from coughmae.errors import DataError
from coughmae.finetune import load_model, prepare_finetune
from coughmae.mae import prepare_patches
from coughmae.workers import in_order
from test_checkpoint import MALFORMED, write_with_digest


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(path: Path, **sections) -> Path:
    path.write_text(json.dumps(sections) + "\n")
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Shared 16-sample synthetic corpus for training commands."""
    root = tmp_path_factory.mktemp("corpus")
    code = main(["synth-data", "--out", str(root), "--n", "16", "--seed", "5"])
    assert code == 0
    return root / "manifest.csv"


# - show-config -


def test_show_config_defaults(capsys):
    code, out, _ = run_cli(capsys, "show-config")
    assert code == 0
    assert out == serialize_config(RunConfig())


def test_show_config_file_and_seed_override(capsys, tmp_path):
    cfg = write_config(tmp_path / "run.json", seed=3)
    code, out, _ = run_cli(capsys, "show-config", "--config", str(cfg), "--seed", "9")
    assert code == 0
    assert json.loads(out)["seed"] == 9   # CLI flag wins over file


def test_missing_config_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "show-config", "--config", str(tmp_path / "no.json"))
    assert code == 2
    assert "error:" in err


def test_unknown_config_key_exit_2(capsys, tmp_path):
    cfg = write_config(tmp_path / "run.json", banana=1)
    code, _, err = run_cli(capsys, "show-config", "--config", str(cfg))
    assert code == 2
    assert "unknown keys" in err


# - synth-data and stats -


def test_synth_data_writes_corpus(capsys, tmp_path):
    out_dir = tmp_path / "data"
    code, out, _ = run_cli(capsys, "synth-data", "--out", str(out_dir), "--n", "4",
                           "--seed", "1")
    assert code == 0
    manifest = Path(out.strip())
    assert manifest == out_dir / "manifest.csv"
    assert manifest.exists()
    assert len(list(out_dir.glob("*.wav"))) == 4


def test_synth_data_odd_count_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "synth-data", "--out", str(tmp_path / "d"),
                           "--n", "3", "--seed", "0")
    assert code == 2
    assert "error:" in err


def test_stats_writes_sidecar(capsys, corpus):
    code, out, _ = run_cli(capsys, "stats", "--manifest", str(corpus))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"mean", "std", "degenerate"}
    assert payload["std"] > 0
    sidecar = Path(str(corpus) + ".stats.json")
    assert sidecar.exists()
    assert json.loads(sidecar.read_text()) == payload


def test_stats_without_manifest_exit_2(capsys):
    code, _, err = run_cli(capsys, "stats")
    assert code == 2
    assert "manifest" in err


def test_non_finite_wav_exit_2_names_file(capsys, tmp_path):
    from scipy.io import wavfile
    samples = np.zeros(16000, dtype=np.float32)
    samples[100] = np.nan
    wavfile.write(str(tmp_path / "nan.wav"), 16000, samples)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,split\nnan.wav,0,\n")
    code, out, err = run_cli(capsys, "stats", "--manifest", str(manifest))
    assert code == 2
    assert "nan.wav" in err and out == ""
    cfg = write_config(tmp_path / "pre.json", paths={"manifest": str(manifest),
                                                     "output_dir": str(tmp_path / "pre")})
    code, _, err = run_cli(capsys, "pretrain", "--config", str(cfg))
    assert code == 2
    assert "nan.wav" in err



def _fmt(tag: int = 1) -> bytes:
    return b"fmt " + struct.pack("<IHHIIHH", 16, tag, 1, 16000, 32000, 2, 16)


BAD_WAVS = {
    "not_riff.wav": b"ID3\x04" + bytes(60),
    "truncated_data.wav": b"RIFF" + struct.pack("<I", 36 + 3200) + b"WAVE" + _fmt()
                          + b"data" + struct.pack("<I", 3200) + bytes(100),
    "mp3_tag.wav": b"RIFF" + struct.pack("<I", 36 + 4) + b"WAVE" + _fmt(0x0055)
                   + b"data" + struct.pack("<I", 4) + bytes(4),
    "no_data.wav": b"RIFF" + struct.pack("<I", 28) + b"WAVE" + _fmt(),
}


@pytest.mark.parametrize("name", sorted(BAD_WAVS))
def test_bad_wav_exit_2_names_file(name, capsys, tmp_path):
    (tmp_path / name).write_bytes(BAD_WAVS[name])
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"path,label,split\n{name},0,\n")
    code, out, err = run_cli(capsys, "stats", "--manifest", str(manifest))
    assert code == 2
    assert name in err and out == ""


def test_cli_import_loads_no_scipy():
    src = str(Path(coughmae.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = ("import coughmae.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


# - pretrain -


def pretrain_config(tmp_path: Path, corpus: Path, out_name: str) -> Path:
    return write_config(
        tmp_path / f"{out_name}.json",
        seed=4,
        model={"dim": 32, "n_heads": 2, "n_blocks": 1, "decoder_dim": 16,
               "decoder_heads": 2, "decoder_blocks": 1},
        pretrain={"epochs": 2, "batch_size": 4},
        paths={"manifest": str(corpus), "output_dir": str(tmp_path / out_name)},
    )


def test_pretrain_artifacts_and_determinism(capsys, corpus, tmp_path):
    paths = []
    for name in ("runA", "runB"):
        cfg = pretrain_config(tmp_path, corpus, name)
        code, out, _ = run_cli(capsys, "pretrain", "--config", str(cfg))
        assert code == 0
        ckpt = Path(out.strip())
        assert ckpt.name == "checkpoint.bin"
        assert ckpt.exists()
        assert ckpt.with_name("loss.csv").exists()
        paths.append(ckpt)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (paths[0].with_name("loss.csv").read_bytes()
            == paths[1].with_name("loss.csv").read_bytes())


def test_pretrain_requires_manifest(capsys, tmp_path):
    cfg = write_config(tmp_path / "no_manifest.json", pretrain={"epochs": 1})
    code, _, err = run_cli(capsys, "pretrain", "--config", str(cfg))
    assert code == 2
    assert "manifest" in err


# - finetune and segment -


@pytest.fixture(scope="module")
def finetuned_model(tmp_path_factory, corpus):
    """Run the finetune command once; reuse its artifacts across tests."""
    work = tmp_path_factory.mktemp("ft")
    out_dir = work / "out"
    cfg = write_config(
        work / "ft.json",
        seed=2,
        model={"dim": 32, "n_heads": 2, "n_blocks": 1, "decoder_dim": 16,
               "decoder_heads": 2, "decoder_blocks": 1},
        finetune={"epochs": 1, "batch_size": 4, "k_folds": 2},
        paths={"manifest": str(corpus), "output_dir": str(out_dir)},
    )
    code = main(["finetune", "--config", str(cfg), "--init", "scratch"])
    assert code == 0
    return out_dir


def test_finetune_artifacts(finetuned_model, capsys):
    capsys.readouterr()
    report = json.loads((finetuned_model / "eval_report.json").read_text())
    assert report["init"] == "scratch"
    assert len(report["fold_auroc"]) == 2
    assert abs(report["mean_auroc"] - np.mean(report["fold_auroc"])) < 1e-12
    csv_lines = (finetuned_model / "eval_report.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "fold,best_epoch,auroc,last_epoch_auroc,pooling,init"
    assert csv_lines[-1].split(",")[3] == f"{report['mean_last_epoch_auroc']:.10g}"
    assert len(csv_lines) == 1 + 2 + 1
    assert (finetuned_model / "model.bin").exists()


def test_segment_writes_events(finetuned_model, corpus, capsys, tmp_path):
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    cfg = write_config(
        tmp_path / "seg.json",
        model={"dim": 32, "n_heads": 2, "n_blocks": 1, "decoder_dim": 16,
               "decoder_heads": 2, "decoder_blocks": 1},
        paths={"output_dir": str(tmp_path / "seg_out")},
    )
    code, out, _ = run_cli(capsys, "segment", "--config", str(cfg),
                           "--audio", str(wav),
                           "--checkpoint", str(finetuned_model / "model.bin"))
    assert code == 0
    events = Path(out.strip())
    assert events == tmp_path / "seg_out" / "events.csv"
    assert events.read_text().startswith("start_s,end_s")


def test_segment_logs_windows_wall_and_cpu(finetuned_model, corpus, capsys, tmp_path):
    """The closing log line gives the windows scored and slide's wall and
    process CPU seconds, on stderr only: events.csv keeps its bytes."""
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    cfg = write_config(tmp_path / "seg.json", model=SMALL_MODEL,
                       paths={"output_dir": str(tmp_path / "seg_out")})
    code, out, err = run_cli(capsys, "segment", "--config", str(cfg), "--audio", str(wav),
                             "--checkpoint", str(finetuned_model / "model.bin"))
    assert code == 0
    events = tmp_path / "seg_out" / "events.csv"
    line = err.strip().splitlines()[-1]
    found = re.fullmatch(r"\[\d\d:\d\d:\d\d\] (\d+) events -> (.+); (\d+) windows scored "
                         r"in (\d+\.\d\d) s wall, (\d+\.\d\d) s CPU", line)
    assert found, line
    n_events, path, windows, wall, cpu = found.groups()
    assert Path(path) == events and int(n_events) == events.read_text().count("\n") - 1
    assert int(windows) == (len(load_wav(wav).samples) - 6400) // 160 + 1    # 0.4 s, 0.01 s
    assert float(wall) > 0.0 and float(cpu) > 0.0
    assert "scored" not in events.read_text() and "scored" not in out


def test_segment_with_truth_scores(finetuned_model, corpus, capsys, tmp_path):
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    truth = tmp_path / "truth.csv"
    truth.write_text("start_s,end_s\n0.100,0.500\n")
    cfg = write_config(
        tmp_path / "seg.json",
        model={"dim": 32, "n_heads": 2, "n_blocks": 1, "decoder_dim": 16,
               "decoder_heads": 2, "decoder_blocks": 1},
        paths={"output_dir": str(tmp_path / "seg_out")},
    )
    code, out, _ = run_cli(capsys, "segment", "--config", str(cfg),
                           "--audio", str(wav),
                           "--checkpoint", str(finetuned_model / "model.bin"),
                           "--truth", str(truth))
    assert code == 0
    scores = json.loads(out)
    assert set(scores) == {"event_f1", "sample_f1"}
    for block in scores.values():
        assert set(block) == {"precision", "recall", "f1"}
        assert 0.0 <= block["f1"] <= 1.0


def test_segment_non_finite_late_block_exit_2(finetuned_model, capsys, tmp_path):
    """A NaN that only a late block holds still exits 2 naming the file, and
    no events.csv is written."""
    from scipy.io import wavfile
    samples = np.zeros(5 * 16000, dtype=np.float32)
    samples[-2000] = np.nan
    wav = tmp_path / "late_nan.wav"
    wavfile.write(str(wav), 16000, samples)
    cfg = write_config(tmp_path / "seg.json", model=SMALL_MODEL,
                       paths={"output_dir": str(tmp_path / "seg_out")})
    code, out, err = run_cli(capsys, "segment", "--config", str(cfg), "--audio", str(wav),
                             "--checkpoint", str(finetuned_model / "model.bin"))
    assert code == 2
    assert "late_nan.wav" in err and out == ""
    assert not (tmp_path / "seg_out" / "events.csv").exists()


def test_segment_memory_does_not_grow_with_recording(finetuned_model, tmp_path):
    """Peak RSS of `coughmae segment` on a 10-minute recording is within 10%
    of a 60 s one: the WAV is read in blocks and only events are kept."""
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM needs /proc")
    from coughmae.dsp import Waveform, save_wav
    rng = np.random.default_rng(9)
    cfg = write_config(tmp_path / "seg.json", model=SMALL_MODEL, segment={"step": 0.1},
                       paths={"output_dir": str(tmp_path / "seg_out")})
    src = str(Path(coughmae.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = ("import sys, coughmae.cli; rc = coughmae.cli.main(sys.argv[1:]); "
             "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]; "
             "print(rc, hwm[0].split()[1])")
    peaks = {}
    for seconds in (60, 600):
        wav = tmp_path / f"rec{seconds}.wav"
        save_wav(wav, Waveform(rng.normal(0.0, 0.05, seconds * 16000), 16000))
        result = subprocess.run(
            [sys.executable, "-c", probe, "segment", "--config", str(cfg), "--audio", str(wav),
             "--checkpoint", str(finetuned_model / "model.bin")],
            env=env, capture_output=True, text=True, timeout=600, check=True)
        rc, kb = result.stdout.split()[-2:]
        assert rc == "0"
        peaks[seconds] = int(kb)
    assert peaks[600] <= 1.1 * peaks[60], peaks


def test_segment_pretrain_checkpoint_rejected(corpus, capsys, tmp_path):
    cfg = pretrain_config(tmp_path, corpus, "pre")
    assert main(["pretrain", "--config", str(cfg)]) == 0
    capsys.readouterr()
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    code, _, err = run_cli(capsys, "segment", "--config", str(cfg),
                           "--audio", str(wav),
                           "--checkpoint", str(tmp_path / "pre" / "checkpoint.bin"))
    assert code == 2        # no classifier head in a pretraining checkpoint
    assert "head" in err


SMALL_MODEL = {"dim": 32, "n_heads": 2, "n_blocks": 1, "decoder_dim": 16,
               "decoder_heads": 2, "decoder_blocks": 1}
CONTRADICTIONS = [("mel", "n_mels", 64), ("model", "dim", 16)]


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, corpus):
    """A pretraining checkpoint of SMALL_MODEL with default mel settings."""
    work = tmp_path_factory.mktemp("pretrained")
    assert main(["pretrain", "--config", str(pretrain_config(work, corpus, "out"))]) == 0
    return work / "out" / "checkpoint.bin"


def finetune_config(tmp_path: Path, corpus: Path, epochs: int = 1, out_name: str = "ft",
                    **sections) -> Path:
    return write_config(tmp_path / f"{out_name}.json", seed=2,
                        **{"model": SMALL_MODEL, **sections},
                        finetune={"epochs": epochs, "batch_size": 4, "k_folds": 2},
                        paths={"manifest": str(corpus), "output_dir": str(tmp_path / out_name)})


@pytest.mark.parametrize("section, field, value", CONTRADICTIONS)
def test_segment_config_contradicting_checkpoint_exit_2(section, field, value, finetuned_model,
                                                        corpus, capsys, tmp_path):
    sections = {"model": dict(SMALL_MODEL), "mel": {}}
    sections[section][field] = value
    cfg = write_config(tmp_path / "seg.json", **sections,
                       paths={"output_dir": str(tmp_path / "seg_out")})
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    code, _, err = run_cli(capsys, "segment", "--config", str(cfg), "--audio", str(wav),
                           "--checkpoint", str(finetuned_model / "model.bin"))
    assert code == 2
    assert f"{section}.{field}" in err
    assert not (tmp_path / "seg_out").exists()


@pytest.mark.parametrize("section, field, value", CONTRADICTIONS)
def test_finetune_init_config_contradicting_checkpoint_exit_2(section, field, value, pretrained,
                                                              corpus, capsys, tmp_path):
    sections = {"model": dict(SMALL_MODEL), "mel": {}}
    sections[section][field] = value
    cfg = finetune_config(tmp_path, corpus, **sections)
    code, _, err = run_cli(capsys, "finetune", "--config", str(cfg), "--init", str(pretrained))
    assert code == 2
    assert f"{section}.{field}" in err


@pytest.mark.parametrize("section", ["mel", "model"])
def test_checkpoint_header_without_section_exit_1(section, finetuned_model, corpus, capsys,
                                                  tmp_path):
    ckpt = load_checkpoint(finetuned_model / "model.bin")
    del ckpt.config[section]
    save_checkpoint(tmp_path / "model.bin", ckpt.arrays, ckpt.config, ckpt.stats)
    cfg = write_config(tmp_path / "seg.json", model=SMALL_MODEL,
                       paths={"output_dir": str(tmp_path / "seg_out")})
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    code, _, err = run_cli(capsys, "segment", "--config", str(cfg), "--audio", str(wav),
                           "--checkpoint", str(tmp_path / "model.bin"))
    assert code == 1
    assert repr(section) in err


def test_malformed_stats_exit_1(finetuned_model, corpus, capsys, tmp_path):
    ckpt = load_checkpoint(finetuned_model / "model.bin")
    save_checkpoint(tmp_path / "model.bin", ckpt.arrays, ckpt.config, {"mu": 0.0})
    cfg = write_config(tmp_path / "seg.json", model=SMALL_MODEL,
                       paths={"output_dir": str(tmp_path / "seg_out")})
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    code, _, err = run_cli(capsys, "segment", "--config", str(cfg), "--audio", str(wav),
                           "--checkpoint", str(tmp_path / "model.bin"))
    assert code == 1
    assert err.startswith("error:") and "'stats'" in err and "Traceback" not in err


def test_flipped_header_byte_exit_1(finetuned_model, corpus, capsys, tmp_path):
    # a damaged header is a corrupt file (exit 1), not a contradicting config (exit 2)
    raw = (finetuned_model / "model.bin").read_bytes()
    bad = tmp_path / "model.bin"
    bad.write_bytes(raw.replace(b'"n_mels": 128', b'"n_mels": 120'))
    assert bad.read_bytes() != raw
    cfg = write_config(tmp_path / "seg.json", model=SMALL_MODEL,
                       paths={"output_dir": str(tmp_path / "seg_out")})
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    code, _, err = run_cli(capsys, "segment", "--config", str(cfg), "--audio", str(wav),
                           "--checkpoint", str(bad))
    assert code == 1
    assert str(bad) in err and "checksum" in err


def test_finetune_init_without_stats_exit_2_from_loader(pretrained, corpus, capsys, tmp_path,
                                                        monkeypatch):
    ckpt = load_checkpoint(pretrained)
    save_checkpoint(tmp_path / "checkpoint.bin", ckpt.arrays, ckpt.config, None)
    raised = []

    def spy(*args):
        try:
            return load_model(*args)
        except DataError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(coughmae.finetune, "load_model", spy)
    code, _, err = run_cli(capsys, "finetune", "--config", str(finetune_config(tmp_path, corpus)),
                           "--init", str(tmp_path / "checkpoint.bin"))
    assert code == 2
    assert "normalization statistics" in err and len(raised) == 1


def test_finetune_final_model_extracts_features_once(pretrained, corpus, capsys, tmp_path,
                                                     monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return prepare_patches(*args, **kwargs)

    for module in (coughmae.mae, coughmae.finetune, coughmae.cli):
        if hasattr(module, "prepare_patches"):
            monkeypatch.setattr(module, "prepare_patches", counting)
    code, _, _ = run_cli(capsys, "finetune", "--config", str(finetune_config(tmp_path, corpus)),
                         "--init", str(pretrained), "--final-model")
    assert code == 0
    assert len(calls) == 1
    model = load_checkpoint(tmp_path / "ft" / "model.bin")
    assert model.config["normalized"] and model.stats == load_checkpoint(pretrained).stats


def test_final_model_retrain_scores_nothing(pretrained, corpus, capsys, tmp_path, monkeypatch):
    """Only the folds validate: k x epochs calls of one fold each."""
    scored, score_samples = [], coughmae.finetune.score_samples

    def counting(*args, **kwargs):
        scored.append(args[0].shape[0])
        return score_samples(*args, **kwargs)

    monkeypatch.setattr(coughmae.finetune, "score_samples", counting)
    code, _, _ = run_cli(capsys, "finetune", "--config",
                         str(finetune_config(tmp_path, corpus, epochs=2)),
                         "--init", str(pretrained), "--final-model")
    assert code == 0
    assert scored == [8] * (2 * 2)          # 16 samples, k = 2, 2 epochs
    assert (tmp_path / "ft" / "model.bin").exists()


def test_final_model_is_the_folds_recipe_on_every_sample(pretrained, corpus, capsys, tmp_path):
    """model.bin holds FinetuneData.run over every sample for finetune.epochs
    with the run seed, and its header's finetune section is the config's."""
    cfg_path = finetune_config(tmp_path, corpus, epochs=3)
    code, _, _ = run_cli(capsys, "finetune", "--config", str(cfg_path),
                         "--init", str(pretrained), "--final-model")
    assert code == 0
    cfg = load_config(cfg_path)
    data = prepare_finetune(load_checkpoint(pretrained), load_manifest(corpus), cfg.mel,
                            cfg.model, cfg.finetune)
    with in_order(lambda idx: data.run(idx, None, cfg.finetune, cfg.seed).model,
                  [np.arange(len(data.labels))], 1) as results:
        [(_, want)] = results
    stored = load_checkpoint(tmp_path / "ft" / "model.bin")
    assert {name: a.tobytes() for name, a in stored.arrays.items()} == \
        {p.name: p.data.tobytes() for p in want.parameters()}
    assert stored.config["finetune"] == json.loads(serialize_config(cfg))["finetune"]


def test_final_model_leaves_eval_report_bytes(pretrained, corpus, capsys, tmp_path, cpus):
    reports = {}
    for flag in ("--final-model", "--no-final-model"):
        cfg = finetune_config(tmp_path, corpus, epochs=2, out_name=flag.strip("-"))
        code, _, _ = run_cli(capsys, "finetune", "--config", str(cfg),
                             "--init", str(pretrained), flag)
        assert code == 0
        out = tmp_path / flag.strip("-")
        assert (out / "model.bin").exists() == (flag == "--final-model")
        reports[flag] = [(out / name).read_bytes()
                         for name in ("eval_report.json", "eval_report.csv")]
    assert reports["--final-model"] == reports["--no-final-model"]


@pytest.mark.parametrize("label", ["2", "-1"])
def test_finetune_label_outside_0_1_exit_2(label, capsys, tmp_path):
    data = tmp_path / "data"
    assert main(["synth-data", "--out", str(data), "--n", "8", "--seed", "5"]) == 0
    manifest = data / "manifest.csv"
    lines = manifest.read_text().splitlines()
    for n in (3, 6):
        path, _, split = lines[n - 1].split(",")
        lines[n - 1] = f"{path},{label},{split}"
    manifest.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "finetune", "--init", "scratch", "--config",
                           str(finetune_config(tmp_path, manifest)))
    assert code == 2
    assert f"{manifest}:3: label must be 0 or 1, got {label!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ft").exists()


def test_stats_sidecar_matches_checkpoint_for_permuted_manifest(capsys, tmp_path):
    # Listed in this order, these four clips reduce to other last bits than
    # in sorted-path order.
    data = tmp_path / "data"
    assert main(["synth-data", "--out", str(data), "--n", "4", "--seed", "5"]) == 0
    lines = (data / "manifest.csv").read_text().splitlines()
    permuted = data / "permuted.csv"
    permuted.write_text("\n".join([lines[0]] + [lines[1 + i] for i in (0, 2, 1, 3)]) + "\n")
    cfg = write_config(tmp_path / "pre.json", seed=1, model=SMALL_MODEL,
                       pretrain={"epochs": 1, "batch_size": 4},
                       paths={"manifest": str(permuted), "output_dir": str(tmp_path / "pre")})
    assert run_cli(capsys, "pretrain", "--config", str(cfg))[0] == 0
    assert run_cli(capsys, "stats", "--manifest", str(permuted))[0] == 0
    sidecar = json.loads(Path(str(permuted) + ".stats.json").read_text())
    stored = load_checkpoint(tmp_path / "pre" / "checkpoint.bin").stats
    assert (sidecar["mean"], sidecar["std"]) == (stored["mean"], stored["std"])


@pytest.mark.parametrize("command", ["pretrain", "finetune", "segment"])
def test_unusable_output_dir_exit_2_before_audio(command, finetuned_model, corpus, capsys,
                                                 tmp_path, monkeypatch):
    """An output_dir under a regular file is named in a usage error before
    the command reads any audio."""
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "out"

    def no_audio(path, *args):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(coughmae.dsp, "WavStream", no_audio)
    monkeypatch.setattr(coughmae.cli, "WavStream", no_audio)
    cfg = write_config(tmp_path / "run.json", model=SMALL_MODEL,
                       paths={"manifest": str(corpus), "output_dir": str(out_dir)})
    extra = {"pretrain": [], "finetune": ["--init", "scratch"],
             "segment": ["--audio", str(wav), "--checkpoint", str(finetuned_model / "model.bin")]}
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra[command])
    assert code == 2
    assert f"error: paths.output_dir {out_dir}: " in err
    assert out == "" and "Traceback" not in err


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(coughmae.cli, "cmd_show_config", interrupted)
    code, out, err = run_cli(capsys, "show-config")
    assert code == 130
    assert (out, err) == ("", "interrupted\n")


def test_segment_needs_checkpoint(capsys, tmp_path, corpus):
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    code, _, err = run_cli(capsys, "segment", "--audio", str(wav))
    assert code == 2
    assert "checkpoint" in err


def test_corrupt_checkpoint_exit_1(capsys, tmp_path, corpus):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"CGHMAE\x00\x01" + b"\x00" * 16)
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    code, _, err = run_cli(capsys, "segment", "--audio", str(wav),
                           "--checkpoint", str(bad))
    assert code == 1
    assert "error:" in err


def test_malformed_checkpoint_header_exit_1(capsys, tmp_path, corpus):
    # the digest matches, so only the header check stands between it and a traceback
    bad = tmp_path / "bad.bin"
    write_with_digest(bad, *MALFORMED["no_params"])
    wav = sorted(corpus.parent.glob("*.wav"))[0]
    code, _, err = run_cli(capsys, "segment", "--audio", str(wav),
                           "--checkpoint", str(bad))
    assert code == 1
    assert f"error: {bad}" in err and "Traceback" not in err


# - grad-check -


def test_grad_check_passes(capsys):
    code, out, _ = run_cli(capsys, "grad-check")
    assert code == 0
    assert "max_rel_err" in out
    assert "all gradients within" in out
