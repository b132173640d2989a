"""coughmae benchmark: one workload, measured in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload pretrain|finetune|segment \
        --seed N --seconds S --trace 0|1

The run builds (or reuses) the seed's fixtures, then starts one worker
process per repeat until S seconds of repeats have elapsed and at least the
minimum number of repeats is done. Each worker runs the real CLI command
in-process (see worker.py). After every repeat the artifacts are checked and
hashed; repeats of one program must produce identical artifacts.

With --trace 0 every repeat is untraced and the end-to-end metrics are the
medians over repeats. With --trace 1 untraced and traced repeats alternate;
the per-layer metrics are medians over the traced repeats, and
trace.overhead_frac compares the two kinds.

The last line of stdout is the result JSON; the line before it carries the
machine facts. A full record of the run goes to .perfbench/results/.
Metric names, units and directions come from BENCHMARK.json; README.md in
this directory defines each metric.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import fixtures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("pretrain", "finetune", "segment")
PRETRAIN_EPOCHS = 8
PRETRAIN_BATCH = 8
FINETUNE_EPOCHS = 2
FINETUNE_FOLDS = 5
MIN_REPEATS = 2
RUN_LIMIT_S = 170.0          # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# - Workload commands -


def command(workload: str, seed: int, cache: Path, out: Path) -> list[str]:
    """CLI argv for one repeat; the command writes its artifacts to out/out."""
    if workload == "pretrain":
        cfg = _write_json(out / "run.json", {
            "seed": fixtures.derive(seed, "pretrain"),
            "pretrain": {"epochs": PRETRAIN_EPOCHS, "batch_size": PRETRAIN_BATCH,
                         "mask_ratio": 0.75, "decoder_attention": "global"},
            "paths": {"manifest": str(cache / "pretrain_data" / "manifest.csv"),
                      "output_dir": str(out / "out")}})
        return ["pretrain", "--config", str(cfg)]
    if workload == "finetune":
        cfg = _write_json(out / "run.json", {
            "seed": fixtures.derive(seed, "finetune"),
            "finetune": {"epochs": FINETUNE_EPOCHS, "batch_size": 8, "k_folds": FINETUNE_FOLDS},
            "paths": {"manifest": str(cache / "finetune_data" / "manifest.csv"),
                      "output_dir": str(out / "out")}})
        return ["finetune", "--config", str(cfg),
                "--init", str(cache / "init" / "checkpoint.bin")]
    cfg = _write_json(out / "run.json", {"paths": {"output_dir": str(out / "out")}})
    rec = cache / "recording"
    return ["segment", "--config", str(cfg), "--audio", str(rec / "recording.wav"),
            "--checkpoint", str(cache / "model" / "model.bin"),
            "--truth", str(rec / "truth.csv")]


def workload_size(workload: str, cache: Path) -> dict:
    """Operations attempted per repeat and the work units the throughput counts."""
    from coughmae.dsp import load_manifest, load_wav
    from coughmae.segment import SegmentationConfig

    if workload == "pretrain":
        n = len(load_manifest(cache / "pretrain_data" / "manifest.csv"))
        steps = PRETRAIN_EPOCHS * math.ceil(n / PRETRAIN_BATCH)
        return {"ops": steps, "units": PRETRAIN_EPOCHS * n, "n": n}
    if workload == "finetune":
        n = len(load_manifest(cache / "finetune_data" / "manifest.csv"))
        # The folds partition the corpus, so the k training sets hold (k-1)*n samples.
        return {"ops": FINETUNE_FOLDS + 1, "units": FINETUNE_EPOCHS * (FINETUNE_FOLDS - 1) * n,
                "n": n}
    wave = load_wav(cache / "recording" / "recording.wav")
    cfg = SegmentationConfig()
    win = int(round(cfg.window * wave.sample_rate))
    step = int(round(cfg.step * wave.sample_rate))
    windows = (len(wave.samples) - win) // step + 1
    return {"ops": windows, "units": wave.duration, "duration": wave.duration}


def check_repeat(workload: str, out: Path, stdout: str, size: dict) -> tuple[list[str], dict]:
    """Failures of one repeat plus its extra facts (work units, final loss)."""
    extra = {"units": size["units"]}
    if workload == "pretrain":
        failures = checks.check_pretrain(out, size["ops"])
        extra["final_loss"] = checks.final_loss(out)
    elif workload == "finetune":
        failures = checks.check_finetune(out, FINETUNE_FOLDS)
        extra["units"] = size["units"] + checks.final_epochs(out) * size["n"]
    else:
        failures = checks.check_segment(out, stdout, size["duration"])
    return failures, extra


# - Repeats -


def run_repeat(workload: str, index: int, traced: bool, run_dir: Path, seed: int,
               cache: Path, size: dict, log, deadline: float) -> dict:
    rep_dir = run_dir / f"rep{index}"
    rep_dir.mkdir(parents=True)
    argv = command(workload, seed, cache, rep_dir)
    spec = {"src": str(SRC), "workload": workload, "argv": argv, "trace": traced,
            "result": str(rep_dir / "worker.json")}
    rep = {"traced": traced, "ops": size["ops"], "failures": [], "hashes": {}}
    log.flush()
    spec["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              stdout=log, stderr=log, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
        worker_rc = proc.returncode
    except subprocess.TimeoutExpired:
        worker_rc = None
    result_path = rep_dir / "worker.json"
    if worker_rc != 0 or not result_path.is_file():
        rep["failures"].append(f"worker exited {worker_rc}")
        return rep
    result = json.loads(result_path.read_text())
    rep.update({k: result[k] for k in ("rc", "setup_s", "work_s", "work_cpu_s", "total_s",
                                        "peak_rss_mb", "trace")})
    if not Path(result["module_file"]).resolve().is_relative_to(SRC.resolve()):
        rep["failures"].append(f"coughmae imported from {result['module_file']}, not {SRC}")
    if result["rc"] != 0 or result["setup_s"] is None:
        rep["failures"].append(f"cli exited {result['rc']} (first unit of work reached: "
                               f"{result['setup_s'] is not None})")
        return rep
    out = rep_dir / "out"
    try:
        failures, extra = check_repeat(workload, out, result["stdout"], size)
    except Exception as exc:  # a malformed artifact is a failed check, not a crashed run
        failures, extra = [f"artifact check raised {exc!r}"], {}
    rep["failures"] += failures
    rep.update(extra)
    rep["hashes"] = checks.artifact_hashes(workload, out)
    if traced:
        t = rep["trace"]
        if not math.isclose(t["trace.self_sum_ms"], t["trace.root_ms"], rel_tol=1e-6, abs_tol=1e-6):
            rep["failures"].append(f"span self times sum to {t['trace.self_sum_ms']:.6f} ms, "
                                   f"root lasts {t['trace.root_ms']:.6f} ms")
    if not rep["failures"]:
        shutil.rmtree(rep_dir)
    return rep


def determinism_failures(reps: list[dict], record: Path) -> list[str]:
    """Artifacts must hash the same in every repeat and every run of this program."""
    hashed = [r["hashes"] for r in reps if r["hashes"]]
    if not hashed:
        return []
    failures = []
    for name in hashed[0]:
        seen = {h.get(name) for h in hashed}
        if len(seen) > 1:
            failures.append(f"{name} differs between repeats: {sorted(seen)}")
    if record.is_file():
        previous = json.loads(record.read_text())
        for name, digest in hashed[0].items():
            if previous.get(name) != digest:
                failures.append(f"{name} differs from an earlier run of this seed")
    elif not failures:
        tmp = record.with_suffix(f".tmp{os.getpid()}")
        _write_json(tmp, hashed[0])
        os.replace(tmp, record)
    return failures


# - Machine facts -


def machine_facts(code_key: str) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_key": code_key,
    }


# - Metrics -


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(reps: list[dict]) -> dict[str, float]:
    ok = [r for r in reps if not r["traced"] and r.get("work_s")]
    return {
        "throughput": median(r["units"] / r["work_s"] for r in ok if "units" in r),
        "setup_s": median(r["setup_s"] for r in ok),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(reps: list[dict], names: list[str]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"] and r.get("trace")]
    plain = [r for r in reps if not r["traced"] and r.get("total_s")]
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = (median(r["total_s"] for r in traced)
                         / median(r["total_s"] for r in plain) - 1.0)
        elif name == "pretrain.final_loss":
            out[name] = median(r.get("final_loss", 0.0) for r in traced)
        else:
            out[name] = median(r["trace"].get(name, 0.0) for r in traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "coughmae" / "cli.py").is_file():
        print(f"error: no coughmae source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coughmae
    if not Path(coughmae.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: coughmae resolved to {coughmae.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for sub in ("logs", "results", "runs"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(WORK / "logs" / f"{tag}.log", "w") as log:
        cache = fixtures.ensure(ROOT, args.workload, args.seed, log)
        size = workload_size(args.workload, cache)
        run_dir = WORK / "runs" / tag
        shutil.rmtree(run_dir, ignore_errors=True)
        deadline = started + RUN_LIMIT_S
        # One untimed process that only imports the program and the tracer,
        # so the first timed repeat finds warm file and bytecode caches.
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        json.dumps({"src": str(SRC), "warmup": True})],
                       stdout=log, stderr=log, cwd=ROOT, timeout=60, check=False)
        reps: list[dict] = []
        t0 = time.monotonic()
        while True:
            traced = args.trace == 1 and len(reps) % 2 == 1
            reps.append(run_repeat(args.workload, len(reps), traced, run_dir, args.seed,
                                   cache, size, log, deadline))
            done = time.monotonic() - t0 >= args.seconds and len(reps) >= MIN_REPEATS
            longest = max(r.get("total_s") or 0.0 for r in reps)
            if done or time.monotonic() + 1.5 * longest > deadline:
                break
        measured_s = time.monotonic() - t0
        if not any(r["failures"] for r in reps):
            shutil.rmtree(run_dir, ignore_errors=True)

    det = determinism_failures(reps, cache / f"hashes-{args.workload}.json")
    attempted = sum(r["ops"] for r in reps)
    failed = sum(min(r["ops"], len(r["failures"])) for r in reps) + len(det)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(reps, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(reps)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if not all(math.isfinite(v) for v in values.values()):
        print("error: no repeat produced a measurement; see " + str(WORK / "logs" / f"{tag}.log"),
              file=sys.stderr)
        for r in reps:
            for f in r["failures"]:
                print(f"  {f}", file=sys.stderr)
        return 1

    facts = machine_facts(fixtures.code_key(ROOT))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "measured_s": measured_s, "machine": facts,
              "size": size, "repeats": reps, "determinism": det}
    _write_json(WORK / "results" / f"{tag}.json", record)
    for r in reps:
        for f in r["failures"]:
            print(f"# failure: {f}")
    for f in det:
        print(f"# failure: {f}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
