"""One benchmark repeat: a fresh process that runs one coughmae CLI command.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON names the source tree, the CLI argv, the workload, whether to
trace, the monotonic time at which the parent spawned this process, and the
file that receives the result. The command runs in-process through
`coughmae.cli.main`; its stdout is captured into the result, its stderr
passes through to the parent's log. A spec with "warmup" set only imports
the program and the tracer, then exits.

Set-up ends at the first unit of work, marked by one timestamp taken on the
first call of the workload's boundary function.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

# The function whose first call starts the timed work, per workload.
BOUNDARY = {
    "pretrain": ("coughmae.mae", "pretrain_step_loss"),
    "finetune": ("coughmae.finetune", "finetune_arrays"),
    "segment": ("coughmae.segment", "slide"),
}


def cpu_s() -> float:
    """User plus system CPU seconds of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM belongs to the current address space. ru_maxrss also carries the
    peak of the parent's image from before exec, which here is run.py after
    it built the fixtures, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    import coughmae.cli as cli
    from tracer import Tracer, rebind
    if spec.get("warmup"):
        return 0

    first_work: list[float] = []
    mod_name, attr = BOUNDARY[spec["workload"]]
    original = getattr(sys.modules[mod_name], attr)

    def boundary(*args, **kwargs):
        if not first_work:
            first_work.extend((time.monotonic(), cpu_s()))
        return original(*args, **kwargs)

    rebind(original, boundary)
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is not None:
            rc = tracer.span("run", cli.main)(spec["argv"])
        else:
            rc = cli.main(spec["argv"])
    end, end_cpu = time.monotonic(), cpu_s()
    start = spec["spawned_at"]
    result = {
        "rc": rc,
        "module_file": sys.modules["coughmae"].__file__,
        "stdout": out.getvalue(),
        "total_s": end - start,
        "setup_s": (first_work[0] - start) if first_work else None,
        "work_s": (end - first_work[0]) if first_work else None,
        "work_cpu_s": (end_cpu - first_work[1]) if first_work else None,
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.analyse() if tracer is not None else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
