"""Span tracer that wraps the public functions of the coughmae modules.

Each wrapped call records one span (name, start, end, parent index) in an
in-memory list; nothing is written until the run ends. Spans nest strictly
because the program is single-threaded, so a span's self time is its
duration minus the durations of its direct children, and the self times of
every span under a root sum to the root's duration.

Wrapping replaces the function object under every name that any loaded
coughmae module binds it to (`from .vit import encode` copies the
reference), so calls through either path are seen.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name. Missing attributes are skipped, so a
# renamed function reports zero calls instead of breaking the run.
TRACED = [
    ("coughmae.dsp", "load_wav", "dsp.load_wav"),
    ("coughmae.dsp", "resample", "dsp.resample"),
    ("coughmae.dsp", "log_mel_spectrogram", "dsp.log_mel_spectrogram"),
    ("coughmae.dsp", "mel_filterbank", "dsp.mel_filterbank"),
    ("coughmae.mae", "prepare_patches", "mae.prepare_patches"),
    ("coughmae.mae", "pretrain", "mae.pretrain"),
    ("coughmae.mae", "pretrain_step_loss", "mae.pretrain_step_loss"),
    ("coughmae.mae", "restore_with_mask_tokens", "mae.restore_with_mask_tokens"),
    ("coughmae.mae", "decode", "mae.decode"),
    ("coughmae.mae", "masked_mse", "mae.masked_mse"),
    ("coughmae.vit", "embed", "vit.embed"),
    ("coughmae.vit", "encode", "vit.encode"),
    ("coughmae.vit", "transformer_block", "vit.transformer_block"),
    ("coughmae.vit", "multi_head_attention", "vit.multi_head_attention"),
    ("coughmae.tensor", "backward", "tensor.backward"),
    ("coughmae.tensor", "gelu", "tensor.gelu"),
    ("coughmae.tensor", "matmul", "tensor.matmul"),
    ("coughmae.tensor", "softmax", "tensor.softmax"),
    ("coughmae.tensor", "layer_norm", "tensor.layer_norm"),
    ("coughmae.tensor", "gather", "tensor.gather"),
    ("coughmae.finetune", "cross_validate", "finetune.cross_validate"),
    ("coughmae.finetune", "finetune_arrays", "finetune.finetune_arrays"),
    ("coughmae.finetune", "score_samples", "finetune.score_samples"),
    ("coughmae.segment", "slide", "segment.slide"),
    ("coughmae.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("coughmae.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
]

# Spans whose descendants are attributed to the encoder or the decoder.
_CONTEXTS = ("vit.encode", "mae.decode")
_TAPE_WALK = "trace.tape_walk"


def rebind(original, replacement) -> None:
    """Point every coughmae module-level name bound to `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "coughmae" or mod_name.startswith("coughmae.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def live_nodes(tensor) -> int:
    """Count the tensors that require grad and are reachable from `tensor`."""
    if not getattr(tensor, "requires_grad", False):
        return 0
    seen = {id(tensor)}
    stack = [tensor]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._walk = self.span(_TAPE_WALK, live_nodes)

    # - recording -

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function plus the counters that need results."""
        for mod_name, _, _ in TRACED:
            importlib.import_module(mod_name)
        finetune = sys.modules["coughmae.finetune"]
        optim = importlib.import_module("coughmae.optim")
        tensor = sys.modules["coughmae.tensor"]

        for mod_name, attr, name in TRACED:
            mod = sys.modules[mod_name]
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapped = self.span(name, original)
            if name == "vit.encode":
                wrapped = self._count_encode(wrapped)
            elif name == "tensor.backward":
                wrapped = self._count_backward(wrapped)
            elif name == "checkpoint.save_checkpoint":
                wrapped = self._count_save(wrapped)
            rebind(original, wrapped)
        if hasattr(optim, "AdamW"):
            optim.AdamW.step = self.span("optim.AdamW.step", optim.AdamW.step)
        if hasattr(finetune, "build_scorer"):
            original = finetune.build_scorer

            def build_scorer(*args, **kwargs):
                return self.span("finetune.scorer", original(*args, **kwargs))

            rebind(original, build_scorer)
        if hasattr(tensor, "_node"):
            original_node = tensor._node
            counts = self.counts

            def node(*args, **kwargs):
                counts["tensor.ops.calls"] += 1
                return original_node(*args, **kwargs)

            tensor._node = node

    def _count_encode(self, fn):
        def encode(seq, *args, **kwargs):
            batch, tokens = seq.tokens.shape[:2]
            out = fn(seq, *args, **kwargs)
            self.counts["vit.encode.tokens"] += batch * tokens
            self.counts["vit.encode.tape_nodes"] += self._walk(out.features)
            return out

        return encode

    def _count_backward(self, fn):
        def backward(loss, *args, **kwargs):
            self.counts["tensor.backward.tape_nodes"] += self._walk(loss)
            return fn(loss, *args, **kwargs)

        return backward

    def _count_save(self, fn):
        def save_checkpoint(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            self.counts["checkpoint.save_checkpoint.bytes"] += os.path.getsize(path)
            return out

        return save_checkpoint

    # - analysis -

    def analyse(self) -> dict:
        """Per-layer metrics from the recorded spans (see perfbench/README.md)."""
        spans = self.spans
        n = len(spans)
        duration = [s[2] - s[1] for s in spans]
        child_sum = [0.0] * n
        context = [""] * n
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_sum[parent] += duration[i]
                context[i] = context[parent]
            if name in _CONTEXTS:
                context[i] = name
        self_ms = defaultdict(float)
        incl_ms = defaultdict(float)
        calls = defaultdict(int)
        per_call = defaultdict(list)
        for i, (name, _, _, parent) in enumerate(spans):
            self_ms[name] += 1e3 * (duration[i] - child_sum[i])
            calls[name] += 1
            if name == "finetune.scorer":
                per_call[name].append(1e3 * duration[i])
            if name == "vit.multi_head_attention" and context[i]:
                incl_ms[context[i] + ".attention_ms"] += 1e3 * duration[i]
            if name == "vit.transformer_block" and context[i]:
                incl_ms[context[i] + ".block_self_ms"] += 1e3 * (duration[i] - child_sum[i])

        roots = [i for i in range(n) if spans[i][3] < 0]
        root_ms = sum(1e3 * duration[i] for i in roots)
        total_self = sum(self_ms.values())

        m: dict[str, float] = {}
        for _, _, name in TRACED:
            m[name + ".ms"] = self_ms[name]
            m[name + ".calls"] = float(calls[name])
        m["optim.AdamW.step.ms"] = self_ms["optim.AdamW.step"]
        m["optim.AdamW.step.calls"] = float(calls["optim.AdamW.step"])
        for ctx in _CONTEXTS:
            m[ctx + ".attention_ms"] = incl_ms[ctx + ".attention_ms"]
            m[ctx + ".block_self_ms"] = incl_ms[ctx + ".block_self_ms"]
        scorer = np.array(per_call["finetune.scorer"]) if per_call["finetune.scorer"] else None
        m["finetune.scorer.calls"] = float(calls["finetune.scorer"])
        m["finetune.scorer.ms_p50"] = float(np.percentile(scorer, 50)) if scorer is not None else 0.0
        m["finetune.scorer.ms_p99"] = float(np.percentile(scorer, 99)) if scorer is not None else 0.0
        m["segment.slide.self_ms"] = self_ms["segment.slide"]
        m["segment.slide.windows"] = float(sum(
            1 for s in spans if s[0] == "finetune.scorer" and s[3] >= 0
            and spans[s[3]][0] == "segment.slide"))
        for prefix, start_name, owner in (("mae", "mae.pretrain_step_loss", "mae.pretrain"),
                                          ("finetune", "vit.embed", "finetune.finetune_arrays")):
            steps = self._step_ms(start_name, owner)
            m[prefix + ".step_ms_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
            m[prefix + ".step_ms_p95"] = float(np.percentile(steps, 95)) if steps else 0.0
            m[prefix + ".steps"] = float(len(steps))
        m["trace.tape_walk.ms"] = self_ms[_TAPE_WALK]
        m["trace.spans"] = float(n)
        m["trace.root_ms"] = root_ms
        m["trace.self_sum_ms"] = total_self
        m.update(self.counts)
        return m

    def _step_ms(self, start_name: str, owner: str) -> list[float]:
        """Training step times inside each `owner` span.

        A step runs from a direct child named `start_name` to the end of the
        last direct-child AdamW.step before the next step starts; the
        validation pass (score_samples) also closes a step.
        """
        spans = self.spans
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] >= 0 and spans[s[3]][0] == owner:
                children[s[3]].append(i)
        steps = []
        for kids in children.values():
            start = end = None
            for i in kids:
                name = spans[i][0]
                if name == start_name or name == "finetune.score_samples":
                    if start is not None and end is not None:
                        steps.append(1e3 * (end - start))
                    start = spans[i][1] if name == start_name else None
                    end = None
                elif name == "optim.AdamW.step" and start is not None:
                    end = spans[i][2]
            if start is not None and end is not None:
                steps.append(1e3 * (end - start))
        return steps
