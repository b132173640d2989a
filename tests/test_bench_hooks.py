"""The program names the benchmark binds to.

perfbench/tracer.py skips a traced function that no longer exists, and
perfbench/worker.py needs each workload's boundary function to time set-up,
so a rename would silently empty a metric. Both files are only read here.
"""
import importlib
import types
from pathlib import Path

import numpy as np

from coughmae import finetune, optim, tensor
from coughmae.mae import MaskPlan, apply_mask
from coughmae.vit import EncoderParams, ModelConfig, embed, encode

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Traced functions the program removed on purpose, with the reason. Their
# metrics read 0 until the benchmark drops them; each must stay absent.
RETIRED = {
    "coughmae.dsp.resample": "dsp.WavStream is the only resampler; training "
                             "features are one whole read of it",
}


def read_module(name: str) -> types.ModuleType:
    """Execute perfbench/<name>.py from its text, without writing bytecode."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_and_boundary_functions_exist():
    tracer, worker = read_module("tracer"), read_module("worker")
    hooks = [(mod, attr) for mod, attr, _ in tracer.TRACED] + list(worker.BOUNDARY.values())
    missing = [f"{mod}.{attr}" for mod, attr in hooks
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == list(RETIRED)


def test_counter_hooks_exist():
    assert callable(finetune.build_scorer)
    assert callable(optim.AdamW.step)
    assert callable(tensor._node)


def test_encode_output_carries_traced_attributes():
    """The tracer reads `tokens` of encode's input and `features` of its
    output, for the full sequence (mean pooling), the CLS-only call (CLS
    pooling in fine-tuning and segmentation) and the masked sequence
    pretraining encodes."""
    cfg = ModelConfig(dim=16, n_heads=2, patch_size=4, patch_stride=4)
    enc = EncoderParams(cfg, seed=0)
    seq = embed(np.zeros((2, 6, 16)), enc)
    out = encode(seq, enc)
    assert seq.tokens.shape == out.tokens.shape == (2, 7, 16)
    assert out.features.shape == (2, 7, 16)
    assert seq.n_patches == out.n_patches == 6

    tracer = read_module("tracer").Tracer()
    traced_encode = tracer._count_encode(tracer.span("vit.encode", encode))
    for batch in (2, 1):
        cls_out = traced_encode(embed(np.ones((batch, 6, 16)), enc), enc, cls_only=True)
        assert cls_out.features.shape == (batch, 1, 16)
    assert tracer.counts["vit.encode.tokens"] == (2 + 1) * 7
    assert tracer.counts["vit.encode.tape_nodes"] > 0
    assert [span[0] for span in tracer.spans].count("vit.encode") == 2

    plan = MaskPlan(n_patches=6, masked=(0, 2, 5), visible=(1, 3, 4))
    visible = apply_mask(seq, plan)
    out = encode(visible, enc)
    assert visible.tokens.shape == (2, 4, 16)
    assert out.features.shape == (2, 4, 16)
