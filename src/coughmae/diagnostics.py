"""Gradient-correctness battery: every learnable op plus the full pretraining loss.

Each entry compares backward gradients against central finite differences
(step 1e-5, float64) and reports the max relative error. The composite
entries check gradients with respect to actual model Parameters, probing the
largest-gradient coordinates of each tensor plus one random direction through
the whole parameter vector; the pretraining-loss entry runs the real
desk-scale pipeline on a seeded batch.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .finetune import ClassifierHead, logits, pool
from .mae import DecoderParams, pretrain_step_loss, sample_mask
from .rng import seeded_rng
from .tensor import Tensor, grad_check, grad_check_params
from .vit import (AttentionParams, BlockParams, EncoderParams, ModelConfig, embed, encode,
                  multi_head_attention, transformer_block)

TOLERANCE = 1e-4


def _rng(seed: int, name: str) -> np.random.Generator:
    return seeded_rng(seed, f"gradcheck.{name}")


def op_battery(seed: int = 0) -> list[tuple[str, float]]:
    """Finite-difference check for each differentiable op at a random point."""
    results = []

    def check(name, fn, point):
        results.append((name, grad_check(fn, point)))

    r = _rng(seed, "points")
    x34 = r.normal(size=(3, 4))
    x4 = r.normal(size=(4,))
    b42 = Tensor(r.normal(size=(4, 2)))
    c34 = Tensor(r.normal(size=(3, 4)))
    bias = Tensor(r.normal(size=(4,)))

    check("add", lambda t: T.reduce_sum(T.square(t + c34)), x34)
    check("add_broadcast", lambda t: T.reduce_sum(T.square(t + bias)), x34)
    check("subtract", lambda t: T.reduce_sum(T.square(t - c34)), x34)
    check("multiply", lambda t: T.reduce_sum(t * c34), x34)
    check("scale", lambda t: T.reduce_sum(T.square(t * 1.7)), x34)
    check("square", lambda t: T.reduce_sum(T.square(t)), x34)
    check("matmul", lambda t: T.reduce_sum(T.square(T.matmul(t, b42))), x34)
    rl = _rng(seed, "linear")
    x234, w42, b2 = rl.normal(size=(2, 3, 4)), rl.normal(size=(4, 2)), rl.normal(size=(2,))
    check("linear_x", lambda t: T.reduce_sum(T.square(T.linear(t, Tensor(w42), Tensor(b2)))), x234)
    check("linear_w", lambda t: T.reduce_sum(T.square(T.linear(Tensor(x234), t, Tensor(b2)))), w42)
    check("linear_b", lambda t: T.reduce_sum(T.square(T.linear(Tensor(x234), Tensor(w42), t))), b2)
    b32 = Tensor(r.normal(size=(3, 2)))
    check("transpose", lambda t: T.reduce_sum(T.square(T.matmul(T.transpose(t, (1, 0)), b32))), x34)
    b62 = Tensor(r.normal(size=(6, 2)))
    check("reshape", lambda t: T.reduce_sum(T.square(T.matmul(T.reshape(t, (2, 6)), b62))), x34)
    check("concat", lambda t: T.reduce_sum(T.square(T.concat([t, c34], axis=0))), x34)
    check("gather", lambda t: T.reduce_sum(T.square(T.gather(t, np.array([2, 0, 2]), axis=1))), x34)
    c54 = Tensor(r.normal(size=(5, 4)))
    check("broadcast_to", lambda t: T.reduce_sum(T.square(T.broadcast_to(T.reshape(t, (1, 4)), (5, 4)) + c54)), x4)
    check("softmax", lambda t: T.reduce_sum(T.square(T.softmax(t) + c34)), x34)
    allowed = np.array([[True, True, False, False]] * 4)
    check("softmax_masked", lambda t: T.reduce_sum(T.square(T.softmax(t, allowed=allowed))),
          r.normal(size=(4, 4)))
    gain, bias_ln = Tensor(r.normal(size=(4,)) + 1.0), Tensor(r.normal(size=(4,)))
    check("layer_norm_x", lambda t: T.reduce_sum(T.square(T.layer_norm(t, gain, bias_ln))), x34 * 2.0)
    fixed = Tensor(r.normal(size=(3, 4)) * 2.0)
    check("layer_norm_gain", lambda t: T.reduce_sum(T.square(T.layer_norm(fixed, t, bias_ln))), x4)
    check("layer_norm_bias", lambda t: T.reduce_sum(T.square(T.layer_norm(fixed, gain, t))), x4)
    check("gelu", lambda t: T.reduce_sum(T.square(T.gelu(t))), x34)
    check("sum", lambda t: T.reduce_sum(T.square(T.reduce_sum(t, axis=1))), x34)
    check("mean", lambda t: T.reduce_sum(T.square(T.reduce_mean(t, axis=0))), x34)
    labels = np.array([0, 1, 1])
    check("cross_entropy", lambda t: T.cross_entropy_with_logits(t, labels), r.normal(size=(3, 2)))

    w1, b1 = Tensor(r.normal(size=(4, 8)) * 0.5), Tensor(r.normal(size=(8,)) * 0.1)
    w2, b2 = Tensor(r.normal(size=(8, 2)) * 0.5), Tensor(r.normal(size=(2,)) * 0.1)

    def mlp(t):
        h = T.gelu(T.linear(t, w1, b1))
        return T.cross_entropy_with_logits(T.linear(h, w2, b2), labels)

    check("mlp_gelu_ce", mlp, x34[:3, :])
    return results


def model_battery(seed: int = 0) -> list[tuple[str, float]]:
    """Parameter-side checks for the composite learnable blocks."""
    results = []
    r = _rng(seed, "model")
    x = Tensor(r.normal(size=(2, 5, 16)))

    attn = AttentionParams("chk.attn", 16, seed)

    def attn_loss():
        return T.reduce_mean(T.square(multi_head_attention(x, attn, n_heads=4)))

    results.append(("attention_params",
                    grad_check_params(attn_loss, attn.parameters(), coords_per_param=12)))

    wm = np.array([0, 0, 1, 1, 2])

    def attn_windowed_loss():
        return T.reduce_mean(T.square(multi_head_attention(x, attn, n_heads=4, window_map=wm)))

    results.append(("attention_windowed",
                    grad_check_params(attn_windowed_loss, attn.parameters(), coords_per_param=12)))

    block = BlockParams("chk.block", 16, 4, seed)

    def block_loss():
        return T.reduce_mean(T.square(transformer_block(x, block, n_heads=4)))

    results.append(("transformer_block",
                    grad_check_params(block_loss, block.parameters(), coords_per_param=12)))

    # CLS pooling's encoder: the last block after its attention runs on the
    # CLS rows only (with a batch of one, on rows 0 and 1 of the sample).
    cfg = ModelConfig(dim=16, n_heads=4, n_blocks=2, patch_size=4, patch_stride=4)
    encoder, head = EncoderParams(cfg, seed), ClassifierHead(cfg.dim, seed)
    for name, batch in (("cls_only_encoder", 3), ("cls_only_encoder_batch1", 1)):
        patches = r.normal(size=(batch, 5, cfg.patch_values))
        labels = np.arange(batch) % 2

        def cls_loss():
            feats = encode(embed(patches, encoder), encoder, cls_only=True)
            return T.cross_entropy_with_logits(logits(pool(feats, "cls"), head), labels)

        results.append((name, grad_check_params(cls_loss, encoder.parameters() + head.parameters(),
                                                coords_per_param=6)))
    return results


def pretrain_loss_check(seed: int = 0, coords_per_param: int = 6,
                        model_cfg: ModelConfig | None = None,
                        n_patches: int = 48, mask_ratio: float = 0.75) -> float:
    """grad_check_params over the full desk-scale pretraining loss."""
    cfg = model_cfg or ModelConfig()
    encoder, decoder = EncoderParams(cfg, seed), DecoderParams(cfg, seed)
    batch = _rng(seed, "pretrain.batch").normal(size=(2, n_patches, cfg.patch_values))
    plan = sample_mask(n_patches, mask_ratio, _rng(seed, "pretrain.mask"))
    params = encoder.parameters() + decoder.parameters()

    def loss_fn():
        return pretrain_step_loss(batch, encoder, decoder, plan, mode="global")

    return grad_check_params(loss_fn, params, coords_per_param=coords_per_param,
                             rng=_rng(seed, "pretrain.coords"))


def full_battery(seed: int = 0) -> list[tuple[str, float]]:
    rows = op_battery(seed) + model_battery(seed)
    rows.append(("pretrain_loss", pretrain_loss_check(seed)))
    return rows
