"""Masking, restore bookkeeping, decoder windows, and the masked loss."""
import numpy as np
import pytest

import coughmae.tensor as T
from coughmae.dsp import MelConfig
from coughmae.errors import ConfigError, NumericsError, ShapeError
from coughmae.mae import (DecoderParams, MaskPlan, PretrainConfig,
                          apply_mask, decode, masked_mse,
                          patch_norm_targets, pretrain, pretrain_step_loss,
                          restore_with_mask_tokens, sample_mask,
                          window_map_for_grid)
from coughmae.rng import seeded_rng
from coughmae.tensor import Tensor
from coughmae.vit import EncoderParams, ModelConfig, TokenSequence, sinusoidal_positions
from conftest import live_tensors


# - sample_mask -


def test_mask_counts_desk_ratio():
    plan = sample_mask(48, 0.75, seeded_rng(0, "m"))
    assert len(plan.masked) == 36 and len(plan.visible) == 12
    assert sorted(plan.masked + plan.visible) == list(range(48))
    assert set(plan.masked).isdisjoint(plan.visible)


def test_mask_ratio_zero_masks_nothing():
    plan = sample_mask(48, 0.0, seeded_rng(0, "m"))
    assert plan.masked == () and len(plan.visible) == 48


def test_mask_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        sample_mask(48, 1.0, seeded_rng(0, "m"))
    with pytest.raises(ShapeError):
        sample_mask(0, 0.5, seeded_rng(0, "m"))


def test_mask_monte_carlo_uniformity():
    rng = seeded_rng(7, "mask.mc")
    counts = np.zeros(48)
    draws = 10_000
    for _ in range(draws):
        counts[list(sample_mask(48, 0.75, rng).masked)] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.75) < 0.02)


def test_mask_deterministic_for_same_stream():
    a = sample_mask(48, 0.75, seeded_rng(3, "m"))
    b = sample_mask(48, 0.75, seeded_rng(3, "m"))
    assert a == b


# - apply_mask -


def token_seq(n, dim=6, batch=1):
    # token (b, i, :) filled with value i so gather results are recognizable
    data = np.tile(np.arange(n + 1, dtype=np.float64)[None, :, None], (batch, 1, dim))
    return TokenSequence(Tensor(data))


def test_apply_mask_keeps_cls_and_visible_order():
    seq = token_seq(4)
    plan = MaskPlan(n_patches=4, masked=(1, 3), visible=(0, 2))
    out = apply_mask(seq, plan)
    # rows: CLS (=0), p0 (=1), p2 (=3)
    assert np.array_equal(out.tokens.data[0, :, 0], [0.0, 1.0, 3.0])
    assert out.n_patches == len(plan.visible)


def test_apply_mask_identity_when_nothing_masked():
    seq = token_seq(4)
    plan = MaskPlan(n_patches=4, masked=(), visible=(0, 1, 2, 3))
    out = apply_mask(seq, plan)
    assert np.array_equal(out.tokens.data, seq.tokens.data)


def test_apply_mask_count_mismatch():
    seq = token_seq(4)
    plan = MaskPlan(n_patches=5, masked=(1,), visible=(0, 2, 3, 4))
    with pytest.raises(ShapeError):
        apply_mask(seq, plan)


# - restore_with_mask_tokens -


def test_restore_places_features_and_mask_tokens():
    cfg = ModelConfig(dim=8, n_heads=2, decoder_dim=8, decoder_heads=2)
    dec = DecoderParams(cfg, seed=1)
    plan = MaskPlan(n_patches=4, masked=(1, 3), visible=(0, 2))
    feats = np.zeros((1, 3, 8))
    feats[0, 0] = 100.0   # CLS
    feats[0, 1] = 10.0    # patch 0
    feats[0, 2] = 30.0    # patch 2
    restored = restore_with_mask_tokens(
        TokenSequence(Tensor(feats)), plan, dec)
    pe = sinusoidal_positions(5, 8)
    got = restored.tokens.data[0]
    assert restored.n_patches == 4 and got.shape == (5, 8)
    assert np.allclose(got[0], 100.0 + pe[0], atol=1e-15)
    assert np.allclose(got[1], 10.0 + pe[1], atol=1e-15)
    assert np.allclose(got[3], 30.0 + pe[3], atol=1e-15)
    # masked slots share one token and differ only by their PEs
    assert np.allclose(got[2] - pe[2], dec.mask_token.data, atol=1e-15)
    assert np.allclose(got[4] - pe[4], dec.mask_token.data, atol=1e-15)


def test_restore_identity_when_nothing_masked():
    cfg = ModelConfig(dim=8, n_heads=2, decoder_dim=8, decoder_heads=2)
    dec = DecoderParams(cfg, seed=1)
    plan = MaskPlan(n_patches=3, masked=(), visible=(0, 1, 2))
    feats = np.random.default_rng(0).normal(size=(1, 4, 8))
    restored = restore_with_mask_tokens(
        TokenSequence(Tensor(feats)), plan, dec)
    pe = sinusoidal_positions(4, 8)
    assert np.allclose(restored.tokens.data[0], feats[0] + pe, atol=1e-15)


def test_restore_roundtrips_apply_mask():
    # apply_mask then restore puts every visible token back at its own slot
    cfg = ModelConfig(dim=8, n_heads=2, decoder_dim=8, decoder_heads=2)
    dec = DecoderParams(cfg, seed=2)
    seq = token_seq(6, dim=8)
    plan = sample_mask(6, 0.5, seeded_rng(4, "m"))
    visible = apply_mask(seq, plan)
    restored = restore_with_mask_tokens(visible, plan, dec)
    pe = sinusoidal_positions(7, 8)
    body = restored.tokens.data[0] - pe
    for patch in plan.visible:
        assert np.allclose(body[1 + patch], float(1 + patch), atol=1e-15)
    for patch in plan.masked:
        assert np.allclose(body[1 + patch], dec.mask_token.data, atol=1e-15)


def test_restore_length_mismatch():
    cfg = ModelConfig(dim=8, n_heads=2, decoder_dim=8, decoder_heads=2)
    dec = DecoderParams(cfg, seed=1)
    plan = MaskPlan(n_patches=4, masked=(1, 3), visible=(0, 2))
    feats = TokenSequence(Tensor(np.zeros((1, 4, 8))))
    with pytest.raises(ShapeError):
        restore_with_mask_tokens(feats, plan, dec)


# - window maps -


def test_window_map_partitions_desk_grid():
    wm = window_map_for_grid((6, 8), shifted=False)
    assert wm.shape == (49,)
    ids = wm[1:].reshape(6, 8)
    # rows 0-3 and 4-5 split at the window boundary, columns at 4
    assert len(np.unique(ids)) == 4
    assert np.all(ids[:4, :4] == ids[0, 0])
    assert np.all(ids[:4, 4:] == ids[0, 4])
    assert np.all(ids[4:, :4] == ids[4, 0])
    assert np.all(ids[4:, 4:] == ids[4, 4])
    assert ids[0, 0] != ids[0, 4] != ids[4, 4]


def test_window_map_shift_changes_partition():
    plain = window_map_for_grid((6, 8), False)[1:]
    shifted = window_map_for_grid((6, 8), True)[1:]
    same_plain = plain[:, None] == plain[None, :]
    same_shifted = shifted[:, None] == shifted[None, :]
    assert not np.array_equal(same_plain, same_shifted)


def test_window_map_cls_private_id():
    wm = window_map_for_grid((6, 8), False)
    assert wm.shape == (49,)
    assert wm[0] == -1
    assert -1 not in wm[1:]


# - decode -


def small_model(seed=0):
    cfg = ModelConfig(dim=16, n_heads=2, decoder_dim=16, decoder_heads=2,
                      patch_size=4, patch_stride=4)
    return cfg, EncoderParams(cfg, seed), DecoderParams(cfg, seed)


def restored_seq(cfg, dec, n=24, batch=1, seed=1):
    feats = np.random.default_rng(seed).normal(size=(batch, n + 1, cfg.dim))
    plan = sample_mask(n, 0.5, seeded_rng(seed, "m"))
    visible_count = 1 + len(plan.visible)
    fs = TokenSequence(Tensor(feats[:, :visible_count]))
    return restore_with_mask_tokens(fs, plan, dec)


def test_decode_shape_excludes_cls():
    cfg, enc, dec = small_model()
    seq = restored_seq(cfg, dec)
    out = decode(seq, dec, mode="global")
    assert out.shape == (1, 24, 16)


def test_decode_windowed_blocks_cross_window_attention(record_softmax):
    cfg, enc, dec = small_model()
    seq = restored_seq(cfg, dec, n=24)
    sink = record_softmax()
    decode(seq, dec, mode="windowed", grid_shape=(4, 6))
    assert len(sink) == cfg.decoder_blocks
    wm0 = window_map_for_grid((4, 6), shifted=False)
    blocked = wm0[:, None] != wm0[None, :]
    assert np.all(sink[0][:, :, blocked] == 0.0)
    wm1 = window_map_for_grid((4, 6), shifted=True)
    blocked1 = wm1[:, None] != wm1[None, :]
    assert np.all(sink[1][:, :, blocked1] == 0.0)


def test_decode_windowed_differs_from_global():
    cfg, enc, dec = small_model()
    seq = restored_seq(cfg, dec)
    a = decode(seq, dec, mode="global").data
    b = decode(seq, dec, mode="windowed", grid_shape=(4, 6)).data
    assert not np.allclose(a, b)


def test_decode_windowed_needs_grid():
    cfg, enc, dec = small_model()
    seq = restored_seq(cfg, dec)
    with pytest.raises(ShapeError):
        decode(seq, dec, mode="windowed")


def test_decode_unknown_mode():
    cfg, enc, dec = small_model()
    seq = restored_seq(cfg, dec)
    with pytest.raises(ConfigError):
        decode(seq, dec, mode="local")


# - patch normalization -


def test_patch_norm_constant_patch_is_zero():
    out = patch_norm_targets(np.full((3, 256), 7.5))
    assert np.all(out == 0.0)


def test_patch_norm_two_point_example():
    out = patch_norm_targets(np.array([[1.0, 3.0]]))
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-5)


def test_patch_norm_statistics():
    patches = np.random.default_rng(0).normal(loc=3, scale=2, size=(40, 256))
    out = patch_norm_targets(patches)
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)


# - masked_mse -


def test_masked_mse_zero_when_exact():
    targets = np.random.default_rng(1).normal(size=(2, 4, 16))
    plan = MaskPlan(n_patches=4, masked=(1, 3), visible=(0, 2))
    loss = masked_mse(Tensor(targets), targets, plan)
    assert loss.item() == 0.0


def test_masked_mse_constant_offset():
    targets = np.random.default_rng(2).normal(size=(2, 4, 16))
    plan = MaskPlan(n_patches=4, masked=(1, 3), visible=(0, 2))
    loss = masked_mse(Tensor(targets + 0.5), targets, plan)
    assert loss.item() == pytest.approx(0.25, rel=1e-14)


def test_masked_mse_ignores_visible_slots_exactly():
    targets = np.random.default_rng(3).normal(size=(1, 6, 8))
    plan = MaskPlan(n_patches=6, masked=(0, 4), visible=(1, 2, 3, 5))
    pred = targets + np.random.default_rng(4).normal(size=targets.shape)
    base = masked_mse(Tensor(pred), targets, plan).item()
    tampered = pred.copy()
    tampered[:, list(plan.visible)] += 1e6
    assert masked_mse(Tensor(tampered), targets, plan).item() == base


def test_masked_mse_rejects_empty_mask():
    targets = np.zeros((1, 4, 8))
    plan = MaskPlan(n_patches=4, masked=(), visible=(0, 1, 2, 3))
    with pytest.raises(NumericsError):
        masked_mse(Tensor(targets), targets, plan)


def test_masked_mse_count_mismatch():
    targets = np.zeros((1, 4, 8))
    plan = MaskPlan(n_patches=5, masked=(1,), visible=(0, 2, 3, 4))
    with pytest.raises(ShapeError):
        masked_mse(Tensor(targets), targets, plan)


# - config and training loop -


def test_pretrain_config_rejects_degenerate_ratios():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            PretrainConfig(mask_ratio=bad)


def test_pretrain_config_rejects_unknown_attention():
    with pytest.raises(ConfigError):
        PretrainConfig(decoder_attention="sparse")


def test_training_step_reduces_loss_small_model():
    # fixed batch, fixed mask: a few optimizer steps must reduce the loss
    from coughmae.optim import AdamW
    for seed in (0, 1, 2):
        cfg, enc, dec = small_model(seed)
        batch = np.random.default_rng(seed).normal(size=(2, 24, 16))
        plan = sample_mask(24, 0.75, seeded_rng(seed, "m"))
        params = enc.parameters() + dec.parameters()
        opt = AdamW(params, lr=1e-3, weight_decay=0.0)
        first = None
        for _ in range(40):
            loss = pretrain_step_loss(batch, enc, dec, plan)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            T.backward(loss)
            opt.step()
        final = pretrain_step_loss(batch, enc, dec, plan).item()
        assert final < first


def test_desk_pretrain_step_tape_budget(monkeypatch):
    # exact counts, so a change that regrows the tape fails here; each of the
    # four attention calls makes two nodes: a constant softmax and the fused op
    cfg = ModelConfig()
    enc, dec = EncoderParams(cfg, 0), DecoderParams(cfg, 0)
    batch = np.random.default_rng(0).normal(size=(8, 48, cfg.patch_values))
    plan = sample_mask(48, 0.75, seeded_rng(0, "m"))
    calls = []
    node = T._node
    monkeypatch.setattr(T, "_node", lambda data, op, *rest: calls.append(op) or node(data, op, *rest))
    loss = pretrain_step_loss(batch, enc, dec, plan, mode="global")
    assert len(calls) == 56
    assert calls.count("attention") == calls.count("softmax") == 4
    assert live_tensors(loss) == 128


def test_pretrain_deterministic_history(tmp_path):
    from coughmae.dsp import synth_dataset
    manifest = synth_dataset(tmp_path, 4, seed=11)
    cfg = PretrainConfig(epochs=3, batch_size=2)
    a = pretrain(manifest, MelConfig(), ModelConfig(), cfg, seed=5)
    b = pretrain(manifest, MelConfig(), ModelConfig(), cfg, seed=5)
    assert a.history == b.history
    for pa, pb in zip(a.encoder.parameters(), b.encoder.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_pretrain_rejects_mask_that_rounds_to_zero(tmp_path):
    from coughmae.dsp import synth_dataset
    manifest = synth_dataset(tmp_path, 2, seed=12)
    cfg = PretrainConfig(mask_ratio=0.005, epochs=1, batch_size=2)
    with pytest.raises(ConfigError):
        pretrain(manifest, MelConfig(), ModelConfig(), cfg, seed=0)
