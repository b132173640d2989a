"""Patch extraction, positional encodings, attention, and the encoder stack."""
import contextlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coughmae.tensor as T
from coughmae.errors import ShapeError
from coughmae.tensor import Tensor
from coughmae.vit import (AttentionParams, EncoderParams, ModelConfig,
                          TokenSequence, embed, encode,
                          multi_head_attention, patch_count, patch_grid,
                          patchify, sinusoidal_positions, transformer_block)

DESK = ModelConfig()


# - patch geometry -


def test_patch_count_desk_input():
    assert patch_grid(98, 128, 16, 16) == (6, 8)
    assert patch_count(98, 128, 16, 16) == 48


def test_patch_count_single_patch():
    assert patch_count(16, 16, 16, 16) == 1


def test_patch_count_too_small_errors():
    with pytest.raises(ShapeError):
        patch_count(15, 128, 16, 16)


@given(st.integers(16, 300), st.integers(16, 300),
       st.integers(4, 32), st.integers(1, 32))
def test_patch_count_matches_enumeration(width, height, side_raw, stride_raw):
    side = min(side_raw, width, height)
    stride = min(stride_raw, side)
    rows = sum(1 for r in range(width) if r % stride == 0 and r + side <= width)
    cols = sum(1 for c in range(height) if c % stride == 0 and c + side <= height)
    assert patch_count(width, height, side, stride) == rows * cols


def test_patchify_extracts_expected_cells():
    values = np.arange(98 * 128, dtype=np.float64).reshape(98, 128)
    patches, grid = patchify(values, 16, 16)
    assert grid == (6, 8)
    assert patches.shape == (48, 256)
    # raster order: patch (r=1, c=2) sits at index 1*8+2
    manual = values[16:32, 32:48].reshape(-1)
    assert np.array_equal(patches[10], manual)


def test_patchify_overlapping_stride():
    values = np.random.default_rng(0).normal(size=(32, 32))
    patches, grid = patchify(values, 16, 8)
    assert grid == (3, 3)
    assert np.array_equal(patches[4], values[8:24, 8:24].reshape(-1))


def test_patchify_stacked_matches_per_spectrogram_loop():
    stack = np.random.default_rng(1).normal(size=(3, 38, 40))
    for side, stride in ((16, 16), (16, 8), (5, 3)):
        patches, (rows, cols) = patchify(stack, side, stride)
        assert patches.shape == (3, rows * cols, side * side)
        for i in range(3):
            for r in range(rows):
                for c in range(cols):
                    cell = stack[i, r * stride:r * stride + side, c * stride:c * stride + side]
                    assert np.array_equal(patches[i, r * cols + c], cell.reshape(-1))
            assert np.array_equal(patches[i], patchify(stack[i], side, stride)[0])


# - positional encodings -


def test_positions_worked_values():
    pe = sinusoidal_positions(4, 4)
    assert np.all(pe[0] == np.array([0.0, 1.0, 0.0, 1.0]))
    assert pe[1, 0] == pytest.approx(0.8414709848078965, abs=1e-15)
    assert pe[1, 1] == pytest.approx(0.5403023058681398, abs=1e-15)
    assert pe[1, 2] == pytest.approx(np.sin(1.0 / 100.0), abs=1e-15)


def test_positions_prefix_property():
    small = sinusoidal_positions(10, 8)
    large = sinusoidal_positions(50, 8)
    assert np.array_equal(large[:10], small)


def test_positions_odd_dim_rejected():
    with pytest.raises(ShapeError):
        sinusoidal_positions(4, 5)


# - embedding -


def test_embed_zero_patches_reduce_to_positions():
    # zero input and zero bias leave exactly the positional table
    params = EncoderParams(DESK, seed=0)
    zeros = np.zeros((1, 48, 256))
    seq = embed(zeros, params)
    pe = sinusoidal_positions(49, DESK.dim)
    assert np.array_equal(seq.tokens.data[0, 1:], pe[1:])


def test_embed_with_cls_prepends_token():
    params = EncoderParams(DESK, seed=0)
    zeros = np.zeros((2, 48, 256))
    seq = embed(zeros, params)
    pe = sinusoidal_positions(49, DESK.dim)
    assert seq.tokens.shape == (2, 49, DESK.dim)
    assert seq.n_patches == 48
    assert np.allclose(seq.tokens.data[:, 0], params.cls.data + pe[0], atol=1e-15)
    assert np.array_equal(seq.tokens.data[:, 1:], np.broadcast_to(pe[1:], (2, 48, DESK.dim)))


def test_embed_rejects_wrong_patch_width():
    params = EncoderParams(DESK, seed=0)
    with pytest.raises(ShapeError):
        embed(np.zeros((1, 48, 100)), params)


# - attention -


def test_attention_single_token_is_value_path():
    params = AttentionParams("a", 8, seed=3)
    x = np.random.default_rng(4).normal(size=(1, 1, 8))
    out = multi_head_attention(Tensor(x), params, n_heads=2)
    manual = (x @ params.wv.w.data + params.wv.b.data) @ params.wo.w.data + params.wo.b.data
    assert np.allclose(out.data, manual, atol=1e-14)


def test_attention_uniform_when_queries_vanish(record_softmax):
    params = AttentionParams("a", 8, seed=5)
    params.wq.w.data[...] = 0.0
    params.wq.b.data[...] = 0.0
    sink = record_softmax()
    x = Tensor(np.random.default_rng(6).normal(size=(1, 5, 8)))
    multi_head_attention(x, params, n_heads=2)
    assert np.allclose(sink[0], 1.0 / 5.0, atol=1e-15)


def test_attention_rows_sum_to_one(record_softmax):
    params = AttentionParams("a", 8, seed=7)
    sink = record_softmax()
    x = Tensor(np.random.default_rng(8).normal(size=(2, 6, 8)))
    multi_head_attention(x, params, n_heads=4)
    assert np.all(np.abs(sink[0].sum(axis=-1) - 1.0) < 1e-12)


def test_attention_cross_window_weight_exactly_zero(record_softmax):
    params = AttentionParams("a", 8, seed=9)
    sink = record_softmax()
    x = Tensor(np.random.default_rng(10).normal(size=(1, 4, 8)))
    window_map = np.array([0, 0, 1, 1])
    multi_head_attention(x, params, n_heads=2, window_map=window_map)
    w = sink[0]
    blocked = window_map[:, None] != window_map[None, :]
    assert np.all(w[:, :, blocked] == 0.0)
    assert np.all(w.sum(axis=-1) == pytest.approx(1.0, abs=1e-12))


def test_attention_singleton_windows_isolate_tokens():
    params = AttentionParams("a", 8, seed=11)
    x = np.random.default_rng(12).normal(size=(1, 5, 8))
    out = multi_head_attention(Tensor(x), params, n_heads=2,
                               window_map=np.arange(5))
    manual = (x @ params.wv.w.data + params.wv.b.data) @ params.wo.w.data + params.wo.b.data
    assert np.allclose(out.data, manual, atol=1e-14)


def test_attention_window_map_length_checked():
    params = AttentionParams("a", 8, seed=13)
    with pytest.raises(ShapeError):
        multi_head_attention(Tensor(np.zeros((1, 4, 8))), params, n_heads=2,
                             window_map=np.zeros(5, dtype=int))


# - encoder stack -


def test_encode_output_shape_and_final_norm():
    params = EncoderParams(DESK, seed=0)
    seq = embed(np.random.default_rng(1).normal(size=(2, 48, 256)), params)
    feats = encode(seq, params)
    assert feats.features.shape == (2, 49, 64)
    assert feats.n_patches == 48


def test_encode_handles_both_desk_lengths():
    params = EncoderParams(DESK, seed=0)
    for n in (48, 80):
        seq = embed(np.zeros((1, n, 256)), params)
        feats = encode(seq, params)
        assert feats.features.shape == (1, n + 1, 64)
        assert np.all(np.isfinite(feats.features.data))


def test_encode_permutation_equivariance():
    params = EncoderParams(DESK, seed=2)
    tokens = np.random.default_rng(3).normal(size=(1, 49, 64))
    perm = np.concatenate([[0], 1 + np.random.default_rng(4).permutation(48)])
    base = encode(TokenSequence(Tensor(tokens)), params)
    permuted = encode(TokenSequence(Tensor(tokens[:, perm])), params)
    assert np.max(np.abs(permuted.features.data - base.features.data[:, perm])) < 1e-10


def full_sequence_cls(seq, params):
    """Slot 0 of the full-sequence encoder, block by block: the reference the
    CLS-only path must equal bit for bit."""
    x = seq.tokens
    for block in params.blocks:
        x = transformer_block(x, block, params.cfg.n_heads)
    return T.layer_norm(x, params.ln_gain, params.ln_bias).data[:, :1]


@pytest.mark.parametrize("tape", [True, False])
@pytest.mark.parametrize("n_tokens", [17, 49])
@pytest.mark.parametrize("batch", [1, 2, 3, 16, 33])
def test_cls_only_encode_bit_identical_to_full_slot_zero(batch, n_tokens, tape):
    params = EncoderParams(DESK, seed=7)
    patches = np.random.default_rng(100 * batch + n_tokens).normal(size=(batch, n_tokens - 1, 256))
    with contextlib.nullcontext() if tape else T.no_grad():
        seq = embed(patches, params)
        want = full_sequence_cls(seq, params)
        got = encode(seq, params, cls_only=True)
    assert got.features.shape == (batch, 1, DESK.dim)
    assert got.features.requires_grad == tape
    assert np.ascontiguousarray(got.features.data).tobytes() == want.copy().tobytes()


@pytest.mark.parametrize("batch", [1, 3])
def test_cls_only_encode_gradients_match_full_sequence(batch):
    params = EncoderParams(DESK, seed=8)
    patches = np.random.default_rng(batch).normal(size=(batch, 16, 256))
    target = np.random.default_rng(10 + batch).normal(size=(batch, 1, DESK.dim))

    def grads(cls_only):
        for p in params.parameters():
            p.zero_grad()
        out = encode(embed(patches, params), params, cls_only=cls_only).features
        if not cls_only:
            out = T.gather(out, np.array([0]), axis=1)
        T.backward(T.reduce_sum(out * Tensor(target)))
        return [p.grad.copy() for p in params.parameters()]

    for full, cls in zip(grads(False), grads(True)):
        assert np.allclose(cls, full, rtol=1e-12, atol=1e-15)


def test_transformer_block_gradients():
    from coughmae.vit import BlockParams
    block = BlockParams("blk", 16, mlp_ratio=2, seed=5)
    x0 = np.random.default_rng(6).normal(size=(1, 4, 16))

    def loss_fn():
        return T.reduce_mean(T.square(transformer_block(Tensor(x0), block, n_heads=2)))

    err = T.grad_check_params(loss_fn, block.parameters(), coords_per_param=4)
    assert err < 1e-4


def test_model_config_validation():
    with pytest.raises(ShapeError):
        ModelConfig(dim=65)
    with pytest.raises(ShapeError):
        ModelConfig(patch_stride=20)


def test_full_scale_config():
    full = ModelConfig.full_scale()
    assert full.dim == 768 and full.n_blocks == 12 and full.decoder_dim == 512
