"""Seeded stream determinism, the ndtri port and the truncated-normal initializer."""
import numpy as np
import pytest

from coughmae import finetune, mae, vit
from coughmae.rng import _PHI_HI, _PHI_LO, ndtri, seeded_rng, truncated_normal
from coughmae.tensor import Parameter
from coughmae.vit import INIT_STD, ModelConfig

# frozen first draws of the (42, "mask") stream
GOLDEN_MASK_42 = np.array([
    0.7562683375327922,
    0.8183597882712056,
    0.7622848016037895,
    0.2829812876920833,
])

GOLDEN_TN_7 = np.array([
    0.0301070112345736,
    0.023657478908170163,
    0.007215200171249539,
    -0.014015019800047877,
])


def test_same_seed_and_label_repeats():
    a = seeded_rng(42, "mask").random(16)
    b = seeded_rng(42, "mask").random(16)
    assert np.array_equal(a, b)


def test_labels_separate_streams():
    a = seeded_rng(42, "mask").random(16)
    b = seeded_rng(42, "init").random(16)
    assert not np.array_equal(a, b)


def test_seeds_separate_streams():
    a = seeded_rng(42, "mask").random(16)
    b = seeded_rng(43, "mask").random(16)
    assert not np.array_equal(a, b)


def test_golden_draws():
    assert np.array_equal(seeded_rng(42, "mask").random(4), GOLDEN_MASK_42)


def test_truncated_normal_golden():
    got = truncated_normal(seeded_rng(7, "tn"), (4,))
    assert np.array_equal(got, GOLDEN_TN_7)


def test_truncated_normal_bounds():
    vals = truncated_normal(seeded_rng(0, "bounds"), (20000,), std=0.02)
    assert np.all(np.abs(vals) <= 2 * 0.02 + 1e-12)


def test_truncated_normal_moments():
    vals = truncated_normal(seeded_rng(1, "moments"), (200000,), std=1.0)
    # truncation at +-2 sigma shrinks the variance to about 0.774
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 0.8796) < 0.01


def test_truncated_normal_shape_and_std_scaling():
    a = truncated_normal(seeded_rng(3, "s"), (5, 7), std=0.02)
    b = truncated_normal(seeded_rng(3, "s"), (5, 7), std=0.04)
    assert a.shape == (5, 7)
    assert np.allclose(b, 2.0 * a)


# - ndtri port against scipy.special.ndtri (bit for bit) -


def init_draws(cfg: ModelConfig, monkeypatch) -> list[tuple[str, tuple]]:
    """(name, shape) of every truncated-normal draw that initializes a
    pretraining model plus classifier head, recorded without allocating it."""
    drawn = []

    def record(name, shape, seed):
        drawn.append((name, tuple(shape)))
        return Parameter(np.zeros(1), name)

    for module in (vit, mae):
        monkeypatch.setattr(module, "init_param", record)
    vit.EncoderParams(cfg, seed=0)
    mae.DecoderParams(cfg, seed=0)
    vit.LinearParams("head", cfg.dim, finetune.N_CLASSES, seed=0)
    return drawn


def test_init_draws_cover_every_random_parameter(monkeypatch):
    cfg = ModelConfig()
    encoder, decoder = vit.EncoderParams(cfg, seed=0), mae.DecoderParams(cfg, seed=0)
    head = vit.LinearParams("head", cfg.dim, finetune.N_CLASSES, seed=0)
    names = [p.name for p in encoder.parameters() + decoder.parameters() + head.parameters()
             if p.name.endswith((".w", ".cls", ".mask_token"))]
    assert sorted(name for name, _ in init_draws(cfg, monkeypatch)) == sorted(names)


@pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig.full_scale()],
                         ids=["default", "full_scale"])
def test_init_draws_bit_identical_to_scipy_ndtri(cfg, monkeypatch):
    from scipy.special import ndtri as scipy_ndtri
    for name, shape in init_draws(cfg, monkeypatch):
        u = _PHI_LO + seeded_rng(0, f"init.{name}").random(shape) * (_PHI_HI - _PHI_LO)
        got = truncated_normal(seeded_rng(0, f"init.{name}"), shape, INIT_STD)
        assert np.array_equal(got, scipy_ndtri(u) * INIT_STD), name


def test_ndtri_bit_identical_to_scipy_on_uniform_draws():
    from scipy.special import ndtri as scipy_ndtri
    u = _PHI_LO + seeded_rng(0, "ndtri").random(1_200_000) * (_PHI_HI - _PHI_LO)
    exp_m2 = 0.1353352832366127
    edges = [_PHI_LO, _PHI_HI, 0.5, np.nextafter(0.5, 0.0), exp_m2, 1.0 - exp_m2,
             np.nextafter(exp_m2, 0.0), np.nextafter(exp_m2, 1.0),
             np.nextafter(1.0 - exp_m2, 0.0), np.nextafter(1.0 - exp_m2, 1.0)]
    u = np.concatenate([u, edges])
    assert np.array_equal(ndtri(u), scipy_ndtri(u))


def test_ndtri_shape_and_range():
    assert ndtri(0.5) == 0.0 and ndtri(0.5).shape == ()
    assert ndtri(np.full((3, 2), 0.3)).shape == (3, 2)
    with pytest.raises(ValueError):
        ndtri(1e-15)
