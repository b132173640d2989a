"""Pooling, AUROC, fold construction, gradient clipping, and the fine-tuning loop."""
import dataclasses
import json
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import coughmae.tensor as T
from coughmae import finetune as finetune_module
from coughmae import vit, workers
from coughmae.checkpoint import Checkpoint, load_checkpoint, load_into, save_checkpoint
from coughmae.dsp import DatasetManifest, ManifestEntry, MelConfig, synth_dataset
from coughmae.errors import CheckpointError, ConfigError, DataError, NumericsError, ShapeError
from coughmae.finetune import (N_CLASSES, POOLINGS, SCORE_BATCH, EvalReport, FinetuneConfig,
                               FinetuneResult, Model, auroc, cross_validate,
                               finetune_arrays, forward, kfold_split, load_model, pool,
                               prepare_finetune, score_samples)
from coughmae.mae import prepare_patches
from coughmae.optim import clip_grad_norm
from coughmae.tensor import Parameter
from coughmae.vit import EncoderParams, LinearParams, ModelConfig, TokenSequence


def feats(values: np.ndarray) -> TokenSequence:
    """Encoder output with CLS at slot 0 and patches after it."""
    return TokenSequence(tokens=T.Tensor(np.asarray(values, dtype=np.float64)))


def new_head(dim: int, seed: int) -> LinearParams:
    return LinearParams("head", dim, N_CLASSES, seed)


def new_model(model_cfg: ModelConfig, seed: int, pooling: str = "cls") -> Model:
    """A fresh raw-input classifier, encoder and head drawn from one seed."""
    return Model(encoder=EncoderParams(model_cfg, seed), head=new_head(model_cfg.dim, seed),
                 pooling=pooling, stats=None)


# - Pooling -


def test_pool_cls_picks_slot_zero():
    x = np.arange(2 * 4 * 3, dtype=np.float64).reshape(2, 4, 3)
    out = pool(feats(x), "cls")
    assert out.shape == (2, 3)
    assert np.array_equal(out.data, x[:, 0, :])


def test_pool_mean_excludes_cls():
    x = np.zeros((1, 4, 2))
    x[0, 0] = 100.0          # CLS must not contribute
    x[0, 1] = [1.0, 2.0]
    x[0, 2] = [3.0, 4.0]
    x[0, 3] = [5.0, 6.0]
    out = pool(feats(x), "mean")
    assert np.allclose(out.data, [[3.0, 4.0]], atol=1e-15)


def test_pool_mean_exact_value():
    x = np.array([[[-7.0, 99.0], [1.0, 10.0], [3.0, 30.0]]])   # slot 0 is CLS
    out = pool(feats(x), "mean")
    assert np.array_equal(out.data, [[2.0, 20.0]])


def test_pool_mean_permutation_invariant_exactly():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 10, 5))       # CLS plus 9 patches
    base = pool(feats(x), "mean").data
    for _ in range(5):
        perm = np.concatenate([[0], 1 + rng.permutation(9)])   # CLS stays first
        out = pool(feats(x[:, perm, :]), "mean").data
        assert np.array_equal(out, base)   # bit-identical, not just close
    x[:, 0] += 1.0                        # moving CLS leaves the mean alone
    assert np.array_equal(pool(feats(x), "mean").data, base)


def test_pool_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        pool(feats(np.zeros((1, 3, 2))), "max")


def test_pool_gradient_flows():
    x = T.Tensor(np.ones((1, 3, 2)), requires_grad=True)
    fs = TokenSequence(tokens=x)
    loss = T.reduce_mean(pool(fs, "mean"))
    T.backward(loss)
    # loss = mean over 2 dims of (mean over 2 patches): 1/4 per patch cell
    assert np.allclose(x.grad[0, 1:], 0.25)
    assert np.allclose(x.grad[0, 0], 0.0)   # CLS excluded from mean pooling


# - Classification head -


def test_forward_probabilities():
    model_cfg = ModelConfig(dim=16, n_heads=2, n_blocks=1, patch_size=4, patch_stride=4)
    patches = np.random.default_rng(0).normal(size=(3, 5, model_cfg.patch_values))
    for pooling in ("cls", "mean"):
        logits = forward(new_model(model_cfg, 0, pooling), patches)
        assert logits.shape == (3, N_CLASSES)
        probs = T.softmax(logits).data
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


# - AUROC -


def test_auroc_worked_examples():
    assert auroc([0.1, 0.9], [0, 1]) == 1.0
    assert auroc([0.9, 0.1], [0, 1]) == 0.0
    assert auroc([0.5, 0.5], [0, 1]) == 0.5
    # 3 correct pairs out of 4 -> 0.75
    assert auroc([0.1, 0.6, 0.4, 0.8], [0, 0, 1, 1]) == 0.75


def brute_force_auroc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auroc_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = np.round(rng.normal(size=n), 1)   # coarse values force ties
        assert abs(auroc(s, y) - brute_force_auroc(s, y)) < 1e-12


def test_auroc_monotone_invariance():
    rng = np.random.default_rng(5)
    s = rng.normal(size=30)
    y = rng.integers(0, 2, size=30)
    y[0], y[1] = 0, 1
    base = auroc(s, y)
    for f in (lambda x: 3 * x + 2, np.tanh, lambda x: x ** 3,
              lambda x: np.exp(x / 4), lambda x: np.arctan(x)):
        assert auroc(f(s), y) == base


def test_auroc_label_flip_symmetry():
    rng = np.random.default_rng(6)
    s = rng.normal(size=25)         # continuous, ties have measure zero
    y = rng.integers(0, 2, size=25)
    y[:2] = [0, 1]
    assert abs(auroc(s, y) + auroc(s, 1 - y) - 1.0) < 1e-12


def test_auroc_errors():
    with pytest.raises(DataError):
        auroc([0.2, 0.4], [1, 1])
    with pytest.raises(ShapeError):
        auroc([0.2, 0.4, 0.6], [0, 1])
    with pytest.raises(NumericsError):
        auroc([0.2, float("nan")], [0, 1])


@given(st.integers(0, 2 ** 32 - 1))
def test_auroc_rank_vs_pairs_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    s = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
    assert abs(auroc(s, y) - brute_force_auroc(s, y)) < 1e-12


# - K-fold splitting -


def test_kfold_partitions_everything():
    labels = np.array([0, 1] * 20)
    folds = kfold_split(labels, 5, seed=3)
    all_idx = sorted(i for fold in folds for i in fold)
    assert all_idx == list(range(40))
    assert len(folds) == 5


def test_kfold_stratified_balance():
    labels = np.array([0] * 13 + [1] * 17)
    for fold in kfold_split(labels, 5, seed=0):
        counts = np.bincount(labels[list(fold)], minlength=2)
        # 13/5 and 17/5 -> each fold holds floor or ceil of the proportion
        assert counts[0] in (2, 3)
        assert counts[1] in (3, 4)


def test_kfold_deterministic():
    labels = np.array([0, 1] * 15)
    assert kfold_split(labels, 3, seed=7) == kfold_split(labels, 3, seed=7)
    assert kfold_split(labels, 3, seed=7) != kfold_split(labels, 3, seed=8)


def test_kfold_errors():
    labels = np.array([0, 0, 0, 1])
    with pytest.raises(DataError):
        kfold_split(labels, 5, seed=0)       # class 1 has 1 member < k
    with pytest.raises(DataError):
        kfold_split(np.array([0, 1]), 1, seed=0)


# - Gradient clipping -


def grad_params(grads):
    params = []
    for i, g in enumerate(grads):
        p = Parameter(np.zeros_like(g), f"p{i}")
        p.grad[...] = g
        params.append(p)
    return params


def test_clip_scales_global_norm_to_bound():
    rng = np.random.default_rng(8)
    grads = [rng.normal(size=(4, 3)) * 5.0, rng.normal(size=7), np.array([40.0])]
    params = grad_params(grads)
    before = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    assert before > 1.0
    clip_grad_norm(params, 1.0)
    after = np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
    assert abs(after - 1.0) < 1e-12
    # one scale for every parameter: the joint direction is unchanged
    for p, g in zip(params, grads):
        assert np.allclose(p.grad * before, g, rtol=1e-12, atol=0.0)


def test_clip_leaves_small_gradient_bit_identical():
    grads = [np.array([0.375]), np.array([[0.0, -0.5]])]   # norm exactly 0.625
    for bound in (0.625, 2.0):        # exactly at the bound, and below it
        params = grad_params(grads)
        clip_grad_norm(params, bound)
        for p, g in zip(params, grads):
            assert np.array_equal(p.grad, g)


def test_clip_rejects_non_finite_gradient():
    with pytest.raises(NumericsError):
        clip_grad_norm(grad_params([np.array([np.inf, 1.0])]), 1.0)


# - Models from checkpoints -


def finetuned_checkpoint(cfg: ModelConfig, kind: str = "finetuned") -> Checkpoint:
    params = EncoderParams(cfg, seed=5).parameters() + new_head(cfg.dim, seed=6).parameters()
    config = {"kind": kind, "finetune": {"pooling": "mean"},
              "mel": dataclasses.asdict(MelConfig()), "model": dataclasses.asdict(cfg)}
    return Checkpoint(config=config, stats={"mean": -3.0, "std": 2.0},
                      arrays={p.name: p.data * 1.5 + 0.25 for p in params})


def test_checkpoint_loaders_draw_no_init_values(monkeypatch):
    cfg = ModelConfig()
    ckpts = [finetuned_checkpoint(cfg, kind) for kind in ("pretrain", "finetuned")]

    def no_draw(*args, **kwargs):
        raise AssertionError("init draw while loading a checkpoint")

    monkeypatch.setattr(vit, "truncated_normal", no_draw)
    for ckpt in ckpts:
        load_model(ckpt, MelConfig(), cfg)


def test_loaded_models_bit_identical_to_seeded_then_loaded():
    cfg = ModelConfig()
    ckpt = finetuned_checkpoint(cfg)
    ref = new_model(cfg, seed=0).parameters()
    load_into(ckpt.arrays, ref)
    model = load_model(ckpt, MelConfig(), cfg)
    assert model.pooling == "mean"
    assert (model.stats.mean, model.stats.std) == (-3.0, 2.0)
    assert load_model(finetuned_checkpoint(cfg, "pretrain"), MelConfig(), cfg).head is None
    loaded = model.parameters()
    assert [p.name for p in loaded] == [p.name for p in ref]
    for got, want in zip(loaded, ref):
        assert np.array_equal(got.data, want.data), got.name


@pytest.mark.parametrize("section, field, value", [("mel", "n_mels", 64),
                                                   ("model", "dim", 32)])
def test_loader_rejects_contradicting_config(section, field, value):
    cfg = ModelConfig()
    configs = {"mel": MelConfig(), "model": cfg}
    configs[section] = dataclasses.replace(configs[section], **{field: value})
    with pytest.raises(ConfigError, match=f"{section}.{field}"):
        load_model(finetuned_checkpoint(cfg), configs["mel"], configs["model"])


@pytest.mark.parametrize("section", ["mel", "model"])
def test_loader_rejects_header_without_section(section):
    cfg = ModelConfig()
    ckpt = finetuned_checkpoint(cfg)
    del ckpt.config[section]
    with pytest.raises(CheckpointError, match=section):
        load_model(ckpt, MelConfig(), cfg)


@pytest.mark.parametrize("stats", [{"mu": 0.0}, {"mean": "x", "std": 1.0},
                                   {"mean": 0.0, "std": float("nan")},
                                   {"mean": True, "std": 1.0},
                                   {"mean": 0.0, "std": 1.0, "degenerate": False}])
def test_loader_rejects_malformed_stats(stats, tmp_path):
    """A stats object other than exactly a finite real mean and std, in a
    file with a valid digest, is a CheckpointError, not a raw TypeError or
    a model that normalizes with a string."""
    cfg = ModelConfig()
    ckpt = finetuned_checkpoint(cfg)
    save_checkpoint(tmp_path / "model.bin", ckpt.arrays, ckpt.config, stats)
    with pytest.raises(CheckpointError, match="'stats'"):
        load_model(load_checkpoint(tmp_path / "model.bin"), MelConfig(), cfg)


@pytest.mark.parametrize("section", [["pooling", "mean"], {"pooling": "max"}, {"pooling": 3}])
def test_loader_rejects_malformed_finetune_section(section, tmp_path):
    """A finetune section that is no object, or names no pooling mode, in a
    file with a valid digest, is a CheckpointError at load, not a raw
    AttributeError or a model that fails later in pool()."""
    cfg = ModelConfig()
    ckpt = finetuned_checkpoint(cfg)
    ckpt.config["finetune"] = section
    save_checkpoint(tmp_path / "model.bin", ckpt.arrays, ckpt.config, ckpt.stats)
    with pytest.raises(CheckpointError, match="'finetune'"):
        load_model(load_checkpoint(tmp_path / "model.bin"), MelConfig(), cfg)


def test_loader_needs_stats_of_pretraining_checkpoint():
    cfg = ModelConfig()
    ckpt = finetuned_checkpoint(cfg, "pretrain")
    ckpt.stats = None
    with pytest.raises(DataError, match="normalization statistics"):
        load_model(ckpt, MelConfig(), cfg)


# - Fine-tuning loop -


@pytest.fixture(scope="module")
def small_task(tmp_path_factory):
    """Tiny separable two-class corpus plus its prepared patches."""
    root = tmp_path_factory.mktemp("task")
    manifest = synth_dataset(root, 16, seed=41)
    mel_cfg = MelConfig()
    model_cfg = ModelConfig(dim=32, n_heads=2, n_blocks=1, decoder_dim=16,
                            decoder_heads=2, decoder_blocks=1)
    patches, _, _ = prepare_patches(manifest, mel_cfg, 98, model_cfg)
    return manifest, mel_cfg, model_cfg, patches


def test_finetune_learns_separable_task(small_task):
    manifest, mel_cfg, model_cfg, patches = small_task
    labels = manifest.labels()
    train_idx = np.arange(0, 12)
    val_idx = np.arange(12, 16)
    cfg = FinetuneConfig(epochs=12, batch_size=2, encoder_lr=3e-3, head_lr=3e-2,
                         pooling="mean", warmup_frac=0.2)
    result = finetune_arrays(new_model(model_cfg, 0, cfg.pooling), patches, labels,
                             train_idx, val_idx, cfg, seed=0)
    assert len(result.curve) == 12
    assert result.train_loss and np.all(np.isfinite(result.train_loss))
    assert max(result.curve) >= 0.75   # synthetic classes are far apart


def test_finetune_deterministic(small_task):
    manifest, mel_cfg, model_cfg, patches = small_task
    labels = manifest.labels()
    cfg = FinetuneConfig(epochs=2, batch_size=4)
    runs = []
    for _ in range(2):
        r = finetune_arrays(new_model(model_cfg, 3), patches, labels, np.arange(12),
                            np.arange(12, 16), cfg, seed=3)
        runs.append(r)
    assert runs[0].curve == runs[1].curve
    for a, b in zip(runs[0].model.parameters(), runs[1].model.parameters()):
        assert np.array_equal(a.data, b.data)


def test_finetune_without_validation_scores_nothing_and_keeps_bits(small_task, monkeypatch):
    manifest, _, model_cfg, patches = small_task
    labels = manifest.labels()
    cfg = FinetuneConfig(epochs=2, batch_size=4)

    def run(val_idx):
        return finetune_arrays(new_model(model_cfg, 3), patches, labels,
                               np.arange(12), val_idx, cfg, seed=3)

    validated = run(np.arange(12, 16))
    monkeypatch.setattr(finetune_module, "score_samples", None)   # any call fails
    blind = run(None)
    assert blind.curve == []
    params = zip(validated.model.parameters(), blind.model.parameters())
    assert all(a.data.tobytes() == b.data.tobytes() for a, b in params)


def test_prepare_finetune_checks_labels_before_reading_audio(tmp_path):
    # the labelled files do not exist: reading any of them would fail on the audio
    entries = [ManifestEntry(path=f"missing{i}.wav", label=i % 2) for i in range(3)]
    manifest = DatasetManifest(entries=entries + [ManifestEntry(path="unlabelled.wav")],
                               root=tmp_path)
    with pytest.raises(DataError, match="without labels"):
        prepare_finetune(None, manifest, MelConfig(), ModelConfig(), FinetuneConfig())


def test_cross_validate_report(small_task):
    manifest, mel_cfg, model_cfg, _ = small_task
    cfg = FinetuneConfig(epochs=1, batch_size=4, k_folds=4)
    report = cross_validate(prepare_finetune(None, manifest, mel_cfg, model_cfg, cfg), cfg, seed=0)
    assert report.init_kind == "scratch"
    assert len(report.fold_auroc) == 4
    assert len(report.curves) == 4
    assert all(len(c) == 1 for c in report.curves)
    assert abs(report.mean_auroc - np.mean(report.fold_auroc)) < 1e-12
    json_text = report.to_json()
    csv_text = report.to_csv()
    assert '"mean_auroc"' in json_text
    assert csv_text.startswith("fold,best_epoch,auroc,last_epoch_auroc,pooling,init")
    assert csv_text.count("\n") == 4 + 2   # header + folds + mean row


def test_score_samples_cls_bit_identical_to_full_sequence():
    """Under CLS pooling score_samples runs the last block on the CLS rows
    only; its probabilities equal those of the full-sequence encoder byte for
    byte: in chunks of 32 and 1, and for each sample scored alone (a batch
    of one carries a second row; with one row, 6 of these 16 differ). Both
    run the head on rows padded to a multiple of four (see probabilities)."""
    model_cfg = ModelConfig()     # the desk widths, where GEMV and GEMM rows differ
    encoder, head = EncoderParams(model_cfg, seed=3), new_head(model_cfg.dim, seed=4)
    head.w.data *= 100.0     # logits of order one, so a last-bit change in a feature shows
    model = Model(encoder=encoder, head=head, pooling="cls", stats=None)
    patches = np.random.default_rng(0).normal(size=(SCORE_BATCH + 1, 48, 256))

    def full_sequence(chunk):
        with T.no_grad():
            feats = pool(vit.encode(vit.embed(chunk, encoder), encoder), "cls").data
            rows = np.concatenate([feats, np.repeat(feats[:1], -len(feats) % 4, axis=0)])
            return T.softmax(T.linear(rows, head.w, head.b)).data[:len(feats), 1]

    want = np.concatenate([full_sequence(patches[:SCORE_BATCH]),
                           full_sequence(patches[SCORE_BATCH:])])
    assert score_samples(patches, model).tobytes() == want.tobytes()
    for i in range(16):
        alone = score_samples(patches[i:i + 1], model)
        assert alone.tobytes() == full_sequence(patches[i:i + 1]).tobytes(), i
        assert alone.tobytes() == want[i:i + 1].tobytes(), i


@pytest.mark.parametrize("pooling", POOLINGS)
def test_score_samples_do_not_depend_on_their_batch(pooling):
    """A sample's probability has the same bits in a batch of any size at
    any position: the head's product gives row i the bits it has in a
    larger one only at a multiple of four rows, so the rows are padded to
    one. Unpadded, batches of 1-3 and of most sizes that are not a multiple
    of four differ here."""
    model_cfg = ModelConfig()
    model = Model(encoder=EncoderParams(model_cfg, seed=3), head=new_head(model_cfg.dim, seed=4),
                  pooling=pooling, stats=None)
    model.head.w.data *= 100.0     # so a last-bit change in a logit shows
    x = np.random.default_rng(1).normal(size=(40, 48, 256))
    whole = score_samples(x, model)
    for m in range(1, 34):
        for i in sorted({0, 1, 2, 3, 5, len(x) - m}):
            got = score_samples(x[i:i + m], model)
            assert got.tobytes() == whole[i:i + m].tobytes(), (m, i)


def test_finetune_step_frees_its_tape(small_task):
    """A step's graph is released before the next step's forward, so four
    steps peak no higher than one (a retained tape read 1.70x here)."""
    manifest, _, model_cfg, patches = small_task
    model_cfg = dataclasses.replace(model_cfg, n_blocks=4)   # tape outweighs state
    cfg = FinetuneConfig(epochs=1, batch_size=6)

    def traced_peak(steps: int) -> int:
        model = new_model(model_cfg, 0)
        train_idx = np.tile(np.arange(12), 2)[:steps * cfg.batch_size]
        tracemalloc.start()
        try:
            finetune_arrays(model, patches, manifest.labels(), train_idx,
                            np.arange(12, 16), cfg, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(4) < 1.5 * traced_peak(1)


# - Cross-validation on worker threads -


def test_cross_validate_bit_identical_across_cpus(small_task, cpus, monkeypatch):
    """The report and every fold's trained head equal a sequential pass over
    the folds in this thread byte for byte; progress lines come in fold
    order, all from this thread."""
    manifest, mel_cfg, model_cfg, _ = small_task
    cfg = FinetuneConfig(epochs=2, batch_size=4, k_folds=4)
    data = prepare_finetune(None, manifest, mel_cfg, model_cfg, cfg)
    want = []
    for f, fold in enumerate(kfold_split(data.labels, cfg.k_folds, 5)):
        train_idx = np.setdiff1d(np.arange(len(data.labels)), fold)
        want.append(data.run(train_idx, np.array(fold), cfg, 5000 + f))
    want_report = EvalReport(pooling=cfg.pooling, curves=[r.curve for r in want],
                             init_kind="scratch")

    heads, fold_threads, logged = {}, set(), []
    run_fold = finetune_module.finetune_arrays

    def recording(*args, **kwargs):
        result = run_fold(*args, **kwargs)
        heads[args[6]] = result.model.head.w.data.tobytes() + result.model.head.b.data.tobytes()
        fold_threads.add(threading.current_thread())
        return result

    monkeypatch.setattr(finetune_module, "finetune_arrays", recording)
    report = cross_validate(data, cfg, seed=5,
                            log=lambda m: logged.append((threading.current_thread(), m)))
    assert report.to_json() == want_report.to_json()
    assert heads == {5000 + f: r.model.head.w.data.tobytes() + r.model.head.b.data.tobytes()
                     for f, r in enumerate(want)}
    assert threading.current_thread() not in fold_threads
    assert {thread for thread, _ in logged} == {threading.current_thread()}
    assert [m for _, m in logged] == [f"fold {f}: epoch {e + 1}/2 val_auroc {a:.4f}"
                                      for f, r in enumerate(want)
                                      for e, a in enumerate(r.curve)]


class _StubData:
    """Stands in for FinetuneData: 20 samples; fold f runs with seed f."""

    init = None
    labels = np.array([0, 1] * 10)

    def __init__(self, run):
        self.run = run


def _stub_result() -> FinetuneResult:
    return FinetuneResult(model=None, curve=[0.5])


def test_cross_validate_reports_earliest_failing_fold(cpus):
    """Fold 3 fails before fold 1 does; the error raised is fold 1's, fold 4
    never starts, and no worker thread outlives the call."""
    started, failed = [], []

    def run(train_idx, val_idx, cfg, seed, **kwargs):
        started.append(seed)
        if seed == 1:
            time.sleep(0.2)
        if seed in (1, 3):
            failed.append(seed)
            raise NumericsError(f"fold {seed} diverged")
        return _stub_result()

    before = set(threading.enumerate())
    with pytest.raises(NumericsError, match="fold 1 diverged"):
        cross_validate(_StubData(run), FinetuneConfig(k_folds=5), seed=0)
    assert set(threading.enumerate()) <= before
    assert 4 not in started
    if cpus == 2:
        assert failed == [3, 1]


def test_cross_validate_restores_blas_threads(cpus):
    threads = workers.openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_ = threads
    original = get()
    inside = []

    def run_failing_at(bad_seed):
        def run(train_idx, val_idx, cfg, seed, **kwargs):
            inside.append(get())
            if seed == bad_seed:
                raise NumericsError("diverged")
            return _stub_result()

        return _StubData(run)

    try:
        set_(2)
        cross_validate(run_failing_at(-1), FinetuneConfig(k_folds=5), seed=0)
        assert get() == 2
        with pytest.raises(NumericsError):
            cross_validate(run_failing_at(2), FinetuneConfig(k_folds=5), seed=0)
        assert get() == 2
        assert inside and set(inside) == {1}
    finally:
        set_(original)


def test_cross_validate_derives_fold_fields_from_curves(cpus):
    """A fold's best epoch is the first maximum of its curve, even on a tie,
    and fold_auroc the AUROC there; last_epoch_auroc is the curve's last
    value. The JSON report carries both means and the per-fold lists."""
    curves = [[0.5, 0.75, 0.75, 0.625], [0.875, 0.25, 0.875], [0.25, 0.25],
              [0.125, 0.5], [0.375]]

    def run(train_idx, val_idx, cfg, seed, **kwargs):
        return FinetuneResult(model=None, curve=curves[seed])

    report = cross_validate(_StubData(run), FinetuneConfig(k_folds=5), seed=0)
    assert report.best_epochs == [1, 0, 0, 1, 0]
    assert report.fold_auroc == [0.75, 0.875, 0.25, 0.5, 0.375]
    assert report.last_epoch_auroc == [c[-1] for c in curves]
    assert report.mean_auroc == 0.55
    assert report.mean_last_epoch_auroc == 0.525
    stored = json.loads(report.to_json())
    assert stored == {"pooling": "cls", "init": "scratch", "curves": curves,
                      "best_epochs": [1, 0, 0, 1, 0],
                      "fold_auroc": [0.75, 0.875, 0.25, 0.5, 0.375], "mean_auroc": 0.55,
                      "last_epoch_auroc": [0.625, 0.875, 0.25, 0.5, 0.375],
                      "mean_last_epoch_auroc": 0.525}


def test_cross_validate_final_model_is_job_k(cpus):
    """The final model trains on every sample without validation, seeded
    with the run seed, and leaves the report's bytes alone."""
    calls = {}

    def run(train_idx, val_idx, cfg, seed, **kwargs):
        calls[seed] = (list(train_idx), val_idx)
        return FinetuneResult(model=f"model {seed}", curve=[seed / 10])

    plain = cross_validate(_StubData(run), FinetuneConfig(k_folds=5), seed=7)
    calls.clear()
    report = cross_validate(_StubData(run), FinetuneConfig(k_folds=5), seed=7, final_model=True)
    assert report.final_model == "model 7" and plain.final_model is None
    assert calls[7] == (list(range(20)), None)
    assert sorted(calls) == [7] + [7000 + f for f in range(5)]
    assert (report.to_json(), report.to_csv()) == (plain.to_json(), plain.to_csv())


def test_eval_report_csv_mean_row():
    report = EvalReport(pooling="cls", curves=[[0.5], [1.0, 0.25]], init_kind="scratch")
    lines = report.to_csv().strip().split("\n")
    assert lines[1:] == ["0,0,0.5,0.5,cls,scratch", "1,0,1,0.25,cls,scratch",
                         "mean,,0.75,0.375,cls,scratch"]
