"""Forward ops, reverse-mode gradients, and the finite-difference checker."""
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coughmae.tensor as T
from coughmae.errors import NumericsError, ShapeError
from coughmae.rng import seeded_rng, truncated_normal
from coughmae.tensor import Parameter, Tensor


def t(values):
    return Tensor(np.asarray(values, dtype=np.float64))


# - forward ops -


def test_softmax_symmetry():
    out = T.softmax(t([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_sums_to_one_and_shift_invariant():
    r = np.random.default_rng(0)
    x = r.normal(size=(6, 9))
    a = T.softmax(t(x)).data
    b = T.softmax(t(x + 13.7)).data
    assert np.all(np.abs(a.sum(axis=-1) - 1.0) < 1e-12)
    assert np.all(np.abs(a - b) < 1e-12)


def test_softmax_extreme_logits_stay_finite():
    out = T.softmax(t([[1000.0, -1000.0, 0.0]])).data
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0)


def test_layer_norm_constant_vector_is_zero():
    gain = t(np.ones(5))
    bias = t(np.zeros(5))
    out = T.layer_norm(t([[3.0] * 5]), gain, bias)
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_standardizes():
    r = np.random.default_rng(1)
    x = 2.0 * r.normal(size=(8, 32))  # variance well above eps
    out = T.layer_norm(t(x), t(np.ones(32)), t(np.zeros(32))).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-6)


def test_layer_norm_affine_applied_after_standardization():
    r = np.random.default_rng(2)
    x = r.normal(size=(3, 4))
    gain = np.array([1.0, 2.0, 3.0, 4.0])
    bias = np.array([0.5, 0.0, -0.5, 1.0])
    plain = T.layer_norm(t(x), t(np.ones(4)), t(np.zeros(4))).data
    affine = T.layer_norm(t(x), t(gain), t(bias)).data
    assert np.allclose(affine, plain * gain + bias, atol=1e-14)


def test_matmul_identity():
    a = np.random.default_rng(3).normal(size=(3, 5))
    out = T.matmul(t(np.eye(3)), t(a))
    assert np.array_equal(out.data, a)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))


def test_elementwise_ops_match_numpy():
    r = np.random.default_rng(4)
    a, b = r.normal(size=(4, 6)), r.normal(size=(4, 6))
    assert np.array_equal(T.add(t(a), t(b)).data, a + b)
    assert np.array_equal(T.subtract(t(a), t(b)).data, a - b)
    assert np.array_equal(T.multiply(t(a), t(b)).data, a * b)
    assert np.array_equal(T.square(t(a)).data, a * a)
    assert np.array_equal(T.scale(t(a), 2.5).data, 2.5 * a)


def test_reductions_and_views():
    r = np.random.default_rng(5)
    a = r.normal(size=(4, 6))
    assert T.reduce_sum(t(a)).item() == pytest.approx(a.sum(), rel=1e-15)
    assert T.reduce_mean(t(a)).item() == pytest.approx(a.mean(), rel=1e-15)
    assert np.array_equal(T.reshape(t(a), (2, 12)).data, a.reshape(2, 12))
    assert np.array_equal(T.transpose(t(a), (1, 0)).data, a.T)
    assert np.array_equal(T.broadcast_to(t(a[:1]), (4, 6)).data, np.broadcast_to(a[:1], (4, 6)))


def test_concat_and_gather():
    r = np.random.default_rng(6)
    a, b = r.normal(size=(2, 3)), r.normal(size=(4, 3))
    cat = T.concat([t(a), t(b)], axis=0)
    assert np.array_equal(cat.data, np.concatenate([a, b], axis=0))
    idx = np.array([3, 0, 5], dtype=np.intp)
    got = T.gather(cat, idx, axis=0)
    assert np.array_equal(got.data, cat.data[idx])


def test_gelu_reference_points():
    # tanh approximation: odd function, gelu(0)=0, large x passes through
    out = T.gelu(t([0.0, 10.0, -10.0, 1.0])).data
    assert out[0] == 0.0
    assert out[1] == pytest.approx(10.0, abs=1e-6)
    assert out[2] == pytest.approx(0.0, abs=1e-6)
    assert out[3] == pytest.approx(0.8411919906082768, abs=1e-12)


# - backward -


def test_backward_quadratic():
    x = Parameter(np.array([1.0, 2.0]), "x")
    loss = T.reduce_sum(T.square(x))
    T.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-15)


def test_backward_constant_leaves_zero_grads():
    x = Parameter(np.array([1.0, 2.0]), "x")
    c = T.reduce_sum(T.square(x))
    loss = T.scale(c, 0.0)
    T.backward(loss)
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_backward_accumulates():
    x = Parameter(np.array([1.0, 2.0]), "x")
    loss = T.reduce_sum(T.square(x))
    T.backward(loss)
    once = x.grad.copy()
    loss2 = T.reduce_sum(T.square(x))
    T.backward(loss2)
    assert np.array_equal(x.grad, 2.0 * once)


def test_backward_requires_scalar():
    x = Parameter(np.array([1.0, 2.0]), "x")
    with pytest.raises(ShapeError):
        T.backward(T.square(x))


def test_cross_entropy_matches_log_softmax():
    r = np.random.default_rng(7)
    z = r.normal(size=(5, 2))
    labels = np.array([0, 1, 1, 0, 1])
    loss = T.cross_entropy_with_logits(t(z), labels).item()
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert loss == pytest.approx(-logp[np.arange(5), labels].mean(), rel=1e-14)


# - grad_check -


def test_grad_check_quadratic_is_exact():
    point = Tensor(np.array([0.3, -1.2, 2.0]))
    err = T.grad_check(lambda x: T.reduce_sum(T.square(x)), point)
    assert err < 1e-8


def test_grad_check_perceptron():
    rng = seeded_rng(0, "test.mlp")
    w1 = Tensor(truncated_normal(rng, (6, 8), 0.5))
    w2 = Tensor(truncated_normal(rng, (8, 1), 0.5))

    def mlp(x):
        return T.reduce_sum(T.matmul(T.gelu(T.matmul(x, w1)), w2))

    for k in range(10):
        point = Tensor(seeded_rng(k, "test.mlp.point").normal(size=(3, 6)))
        assert T.grad_check(mlp, point) < 1e-4


def test_grad_check_softmax_ce_head():
    labels = np.array([0, 1, 1])
    for k in range(10):
        point = Tensor(seeded_rng(k, "test.ce.point").normal(size=(3, 2)))
        err = T.grad_check(lambda z: T.cross_entropy_with_logits(z, labels), point)
        assert err < 1e-4


@given(st.integers(0, 10_000))
def test_ops_bit_deterministic(seed):
    x = seeded_rng(seed, "det").normal(size=(3, 4))
    a = T.softmax(t(x)).data
    b = T.softmax(t(x)).data
    assert np.array_equal(a, b)


def test_linear_matches_manual():
    r = np.random.default_rng(8)
    x, w, b = r.normal(size=(5, 3)), r.normal(size=(3, 4)), r.normal(size=4)
    out = T.linear(t(x), t(w), t(b))
    assert np.allclose(out.data, x @ w + b, atol=1e-15)


def test_non_finite_op_result_raises():
    with pytest.raises(NumericsError):
        T.scale(t([1.0, 2.0]), float("inf"))


# - no_grad -


def test_no_grad_records_no_tape():
    w = Parameter(np.array([[0.5, -1.0], [2.0, 0.25]]), "w")
    x = t([[1.0, 2.0]])
    with T.no_grad():
        out = T.gelu(T.matmul(x, w))
    assert not out.requires_grad and out._parents == () and out._vjps == ()
    assert np.array_equal(out.data, T.gelu(T.matmul(x, w)).data)
    assert T.gelu(T.matmul(x, w)).requires_grad      # the tape is back on


def test_no_grad_restored_after_exception_and_nested():
    w = Parameter(np.ones((2, 2)), "w")
    with pytest.raises(NumericsError):
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.matmul(t([[1.0, 1.0]]), w).requires_grad
            T.scale(t([1.0]), float("inf"))        # the finite check still runs
    assert T.matmul(t([[1.0, 1.0]]), w).requires_grad


def test_no_grad_is_per_thread():
    """Each thread has its own mode: blocks that exit out of order in two
    threads change neither the other thread nor the main thread."""
    w = Parameter(np.ones((2, 2)), "w")
    x = t([[1.0, 1.0]])
    barrier = threading.Barrier(2, timeout=30)
    seen = {}

    def records() -> bool:
        return T.matmul(x, w).requires_grad

    def first():
        with T.no_grad():
            barrier.wait()                    # 1: only this thread is in a block
            barrier.wait()                    # 2: both threads are in a block
            seen["first inside"] = records()
        barrier.wait()                        # 3: this block exits first
        seen["first after"] = records()
        barrier.wait()                        # 4

    def second():
        barrier.wait()                        # 1
        seen["second before"] = records()
        with T.no_grad():
            barrier.wait()                    # 2
            barrier.wait()                    # 3: the other block has exited
            seen["second inside"] = records()
            barrier.wait()                    # 4
        seen["second after"] = records()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert seen == {"first inside": False, "first after": True, "second before": True,
                    "second inside": False, "second after": True}
    assert records()                          # the main thread still records a tape


def test_no_grad_leaves_grad_check_unchanged():
    rng = seeded_rng(0, "test.mlp")
    w1 = Tensor(truncated_normal(rng, (6, 8), 0.5))
    w2 = Tensor(truncated_normal(rng, (8, 1), 0.5))

    def mlp(x):
        return T.reduce_sum(T.matmul(T.gelu(T.matmul(x, w1)), w2))

    point = Tensor(seeded_rng(0, "test.mlp.point").normal(size=(3, 6)))
    before = T.grad_check(mlp, point)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            mlp(point)
            raise RuntimeError("leave the block early")
    assert T.grad_check(mlp, point) == before < 1e-4
