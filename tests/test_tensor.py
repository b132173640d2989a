"""Forward ops, reverse-mode gradients, and the finite-difference checker."""
import itertools
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coughmae.tensor as T
from coughmae import workers
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


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_backward_shared_gradient_array_not_mutated(order):
    # add hands both parents the same gradient array; accumulating into one
    # parent's pending gradient must not change the other's
    q, p = Parameter(np.array([1.0]), "q"), Parameter(np.array([1.0]), "p")
    x, y = T.scale(q, 1.0), T.scale(p, 2.0)
    terms = [T.reduce_sum(T.add(x, y)), T.reduce_sum(T.scale(x, 3.0)), T.reduce_sum(T.scale(y, 0.0))]
    a, b, c = (terms[i] for i in order)
    T.backward(a + b + c)
    assert q.grad[0] == 4.0 and p.grad[0] == 2.0


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


def test_linear_is_one_node_with_the_bits_of_matmul_then_add():
    r = np.random.default_rng(9)
    x, w, b = r.normal(size=(2, 5, 3)), r.normal(size=(3, 4)), r.normal(size=4)
    g = r.normal(size=(2, 5, 4))
    runs = []
    for fn in (T.linear, lambda x, w, b: T.add(T.matmul(x, w), b)):
        leaves = [Parameter(v.copy(), n) for v, n in ((x, "x"), (w, "w"), (b, "b"))]
        out = fn(*leaves)
        T.backward(T.reduce_sum(out * Tensor(g)))
        runs.append((out, [p.grad.tobytes() for p in leaves]))
    (fused, fused_grads), (pair, pair_grads) = runs
    assert fused._op == "linear" and fused._parents[0].name == "x"
    assert fused.data.tobytes() == pair.data.tobytes()
    assert fused_grads == pair_grads


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


# - GELU split over the helper -


def gelu_unsplit(v, g):
    """GELU forward and VJP as one numpy expression each, never split."""
    u = T._GELU_C * (v + T._GELU_K * v ** 3)
    tv = np.tanh(u)
    du = T._GELU_C * (1.0 + 3.0 * T._GELU_K * v * v)
    return 0.5 * v * (1.0 + tv), g * (0.5 * (1.0 + tv) + 0.5 * v * (1.0 - tv * tv) * du)


@pytest.fixture
def helper_halves(monkeypatch):
    """(lo, hi) of every half handed to the helper."""
    halves = []
    pool = workers._helper()

    class Recording:
        def submit(self, fn, lo, hi):
            halves.append((lo, hi))
            return pool.submit(fn, lo, hi)

    monkeypatch.setattr(workers, "_helper", Recording)
    return halves


@pytest.mark.parametrize("shape", [(8, 50, 256), (3, 5, 1093)], ids=["activation", "odd"])
def test_gelu_split_bit_identical_to_unsplit(shape, cpus, helper_halves):
    r = np.random.default_rng(11)
    v, g = r.normal(size=shape) * 3.0, r.normal(size=shape)
    assert v.min() < 0 and v.size >= workers.MIN_SPLIT_SIZE
    out = T.gelu(Parameter(v.copy(), "x"))
    (vjp,) = out._vjps
    want_out, want_grad = gelu_unsplit(v, g)
    assert out.data.tobytes() == want_out.tobytes()
    assert vjp(g).tobytes() == want_grad.tobytes()   # -0.0 where g < 0 and t = -1
    # the forward hands the helper its second half on 2 CPUs only
    assert helper_halves == ([(v.size // 2, v.size)] if cpus == 2 else [])


def test_gelu_not_split_below_the_minimum_size(cpus, helper_halves):
    v = np.random.default_rng(12).normal(size=workers.MIN_SPLIT_SIZE - 1)
    assert T.gelu(t(v)).data.tobytes() == gelu_unsplit(v, v)[0].tobytes()
    assert helper_halves == []


def test_no_split_while_every_worker_runs_a_job(cpus, helper_halves):
    n = workers.worker_count()
    v = np.random.default_rng(13).normal(size=(8, 50, 256))
    started, done = threading.Barrier(n, timeout=30), threading.Barrier(n, timeout=30)

    def job(_):
        started.wait()                    # all n jobs are running
        out = T.gelu(Parameter(v.copy(), "x")).data     # a tape: the path that splits
        done.wait()                       # none ends before the others computed
        return out

    with workers.in_order(job, range(n), n) as results:
        outs = [out for _, out in results]
    assert helper_halves == []
    assert all(out.tobytes() == gelu_unsplit(v, v)[0].tobytes() for out in outs)


# - GELU: np.power only where it can reach the output -

# ±0, subnormals, the floor's range, the cube-overflow edge (5.6438e102) and
# the non-finite values; they mix with arbitrary floats below
_CUBE_EDGE = np.cbrt(np.finfo(np.float64).max)
GELU_EDGE_VALUES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-120, 1e-101, 1e-100,
                    5.6e102, _CUBE_EDGE, np.nextafter(_CUBE_EDGE, 0.0),
                    np.nextafter(_CUBE_EDGE, np.inf), 6e102, 1e200, np.inf]
GELU_EDGE_VALUES += [-x for x in GELU_EDGE_VALUES] + [np.nan]


def gelu_recorded(v):
    return T.gelu(Parameter(v.copy(), "x"))


def gelu_on_constant(v):
    return T.gelu(t(v))


def gelu_under_no_grad(v):
    with T.no_grad():
        return T.gelu(Parameter(v.copy(), "x"))


def gelu_matches_unsplit(v, g):
    """T.gelu's forward, with a tape and without one (on a constant and
    under no_grad), and its VJP against gelu_unsplit, byte for byte; a
    non-finite output must be the same NumericsError from op gelu in every
    mode."""
    want_out, want_grad = gelu_unsplit(v, g)
    if not np.isfinite(want_out).all():
        for mode in (gelu_recorded, gelu_on_constant, gelu_under_no_grad):
            with pytest.raises(NumericsError, match="op 'gelu'"):
                mode(v)
        return
    out = gelu_recorded(v)
    (vjp,) = out._vjps
    assert out.data.tobytes() == want_out.tobytes()
    assert vjp(g).tobytes() == want_grad.tobytes()
    for mode in (gelu_on_constant, gelu_under_no_grad):
        free = mode(v)
        assert free._vjps == () and not free.requires_grad
        assert free.data.tobytes() == want_out.tobytes(), mode.__name__


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # inf and overflow lanes, as with v ** 3
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(st.sampled_from(GELU_EDGE_VALUES), st.floats(),
                          st.floats(-8.0, 8.0), st.floats(-1e-3, 1e-3)),
                min_size=1, max_size=64))
def test_gelu_bit_identical_on_edge_values(cpus, values):
    v = np.array(values)
    gelu_matches_unsplit(v, np.cos(np.arange(v.size)))
    # tiled past MIN_SPLIT_SIZE, an odd size the helper splits on 2 CPUs
    big = np.resize(v, workers.MIN_SPLIT_SIZE + 1)
    gelu_matches_unsplit(big, np.cos(np.arange(big.size)))


# cubes at binade edges, where v * v * v and v ** 3 round apart most often,
# and tanh arguments at and past saturation
_BINADE_CUBES = [np.nextafter(np.cbrt(2.0 ** k), d) for k in range(-60, 61, 7)
                 for d in (0.0, np.inf)] + [np.cbrt(2.0 ** k) for k in range(-60, 61, 7)]
GELU_TAPE_FREE_EDGES = np.array(
    [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-150, 1e150, 5.0, 9.5, 19.1, 20.0,
     30.0, 1e8] + _BINADE_CUBES)
GELU_TAPE_FREE_EDGES = np.concatenate([GELU_TAPE_FREE_EDGES, -GELU_TAPE_FREE_EDGES])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the cube of 1e150 overflows
@pytest.mark.parametrize("sigma", [0.16, 0.5, 3.0, None], ids=["0.16", "0.5", "3", "edges"])
def test_gelu_without_tape_bit_identical_to_recorded(sigma, cpus):
    """The tape-free forward runs its two halves through half-size work
    space; the recorded one through full-size buffers and the helper split.
    Odd sizes give halves of unequal length."""
    if sigma is None:
        v = GELU_TAPE_FREE_EDGES
        gelu_matches_unsplit(v, np.cos(np.arange(v.size)))
        v = np.resize(v, workers.MIN_SPLIT_SIZE + 1)    # split when recorded on 2 CPUs
    else:
        v = np.random.default_rng(17).normal(0.0, sigma, size=(3, 17, 1093))
    gelu_matches_unsplit(v, np.cos(np.arange(v.size)).reshape(v.shape))


def test_gelu_without_tape_holds_two_full_size_arrays():
    """Without a tape, t dies with the forward, so GELU's peak is its output
    plus half-size t and scratch, with the finite check's mask and the
    np.power lanes on top; with a tape it holds t, out and scratch."""
    n = 1 << 18
    v = np.random.default_rng(18).normal(0.0, 0.5, n)
    constant, parameter = t(v), Parameter(v.copy(), "x")

    def peak(x) -> int:
        tracemalloc.start()
        try:
            T.gelu(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(constant) < 2.25 * 8 * n
    with T.no_grad():
        assert peak(parameter) < 2.25 * 8 * n
    assert peak(parameter) > 3 * 8 * n


@pytest.fixture
def power_lanes(monkeypatch):
    """Sizes of the arrays np.power sees, from every thread."""
    sizes = []
    power = np.power

    def counting(base, *args, **kwargs):
        sizes.append(np.size(base))
        return power(base, *args, **kwargs)

    monkeypatch.setattr(np, "power", counting)
    return sizes


def test_gelu_sends_only_undecided_lanes_to_power(cpus, power_lanes):
    # activations of the segment model's spread: both branches run
    v = np.random.default_rng(14).normal(size=(8, 50, 256)) * 0.16
    gelu_matches_unsplit(v, np.cos(v))
    assert 0 < sum(power_lanes) < 3 * v.size / 10       # one forward in each of 3 modes


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")   # inf * 0
def test_gelu_with_huge_slack_sends_every_lane_to_power(cpus, power_lanes, monkeypatch):
    monkeypatch.setattr(T, "_GELU_CUBE_SLACK", np.inf)
    r = np.random.default_rng(15)
    v = np.concatenate([r.normal(size=workers.MIN_SPLIT_SIZE) * 0.16, [0.0, -0.0, 5e-324, 1e-120]])
    gelu_matches_unsplit(v, np.cos(v))
    assert sum(power_lanes) == 3 * v.size               # one forward in each of 3 modes


def test_gelu_cube_slack_covers_power_error():
    # The premise of the bracket: numpy's np.power(v, 3) and v * v * v differ
    # by no more than a quarter of _GELU_CUBE_SLACK units in the last place.
    # A numpy build that breaks it fails here, not in silently changed bits.
    r = np.random.default_rng(16)
    n = 1 << 20
    v = np.where(r.random(n) < 0.5, -1.0, 1.0) * 10.0 ** r.uniform(-100.0, 102.7, n)
    cube = v * v * v
    assert np.isfinite(cube).all() and np.abs(cube).min() > np.finfo(np.float64).tiny
    ulps = np.abs(np.power(v, 3) - cube) / np.spacing(np.abs(cube))
    assert ulps.max() <= T._GELU_CUBE_SLACK / 4


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_split_error_reaches_caller_and_frees_helper(failing, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    size = workers.MIN_SPLIT_SIZE
    written = np.zeros(size)

    def failing_half(lo, hi):
        if (lo > 0) == (failing == "helper"):
            raise ValueError(f"half at {lo}")
        written[lo:hi] = 1.0

    with pytest.raises(ValueError, match=f"half at {size // 2 if failing == 'helper' else 0}"):
        workers.split_halves(failing_half, size)
    # the other half ran to its end before the error was raised
    assert written.sum() == size // 2
    threads = {}

    def half(lo, hi):
        threads[lo] = threading.current_thread()

    workers.split_halves(half, size)
    assert threads[0] is threading.current_thread()
    assert threads[size // 2] is not threading.current_thread()
