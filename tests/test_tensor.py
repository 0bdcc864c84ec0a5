"""Kernel-level oracles for the tensor core.

Expected values here are hand-derived (closed forms or pencil arithmetic),
never read back from the implementation.  Backward formulas are verified
against float64 central differences through grad_check.
"""

import gc
import inspect
import math
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depvit import NumericError, ShapeError, UsageError
from depvit import tensor as T
from oracles import (_truncated_normal, gelu_kernel, layer_norm_kernel, replay_tape,
                     sigmoid_kernel, softmax_rows_kernel)


def randu(rng, shape, lo=-1.0, hi=1.0):
    return T.tensor(rng.uniform(lo, hi, size=shape), dtype=np.float64)


class TestForwardOracles:
    def test_matmul_hand_case(self):
        # [[1,2,3],[4,5,6]] @ [[7,8],[9,10],[11,12]] = [[58,64],[139,154]]
        a = T.tensor([[1, 2, 3], [4, 5, 6]], dtype=np.float32)
        b = T.tensor([[7, 8], [9, 10], [11, 12]], dtype=np.float32)
        out = T.matmul(a, b)
        np.testing.assert_allclose(out.data, [[58, 64], [139, 154]])

    def test_softmax_closed_form_with_temperature(self):
        # logits [1, 2] at temperature 0.1: p = [1/(1+e^10), e^10/(1+e^10)]
        x = T.tensor([[1.0, 2.0]], dtype=np.float64)
        out = T.softmax_rows(x, temperature=0.1)
        e10 = math.exp(10.0)
        np.testing.assert_allclose(
            out.data, [[1.0 / (1.0 + e10), e10 / (1.0 + e10)]], rtol=1e-12
        )

    def test_softmax_uniform_rows(self):
        x = T.tensor(np.zeros((3, 5)), dtype=np.float64)
        out = T.softmax_rows(x, temperature=1.0)
        np.testing.assert_allclose(out.data, np.full((3, 5), 0.2))

    def test_softmax_large_logits_stay_finite(self):
        x = T.tensor([[1000.0, 0.0, -1000.0]], dtype=np.float64)
        out = T.softmax_rows(x, temperature=1.0)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data.sum(), 1.0)

    def test_layer_norm_hand_case(self):
        # x = [1,2,3]: mean 2, population var 2/3, xhat = (x-2)/sqrt(2/3 + eps)
        x = T.tensor([[1.0, 2.0, 3.0]], dtype=np.float64)
        gain = T.tensor([1.0, 1.0, 1.0], dtype=np.float64)
        bias = T.tensor([0.0, 0.0, 0.0], dtype=np.float64)
        out = T.layer_norm(x, gain, bias)
        s = math.sqrt(2.0 / 3.0 + T.LAYER_NORM_EPS)
        np.testing.assert_allclose(out.data, [[-1.0 / s, 0.0, 1.0 / s]], rtol=1e-12)

    def test_layer_norm_gain_bias(self):
        x = T.tensor([[0.0, 4.0]], dtype=np.float64)
        gain = T.tensor([2.0, 3.0], dtype=np.float64)
        bias = T.tensor([10.0, 20.0], dtype=np.float64)
        out = T.layer_norm(x, gain, bias)
        # mean 2, population var 4: xhat = [-2, 2] / sqrt(4 + eps)
        h = 2.0 / math.sqrt(4.0 + T.LAYER_NORM_EPS)
        np.testing.assert_allclose(out.data, [[10.0 - 2.0 * h, 20.0 + 3.0 * h]], rtol=1e-12)

    def test_gelu_reference_points(self):
        # gelu(0) = 0; gelu(x) = x * Phi(x) with Phi(1) = 0.8413447460685429
        x = T.tensor([0.0, 1.0, -1.0], dtype=np.float64)
        out = T.gelu(x)
        phi1 = 0.8413447460685429
        np.testing.assert_allclose(out.data, [0.0, phi1, -(1.0 - phi1)], atol=1e-12)

    def test_sigmoid_reference_points(self):
        x = T.tensor([0.0, 100.0, -100.0], dtype=np.float64)
        out = T.sigmoid(x)
        np.testing.assert_allclose(out.data[0], 0.5)
        assert out.data[1] < 1.0 + 1e-12 and out.data[1] > 1.0 - 1e-12
        assert 0.0 <= out.data[2] < 1e-30

    def test_cross_entropy_uniform_is_log_k(self):
        logits = T.tensor(np.zeros((4, 7)), dtype=np.float64)
        loss = T.cross_entropy(logits, [0, 1, 2, 3])
        np.testing.assert_allclose(loss.item(), math.log(7.0), rtol=1e-12)

    def test_cross_entropy_confident_correct_is_small(self):
        logits = T.tensor([[50.0, 0.0], [0.0, 50.0]], dtype=np.float64)
        loss = T.cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-20

    def test_gather_rows_and_slice(self):
        x = T.tensor(np.arange(12.0).reshape(4, 3), dtype=np.float64)
        g = T.gather_rows(x, [2, 0, 2])
        np.testing.assert_allclose(g.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])
        s = T.slice_last(x, 1, 3)
        np.testing.assert_allclose(s.data, x.data[:, 1:3])

    def test_concat_inverts_slice(self):
        x = T.tensor(np.arange(10.0).reshape(2, 5), dtype=np.float64)
        parts = [T.slice_last(x, 0, 2), T.slice_last(x, 2, 5)]
        back = T.concat_last(parts)
        np.testing.assert_allclose(back.data, x.data)


class TestErrorPaths:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.tensor(np.ones((2, 3)), dtype=np.float32),
                     T.tensor(np.ones((2, 3)), dtype=np.float32))

    def test_mixed_dtype_rejected(self):
        a = T.tensor(np.ones((2, 2)), dtype=np.float32)
        b = T.tensor(np.ones((2, 2)), dtype=np.float64)
        with pytest.raises(ShapeError):
            T.add(a, b)

    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_tensor_dtype_must_be_float32_or_float64(self, dtype):
        with pytest.raises(UsageError, match="float32 or float64"):
            T.tensor([1, 2], dtype=dtype)

    def test_nonfinite_input_rejected_at_construction(self):
        with pytest.raises(NumericError):
            T.tensor([1.0, np.nan], dtype=np.float32)

    def test_nonfinite_result_rejected(self):
        a = T.tensor([1.0], dtype=np.float64)
        z = T.tensor([0.0], dtype=np.float64)
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            T.div(a, z)

    def test_overflow_in_matmul_rejected(self):
        big = T.tensor(np.full((2, 2), 1e300), dtype=np.float64)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.matmul(big, big)

    def test_tapes_do_not_nest(self):
        with T.Tape():
            with pytest.raises(UsageError):
                with T.Tape():
                    pass

    def test_tape_is_per_thread(self):
        x = T.tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
        seen = {}

        def worker():
            T.add(x, x)  # must not record onto the main thread's tape
            with T.Tape() as own:
                T.add(x, x)
            seen["own"] = len(own)

        with T.Tape() as main:
            T.mul(x, x)
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert len(main) == 1
        assert seen == {"own": 1}

    def test_cross_entropy_empty_batch_rejected_without_warnings(self):
        logits = T.tensor(np.zeros((0, 3)), dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError):
                T.cross_entropy(logits, [])

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.inf, math.nan])
    def test_bad_temperature(self, temperature):
        # inf would give a uniform row and NaN a NumericError later
        with pytest.raises(UsageError, match="temperature"):
            T.softmax_rows(T.tensor([[1.0, 2.0]], dtype=np.float32), temperature=temperature)

    def test_gradcheck_reports_its_fixed_step(self):
        x = T.tensor([1.0], dtype=np.float64)
        assert T.grad_check(lambda ts: T.sum_over_axis(ts[0], 0), [x]).step == 1e-5

    def test_gradcheck_requires_float64(self):
        x = T.tensor([1.0], dtype=np.float32)
        with pytest.raises(UsageError):
            T.grad_check(lambda ts: T.sum_over_axis(ts[0], 0), [x])

    @pytest.mark.parametrize("view", [lambda a: a.T, lambda a: a[1::2, ::3]],
                             ids=["transposed", "strided"])
    def test_gradcheck_ignores_memory_layout(self, view):
        # the perturbations must reach fn through a non-contiguous array too;
        # the reshape makes fn's own arithmetic independent of the layout
        arr = view(np.random.default_rng(4).uniform(-1.0, 1.0, size=(6, 9)))
        assert not arr.flags.c_contiguous

        def f(ts):
            return T.sum_squares(T.reshape(ts[0], (ts[0].data.size,)))

        strided = T.grad_check(f, [T.Tensor(arr)])
        packed = T.grad_check(f, [T.Tensor(np.ascontiguousarray(arr))])
        assert strided.passed and strided.max_rel_error < 1e-8
        assert strided.max_rel_error.hex() == packed.max_rel_error.hex()


class TestPropertyInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = T.tensor(rng.normal(size=(4, 6)) * 3.0, dtype=np.float64)
        out = T.softmax_rows(x, temperature=0.5)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)
        assert (out.data >= 0).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_softmax_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(3, 5))
        shift = rng.normal(size=(3, 1))
        a = T.softmax_rows(T.tensor(base, dtype=np.float64), temperature=1.0)
        b = T.softmax_rows(T.tensor(base + shift, dtype=np.float64), temperature=1.0)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_transpose_is_involution(self, seed):
        rng = np.random.default_rng(seed)
        x = T.tensor(rng.normal(size=(4, 7)), dtype=np.float64)
        np.testing.assert_allclose(T.transpose_last2(T.transpose_last2(x)).data, x.data)


class TestKernelExactness:
    """The row kernels against their one-array-per-step oracles.

    The kernels reuse their own temporaries; that must change no bit of the
    output or of the input gradients, and must never write into an input.
    """

    @given(seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]),
           magnitude=st.integers(-3, 4),
           temperature=st.sampled_from([1e-3, 0.1, 1.0, 8.0, 1e3]))
    @settings(max_examples=150, deadline=None)
    def test_kernels_match_oracle_and_leave_inputs_alone(self, seed, dtype, magnitude,
                                                         temperature):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 12, size=rng.integers(2, 4)))
        x = rng.standard_normal(shape) * 10.0 ** magnitude  # large logits at 1e4
        x.reshape(-1, shape[-1])[0] = 0.0  # a constant row
        x.flat[rng.integers(0, x.size, 3)] = -0.0
        x = x.astype(dtype)
        gain = rng.standard_normal(shape[-1]).astype(dtype)
        bias = (rng.standard_normal(shape[-1]) * 10.0 ** magnitude).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        cases = [
            (lambda ts: T.softmax_rows(ts[0], temperature), [x],
             lambda: softmax_rows_kernel(x, temperature, g)),
            (lambda ts: T.gelu(ts[0]), [x], lambda: gelu_kernel(x, g)),
            (lambda ts: T.sigmoid(ts[0]), [x], lambda: sigmoid_kernel(x, g)),
            (lambda ts: T.layer_norm(*ts), [x, gain, bias],
             lambda: layer_norm_kernel(x, gain, bias, g)),
        ]
        for kernel, arrays, oracle in cases:
            before = [a.tobytes() for a in arrays + [g]]
            inputs = [T.Tensor(a, requires_grad=True) for a in arrays]  # no copy
            with T.Tape() as tape:
                out = kernel(inputs)
            grads = tape._records[-1].backward(g)
            for got, want in zip((out.data, *grads), oracle()):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert [a.tobytes() for a in arrays + [g]] == before
            assert not any(np.shares_memory(out.data, a) for a in arrays)

    @pytest.mark.parametrize("idx", [[2, 0, 2], [0, 1, 2, 3]])
    def test_gather_rows_output_owns_its_data(self, idx):
        x = np.arange(12.0).reshape(4, 3)
        out = T.gather_rows(T.Tensor(x), idx)
        assert not np.shares_memory(out.data, x)
        out.data[...] = -1.0
        assert np.array_equal(x, np.arange(12.0).reshape(4, 3))


class TestFiniteCheck:
    """A checked output is refused exactly when one of its entries is NaN or
    infinite, whatever its size, layout or magnitude: a sum of squares that
    overflows on finite entries falls back to the elementwise scan."""

    @staticmethod
    def refused(arr):
        try:
            T._check_finite(arr, "probe")
        except NumericError:
            return True
        return False

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hand_cases(self, dtype):
        big = np.finfo(dtype).max
        cases = [
            np.zeros(0), np.zeros((3, 0)), np.asarray(0.0), np.asarray(np.nan),
            np.asarray(-np.inf), np.array([big, big, -big]), np.array([big / 2] * 4),
            np.array([np.finfo(dtype).tiny / 4, -0.0]), np.array([np.inf, -np.inf]),
            np.array([1.0, np.nan, np.inf]), np.full((5, 7), np.sqrt(big) * 2.0),
        ]
        for a in cases:
            a = a.astype(dtype)
            assert self.refused(a) == (not np.isfinite(a).all()), a

    @pytest.mark.parametrize("seed", range(4))
    def test_random_arrays_with_specials(self, seed):
        # sizes on both sides of BLAS's threading threshold, strided views,
        # and magnitudes whose squares overflow
        rng = np.random.default_rng(seed)
        for trial in range(150):
            dtype = (np.float32, np.float64)[trial % 2]
            shape = tuple(int(n) for n in rng.integers(1, 40, size=rng.integers(1, 4)))
            with np.errstate(over="ignore"):  # float32 casts of 1e30-scale values
                a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30)).astype(dtype)
            if trial % 3 == 0:
                a.flat[rng.integers(0, a.size)] = rng.choice([np.nan, np.inf, -np.inf])
            if trial % 5 == 0:
                a = a[..., ::2]
            with np.errstate(over="ignore"):
                assert self.refused(a) == (not np.isfinite(a).all())
        wide = rng.standard_normal(20_000).astype(np.float32)
        assert not self.refused(wide)
        wide[12_345] = np.nan
        assert self.refused(wide)


class TestSoftmaxRowMaximum:
    """``softmax_rows`` shifts by ``np.fmax.reduce``, which skips NaN where
    ``np.max`` propagates it.  Rows without NaN must keep every byte of the
    oracle's output, and non-finite rows must still be refused."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row", [
        [0.0, -0.0, -1.0],      # the maximum ties at +0 then -0
        [-0.0, 0.0, -1.0],      # ... at -0 then +0
        [-0.0, -2.0, -0.0],     # only -0 at the top
        [-np.inf, 0.5, -np.inf],
        [-np.inf, -0.0, 0.0],
        [3.0, -np.inf, 3.0],
    ])
    @pytest.mark.parametrize("temperature", [1e-3, 1.0, 1e3])
    def test_ties_at_zero_and_minus_inf_match_oracle(self, dtype, row, temperature):
        x = np.array([row, row[::-1]], dtype=dtype)
        g = np.ones_like(x)
        out = T.softmax_rows(T.Tensor(x), temperature)  # Tensor(), as tensor() refuses -inf
        want, _ = softmax_rows_kernel(x, temperature, g)
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row", [
        [np.inf, 0.0], [1.0, np.inf, np.inf], [np.nan, 0.0], [0.0, np.nan, 2.0],
        [np.nan, np.nan], [-np.inf, -np.inf],
    ])
    def test_non_finite_rows_still_raise(self, dtype, row):
        x = T.Tensor(np.array([[0.0] * len(row), row], dtype=dtype))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            T.softmax_rows(x, temperature=1.0)


class TestGradients:
    """Every kernel's backward is checked against central differences."""

    def test_sum_of_squares_reference(self):
        # d/dx sum(x^2) = 2x, a case where the analytic answer is unambiguous
        rng = np.random.default_rng(7)
        x = randu(rng, (4, 3))

        def f(ts):
            sq = T.mul(ts[0], ts[0])
            return T.sum_over_axis(T.sum_over_axis(sq, 0), 0)

        report = T.grad_check(f, [x])
        assert report.passed
        assert report.max_rel_error < 1e-7

        with T.Tape() as tape:
            loss = f([x])
        (g,) = tape.gradients(loss, [x])
        np.testing.assert_allclose(g, 2.0 * x.data, rtol=1e-12)

    def test_constant_function_gives_exact_zero(self):
        rng = np.random.default_rng(8)
        x = randu(rng, (3, 3))
        x.requires_grad = True
        c = T.tensor(np.ones((3, 3)), dtype=np.float64)
        with T.Tape() as tape:
            loss = T.sum_over_axis(T.sum_over_axis(c, 0), 0)
        (g,) = tape.gradients(loss, [x])
        assert (g == 0.0).all()

    def test_matmul_chain(self):
        rng = np.random.default_rng(1)
        a, b = randu(rng, (3, 4)), randu(rng, (4, 2))

        def f(ts):
            out = T.matmul(ts[0], ts[1])
            sq = T.mul(out, out)
            return T.sum_over_axis(T.sum_over_axis(sq, 0), 0)

        assert T.grad_check(f, [a, b]).max_rel_error < 1e-8

    def test_broadcast_add_mul_div(self):
        rng = np.random.default_rng(2)
        a = randu(rng, (3, 4))
        row = randu(rng, (4,))
        col = randu(rng, (3, 1), 0.5, 1.5)
        den = randu(rng, (3, 4), 0.5, 1.5)

        def f(ts):
            z = T.add(ts[0], ts[1])
            z = T.mul(z, ts[2])
            z = T.div(z, ts[3])
            sq = T.mul(z, z)
            return T.sum_over_axis(T.sum_over_axis(sq, 0), 0)

        assert T.grad_check(f, [a, row, col, den]).max_rel_error < 1e-8

    def test_softmax_gelu_sigmoid_chain(self):
        rng = np.random.default_rng(3)
        x = randu(rng, (3, 5), -2.0, 2.0)

        def f(ts):
            z = T.softmax_rows(ts[0], temperature=0.3)
            z = T.gelu(z)
            z = T.sigmoid(z)
            sq = T.mul(z, z)
            return T.sum_over_axis(T.sum_over_axis(sq, 0), 0)

        assert T.grad_check(f, [x]).max_rel_error < 1e-7

    def test_layer_norm_grad(self):
        rng = np.random.default_rng(4)
        x, gain, bias = randu(rng, (4, 6)), randu(rng, (6,), 0.5, 1.5), randu(rng, (6,))

        def f(ts):
            z = T.layer_norm(ts[0], ts[1], ts[2])
            sq = T.mul(z, z)
            return T.sum_over_axis(T.sum_over_axis(sq, 0), 0)

        assert T.grad_check(f, [x, gain, bias]).max_rel_error < 1e-7

    def test_structural_ops_grad(self):
        rng = np.random.default_rng(5)
        x = randu(rng, (5, 4))

        def f(ts):
            t = T.transpose_last2(ts[0])
            g = T.gather_rows(t, [0, 2, 2, 3])
            s = T.slice_last(g, 1, 4)
            c = T.concat_last([s, s])
            r = T.reshape(c, (4, 6))
            sq = T.mul(r, r)
            return T.sum_over_axis(T.sum_over_axis(sq, 0), 0)

        assert T.grad_check(f, [x]).max_rel_error < 1e-8

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(6)
        logits = randu(rng, (4, 5), -2.0, 2.0)

        def f(ts):
            return T.cross_entropy(ts[0], [0, 3, 1, 4])

        assert T.grad_check(f, [logits]).max_rel_error < 1e-8

    def test_shared_input_used_twice(self):
        # x appearing in two operands must accumulate both contributions
        rng = np.random.default_rng(10)
        x = randu(rng, (3, 3))

        def f(ts):
            z = T.matmul(ts[0], ts[0])
            sq = T.mul(z, z)
            return T.sum_over_axis(T.sum_over_axis(sq, 0), 0)

        assert T.grad_check(f, [x]).max_rel_error < 1e-8

    def test_accumulation_never_writes_into_a_shared_gradient(self):
        # add hands its output gradient to both inputs as one array, so x's
        # later contributions must not be summed into it: that would change
        # y's gradient too.  loss = sum(x + y + x*x): dx = 1 + 2x, dy = 1.
        x = T.tensor([[0.5, -1.0, 2.0]], dtype=np.float64, requires_grad=True)
        y = T.tensor([[3.0, 0.0, -4.0]], dtype=np.float64, requires_grad=True)
        with T.Tape() as tape:
            sq = T.mul(x, x)
            loss = T.sum_all(T.add(T.add(x, y), sq))
        gx, gy = tape.gradients(loss, [x, y])
        np.testing.assert_array_equal(gx, [[2.0, -1.0, 5.0]])
        np.testing.assert_array_equal(gy, [[1.0, 1.0, 1.0]])

    def test_scalar_feeding_three_consumers_sums_every_contribution(self):
        # a 0-d sum of two 0-d arrays is a numpy scalar, which cannot be
        # added into; each contribution must still reach x
        x = T.tensor([[0.5, -1.0], [2.0, 3.0]], dtype=np.float64, requires_grad=True)
        with T.Tape() as tape:
            s = T.sum_all(x)
            loss = T.add(T.add(s, s), s)
        (gx,) = tape.gradients(loss, [x])
        np.testing.assert_array_equal(gx, np.full((2, 2), 3.0))
        (want,) = replay_tape(tape._records, loss, [x])
        assert gx.tobytes() == want.tobytes()

    def test_gather_duplicate_rows_scatter_adds(self):
        x = T.tensor(np.ones((3, 2)), dtype=np.float64, requires_grad=True)
        with T.Tape() as tape:
            g = T.gather_rows(x, [1, 1, 1])
            loss = T.sum_over_axis(T.sum_over_axis(g, 0), 0)
        (grad,) = tape.gradients(loss, [x])
        np.testing.assert_allclose(grad, [[0, 0], [3, 3], [0, 0]])

    def test_scale_grad(self):
        rng = np.random.default_rng(11)
        x = randu(rng, (2, 3))

        def f(ts):
            z = T.scale(ts[0], -2.5)
            sq = T.mul(z, z)
            return T.sum_over_axis(T.sum_over_axis(sq, 0), 0)

        assert T.grad_check(f, [x]).max_rel_error < 1e-8


class TestBatchedHeadOps:
    def test_batched_matmul_matches_per_slice(self):
        rng = np.random.default_rng(20)
        a = randu(rng, (3, 4, 5))
        b = randu(rng, (3, 5, 2))
        out = T.batched_matmul(a, b)
        for i in range(3):
            np.testing.assert_allclose(out.data[i], a.data[i] @ b.data[i],
                                       rtol=1e-12)

    def test_batched_matmul_shape_errors(self):
        a = T.tensor(np.zeros((2, 3, 4)), dtype=np.float64)
        with pytest.raises(ShapeError):
            T.batched_matmul(a, T.tensor(np.zeros((3, 4, 2)), dtype=np.float64))
        with pytest.raises(ShapeError):
            T.batched_matmul(a, T.tensor(np.zeros((2, 3, 2)), dtype=np.float64))
        with pytest.raises(ShapeError):
            T.batched_matmul(a, T.tensor(np.zeros(4), dtype=np.float64))

    def test_batched_matmul_grad(self):
        rng = np.random.default_rng(21)
        a = randu(rng, (2, 3, 4))
        b = randu(rng, (2, 4, 3))

        def f(ts):
            z = T.batched_matmul(ts[0], ts[1])
            sq = T.mul(z, z)
            s = T.sum_over_axis(T.sum_over_axis(T.sum_over_axis(sq, 0), 0), 0)
            return s

        assert T.grad_check(f, [a, b]).max_rel_error < 1e-8

    def test_split_heads_backward_is_one_fresh_array(self):
        # Tape.gradients keeps a base-less gradient as it is and copies a view
        a = T.Tensor(np.arange(12.0).reshape(2, 6), requires_grad=True)
        with T.Tape() as tape:
            T.split_heads(a, 3)
        g = np.arange(12.0).reshape(3, 2, 2) * 10.0
        (ga,) = tape._records[-1].backward(g)
        assert ga.base is None and ga.flags.c_contiguous
        assert ga.tobytes() == np.ascontiguousarray(g.swapaxes(0, 1)).reshape(2, 6).tobytes()

    def test_split_heads_owns_column_blocks(self):
        # 2 tokens, 6 channels, 3 heads: head h gets columns [2h, 2h+2)
        x = T.tensor(np.arange(12, dtype=np.float64).reshape(2, 6),
                     dtype=np.float64)
        out = T.split_heads(x, 3)
        assert out.shape == (3, 2, 2)
        np.testing.assert_array_equal(out.data[0], [[0, 1], [6, 7]])
        np.testing.assert_array_equal(out.data[2], [[4, 5], [10, 11]])

    def test_merge_heads_inverts_split(self):
        rng = np.random.default_rng(22)
        x = randu(rng, (5, 12))
        back = T.merge_heads(T.split_heads(x, 4))
        np.testing.assert_array_equal(back.data, x.data)

    def test_split_heads_validation(self):
        x = T.tensor(np.zeros((2, 6)), dtype=np.float64)
        with pytest.raises(ShapeError):
            T.split_heads(x, 4)
        with pytest.raises(ShapeError):
            T.split_heads(T.tensor(np.zeros(6), dtype=np.float64), 2)
        with pytest.raises(ShapeError):
            T.merge_heads(x)

    def test_split_merge_grads(self):
        rng = np.random.default_rng(23)
        x = randu(rng, (3, 8))

        def f(ts):
            z = T.merge_heads(T.split_heads(ts[0], 2))
            w = T.mul(z, z)
            return T.sum_over_axis(T.sum_over_axis(w, 0), 0)

        assert T.grad_check(f, [x]).max_rel_error < 1e-8


class TestSumAll:
    def test_value_and_shape(self):
        x = T.tensor([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
        out = T.sum_all(x)
        assert out.shape == ()
        assert out.item() == 10.0

    def test_grad_is_ones(self):
        x = T.tensor(np.zeros((2, 3)), dtype=np.float64, requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(x)
        (g,) = tape.gradients(loss, [x])
        np.testing.assert_array_equal(g, np.ones((2, 3)))

    def test_grad_through_product(self):
        rng = np.random.default_rng(24)
        x = randu(rng, (3, 2))

        def f(ts):
            return T.sum_all(T.mul(ts[0], ts[0]))

        assert T.grad_check(f, [x]).max_rel_error < 1e-8


class TestFusedKernels:
    def test_sum_squares_value(self):
        x = T.tensor([[1.0, -2.0], [3.0, 0.0]], dtype=np.float64)
        assert T.sum_squares(x).item() == 14.0

    def test_sum_squares_grad(self):
        rng = np.random.default_rng(25)
        x = randu(rng, (3, 4))
        assert T.grad_check(lambda ts: T.sum_squares(ts[0]),
                            [x]).max_rel_error < 1e-8

    def test_weighted_mean_hand_case(self):
        # rows [1,0] and [0,1] with weights 3 and 1 -> [0.75, 0.25]
        x = T.tensor([[1.0, 0.0], [0.0, 1.0]], dtype=np.float64)
        w = T.tensor([3.0, 1.0], dtype=np.float64)
        np.testing.assert_allclose(T.weighted_mean_rows(x, w).data,
                                   [0.75, 0.25], rtol=1e-15)

    def test_weighted_mean_matches_composed_ops(self):
        rng = np.random.default_rng(26)
        x = randu(rng, (5, 3))
        w = randu(rng, (5,), lo=0.1, hi=1.0)
        fused = T.weighted_mean_rows(x, w)
        manual = (w.data @ x.data) / w.data.sum()
        np.testing.assert_allclose(fused.data, manual, rtol=1e-13)

    def test_weighted_mean_grads(self):
        rng = np.random.default_rng(27)
        x = randu(rng, (4, 3))
        w = randu(rng, (4,), lo=0.2, hi=1.0)

        def f(ts):
            return T.sum_squares(T.weighted_mean_rows(ts[0], ts[1]))

        assert T.grad_check(f, [x, w]).max_rel_error < 1e-7

    def test_weighted_mean_zero_total_rejected(self):
        x = T.tensor(np.ones((2, 2)), dtype=np.float64)
        w = T.tensor([1.0, -1.0], dtype=np.float64)
        with pytest.raises(NumericError):
            T.weighted_mean_rows(x, w)

    def test_weighted_mean_shape_errors(self):
        x = T.tensor(np.ones((2, 2)), dtype=np.float64)
        with pytest.raises(ShapeError):
            T.weighted_mean_rows(x, T.tensor(np.ones(3), dtype=np.float64))
        with pytest.raises(ShapeError):
            T.weighted_mean_rows(T.tensor(np.ones(4), dtype=np.float64),
                                 T.tensor(np.ones(4), dtype=np.float64))


def _u(*shape):
    return np.linspace(0.5, 1.5, math.prod(shape)).reshape(shape)


# One small valid call per kernel.  Where a cheap copy-free path exists the
# inputs take it: a full-width slice, an identity gather, and one head,
# whose swapped (1, N, d) -> (N, 1, d) view is already C-contiguous.
KERNEL_CALLS = {
    "matmul": (T.matmul, [_u(2, 3), _u(3, 4)]),
    "batched_matmul": (T.batched_matmul, [_u(2, 2, 3), _u(2, 3, 2)]),
    "add": (T.add, [_u(2, 3), _u(3)]),
    "mul": (T.mul, [_u(2, 3), _u(2, 1)]),
    "div": (T.div, [_u(2, 3), _u(2, 3)]),
    "scale": (lambda a: T.scale(a, 2.0), [_u(2, 3)]),
    "reshape": (lambda a: T.reshape(a, (3, 2)), [_u(2, 3)]),
    "transpose_last2": (T.transpose_last2, [_u(2, 3)]),
    "sum_over_axis": (lambda a: T.sum_over_axis(a, 1), [_u(2, 3)]),
    "sum_all": (T.sum_all, [_u(2, 3)]),
    "sum_squares": (T.sum_squares, [_u(2, 3)]),
    "weighted_mean_rows": (T.weighted_mean_rows, [_u(3, 2), _u(3)]),
    "slice_last": (lambda a: T.slice_last(a, 0, 3), [_u(2, 3)]),
    "concat_last": (lambda *parts: T.concat_last(parts), [_u(2, 1), _u(2, 2)]),
    "split_heads": (lambda a: T.split_heads(a, 1), [_u(3, 4)]),
    "merge_heads": (T.merge_heads, [_u(1, 3, 4)]),
    "gather_rows": (lambda a: T.gather_rows(a, [0, 1]), [_u(2, 3)]),
    "softmax_rows": (lambda a: T.softmax_rows(a, temperature=1.0), [_u(2, 3)]),
    "gelu": (T.gelu, [_u(2, 3)]),
    "sigmoid": (T.sigmoid, [_u(2, 3)]),
    "layer_norm": (T.layer_norm, [_u(2, 3), _u(3), _u(3)]),
    "cross_entropy": (lambda a: T.cross_entropy(a, [0, 2]), [_u(2, 3)]),
}

# What one tape record keeps alive, taped with every input requiring a
# gradient: the input positions and "out" whose arrays the backward reads.
KEPT_ARRAYS = {
    "matmul": {0, 1}, "batched_matmul": {0, 1}, "mul": {0, 1}, "div": {0, 1},
    "softmax_rows": {"out"}, "sigmoid": {"out"}, "gelu": {0},
    "layer_norm": {1},  # x-hat and 1/sigma are its own arrays; 1 is the gain
    "sum_squares": {0}, "cross_entropy": {0}, "weighted_mean_rows": {0, 1, "out"},
    "add": set(), "scale": set(), "sum_over_axis": set(), "sum_all": set(),
    "reshape": set(), "transpose_last2": set(), "slice_last": set(),
    "concat_last": set(), "split_heads": set(), "merge_heads": set(),
    "gather_rows": set(),
}


class TestKernelContract:
    """Every kernel follows the same taping and ownership rules."""

    def test_every_kernel_has_a_call(self):
        helpers = {"tensor", "grad_check", "truncated_normal"}
        public = {name for name, fn in vars(T).items()
                  if inspect.isfunction(fn) and fn.__module__ == T.__name__
                  and not name.startswith("_")}
        assert set(KERNEL_CALLS) == public - helpers

    @pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
    def test_tapes_only_what_needs_a_gradient_and_owns_its_output(self, name):
        kernel, arrays = KERNEL_CALLS[name]

        def inputs(grad_at=None):
            return [T.Tensor(a, requires_grad=(i == grad_at)) for i, a in enumerate(arrays)]

        out = kernel(*inputs(grad_at=0))
        assert not out.requires_grad
        assert not any(np.shares_memory(out.data, a) for a in arrays)
        with T.Tape() as tape:
            out = kernel(*inputs())
        assert len(tape) == 0 and not out.requires_grad
        for i in range(len(arrays)):
            with T.Tape() as tape:
                out = kernel(*inputs(grad_at=i))
            assert len(tape) == 1 and out.requires_grad

    @pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
    def test_record_keeps_only_the_arrays_its_backward_reads(self, name):
        kernel, arrays = KERNEL_CALLS[name]
        fresh = [a.copy() for a in arrays]
        inputs = [T.Tensor(a, requires_grad=True) for a in fresh]  # no copy
        with T.Tape() as tape:
            out = kernel(*inputs)
        refs = dict(zip(range(len(fresh)), map(weakref.ref, fresh)))
        refs["out"] = weakref.ref(out.data)
        del fresh, inputs, out
        gc.collect()
        assert len(tape) == 1
        assert {key for key, ref in refs.items() if ref() is not None} == KEPT_ARRAYS[name]


class TestTruncatedNormal:
    @pytest.mark.parametrize("shape", [(1,), (7, 5), (2, 3, 4), (192, 768), (0, 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_rescanning_oracle_and_leaves_the_same_generator_state(
            self, seed, shape):
        # redrawing only the positions still out of range draws the same
        # numbers, in the same order, as rescanning the whole array each round
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        x, want = T.truncated_normal(ours, shape), _truncated_normal(ref, shape)
        assert x.shape == want.shape and x.tobytes() == want.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
        assert np.abs(x).max(initial=0.0) <= 0.04
