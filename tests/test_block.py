"""Dependency-block behavior against an independently written numpy oracle.

The oracle below re-derives the whole forward pass in plain numpy without
touching the package's kernels, so agreement is a genuine two-route check.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from depvit import ShapeError
from depvit import tensor as tn
from depvit.block import (
    BlockWeights,
    block_forward,
    block_parameter_shapes,
    block_probe_loss,
    head_selector,
    init_block_weights,
    message_controller,
    reverse_compose,
    forward_attention,
    send_messages,
)
from oracles import explicit_block_init, replay_tape, reversed_mask


def np_softmax(z, axis=-1):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def np_gelu(x):
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def np_layer_norm(x, gain, bias, eps=1e-6):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def np_reverse_block(x, w, heads, gate_prev, temperature):
    """Straight-line numpy re-derivation of the reversed dependency block."""
    n, c = x.shape
    ch = c // heads
    xn = np_layer_norm(x, w["ln1_gain"], w["ln1_bias"])
    q, k, v = xn @ w["w_q"], xn @ w["w_k"], xn @ w["w_v"]
    probs = np_softmax(xn @ w["w_head"] / temperature)
    hidden = np_gelu(xn @ w["gate_w1"])
    gate = 1.0 / (1.0 + np.exp(-(hidden @ w["gate_w2"]).reshape(-1)))
    m = gate_prev * gate
    outs = []
    mask = np.zeros((n, n))
    for h in range(heads):
        qh, kh, vh = (t[:, h * ch:(h + 1) * ch] for t in (q, k, v))
        a = np_softmax(qh @ kh.T / math.sqrt(ch))
        rev = a.T * (probs[:, h] * m)[None, :]
        mask += rev
        outs.append(rev @ vh)
    x_mid = x + np.concatenate(outs, axis=-1) @ w["w_o"]
    xn2 = np_layer_norm(x_mid, w["ln2_gain"], w["ln2_bias"])
    x_out = x_mid + np_gelu(xn2 @ w["ffn_w1"]) @ w["ffn_w2"]
    return x_out, m, mask, probs, gate


def make_block(rng, channels=16, heads=4, dtype=np.float64):
    bw = init_block_weights(channels, heads, rng, dtype=dtype)
    raw = {k: t.data.copy() for k, t in bw.named_tensors().items()}
    return bw, raw


class TestBlockWeights:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_is_byte_equal_to_explicit_reference(self, dtype):
        bw = init_block_weights(16, 4, np.random.default_rng(5), dtype=dtype)
        ref = explicit_block_init(16, 4, np.random.default_rng(5), dtype=dtype)
        got = bw.named_tensors()
        assert list(got) == list(ref) == list(block_parameter_shapes(16, 4))
        for name, arr in ref.items():
            t = got[name].data
            assert (t.dtype, t.shape) == (arr.dtype, arr.shape), name
            assert t.tobytes() == arr.tobytes(), name
        assert got["ln1_gain"].data is not got["ln2_gain"].data

    def test_head_count_comes_from_the_selector(self):
        shapes = block_parameter_shapes(8, 2)
        bw = BlockWeights(**{name: tn.tensor(np.zeros(shape)) for name, shape in shapes.items()})
        assert (bw.channels, bw.heads) == (8, 2)

    @pytest.mark.parametrize("channels, heads", [(16, 3), (15, 3), (16, 0)])
    def test_init_rejects_bad_width(self, channels, heads):
        with pytest.raises(ShapeError):
            init_block_weights(channels, heads, np.random.default_rng(0))


class TestReverseComposition:
    def test_two_token_hand_case(self):
        # A_F = [[.7,.3],[.4,.6]], single head with prob 1, gates [.5, 2],
        # values [[1, 2], [3, -1]].  Worked out by hand below:
        # reversed[j][i] = A_F[i][j] * gate[i] = [[.35, .8], [.15, 1.2]], and
        # reversed @ values = [[.35 + 2.4, .7 - .8], [.15 + 3.6, .3 - 1.2]].
        a = tn.tensor([[[0.7, 0.3], [0.4, 0.6]]], dtype=np.float64)
        p = tn.tensor([[1.0], [1.0]], dtype=np.float64)
        m = tn.tensor([0.5, 2.0], dtype=np.float64)
        v = tn.tensor([[[1.0, 2.0], [3.0, -1.0]]], dtype=np.float64)
        send_rows, mask = reverse_compose(a, p, m)
        np.testing.assert_array_equal(send_rows.data, [[[0.5, 2.0]]])
        np.testing.assert_allclose(mask, [[0.35, 0.8], [0.15, 1.2]], rtol=1e-12)
        np.testing.assert_allclose(send_messages(a, v, send_rows).data,
                                   [[[2.75, -0.1], [3.75, -0.9]]], rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads, n", [
        (1, 1), (1, 5), (4, 1), (4, 6), (3, 7), (2, 40), (6, 64), (9, 97), (12, 150),
        (1, 200), (12, 200), pytest.param(12, 1024, marks=pytest.mark.slow),
    ])
    def test_mask_is_byte_equal_to_the_head_sum_oracle(self, dtype, heads, n):
        rng = np.random.default_rng(heads * 10 + n)
        attn = rng.uniform(0.0, 1.0, size=(heads, n, n)).astype(dtype)
        probs = rng.uniform(0.0, 1.0, size=(n, heads)).astype(dtype)
        gate = rng.uniform(0.0, 1.0, size=n).astype(dtype)
        tiny = np.finfo(dtype).smallest_subnormal  # subnormal and -0.0 entries
        attn.flat[::5] = tiny * rng.integers(1, 1000, size=attn.flat[::5].size)
        attn.flat[1::7] = -0.0
        probs.flat[::3] = tiny * 7
        send = (probs * gate[:, None]).T
        with tn.Tape():
            send_rows, mask = reverse_compose(*(tn.Tensor(a, requires_grad=True)
                                                for a in (attn, probs, gate)))
        assert send_rows.requires_grad
        assert type(mask) is np.ndarray  # untaped: no loss reads the mask
        assert send_rows.data.tobytes() == send.tobytes()
        # The oracle keeps a -0.0 where every head's term is -0.0; the
        # contraction sums from +0.0.
        want = reversed_mask(attn, send) + 0.0
        assert mask.dtype == want.dtype and mask.shape == want.shape
        assert mask.flags.c_contiguous
        assert mask.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_columns_sum_to_gate(self, seed):
        # Rows of each head table sum to 1 and head probs sum to 1 over
        # heads, so column i of the mask must total exactly gate[i].
        rng = np.random.default_rng(seed)
        bw, _ = make_block(rng)
        x = tn.tensor(rng.normal(size=(6, 16)), dtype=np.float64)
        xn = tn.layer_norm(x, bw.ln1_gain, bw.ln1_bias)
        attn, _ = forward_attention(xn, bw)
        probs = head_selector(xn, bw.w_head)
        m = tn.tensor(rng.uniform(0.1, 1.0, size=6), dtype=np.float64)
        _, mask = reverse_compose(attn, probs, m)
        np.testing.assert_allclose(mask.sum(axis=0), m.data, atol=1e-12)

    def test_single_head_unit_gate_is_column_stochastic(self):
        rng = np.random.default_rng(3)
        bw, _ = make_block(rng, channels=12, heads=1)
        x = tn.tensor(rng.normal(size=(5, 12)), dtype=np.float64)
        xn = tn.layer_norm(x, bw.ln1_gain, bw.ln1_bias)
        attn, _ = forward_attention(xn, bw)
        probs = head_selector(xn, bw.w_head)
        np.testing.assert_allclose(probs.data, np.ones((5, 1)))  # one head
        ones = tn.tensor(np.ones(5), dtype=np.float64)
        _, mask = reverse_compose(attn, probs, ones)
        np.testing.assert_allclose(mask.sum(axis=0), np.ones(5), atol=1e-6)

    def test_mask_entry_bounded_by_sender_gate(self):
        rng = np.random.default_rng(4)
        bw, _ = make_block(rng)
        x = tn.tensor(rng.normal(size=(7, 16)), dtype=np.float64)
        xn = tn.layer_norm(x, bw.ln1_gain, bw.ln1_bias)
        attn, _ = forward_attention(xn, bw)
        probs = head_selector(xn, bw.w_head)
        m = tn.tensor(rng.uniform(0.0, 1.0, size=7), dtype=np.float64)
        _, mask = reverse_compose(attn, probs, m)
        assert (mask <= m.data[None, :] + 1e-6).all()


class TestBlockForward:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_numpy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        bw, raw = make_block(rng)
        x_np = rng.normal(size=(6, 16))
        gate_prev_np = rng.uniform(0.2, 1.0, size=6)
        x = tn.tensor(x_np, dtype=np.float64)
        gp = tn.tensor(gate_prev_np, dtype=np.float64)
        out, gate_cum, state = block_forward(x, bw, gp)
        ex_out, ex_m, ex_mask, ex_probs, ex_gate = np_reverse_block(
            x_np, raw, 4, gate_prev_np, 0.1
        )
        np.testing.assert_allclose(out.data, ex_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gate_cum.data, ex_m, rtol=1e-12)
        np.testing.assert_allclose(state.mask, ex_mask, rtol=1e-10, atol=1e-14)
        xn = tn.layer_norm(x, bw.ln1_gain, bw.ln1_bias)
        probs = head_selector(xn, bw.w_head)
        gate, _ = message_controller(xn, bw.gate_w1, bw.gate_w2, gp)
        np.testing.assert_allclose(probs.data, ex_probs, rtol=1e-10)
        np.testing.assert_allclose(gate.data, ex_gate, rtol=1e-12)

    def test_tape_keeps_no_attention_sized_array_but_the_stack(self):
        # Every (H, N, N) array a record's backward holds is the one
        # attention stack that softmax produced; reversed attention adds none.
        rng = np.random.default_rng(9)
        bw, _ = make_block(rng)  # C = 16, H = 4, so C/H = 4 != N
        x = tn.tensor(rng.normal(size=(6, 16)), dtype=np.float64)
        with tn.Tape() as tape:
            block_forward(x, bw, tn.tensor(np.ones(6), dtype=np.float64))
        held = {id(cell.cell_contents) for rec in tape._records
                for cell in rec.backward.__closure__ or ()
                if isinstance(cell.cell_contents, np.ndarray)
                and cell.cell_contents.shape == (4, 6, 6)}
        assert len(held) == 1

    def test_gate_never_increases(self):
        rng = np.random.default_rng(5)
        bw, _ = make_block(rng)
        x = tn.tensor(rng.normal(size=(6, 16)), dtype=np.float64)
        gate = tn.tensor(np.ones(6), dtype=np.float64)
        for _ in range(4):
            prev = gate.data.copy()
            x, gate, _ = block_forward(x, bw, gate)
            assert (gate.data <= prev + 1e-12).all()
            assert (gate.data > 0).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        bw, _ = make_block(rng)
        x_np = rng.normal(size=(8, 16))
        gp_np = rng.uniform(0.3, 1.0, size=8)
        perm = rng.permutation(8)
        out, gate, state = block_forward(
            tn.tensor(x_np, dtype=np.float64), bw, tn.tensor(gp_np, dtype=np.float64)
        )
        out_p, gate_p, state_p = block_forward(
            tn.tensor(x_np[perm], dtype=np.float64), bw,
            tn.tensor(gp_np[perm], dtype=np.float64),
        )
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)
        np.testing.assert_allclose(gate_p.data, gate.data[perm], atol=1e-12)
        np.testing.assert_allclose(state_p.mask, state.mask[np.ix_(perm, perm)], atol=1e-12)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        bw, _ = make_block(rng)
        x = tn.tensor(np.zeros((4, 8)), dtype=np.float64)
        with pytest.raises(ShapeError):
            block_forward(x, bw, tn.tensor(np.ones(4), dtype=np.float64))

    def test_selector_and_controller_shapes(self):
        rng = np.random.default_rng(8)
        bw, _ = make_block(rng)
        x = tn.tensor(rng.normal(size=(5, 16)), dtype=np.float64)
        xn = tn.layer_norm(x, bw.ln1_gain, bw.ln1_bias)
        probs = head_selector(xn, bw.w_head)
        assert probs.shape == (5, 4)
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(5), atol=1e-12)
        gate, cum = message_controller(xn, bw.gate_w1, bw.gate_w2,
                                       tn.tensor(np.ones(5), dtype=np.float64))
        assert gate.shape == (5,) and cum.shape == (5,)
        assert ((gate.data > 0) & (gate.data < 1)).all()


class TestPooling:
    def test_uniform_gates_give_mean(self):
        rng = np.random.default_rng(9)
        toks = tn.tensor(rng.normal(size=(6, 4)), dtype=np.float64)
        pooled = tn.weighted_mean_rows(toks, tn.tensor(np.ones(6), dtype=np.float64))
        np.testing.assert_allclose(pooled.data, toks.data.mean(axis=0), rtol=1e-12)

    def test_pool_is_convex_combination(self):
        rng = np.random.default_rng(10)
        toks = tn.tensor(rng.uniform(0, 1, size=(5, 3)), dtype=np.float64)
        g = tn.tensor(rng.uniform(0.01, 1, size=5), dtype=np.float64)
        pooled = tn.weighted_mean_rows(toks, g)
        assert (pooled.data >= toks.data.min(axis=0) - 1e-12).all()
        assert (pooled.data <= toks.data.max(axis=0) + 1e-12).all()

    def test_single_dominant_gate_selects_token(self):
        toks = tn.tensor([[1.0, 2.0], [10.0, 20.0]], dtype=np.float64)
        g = tn.tensor([1e-12, 1.0], dtype=np.float64)
        pooled = tn.weighted_mean_rows(toks, g)
        np.testing.assert_allclose(pooled.data, [10.0, 20.0], rtol=1e-9)


class TestBlockGradients:
    def test_full_block_gradcheck(self):
        # Every weight, the input tokens and the incoming gate all get
        # checked against float64 central differences in one pass.
        rng = np.random.default_rng(11)
        bw, _ = make_block(rng, channels=8, heads=2)
        x = tn.tensor(rng.normal(size=(4, 8)), dtype=np.float64)
        gp = tn.tensor(rng.uniform(0.3, 1.0, size=4), dtype=np.float64)
        inputs = [x, gp] + list(bw.named_tensors().values())
        report = tn.grad_check(lambda ts: block_probe_loss(ts, bw), inputs)
        assert report.passed, f"max rel error {report.max_rel_error}"
        assert report.max_rel_error < 1e-4

    def test_gate_prev_receives_gradient(self):
        rng = np.random.default_rng(12)
        bw, _ = make_block(rng, channels=8, heads=2)
        x = tn.tensor(rng.normal(size=(4, 8)), dtype=np.float64, requires_grad=True)
        gp = tn.tensor(rng.uniform(0.3, 1.0, size=4), dtype=np.float64, requires_grad=True)
        inputs = [x, gp] + list(bw.named_tensors().values())
        with tn.Tape() as tape:
            loss = block_probe_loss(inputs, bw)
        g_x, g_gp = tape.gradients(loss, [x, gp])
        assert np.abs(g_gp).max() > 0
        assert np.abs(g_x).max() > 0

    @staticmethod
    def probe_inputs(seed):
        rng = np.random.default_rng(seed)
        bw, _ = make_block(rng, channels=8, heads=2)
        x = tn.tensor(rng.normal(size=(5, 8)), dtype=np.float64, requires_grad=True)
        gp = tn.tensor(rng.uniform(0.3, 1.0, size=5), dtype=np.float64, requires_grad=True)
        return bw, [x, gp] + list(bw.named_tensors().values())

    @staticmethod
    def probe(bw, inputs, monkeypatch, shift=None):
        """``block_probe_loss`` and x_norm, the block's first layer-norm
        output, to which ``shift`` is added when one is given."""
        norms = []
        layer_norm = tn.layer_norm

        def recording_layer_norm(*args, **kwargs):
            out = layer_norm(*args, **kwargs)
            if not norms and shift is not None:
                out = tn.add(out, shift)
            norms.append(out)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(tn, "layer_norm", recording_layer_norm)
            loss = block_probe_loss(inputs, bw)
        return loss, norms[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_a_replay_that_frees_nothing(self, seed, monkeypatch):
        # An intermediate and a repeated tensor in ``wrt`` must not lose
        # contributions when the other intermediates' gradients are freed,
        # and a tensor the loss never reads gets zeros.
        bw, inputs = self.probe_inputs(seed)
        with tn.Tape() as tape:
            loss, x_norm = self.probe(bw, inputs, monkeypatch)
        unused = tn.tensor(np.ones((2, 3)), dtype=np.float64, requires_grad=True)
        wrt = [x_norm, *inputs, inputs[0], unused]
        got = tape.gradients(loss, wrt)
        want = replay_tape(tape._records, loss, wrt)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert np.abs(got[0]).max() > 0
        assert got[1].tobytes() == got[-2].tobytes()
        assert got[-1].shape == (2, 3) and not got[-1].any()
        plain = tape.gradients(loss, inputs)
        assert [g.tobytes() for g in plain] == [g.tobytes() for g in got[1:-2]]

    def test_replaying_a_tape_twice_gives_the_same_bytes(self, monkeypatch):
        bw, inputs = self.probe_inputs(3)
        with tn.Tape() as tape:
            loss, x_norm = self.probe(bw, inputs, monkeypatch)
        wrt = [x_norm, *inputs]
        first = [g.tobytes() for g in tape.gradients(loss, wrt)]
        assert [g.tobytes() for g in tape.gradients(loss, wrt)] == first

    def test_intermediate_gradient_matches_central_differences(self, monkeypatch):
        # d loss / d x_norm is d loss / d shift for x_norm + shift at
        # shift = 0, which grad_check can perturb directly
        bw, inputs = self.probe_inputs(4)
        with tn.Tape() as tape:
            loss, x_norm = self.probe(bw, inputs, monkeypatch)
        (g_norm,) = tape.gradients(loss, [x_norm])
        shift = tn.tensor(np.zeros((5, 8)), dtype=np.float64, requires_grad=True)
        report = tn.grad_check(
            lambda ts: self.probe(bw, inputs, monkeypatch, shift=ts[0])[0], [shift])
        assert report.max_rel_error < 1e-6
        with tn.Tape() as tape:
            loss, _ = self.probe(bw, inputs, monkeypatch, shift=shift)
        (g_shift,) = tape.gradients(loss, [shift])
        assert g_shift.tobytes() == g_norm.tobytes()

    def test_editing_state_mask_leaves_gradients_unchanged(self):
        # The state holds the mask array the block computed, not a copy;
        # no backward closure may read it.
        rng = np.random.default_rng(13)
        bw, _ = make_block(rng, channels=8, heads=2)
        x0, gp0 = rng.normal(size=(5, 8)), rng.uniform(0.3, 1.0, size=5)

        def gradients(edit):
            x = tn.tensor(x0, dtype=np.float64, requires_grad=True)
            gp = tn.tensor(gp0, dtype=np.float64, requires_grad=True)
            wrt = [x, gp] + list(bw.named_tensors().values())
            with tn.Tape() as tape:
                x_out, gate_cum, state = block_forward(x, bw, gp)
                loss = tn.sum_squares(tn.weighted_mean_rows(x_out, gate_cum))
            if edit:
                state.mask *= -3.0
                state.mask[0, :] = 7.0
            return tape.gradients(loss, wrt)

        for plain, edited in zip(gradients(False), gradients(True)):
            assert plain.tobytes() == edited.tobytes()
