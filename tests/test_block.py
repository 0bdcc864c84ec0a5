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
    block_probe_loss,
    head_selector,
    init_block_weights,
    message_controller,
    pool_tokens,
    reverse_compose,
    forward_attention,
)


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


class TestReverseComposition:
    def test_two_token_hand_case(self):
        # A_F = [[.7,.3],[.4,.6]], single head with prob 1, gates [.5, 2]:
        # reversed[j][i] = A_F[i][j] * gate[i], worked out by hand below.
        a = tn.tensor([[[0.7, 0.3], [0.4, 0.6]]], dtype=np.float64)
        p = tn.tensor([[1.0], [1.0]], dtype=np.float64)
        m = tn.tensor([0.5, 2.0], dtype=np.float64)
        rev, mask = reverse_compose(a, p, m)
        expected = [[0.35, 0.8], [0.15, 1.2]]
        np.testing.assert_allclose(rev.data[0], expected, rtol=1e-12)
        np.testing.assert_allclose(mask.data, expected, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_columns_sum_to_gate(self, seed):
        # Rows of each head table sum to 1 and head probs sum to 1 over
        # heads, so column i of the mask must total exactly gate[i].
        rng = np.random.default_rng(seed)
        bw, _ = make_block(rng)
        x = tn.tensor(rng.normal(size=(6, 16)), dtype=np.float64)
        xn = tn.layer_norm(x, bw.ln1_gain, bw.ln1_bias)
        attn, _ = forward_attention(xn, bw)
        probs = head_selector(xn, bw.w_head, 0.1)
        m = tn.tensor(rng.uniform(0.1, 1.0, size=6), dtype=np.float64)
        _, mask = reverse_compose(attn, probs, m)
        np.testing.assert_allclose(mask.data.sum(axis=0), m.data, atol=1e-12)

    def test_single_head_unit_gate_is_column_stochastic(self):
        rng = np.random.default_rng(3)
        bw, _ = make_block(rng, channels=12, heads=1)
        x = tn.tensor(rng.normal(size=(5, 12)), dtype=np.float64)
        xn = tn.layer_norm(x, bw.ln1_gain, bw.ln1_bias)
        attn, _ = forward_attention(xn, bw)
        probs = head_selector(xn, bw.w_head, 0.1)
        np.testing.assert_allclose(probs.data, np.ones((5, 1)))  # one head
        ones = tn.tensor(np.ones(5), dtype=np.float64)
        _, mask = reverse_compose(attn, probs, ones)
        np.testing.assert_allclose(mask.data.sum(axis=0), np.ones(5), atol=1e-6)

    def test_mask_entry_bounded_by_sender_gate(self):
        rng = np.random.default_rng(4)
        bw, _ = make_block(rng)
        x = tn.tensor(rng.normal(size=(7, 16)), dtype=np.float64)
        xn = tn.layer_norm(x, bw.ln1_gain, bw.ln1_bias)
        attn, _ = forward_attention(xn, bw)
        probs = head_selector(xn, bw.w_head, 0.1)
        m = tn.tensor(rng.uniform(0.0, 1.0, size=7), dtype=np.float64)
        _, mask = reverse_compose(attn, probs, m)
        assert (mask.data <= m.data[None, :] + 1e-6).all()


class TestBlockForward:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_numpy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        bw, raw = make_block(rng)
        x_np = rng.normal(size=(6, 16))
        gate_prev_np = rng.uniform(0.2, 1.0, size=6)
        x = tn.tensor(x_np, dtype=np.float64)
        gp = tn.tensor(gate_prev_np, dtype=np.float64)
        out, gate_cum, state = block_forward(x, bw, gp, temperature=0.1)
        ex_out, ex_m, ex_mask, ex_probs, ex_gate = np_reverse_block(
            x_np, raw, 4, gate_prev_np, 0.1
        )
        np.testing.assert_allclose(out.data, ex_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gate_cum.data, ex_m, rtol=1e-12)
        np.testing.assert_allclose(state.mask, ex_mask, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(state.head_probs, ex_probs, rtol=1e-10)
        np.testing.assert_allclose(state.gate, ex_gate, rtol=1e-12)

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
        probs = head_selector(xn, bw.w_head, 0.1)
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
        pooled = pool_tokens(toks, tn.tensor(np.ones(6), dtype=np.float64))
        np.testing.assert_allclose(pooled.data, toks.data.mean(axis=0, keepdims=True),
                                   rtol=1e-12)

    def test_pool_is_convex_combination(self):
        rng = np.random.default_rng(10)
        toks = tn.tensor(rng.uniform(0, 1, size=(5, 3)), dtype=np.float64)
        g = tn.tensor(rng.uniform(0.01, 1, size=5), dtype=np.float64)
        pooled = pool_tokens(toks, g)
        assert (pooled.data >= toks.data.min(axis=0) - 1e-12).all()
        assert (pooled.data <= toks.data.max(axis=0) + 1e-12).all()

    def test_single_dominant_gate_selects_token(self):
        toks = tn.tensor([[1.0, 2.0], [10.0, 20.0]], dtype=np.float64)
        g = tn.tensor([1e-12, 1.0], dtype=np.float64)
        pooled = pool_tokens(toks, g)
        np.testing.assert_allclose(pooled.data, [[10.0, 20.0]], rtol=1e-9)


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
                loss = tn.sum_squares(pool_tokens(x_out, gate_cum))
            if edit:
                state.mask *= -3.0
                state.mask[0, :] = 7.0
            return tape.gradients(loss, wrt)

        for plain, edited in zip(gradients(False), gradients(True)):
            assert plain.tobytes() == edited.tobytes()
