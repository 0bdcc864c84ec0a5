"""Brute-force reference implementations shared by unit and acceptance tests.

Everything here is deliberately naive: exhaustive enumeration, dense
eigendecompositions and one fresh array per arithmetic step.  None of it may
import the package's own algorithms.
"""

import itertools
import math

import numpy as np
import scipy.linalg
from scipy.special import erf


def brute_best_arborescence(scores: np.ndarray, root_scores: np.ndarray):
    """Exhaustive maximum over all single-root spanning arborescences.

    Enumerates every parent assignment (parent of c is the virtual root or
    any other node), keeps the ones that form a tree with exactly one root,
    and scores them.  Returns (best_total, best_parents, n_optima).
    """
    n = root_scores.size
    choices = [np.array([-1] + [p for p in range(n) if p != c]) for c in range(n)]
    grids = np.meshgrid(*[np.arange(len(ch)) for ch in choices], indexing="ij")
    assign = np.stack(
        [choices[c][grids[c].ravel()] for c in range(n)], axis=1
    )
    assign = assign[(assign == -1).sum(axis=1) == 1]

    cur = assign.copy()
    for _ in range(n):
        live = cur >= 0
        rows, _ = np.nonzero(live)
        nxt = cur.copy()
        nxt[live] = assign[rows, cur[live]]
        cur = nxt
    assign = assign[(cur == -1).all(axis=1)]

    cols = np.broadcast_to(np.arange(n), assign.shape)
    per_edge = np.where(
        assign == -1,
        np.broadcast_to(root_scores, assign.shape),
        scores[np.clip(assign, 0, None), cols],
    )
    totals = np.array([float(np.sum(row)) for row in per_edge])
    best = int(np.argmax(totals))
    n_opt = int((totals == totals[best]).sum())
    return totals[best], assign[best], n_opt



# The level-rebuild arborescence solver, kept as the reference for the
# incremental one in ``depvit.tree``: each contraction level rebuilds the
# whole (k+1) x (k+1) level matrix.  ``_max_arborescence`` is verbatim;
# the two helpers are copied without the package's argument checks.

_NEG = -np.inf


def argmax_graph(mask: np.ndarray) -> np.ndarray:
    w = mask.copy()
    np.fill_diagonal(w, _NEG)
    return np.argmax(w, axis=0).astype(np.int64)


def _find_cycle(parent: np.ndarray) -> np.ndarray:
    """The cycle reached by following parents from node 0; every node has a parent."""
    parent = parent.tolist()
    seen_at: dict[int, int] = {}
    v = 0
    while v not in seen_at:
        seen_at[v] = len(seen_at)
        v = parent[v]
    walk = list(seen_at)
    return np.sort(np.array(walk[seen_at[v]:], dtype=np.int64))


def _max_arborescence(w: np.ndarray, root_w: np.ndarray) -> np.ndarray:
    """Best parents with exactly one root, in one contraction pass.

    ``w[p][c]`` scores edge p -> c and ``root_w[c]`` makes c the root.  While
    two or more (super)nodes remain, each takes its greedy parent among the
    others; that graph always holds a cycle, which is contracted into a
    supernode whose entering edges (its root edge included) are rescored by
    how much they improve on the cycle edge they replace.  The last node left
    takes its root edge, and the levels are expanded back out.  Root edges are
    only ever compared with each other, so the single-root constraint needs no
    penalty constant and no second solve.
    """
    levels = []
    while w.shape[0] > 1:
        parent = argmax_graph(w)
        cyc = _find_cycle(parent)
        keep = np.setdiff1d(np.arange(w.shape[0]), cyc)
        k = keep.size
        cycle_cost = w[parent[cyc], cyc]
        enter = w[np.ix_(keep, cyc)] - cycle_cost
        leave = w[np.ix_(cyc, keep)]
        root_gain = root_w[cyc] - cycle_cost
        levels.append((
            parent, keep, cyc[enter.argmax(axis=1)], cyc[leave.argmax(axis=0)],
            cyc[root_gain.argmax()],
        ))
        sub = np.empty((k + 1, k + 1))
        sub[:k, :k] = w[np.ix_(keep, keep)]
        sub[:k, k] = enter.max(axis=1)
        sub[k, :k] = leave.max(axis=0)
        sub[k, k] = _NEG
        w = sub
        root_w = np.append(root_w[keep], root_gain.max())

    out = np.array([-1], dtype=np.int64)
    for parent, keep, enter_at, leave_from, root_at in reversed(levels):
        k = keep.size
        sub_parent, sup_parent = out[:k], out[k]
        out = parent.copy()  # cycle edges kept, except where the cycle is entered
        lifted = np.append(keep, -1)[sub_parent]  # the root's -1 stays -1
        out[keep] = np.where(sub_parent == k, leave_from, lifted)
        if sup_parent == -1:
            out[root_at] = -1
        else:
            out[enter_at[sup_parent]] = keep[sup_parent]
    return out


def level_rebuild_arborescence(scores: np.ndarray, root_scores: np.ndarray) -> np.ndarray:
    """Parents from the level-rebuild solver, on float64 copies of the inputs."""
    return _max_arborescence(np.asarray(scores, dtype=np.float64),
                             np.asarray(root_scores, dtype=np.float64))

def brute_best_assignment(score: np.ndarray):
    """All injective part->truth matchings by permutation enumeration.

    Returns (best_total, set_of_optimal_pair_sets).  Pairs are (row, col).
    """
    p, g = score.shape
    k = min(p, g)
    best = -np.inf
    optima = []
    rows = range(p)
    for chosen_rows in itertools.combinations(rows, k):
        for cols in itertools.permutations(range(g), k):
            total = sum(score[r, c] for r, c in zip(chosen_rows, cols))
            if total > best + 1e-15:
                best = total
                optima = [frozenset(zip(chosen_rows, cols))]
            elif abs(total - best) <= 1e-15:
                optima.append(frozenset(zip(chosen_rows, cols)))
    return best, optima


def dense_fiedler(w: np.ndarray) -> np.ndarray:
    """Second-smallest generalized eigenvector of (D - W, D), unit norm.

    Solved with scipy's dense symmetric eigensolver on the normalized
    Laplacian, mapped back through D^{-1/2}.
    """
    d = w.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    lsym = np.eye(len(w)) - (w * inv_sqrt[:, None]) * inv_sqrt[None, :]
    lsym = 0.5 * (lsym + lsym.T)
    vals, vecs = scipy.linalg.eigh(lsym)
    u = vecs[:, 1]
    f = inv_sqrt * u
    return f / np.linalg.norm(f)


def ledger_parents(ledger) -> list[np.ndarray]:
    """Each event's parents: the ascending ids of every token still alive
    right after it, from Python sets over the whole token range."""
    alive = set(range(ledger.n_tokens))
    out = []
    for e in ledger.events:
        alive.discard(e.token)
        out.append(np.array(sorted(alive), dtype=np.int64))
    return out


def explicit_retrieve_dense(final_tokens, ledger) -> np.ndarray:
    """Reverse replay that gathers each event's parents by id, as the
    ledger did when every event stored its ``parents``."""
    n = ledger.n_tokens
    c = final_tokens.shape[1]
    out = np.zeros((n, c), dtype=final_tokens.dtype)
    out[sorted(set(range(n)) - {e.token for e in ledger.events})] = final_tokens
    for e, parents in zip(reversed(ledger.events), reversed(ledger_parents(ledger))):
        terms = e.shares[:, None] * out[parents]
        total = np.add.reduce(terms, axis=0) if c != 1 else np.cumsum(terms[:, 0])[-1:]
        out[e.token] = total + 0.0
    return out


def explicit_expand_state_mask(state, ledger) -> np.ndarray:
    """Full-size mask that writes each column pruned before the block at its
    parents' ids, the tokens before the block picked with a Python set."""
    idx = state.token_indices
    alive = set(idx.tolist())
    n = ledger.n_tokens
    full = np.zeros((n, n), dtype=np.float64)
    full[np.ix_(idx, idx)] = state.mask
    for e, parents in zip(ledger.events, ledger_parents(ledger)):
        if e.token not in alive:
            full[parents, e.token] = e.gate * e.shares
    return full


def ledger_fault(n_tokens: int, events) -> str | None:
    """First fault of a prune journal, or None when it is valid.

    The reference for ``PruneLedger.validate``: one Python pass over every
    event and every share, with the alive tokens held as a set.  ``events``
    are objects with ``layer``, ``token``, ``gate`` and a ``shares`` array,
    one share per token alive right after the event.
    """
    if n_tokens < 1:
        return "ledger needs n_tokens >= 1"
    alive = set(range(n_tokens))
    seen = set()
    last_layer = 0
    for e in events:
        shares = e.shares.tolist()
        if not 0 <= e.token < n_tokens:
            return f"event token {e.token} out of range"
        if e.layer < 1:
            return f"event layer {e.layer} must be >= 1"
        if not 0.0 <= e.gate <= 1.0 + 1e-6:
            return f"event gate {e.gate} outside [0, 1]"
        alive.discard(e.token)
        if not alive or len(shares) != len(alive):
            return f"token {e.token} has {len(shares)} shares for {len(alive)} alive tokens"
        total = 0.0
        for wgt in shares:
            if not np.isfinite(wgt) or wgt < -1e-12:
                return f"parent share {wgt} is negative or not finite"
            total += wgt
        if abs(total - 1.0) > 1e-6:
            return f"parent shares sum to {total}, expected 1"
        if e.token in seen:
            return f"token {e.token} pruned twice"
        if e.layer < last_layer:
            return "events out of chronological order"
        seen.add(e.token)
        last_layer = e.layer
    return None


# Row kernels and the reversed-stack product, forward and backward, one
# fresh array per step.  Each takes the input arrays plus the output
# gradient ``g`` and returns the output followed by the input gradients;
# the tensor kernels must match them bit for bit.

def softmax_rows_kernel(x, temperature, g):
    z = x / x.dtype.type(temperature)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    inner = (g * y).sum(axis=-1, keepdims=True)
    return y, y * (g - inner) / temperature


def gelu_kernel(x, g):
    phi = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    y = (x * phi).astype(x.dtype, copy=False)
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return y, g * (phi + x * pdf)


def sigmoid_kernel(x, g):
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return y, g * y * (1.0 - y)


def layer_norm_kernel(x, gain, bias, g, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv
    y = xhat * gain + bias
    lead = tuple(range(g.ndim - 1))
    gy = g * gain
    m1 = gy.mean(axis=-1, keepdims=True)
    m2 = (gy * xhat).mean(axis=-1, keepdims=True)
    gx = (gy - m1 - xhat * m2) * inv
    return y, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def reversed_mask(attn, send):
    """Soft dependency mask of an (H, N, N) attention stack and (H, N) send
    weights: the sum over heads, in head order, of ``attn[h]ᵀ`` with column
    i scaled by ``send[h][i]``, one fresh array per step."""
    mask = attn[0].T * send[0]
    for h in range(1, attn.shape[0]):
        mask = mask + attn[h].T * send[h]
    return mask


def replay_tape(records, loss, wrt):
    """Reverse replay of a tape's records that keeps every gradient until it
    returns and sums each further contribution into a fresh array: the
    summation order ``Tape.gradients`` must reproduce bit for bit."""
    acc = {loss.serial: np.ones_like(loss.data)}
    for out, inputs, backward in reversed(records):
        if out not in acc:
            continue
        for key, g in zip(inputs, backward(acc[out])):
            if g is not None:
                acc[key] = acc[key] + g if key in acc else g
    return [acc[t.serial].astype(t.dtype, copy=False) if t.serial in acc
            else np.zeros_like(t.data) for t in wrt]


# Weight initialization spelled out tensor by tensor, as it was before the
# shape tables drove it.  Each matrix is drawn in keyword order, which is the
# RNG draw order; the dicts come back in the old ``named_tensors`` order
# (top-level tensors first, then the blocks), which was also the old entry
# order of a saved weights container.

def _truncated_normal(rng, shape, std=0.02):
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return x * std


def explicit_block_init(channels, heads, rng, dtype=np.float32) -> dict:
    def w(*shape):
        return _truncated_normal(rng, shape).astype(dtype)

    c = channels
    ones = np.ones(c).astype(dtype)
    zeros = np.zeros(c).astype(dtype)
    return dict(
        w_q=w(c, c), w_k=w(c, c), w_v=w(c, c), w_o=w(c, c),
        w_head=w(c, heads), gate_w1=w(c, c // 2), gate_w2=w(c // 2, 1),
        ffn_w1=w(c, 4 * c), ffn_w2=w(4 * c, c),
        ln1_gain=ones, ln1_bias=zeros,
        ln2_gain=ones.copy(), ln2_bias=zeros.copy(),
    )


def explicit_model_init(config, dtype=np.float32) -> dict:
    rng = np.random.default_rng(config.seed)
    c = config.channels

    def w(*shape):
        return _truncated_normal(rng, shape).astype(dtype)

    def zeros(*shape):
        return np.zeros(shape).astype(dtype)

    patch_proj = w(config.patch_dim, c)
    patch_bias = zeros(c)
    pos_table = w(config.tokens, c)
    blocks = [explicit_block_init(c, config.heads, rng, dtype=dtype)
              for _ in range(config.layers)]
    out = dict(
        patch_proj=patch_proj,
        patch_bias=patch_bias,
        pos_table=pos_table,
        final_gain=np.ones(c).astype(dtype),
        final_bias=zeros(c),
        classifier_w=w(c, config.num_classes),
        classifier_b=zeros(config.num_classes),
    )
    for i, blk in enumerate(blocks):
        for name, arr in blk.items():
            out[f"block{i:02d}.{name}"] = arr
    return out
