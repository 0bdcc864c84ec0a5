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


def ledger_fault(n_tokens: int, events) -> str | None:
    """First fault of a prune journal, or None when it is valid.

    The reference for ``PruneLedger.validate``: one Python pass over every
    event and every parent entry.  ``events`` are objects with ``layer``,
    ``token``, ``gate`` and a ``parents`` dict of index -> share.
    """
    if n_tokens < 1:
        return "ledger needs n_tokens >= 1"
    seen = set()
    last_layer = 0
    for e in events:
        if not 0 <= e.token < n_tokens:
            return f"event token {e.token} out of range"
        if e.layer < 1:
            return f"event layer {e.layer} must be >= 1"
        if not 0.0 <= e.gate <= 1.0 + 1e-6:
            return f"event gate {e.gate} outside [0, 1]"
        if not e.parents:
            return f"event for token {e.token} has no parents"
        if e.token in e.parents:
            return f"token {e.token} lists itself as parent"
        total = 0.0
        for idx, wgt in e.parents.items():
            if not 0 <= idx < n_tokens:
                return f"parent index {idx} out of range"
            if not np.isfinite(wgt) or wgt < -1e-12:
                return f"parent share {wgt} is negative or not finite"
            total += wgt
        if abs(total - 1.0) > 1e-6:
            return f"parent shares sum to {total}, expected 1"
        if e.token in seen:
            return f"token {e.token} pruned twice"
        if e.layer < last_layer:
            return "events out of chronological order"
        for idx in e.parents:
            if idx in seen:
                return f"event for token {e.token} references dead parent {idx}"
        seen.add(e.token)
        last_layer = e.layer
    return None


# Row kernels, forward and backward, one fresh array per step.  Each takes
# the input arrays plus the output gradient ``g`` and returns the output
# followed by the input gradients; the tensor kernels must match them bit
# for bit.

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
