"""Dependency-tree induction from soft dependency masks.

A mask entry mask[j][i] is the mass token i sends to candidate parent j.
Tree recovery treats that as the weight of attaching child i under parent j
and finds the maximum spanning arborescence with a virtual root whose edge
to node i is scored by i's total received mass.  All argmax tie-breaks pick
the lowest index so results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .block import AttentionState
from .errors import IntegrityError, NumericError, UsageError

_NEG = -np.inf


@dataclass
class DependencyTree:
    """Rooted arborescence over token indices.

    ``parent[i]`` is -1 exactly for the root; ``edge_weight[i]`` is the score
    of the edge into i (the root carries its root attachment score).
    ``subtree`` holds partition labels once ``partition_subtrees`` ran, -1
    before that.
    """

    parent: np.ndarray
    edge_weight: np.ndarray
    root: int
    depth: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    subtree: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.edge_weight = np.asarray(self.edge_weight, dtype=np.float64)
        if self.depth.size == 0:
            self.depth = _depths(self.parent, self.root)
        if self.subtree.size == 0:
            self.subtree = np.full(self.size, -1, dtype=np.int64)

    @property
    def size(self) -> int:
        return int(self.parent.size)

    def total_score(self) -> float:
        return float(self.edge_weight.sum())

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(self.size)]
        for v, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(v)
        return kids

    def validate(self) -> None:
        n = self.size
        roots = np.where(self.parent == -1)[0]
        if roots.size != 1 or roots[0] != self.root:
            raise IntegrityError(f"tree must have exactly one root; parent array has {roots.size}")
        if ((self.parent >= n) | (self.parent < -1)).any():
            raise IntegrityError("parent index out of range")
        _depths(self.parent, self.root)  # raises if cyclic or disconnected


def _depths(parent: np.ndarray, root: int) -> np.ndarray:
    n = parent.size
    depth = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(int(v))
    stack = [root]
    while stack:
        u = stack.pop()
        for v in kids[u]:
            if depth[v] >= 0:  # reached twice: a cycle through the root
                raise IntegrityError("parent links cycle through the root")
            depth[v] = depth[u] + 1
            stack.append(v)
    if (depth < 0).any():
        raise IntegrityError("graph is not a single tree rooted at the stated root")
    return depth


def argmax_graph(mask: np.ndarray) -> np.ndarray:
    """Greedy parent per token: the row with the largest entry in its column.

    A single token is its own root (-1).  Ties pick the lowest row index.
    The result may contain cycles; it is a graph, not yet a tree.
    """
    mask = np.asarray(mask, dtype=np.float64)
    n = mask.shape[0]
    if mask.shape != (n, n):
        raise UsageError(f"mask must be square, got {mask.shape}")
    if n == 1:
        return np.array([-1], dtype=np.int64)
    w = mask.copy()
    np.fill_diagonal(w, _NEG)
    return np.argmax(w, axis=0).astype(np.int64)


def _find_cycle(parent: np.ndarray) -> np.ndarray | None:
    """One directed cycle in a parent assignment, or None; root edges are -1."""
    m = parent.size
    color = np.zeros(m, dtype=np.int8)  # 0 new, 1 on current walk, 2 done
    for s in range(m):
        if color[s] != 0:
            continue
        walk = []
        v = s
        while v != -1 and color[v] == 0:
            color[v] = 1
            walk.append(v)
            v = int(parent[v])
        if v != -1 and color[v] == 1:
            at = walk.index(v)
            for u in walk:
                color[u] = 2
            return np.sort(np.array(walk[at:], dtype=np.int64))
        for u in walk:
            color[u] = 2
    return None


def _max_arborescence(w: np.ndarray) -> np.ndarray:
    """Greedy-contract-recurse search for the best parents; node 0 is the root.

    ``w[p][c]`` scores edge p -> c; forbidden edges are -inf.  Each recursion
    contracts one cycle of the greedy solution into a supernode, rescores
    entering edges by how much they improve on the cycle edge they replace,
    and expands the recursive answer back out.
    """
    m = w.shape[0]
    parent = np.full(m, -1, dtype=np.int64)
    for c in range(1, m):
        parent[c] = int(np.argmax(w[:, c]))
    cyc = _find_cycle(parent)
    if cyc is None:
        return parent

    in_cycle = np.zeros(m, dtype=bool)
    in_cycle[cyc] = True
    keep = np.where(~in_cycle)[0]  # node 0 can never sit on a cycle
    k = keep.size
    new_of_old = np.full(m, -1, dtype=np.int64)
    new_of_old[keep] = np.arange(k)
    sup = k  # contracted supernode index

    wp = np.full((k + 1, k + 1), _NEG)
    wp[:k, :k] = w[np.ix_(keep, keep)]
    # entering edges: replacing the cycle edge into v costs its weight back
    cycle_cost = w[parent[cyc], cyc]
    red = w[np.ix_(keep, cyc)] - cycle_cost[None, :]
    wp[:k, sup] = red.max(axis=1)
    enter_choice = cyc[np.argmax(red, axis=1)]
    # leaving edges: best cycle member to parent each outside node
    lv = w[np.ix_(cyc, keep)]
    wp[sup, :k] = lv.max(axis=0)
    leave_choice = cyc[np.argmax(lv, axis=0)]

    sub = _max_arborescence(wp)

    out = np.full(m, -1, dtype=np.int64)
    for v in cyc:
        out[v] = parent[v]  # cycle edges kept by default
    for pos, v in enumerate(keep):
        p = sub[pos]
        if p == -1:
            out[v] = -1
        elif p == sup:
            out[v] = leave_choice[pos]
        else:
            out[v] = keep[p]
    enter_from = sub[sup]
    if enter_from == -1:
        raise IntegrityError("contracted supernode has no parent")
    u = keep[enter_from]
    out[enter_choice[enter_from]] = u  # break the cycle at the entered node
    return out


def _score_of(parent: np.ndarray, w: np.ndarray) -> float:
    cs = np.arange(1, parent.size)
    return float(w[parent[cs], cs].sum())


def chu_liu_edmonds(scores: np.ndarray, root_scores: np.ndarray) -> DependencyTree:
    """Maximum spanning arborescence with exactly one child of the virtual root.

    ``scores[p][c]`` is the gain of attaching c under p; ``root_scores[c]``
    the gain of making c the tree root.  If the unconstrained optimum hangs
    more than one node off the virtual root, each candidate root is tried
    with the others disabled and the best total wins (lowest index on ties).
    """
    scores = np.asarray(scores, dtype=np.float64)
    root_scores = np.asarray(root_scores, dtype=np.float64)
    n = root_scores.size
    if n == 0:
        raise UsageError("cannot induce a tree over zero tokens")
    if scores.shape != (n, n):
        raise UsageError(f"scores must be ({n}, {n}), got {scores.shape}")
    if not (np.isfinite(scores).all() and np.isfinite(root_scores).all()):
        raise NumericError("tree induction requires finite scores")
    if n == 1:
        return DependencyTree(parent=np.array([-1]), edge_weight=root_scores.copy(), root=0)

    w = np.full((n + 1, n + 1), _NEG)
    w[0, 1:] = root_scores
    w[1:, 1:] = scores
    np.fill_diagonal(w, _NEG)
    w[1:, 0] = _NEG

    parent = _max_arborescence(w)
    root_children = np.where(parent[1:] == 0)[0]
    if root_children.size != 1:
        best_total, best_parent = _NEG, None
        for r in range(n):
            wr = w.copy()
            wr[0, 1:] = _NEG
            wr[0, r + 1] = root_scores[r]
            pr = _max_arborescence(wr)
            total = _score_of(pr, wr)
            if total > best_total:
                best_total, best_parent = total, pr
        parent = best_parent

    real_parent = parent[1:] - 1  # virtual root edges become -1
    root = int(np.where(real_parent == -1)[0][0])
    weight = np.empty(n, dtype=np.float64)
    for c in range(n):
        weight[c] = root_scores[c] if real_parent[c] == -1 else scores[real_parent[c], c]
    tree = DependencyTree(parent=real_parent, edge_weight=weight, root=root)
    tree.validate()
    return tree


def received_mass(states: list[AttentionState], n_tokens: int | None = None) -> np.ndarray:
    """Total incoming dependency mass per original token, summed over blocks."""
    if not states:
        raise UsageError("received_mass needs at least one block state")
    if n_tokens is None:
        n_tokens = int(max(int(st.token_indices.max()) for st in states) + 1)
    out = np.zeros(n_tokens, dtype=np.float64)
    for st in states:
        out[st.token_indices] += st.mask.sum(axis=1)
    return out


def aggregate_masks(states: list[AttentionState], ledger=None) -> np.ndarray:
    """Mean dependency mask over blocks, in original token coordinates.

    Blocks that ran after pruning cover fewer tokens; their masks are first
    expanded back to full size through the ledger (required whenever any
    state is smaller than the first one).
    """
    if not states:
        raise UsageError("aggregate_masks needs at least one block state")
    n = int(states[0].token_indices.size)
    full = []
    for st in states:
        if st.token_indices.size == n and (st.token_indices == np.arange(n)).all():
            full.append(st.mask)
        else:
            if ledger is None:
                raise UsageError("pruned states require the prune ledger to aggregate")
            from .pruning import expand_state_mask

            full.append(expand_state_mask(st, ledger))
    return np.mean(np.stack(full), axis=0)


def induce_tree(mask: np.ndarray, root_scores: np.ndarray | None = None) -> DependencyTree:
    """Arborescence over an aggregated mask; root scores default to row sums."""
    mask = np.asarray(mask, dtype=np.float64)
    if root_scores is None:
        root_scores = mask.sum(axis=1)
    return chu_liu_edmonds(mask, root_scores)


def partition_subtrees(tree: DependencyTree, min_size: float = 0.01) -> np.ndarray:
    """Cut the tree into parts anchored at depth-2 nodes.

    Every node is labeled by its ancestor at depth 2 (depth-1 nodes anchor
    their own parts; the root keeps a residual part).  Parts smaller than
    ``min_size`` times the token count are merged upward: a depth-2 part
    into its depth-1 parent's part, a depth-1 part into the root part.
    Labels are renumbered densely by each part's smallest member index and
    stored on ``tree.subtree``.
    """
    if not (0.0 <= min_size <= 1.0):
        raise UsageError(f"min_size must be within [0, 1], got {min_size}")
    n = tree.size
    depth = tree.depth
    anchor = np.empty(n, dtype=np.int64)
    order = np.argsort(depth, kind="stable")
    for v in order:
        if depth[v] <= 2:
            anchor[v] = v
        else:
            anchor[v] = anchor[tree.parent[v]]

    threshold = min_size * n

    def part_size(a: int) -> int:
        return int((anchor == a).sum())

    for a in np.where(depth == 2)[0]:
        if anchor[a] == a and part_size(a) < threshold:
            anchor[anchor == a] = anchor[tree.parent[a]]
    for a in np.where(depth == 1)[0]:
        if anchor[a] == a and part_size(a) < threshold:
            anchor[anchor == a] = tree.root

    labels = np.empty(n, dtype=np.int64)
    part_ids = np.unique(anchor)
    first_member = np.array([np.where(anchor == a)[0][0] for a in part_ids])
    for rank, a in enumerate(part_ids[np.argsort(first_member)]):
        labels[anchor == a] = rank
    tree.subtree = labels
    return labels
