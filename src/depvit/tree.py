"""Dependency-tree induction from soft dependency masks.

A mask entry mask[j][i] is the mass token i sends to candidate parent j.
Tree recovery treats that as the weight of attaching child i under parent j
and finds the maximum spanning arborescence with exactly one root, where
making node i the root scores i's total received mass.  One iterative
contraction pass enforces the single root (Gabow & Tarjan 1984; Zmigrod,
Vieira & Cotterell 2020), contracting incrementally (Tarjan 1977).  Every
argmax picks the lowest index, so exactly tied optima resolve the same way
on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .block import AttentionState
from .errors import IntegrityError, NumericError, UsageError
from .pruning import PruneLedger, expand_state_mask


@dataclass
class DependencyTree:
    """Rooted arborescence over token indices, checked when it is built.

    ``parent[i]`` is -1 exactly for the root; ``edge_weight[i]`` is the score
    of the edge into i (the root carries its root attachment score).
    ``subtree`` holds partition labels once ``partition_subtrees`` ran, -1
    before that; ``depth`` is each node's hop count to the root.
    """

    parent: np.ndarray
    edge_weight: np.ndarray
    root: int
    subtree: np.ndarray | None = None
    depth: np.ndarray = field(init=False)

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.edge_weight = np.asarray(self.edge_weight, dtype=np.float64)
        if self.subtree is None:
            self.subtree = np.full(self.size, -1, dtype=np.int64)
        self.validate()

    @property
    def size(self) -> int:
        return int(self.parent.size)

    def total_score(self) -> float:
        return float(self.edge_weight.sum())

    def validate(self) -> None:
        """Check that the arrays form one tree rooted at ``root``, and set ``depth``."""
        n = self.size
        if len(self.edge_weight) != n or len(self.subtree) != n:
            raise IntegrityError(f"tree has {n} parents, {len(self.edge_weight)} edge weights "
                                 f"and {len(self.subtree)} subtree labels")
        roots = np.flatnonzero(self.parent == -1)
        if roots.size != 1 or roots[0] != self.root:
            raise IntegrityError(f"tree root {self.root}, but the parentless nodes are {roots[:4]}")
        if ((self.parent >= n) | (self.parent < -1)).any():
            raise IntegrityError("parent index out of range")
        # Pointer doubling: after k rounds up[v] is v's ancestor 2**k hops up
        # (or the root, which points at itself) and depth[v] the hops to it.
        up = np.where(self.parent == -1, self.root, self.parent)
        depth = (self.parent != -1).astype(np.int64)
        for _ in range(n.bit_length()):  # 2**rounds > n - 1, the deepest a node can be
            depth += depth[up]
            up = up[up]
        if (up != self.root).any():
            raise IntegrityError("parent links cycle without reaching the root")
        self.depth = depth


def _max_arborescence(w: np.ndarray, root_w: np.ndarray) -> np.ndarray:
    """Best parents with exactly one root, in one contraction pass.

    ``w[p][c]`` scores edge p -> c and ``root_w[c]`` makes c the root.  While
    two or more (super)nodes remain, each has a greedy parent among the
    others; the walk along greedy parents from the lowest live node ends in a
    cycle, which is contracted into a supernode whose entering edges (its
    root edge included) are rescored by how much they improve on the cycle
    edge they replace.  The last node left takes its root edge, and the
    levels are expanded back out.  Root edges are only ever compared with
    each other, so the single-root constraint needs no penalty constant and
    no second solve.

    Contraction is incremental, after Tarjan's dense branching (1977): in
    one n x n working matrix a supernode takes over the row, column and slot
    of its lowest cycle member, so a level costs O(|cycle| k) over k live
    nodes.  Only the supernode and the nodes whose greedy parent fell into
    the cycle pick a fresh parent; any other parent still wins, since the
    supernode offers no more than its best member did and, as the newest
    node, loses every exact tie.  Supernodes are numbered n, n+1, ... in
    creation order and live slots are kept in id order, the node order of a
    level matrix rebuilt from scratch, so every argmax still takes the
    lowest id on ties and the walk (resumed below the cycle it last closed)
    still starts at the lowest live id.
    """
    n = root_w.size
    w = w.copy()
    np.fill_diagonal(w, -np.inf)
    root_w = root_w.copy()
    node = np.arange(n)  # id of the (super)node in each slot
    live = np.ones(n, dtype=bool)
    alive = np.arange(n)  # live slots by increasing id
    parent = w.argmax(axis=0)  # greedy parent slot of each live slot
    path: list[int] = []  # greedy walk from the lowest live id, as slots
    on_path = [False] * n
    levels = []
    while alive.size > 1:
        if not path:
            path.append(int(alive[0]))
            on_path[path[0]] = True
        v = int(parent[path[-1]])
        while not on_path[v]:
            path.append(v)
            on_path[v] = True
            v = int(parent[v])
        at = path.index(v)
        live[path[at:]] = False
        del path[at:]
        in_keep = live[alive]
        keep, cyc = alive[in_keep], alive[~in_keep]
        cycle_parent = parent[cyc]
        cycle_cost = w[cycle_parent, cyc]
        enter = w[keep, cyc[:, None]] - cycle_cost[:, None]  # cycle member x keep
        leave = w[cyc[:, None], keep]
        root_gain = root_w[cyc] - cycle_cost
        ids = node[cyc]
        levels.append((
            ids, node[cycle_parent], node[keep], ids[enter.argmax(axis=0)],
            ids[leave.argmax(axis=0)], ids[root_gain.argmax()],
        ))
        s = int(cyc[0])  # the supernode's slot
        w[keep, s] = enter.max(axis=0)
        w[s, keep] = leave.max(axis=0)
        root_w[s] = root_gain.max()
        node[s] = n + len(levels) - 1
        on_path[s] = False
        stale = np.append(keep[~live[parent[keep]]], s)
        live[s] = True
        alive = np.append(keep, s)
        parent[stale] = alive[w[alive, stale[:, None]].argmax(axis=1)]

    out = np.full(n + len(levels), -1, dtype=np.int64)  # parent id of each id
    for x in range(out.size - 1, n - 1, -1):
        ids, cycle_parent, keep, enter_at, leave_from, root_at = levels[x - n]
        hit = out[keep] == x
        out[keep[hit]] = leave_from[hit]
        sup_parent = out[x]
        out[ids] = cycle_parent  # cycle edges kept, except where the cycle is entered
        if sup_parent == -1:
            out[root_at] = -1
        else:
            out[enter_at[keep.searchsorted(sup_parent)]] = sup_parent
    return out[:n]


def chu_liu_edmonds(scores: np.ndarray, root_scores: np.ndarray) -> DependencyTree:
    """Maximum spanning arborescence with exactly one root, in a single solve.

    ``scores[p][c]`` is the gain of attaching c under p; ``root_scores[c]``
    the gain of making c the tree root.  The root constraint is enforced
    inside the contraction pass (see ``_max_arborescence``).  On exactly tied
    optima every argmax takes the lowest index: the greedy parent, and the
    cycle member entered, left or rooted when a contracted cycle is expanded.
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

    parent = _max_arborescence(scores, root_scores)
    root = int(np.flatnonzero(parent == -1)[0])
    weight = np.where(parent == -1, root_scores, scores[parent, np.arange(n)])
    return DependencyTree(parent=parent, edge_weight=weight, root=root)


def aggregate_masks(states: list[AttentionState], ledger: PruneLedger) -> np.ndarray:
    """Mean dependency mask over blocks, in original token coordinates.

    Blocks that ran after pruning cover fewer tokens; the ledger expands
    their masks to full size in float64, so only an unpruned run gives a
    float32 result.  A running sum keeps one expanded mask alive at a time.
    """
    if not states:
        raise UsageError("aggregate_masks needs at least one block state")
    n = int(states[0].token_indices.size)
    whole = [st.token_indices.size == n and (st.token_indices == np.arange(n)).all()
             for st in states]
    dtype = np.result_type(*(st.mask.dtype if w else np.float64
                             for st, w in zip(states, whole)))
    total = np.zeros((n, n), dtype=dtype)  # np.add.reduce starts from +0.0 too
    for st, w in zip(states, whole):
        total += st.mask if w else expand_state_mask(st, ledger)
    total /= len(states)
    return total


def induce_tree(mask: np.ndarray) -> DependencyTree:
    """Arborescence over an aggregated mask, rooted by received mass (row sums)."""
    mask = np.asarray(mask, dtype=np.float64)
    return chu_liu_edmonds(mask, mask.sum(axis=1))


def partition_subtrees(tree: DependencyTree, min_size: float) -> np.ndarray:
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
    n, depth, parent = tree.size, tree.depth, tree.parent
    anchor = np.where(depth > 2, parent, np.arange(n))  # depth-2 ancestor, by pointer doubling
    while (depth[anchor] > 2).any():
        anchor = anchor[anchor]

    # A merge never changes the size of another part at the same depth, so
    # one count per depth decides every merge there.
    threshold = min_size * n
    small = (depth == 2) & (np.bincount(anchor, minlength=n) < threshold)
    anchor = np.where(small[anchor], parent[anchor], anchor)
    small = (depth == 1) & (np.bincount(anchor, minlength=n) < threshold)
    anchor = np.where(small[anchor], tree.root, anchor)

    _, first, part = np.unique(anchor, return_index=True, return_inverse=True)
    tree.subtree = np.argsort(np.argsort(first))[part]
    return tree.subtree
