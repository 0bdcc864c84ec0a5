"""Tree induction against exhaustive enumeration and hand-worked cases."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from depvit import IntegrityError, UsageError
from depvit.block import AttentionState
from depvit.data import blob_dataset
from depvit.model import LITE_SCHEDULE, ModelConfig, init_weights, model_forward
from depvit.pruning import PruneLedger, argmax_graph, expand_state_mask, received_mass
from depvit.tree import (
    DependencyTree,
    aggregate_masks,
    chu_liu_edmonds,
    induce_tree,
    partition_subtrees,
)
from oracles import brute_best_arborescence, level_rebuild_arborescence


def state_for(mask, indices=None):
    mask = np.asarray(mask, dtype=np.float64)
    n = mask.shape[0]
    idx = np.arange(n) if indices is None else np.asarray(indices)
    return AttentionState(
        mask=mask, cumulative_gate=np.ones(n), token_indices=idx.astype(np.int64),
    )


class TestArgmaxGraph:
    def test_single_token_is_its_own_root(self):
        np.testing.assert_array_equal(argmax_graph(np.array([[0.5]])), [-1])

    def test_column_argmax_excluding_self(self):
        # column 0 reads [skip, 0.7, 0.2]: parent(0) = 1
        mask = np.array([
            [0.1, 0.9, 0.1],
            [0.7, 0.0, 0.8],
            [0.2, 0.05, 0.0],
        ])
        np.testing.assert_array_equal(argmax_graph(mask), [1, 0, 1])

    def test_tie_picks_lower_index(self):
        mask = np.array([
            [0.0, 0.4, 0.0],
            [0.4, 0.0, 0.0],
            [0.4, 0.4, 0.0],
        ])
        # column 0: rows 1 and 2 both 0.4 -> parent 1
        assert argmax_graph(mask)[0] == 1

    def test_cycles_are_allowed(self):
        mask = np.array([[0.0, 0.9], [0.9, 0.0]])
        np.testing.assert_array_equal(argmax_graph(mask), [1, 0])


class TestChuLiuEdmonds:
    def test_two_node_hand_case(self):
        # attach 1 under 0 (0.9) plus root 0 (0.5) beats the alternative 0.4
        scores = np.array([[0.0, 0.9], [0.3, 0.0]])
        tree = chu_liu_edmonds(scores, np.array([0.5, 0.1]))
        assert tree.root == 0
        np.testing.assert_array_equal(tree.parent, [-1, 0])
        assert tree.total_score() == pytest.approx(1.4, abs=1e-15)

    def test_three_node_cycle_contraction_tie(self):
        # 1 and 2 prefer each other (0.9 both ways): the cycle is contracted
        # and broken deterministically at the lower index.
        scores = np.zeros((3, 3))
        scores[1, 2] = scores[2, 1] = 0.9
        scores[0, 1] = scores[0, 2] = 0.1
        tree = chu_liu_edmonds(scores, np.array([1.0, 0.0, 0.0]))
        assert tree.root == 0
        np.testing.assert_array_equal(tree.parent, [-1, 0, 1])
        assert tree.total_score() == pytest.approx(2.0, abs=1e-15)

    def test_star_scores_give_star_tree(self):
        n = 5
        scores = np.zeros((n, n))
        scores[0, 1:] = 1.0
        roots = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        tree = chu_liu_edmonds(scores, roots)
        assert tree.root == 0
        np.testing.assert_array_equal(tree.parent, [-1, 0, 0, 0, 0])
        np.testing.assert_array_equal(tree.depth, [0, 1, 1, 1, 1])

    def test_single_node(self):
        tree = chu_liu_edmonds(np.zeros((1, 1)), np.array([0.7]))
        assert tree.root == 0 and tree.size == 1
        assert tree.total_score() == pytest.approx(0.7)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(60):
            scores = rng.uniform(0.0, 1.0, size=(n, n))
            roots = rng.uniform(0.0, 1.0, size=n)
            tree = chu_liu_edmonds(scores, roots)
            tree.validate()
            best, parents, n_opt = brute_best_arborescence(scores, roots)
            assert tree.total_score() == best
            if n_opt == 1:
                np.testing.assert_array_equal(tree.parent, parents)

    @pytest.mark.parametrize("seed", range(30))
    def test_scale_invariance_of_topology(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        scores = rng.uniform(0.0, 1.0, size=(n, n))
        roots = rng.uniform(0.0, 1.0, size=n)
        base = chu_liu_edmonds(scores, roots)
        scaled = chu_liu_edmonds(7.5 * scores, 7.5 * roots)
        np.testing.assert_array_equal(base.parent, scaled.parent)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_tied_integer_scores_match_brute_force(self, n):
        # scores and roots in {0, 1, 2}: most instances have several optima
        rng = np.random.default_rng(2000 + n)
        for _ in range(60):
            scores = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            roots = rng.integers(0, 3, size=n).astype(np.float64)
            tree = chu_liu_edmonds(scores, roots)
            tree.validate()
            best, _, _ = brute_best_arborescence(scores, roots)
            assert tree.total_score() == best
            again = chu_liu_edmonds(scores, roots)
            np.testing.assert_array_equal(again.parent, tree.parent)

    def test_tie_rule_two_node_root_tie(self):
        # both roots total 2; the 2-cycle takes its root edge at member 0
        tree = chu_liu_edmonds(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
        np.testing.assert_array_equal(tree.parent, [-1, 0])

    def test_tie_rule_all_zero_scores(self):
        # greedy parents 0 <-> 1 and 2 -> 0; the cycle {0, 1} is entered
        # from 2 at member 0, then {2, {0, 1}} is a cycle whose root edge
        # goes to its lowest member, 2
        tree = chu_liu_edmonds(np.zeros((3, 3)), np.zeros(3))
        assert tree.root == 2
        np.testing.assert_array_equal(tree.parent, [2, 0, -1])

    def test_tie_rule_all_one_scores(self):
        # {0, 1} contracts first, then {2, 3}; the pair of supernodes gives
        # its root edge to the first, {0, 1}, rooted at member 0, and 0
        # enters {2, 3} at member 2
        tree = chu_liu_edmonds(np.ones((4, 4)), np.ones(4))
        np.testing.assert_array_equal(tree.parent, [-1, 0, 0, 2])
        assert tree.total_score() == 4.0

    def test_root_scores_dominating_every_edge_keep_one_root(self):
        # Root scores dominate every real edge, yet only one node may hang
        # off the virtual root.
        scores = np.array([[0.0, 0.1], [0.1, 0.0]])
        roots = np.array([5.0, 4.99])
        tree = chu_liu_edmonds(scores, roots)
        tree.validate()
        assert tree.root == 0
        assert tree.total_score() == pytest.approx(5.1)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(UsageError):
            chu_liu_edmonds(np.zeros((0, 0)), np.zeros(0))
        from depvit import NumericError
        with pytest.raises(NumericError):
            chu_liu_edmonds(np.array([[np.inf, 1], [1, 0]]), np.array([1.0, 1.0]))

    @pytest.mark.slow
    def test_mutual_pairs_at_1024_tokens(self):
        # 512 mutual pairs make the greedy graph 512 two-cycles, so the pass
        # contracts over 500 levels; every pair keeps one of its own edges
        n = 1024
        mask = 0.01 * np.random.default_rng(7).uniform(size=(n, n))
        even = np.arange(0, n, 2)
        mask[even, even + 1] = mask[even + 1, even] = 1.0
        t0 = time.monotonic()
        tree = induce_tree(mask)
        assert time.monotonic() - t0 < 60.0
        tree.validate()
        assert ((tree.parent[even] == even + 1) | (tree.parent[even + 1] == even)).all()

    @pytest.mark.slow
    def test_growing_supernode_chain_at_1024_tokens(self):
        # node c prefers parent c + 1 and then c - 1, so every level closes a
        # 2-cycle between the newest supernode and the next node down: 1023
        # levels, each absorbing one node into one growing supernode
        n = 1024
        mask = np.zeros((n, n))
        c = np.arange(n - 1)
        mask[c + 1, c] = 1.0
        mask[c, c + 1] = 1.0 - 2.0 ** -12
        t0 = time.monotonic()
        tree = induce_tree(mask)
        assert time.monotonic() - t0 < 60.0
        np.testing.assert_array_equal(tree.parent, np.append(np.arange(1, n - 1), [-1, n - 2]))


@st.composite
def tied_instances(draw):
    """Scores in {0, 1, 2}, root scores often all equal: many exact ties."""
    n = draw(st.integers(1, 12))
    scores = draw(arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 1.0, 2.0])))
    if draw(st.booleans()):
        roots = np.full(n, draw(st.sampled_from([0.0, 1.0, 2.0])))
    else:
        roots = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0, 2.0])))
    return scores, roots


@st.composite
def uniform_instances(draw):
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(size=(n, n)), rng.uniform(size=n)


def assert_same_parents_as_level_rebuild(scores, roots):
    expected = level_rebuild_arborescence(scores, roots)
    parent = chu_liu_edmonds(scores, roots).parent
    assert parent.dtype == expected.dtype
    assert parent.tobytes() == expected.tobytes()


class TestLevelRebuildOracle:
    """The incremental solver returns exactly the level-rebuild solver's
    parents, ties included."""

    @given(tied_instances())
    @settings(max_examples=400, deadline=None)
    def test_tie_heavy_scores(self, instance):
        assert_same_parents_as_level_rebuild(*instance)

    @given(uniform_instances())
    @settings(max_examples=150, deadline=None)
    def test_uniform_scores(self, instance):
        assert_same_parents_as_level_rebuild(*instance)

    def test_tiny_model_mask_at_196_tokens(self):
        cfg = ModelConfig(num_classes=2, seed=1)
        scene = blob_dataset(1, seed=1, grid=cfg.grid, patch=cfg.patch_size)[0]
        res = model_forward(scene.image, cfg, init_weights(cfg))
        mask = np.asarray(aggregate_masks(res.states, res.ledger), dtype=np.float64)
        assert mask.shape == (196, 196)
        assert_same_parents_as_level_rebuild(mask, mask.sum(axis=1))


class TestDependencyTreeInvariants:
    def test_two_roots_rejected(self):
        with pytest.raises(IntegrityError):
            DependencyTree(parent=np.array([-1, -1]), edge_weight=np.zeros(2), root=0)

    def test_cycle_rejected(self):
        with pytest.raises(IntegrityError):
            DependencyTree(parent=np.array([-1, 2, 1]), edge_weight=np.zeros(3), root=0)

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(IntegrityError):
            DependencyTree(parent=np.array([-1, 7]), edge_weight=np.zeros(2), root=0)
        with pytest.raises(IntegrityError):
            DependencyTree(parent=np.array([-1, -2]), edge_weight=np.zeros(2), root=0)

    @pytest.mark.parametrize("root", [-1, 1, 2, 5])
    def test_root_other_than_the_parentless_node_rejected(self, root):
        with pytest.raises(IntegrityError):
            DependencyTree(parent=np.array([-1, 0]), edge_weight=np.zeros(2), root=root)

    @pytest.mark.parametrize("weights, labels", [(1, 3), (4, 3), (3, 2), (3, 4)])
    def test_arrays_of_unequal_length_rejected(self, weights, labels):
        with pytest.raises(IntegrityError):
            DependencyTree(parent=np.array([-1, 0, 0]), edge_weight=np.zeros(weights),
                           root=0, subtree=np.zeros(labels, dtype=np.int64))

    def test_children_and_depth(self):
        tree = DependencyTree(parent=np.array([-1, 0, 0, 1]), edge_weight=np.zeros(4), root=0)
        np.testing.assert_array_equal(np.flatnonzero(tree.parent == 0), [1, 2])
        np.testing.assert_array_equal(tree.depth, [0, 1, 1, 2])

    def test_depth_with_root_not_zero_and_ids_out_of_depth_order(self):
        tree = DependencyTree(parent=np.array([2, 7, 5, 6, 2, -1, 0, 5]),
                              edge_weight=np.zeros(8), root=5)
        np.testing.assert_array_equal(tree.depth, [2, 2, 1, 4, 2, 0, 3, 1])
        np.testing.assert_array_equal(tree.subtree, np.full(8, -1))


class TestReceivedMass:
    def test_hand_built_two_layer_sum(self):
        # layer 1 mask rows sum to [0.6, 0.3, 0.0, 0.9]
        # layer 2 mask rows sum to [0.2, 0.0, 0.5, 0.1]; totals by hand.
        m1 = np.array([
            [0.0, 0.2, 0.1, 0.3],
            [0.3, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.1, 0.4, 0.4, 0.0],
        ])
        m2 = np.array([
            [0.0, 0.1, 0.1, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.2, 0.2, 0.0, 0.1],
            [0.1, 0.0, 0.0, 0.0],
        ])
        scores = received_mass([state_for(m1), state_for(m2)])
        np.testing.assert_allclose(scores, [0.8, 0.3, 0.5, 1.0], rtol=1e-12)

    def test_pruned_layer_accumulates_at_original_indices(self):
        m1 = np.ones((4, 4)) * 0.25
        m2 = np.array([[0.0, 0.5], [0.5, 0.0]])
        scores = received_mass([state_for(m1), state_for(m2, indices=[1, 3])])
        np.testing.assert_allclose(scores, [1.0, 1.5, 1.0, 1.5])

    def test_dominant_receiver_is_maximal(self):
        m = np.zeros((3, 3))
        m[2, :] = 0.9
        scores = received_mass([state_for(m)])
        assert scores.argmax() == 2


class TestAggregateMasks:
    def test_single_layer_identity(self):
        m = np.random.default_rng(0).uniform(size=(5, 5))
        np.testing.assert_allclose(
            aggregate_masks([state_for(m)], PruneLedger(n_tokens=5, events=())), m)

    def test_two_layer_mean(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4))
        np.testing.assert_allclose(
            aggregate_masks([state_for(a), state_for(b)], PruneLedger(n_tokens=4, events=())),
            (a + b) / 2.0,
        )

    def test_dtype_is_float32_unpruned_and_float64_expanded(self):
        img = np.random.default_rng(4).random((64, 64, 3)).astype(np.float32)
        for schedule, dtype in (((), np.float32), (((1, 12),), np.float64)):
            cfg = ModelConfig(image_size=64, patch_size=16, channels=16, heads=4,
                              layers=2, num_classes=2, seed=1, prune_schedule=schedule)
            res = model_forward(img, cfg, init_weights(cfg))
            assert res.states[0].mask.dtype == np.float32
            assert aggregate_masks(res.states, res.ledger).dtype == dtype

    @pytest.mark.parametrize("schedule, dtype", [
        ((), np.float32), (LITE_SCHEDULE, np.float32), ((), np.float64),
    ], ids=["unpruned", "lite", "float64-model"])
    def test_matches_the_mean_of_the_stacked_masks(self, schedule, dtype):
        cfg = ModelConfig(image_size=224, patch_size=16, channels=16, heads=4,
                          layers=12, num_classes=2, seed=2, prune_schedule=schedule)
        img = np.random.default_rng(5).random((224, 224, 3)).astype(np.float32)
        res = model_forward(img, cfg, init_weights(cfg, dtype=dtype))
        full = [st.mask if st.token_indices.size == cfg.tokens
                else expand_state_mask(st, res.ledger) for st in res.states]
        want = np.mean(np.stack(full), axis=0)
        got = aggregate_masks(res.states, res.ledger)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_peak_memory_stays_below_three_masks(self):
        n = 400
        rng = np.random.default_rng(6)
        states = [state_for(rng.random((n, n))) for _ in range(12)]
        ledger = PruneLedger(n_tokens=n, events=())
        tracemalloc.start()
        try:
            aggregate_masks(states, ledger)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8

    def test_ledger_must_cover_pruned_state(self):
        # token 1 is missing from the second state, but the ledger never pruned it
        a = np.ones((3, 3))
        b = np.ones((2, 2))
        with pytest.raises(IntegrityError):
            aggregate_masks([state_for(a), state_for(b, indices=[0, 2])],
                            PruneLedger(n_tokens=3, events=()))


class TestPartitionSubtrees:
    def test_path_graph_min_size_zero(self):
        # 0 -> 1 -> 2 -> 3 -> 4: parts {0}, {1}, {2,3,4}
        tree = DependencyTree(parent=np.array([-1, 0, 1, 2, 3]),
                              edge_weight=np.zeros(5), root=0)
        labels = partition_subtrees(tree, min_size=0.0)
        np.testing.assert_array_equal(labels, [0, 1, 2, 2, 2])

    def test_star_tree_merges_into_single_part(self):
        # every child is a singleton depth-1 part; with min_size*N > 1 they
        # all fold into the root's residual part
        n = 6
        tree = DependencyTree(parent=np.array([-1, 0, 0, 0, 0, 0]),
                              edge_weight=np.zeros(n), root=0)
        labels = partition_subtrees(tree, min_size=0.34)
        np.testing.assert_array_equal(labels, np.zeros(n))

    def test_star_tree_min_size_zero_keeps_singletons(self):
        n = 4
        tree = DependencyTree(parent=np.array([-1, 0, 0, 0]),
                              edge_weight=np.zeros(n), root=0)
        labels = partition_subtrees(tree, min_size=0.0)
        np.testing.assert_array_equal(labels, [0, 1, 2, 3])

    def test_depth2_small_part_merges_into_depth1_parent(self):
        # 0 -> 1 -> {2 -> 3, 4}; depth-2 anchors 2 and 4; with threshold 2.4
        # parts {2,3} and {4} are small, so both join 1's part.
        tree = DependencyTree(parent=np.array([-1, 0, 1, 2, 1]),
                              edge_weight=np.zeros(5), root=0)
        labels = partition_subtrees(tree, min_size=0.48)
        np.testing.assert_array_equal(labels, [0, 1, 1, 1, 1])

    def test_every_node_labeled_and_parts_connected(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            # random tree: parent of i is a random earlier node
            parent = np.array([-1] + [int(rng.integers(0, i)) for i in range(1, n)])
            tree = DependencyTree(parent=parent, edge_weight=np.zeros(n), root=0)
            labels = partition_subtrees(tree, min_size=rng.uniform(0, 0.3))
            assert (labels >= 0).all()
            # connectivity: every non-anchor node shares its parent's label
            # unless it anchors its own part
            for part in np.unique(labels):
                members = set(np.where(labels == part)[0])
                hits_top = sum(
                    1 for v in members
                    if tree.parent[v] == -1 or tree.parent[v] not in members
                )
                assert hits_top == 1  # single entry point = connected subtree

    @pytest.mark.parametrize("min_size, expected", [
        # anchors 0 (with 3 and 6), 1, 4 at depth 2; 2 and 7 at depth 1; root 5
        (0.0, [0, 1, 2, 0, 3, 4, 0, 5]),
        # threshold 2: {1} joins 7 and {4} joins 2; the pairs stay
        (0.25, [0, 1, 2, 0, 2, 3, 0, 1]),
        # threshold 2.4: then {2, 4} and {7, 1} join the root
        (0.3, [0, 1, 1, 0, 1, 1, 0, 1]),
        # threshold 3: {0, 3, 6} is not smaller, so it stays
        (0.375, [0, 1, 1, 0, 1, 1, 0, 1]),
        # threshold 3.2: {0, 3, 6} joins 2, which keeps 5 nodes; {7, 1} joins the root
        (0.4, [0, 1, 0, 0, 0, 1, 0, 1]),
    ])
    def test_root_not_zero_and_ids_out_of_depth_order(self, min_size, expected):
        # 5 -> {2 -> {0 -> 6 -> 3, 4}, 7 -> 1}
        tree = DependencyTree(parent=np.array([2, 7, 5, 6, 2, -1, 0, 5]),
                              edge_weight=np.zeros(8), root=5)
        np.testing.assert_array_equal(partition_subtrees(tree, min_size=min_size), expected)

    @pytest.mark.parametrize("n", [6, 1024])
    def test_chain(self, n):
        order = np.random.default_rng(8).permutation(n)  # order[k] sits at depth k
        parent = np.empty(n, dtype=np.int64)
        parent[order] = np.append(-1, order[:-1])
        tree = DependencyTree(parent=parent, edge_weight=np.zeros(n), root=int(order[0]))
        np.testing.assert_array_equal(tree.depth[order], np.arange(n))
        labels = partition_subtrees(tree, min_size=0.0)
        parts = {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(3)}
        assert parts == {frozenset(order[:1].tolist()), frozenset(order[1:2].tolist()),
                         frozenset(order[2:].tolist())}

    @pytest.mark.parametrize("min_size, expected", [
        (0.0, np.arange(1024)),     # every leaf keeps its own part
        (0.002, np.zeros(1024)),    # threshold 2.048: every leaf joins the root
    ])
    def test_star_of_1024_tokens(self, min_size, expected):
        n, root = 1024, 700
        parent = np.full(n, root)
        parent[root] = -1
        tree = DependencyTree(parent=parent, edge_weight=np.zeros(n), root=root)
        np.testing.assert_array_equal(tree.depth, np.where(np.arange(n) == root, 0, 1))
        np.testing.assert_array_equal(partition_subtrees(tree, min_size=min_size), expected)

    def test_labels_stored_on_tree(self):
        tree = DependencyTree(parent=np.array([-1, 0]), edge_weight=np.zeros(2), root=0)
        partition_subtrees(tree, min_size=0.0)
        assert (tree.subtree >= 0).all()


class TestInduceTree:
    def test_root_scores_default_to_row_sums(self):
        rng = np.random.default_rng(6)
        mask = rng.uniform(size=(5, 5))
        a = induce_tree(mask)
        b = chu_liu_edmonds(mask, mask.sum(axis=1))
        np.testing.assert_array_equal(a.parent, b.parent)
