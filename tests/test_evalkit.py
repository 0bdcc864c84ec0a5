"""Tests for part matching, the Fiedler vector and saliency scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depvit.errors import NumericError, ShapeError, UsageError
from depvit.evalkit import (
    LabelGrid,
    MetricReport,
    fiedler_vector,
    hungarian_match,
    part_metrics,
    saliency_metrics,
)
from oracles import brute_best_assignment, dense_fiedler


def grid(rows):
    return LabelGrid.from_labels(np.asarray(rows, dtype=np.int64))


class TestLabelGrid:
    def test_accepts_dense_labels_with_ignore(self):
        g = grid([[0, 1], [-1, 2]])
        assert (g.height, g.width) == (2, 2)
        np.testing.assert_array_equal(g.labels, [[0, 1], [-1, 2]])

    def test_rejects_sparse_labels(self):
        with pytest.raises(ShapeError):
            grid([[0, 2], [0, 2]])

    def test_rejects_below_ignore(self):
        with pytest.raises(ShapeError):
            grid([[0, -2], [0, 1]])

    def test_rejects_one_dimensional(self):
        with pytest.raises(ShapeError):
            LabelGrid.from_labels(np.array([0, 1]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(1, 0), (0, 3), (0, 0)])
    def test_rejects_grids_and_maps_without_cells(self, shape):
        empty = np.zeros(shape)
        with pytest.raises(ShapeError, match="no cells"):
            LabelGrid.from_labels(empty)
        with pytest.raises(ShapeError, match="no cells"):
            saliency_metrics(empty, empty)


class TestHungarian:
    def test_identity_matrix(self):
        assert hungarian_match(np.eye(3)) == [(0, 0), (1, 1), (2, 2)]

    def test_single_cell(self):
        assert hungarian_match(np.array([[0.7]])) == [(0, 0)]

    def test_anti_diagonal(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert hungarian_match(s) == [(0, 1), (1, 0)]

    def test_rectangular_wide(self):
        s = np.array([[0.1, 0.9, 0.2], [0.8, 0.1, 0.3]])
        assert hungarian_match(s) == [(0, 1), (1, 0)]

    def test_rectangular_tall(self):
        s = np.array([[0.1], [0.9], [0.5]])
        assert hungarian_match(s) == [(1, 0)]

    def test_lexicographic_tie_break(self):
        # every perfect matching scores 2: pick (0,0),(1,1),(2,2)
        s = np.ones((3, 3)) * 2 / 3
        assert hungarian_match(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]
        assert hungarian_match(s) == [(0, 0), (1, 1), (2, 2)]

    def test_tie_between_two_assignments(self):
        s = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert hungarian_match(s) == [(0, 0), (1, 1)]

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            hungarian_match(np.array([[np.nan]]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = int(rng.integers(1, 7))
            g = int(rng.integers(1, 7))
            s = rng.random((p, g))
            pairs = hungarian_match(s)
            assert len(pairs) == min(p, g)
            best, optima = brute_best_assignment(s)
            total = sum(s[a, b] for a, b in pairs)
            assert total == pytest.approx(best, abs=1e-9)
            assert frozenset(pairs) in optima

    def test_lexicographic_among_brute_optima(self):
        # quantized scores force frequent ties; the returned pair list must
        # be the lexicographically smallest optimal one
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = int(rng.integers(1, 5))
            g = int(rng.integers(1, 5))
            s = rng.integers(0, 3, size=(p, g)).astype(float)
            pairs = hungarian_match(s)
            _, optima = brute_best_assignment(s)
            candidates = [tuple(sorted(o)) for o in optima]
            assert tuple(sorted(pairs)) == min(candidates)


class TestPartMetrics:
    def test_perfect_prediction(self):
        g = grid([[0, 0, 1, 1], [0, 0, 1, 1]])
        rep = part_metrics(g, g)
        assert rep.miou == 1.0
        assert rep.macc == 1.0
        assert rep.matching == [(0, 0), (1, 1)]

    def test_single_pred_two_equal_parts(self):
        pred = grid([[0, 0], [0, 0]])
        gt = grid([[0, 0], [1, 1]])
        rep = part_metrics(pred, gt)
        assert rep.miou == pytest.approx(0.25)
        assert rep.macc == pytest.approx(0.5)
        assert rep.matching == [(0, 0)]

    def test_all_ignore_reference(self):
        pred = grid([[0, 0], [1, 1]])
        gt = LabelGrid.from_labels(np.full((2, 2), -1, dtype=np.int64))
        rep = part_metrics(pred, gt)
        assert rep.miou is None and rep.macc is None
        assert rep.matching == []

    def test_ignore_cells_excluded(self):
        pred = grid([[0, 0], [1, 1]])
        gt = grid([[0, -1], [1, -1]])
        rep = part_metrics(pred, gt)
        assert rep.miou == 1.0 and rep.macc == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            part_metrics(grid([[0, 1]]), grid([[0], [1]]))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            lab = rng.integers(0, 4, size=(5, 5))
            ref = rng.integers(0, 3, size=(5, 5))
            pred = LabelGrid.from_labels(_densify(lab))
            gt = LabelGrid.from_labels(_densify(ref))
            rep = part_metrics(pred, gt)
            perm = rng.permutation(int(pred.labels.max()) + 1)
            relab = LabelGrid.from_labels(_densify(perm[pred.labels]))
            rep2 = part_metrics(relab, gt)
            assert rep2.miou == pytest.approx(rep.miou, abs=1e-12)
            assert rep2.macc == pytest.approx(rep.macc, abs=1e-12)

    def test_matches_per_pair_mask_loop(self):
        # reference: IoU from one pair of masks at a time, sums over the
        # reference parts in their order; the count table must agree exactly
        rng = np.random.default_rng(11)
        for _ in range(40):
            side = int(rng.integers(2, 9))
            raw = [rng.integers(-1, int(rng.integers(1, 7)), (side, side)) for _ in "pg"]
            # -1 stays -1, the other labels become 0..m-1
            pred, gt = (grid(np.unique(x, return_inverse=True)[1].reshape(x.shape)
                             - int((x == -1).any())) for x in raw)
            pv, gv = pred.labels.ravel(), gt.labels.ravel()
            valid = (pv >= 0) & (gv >= 0)
            pv, gv = pv[valid], gv[valid]
            if gv.size == 0:
                continue
            pids, gids = np.unique(pv), np.unique(gv)
            iou = np.array([[np.count_nonzero((pv == a) & (gv == b))
                             / np.count_nonzero((pv == a) | (gv == b)) for b in gids]
                            for a in pids])
            matched = {int(gids[b]): int(pids[a]) for a, b in hungarian_match(iou)
                       if iou[a, b] > 0.0}
            iou_sum = acc_sum = 0.0
            for b in gids:
                if int(b) in matched:
                    pm, gm = pv == matched[int(b)], gv == b
                    iou_sum += np.count_nonzero(pm & gm) / np.count_nonzero(pm | gm)
                    acc_sum += np.count_nonzero(pm & gm) / np.count_nonzero(gm)
            rep = part_metrics(pred, gt)
            assert (rep.miou, rep.macc) == (iou_sum / gids.size, acc_sum / gids.size)

    def test_report_json(self):
        rep = part_metrics(grid([[0, 1]]), grid([[0, 1]]))
        d = rep.to_json_dict()
        assert d["miou"] == 1.0
        assert d["max_f_beta"] is None
        assert d["matching"] == [[0, 0], [1, 1]]


def _densify(lab):
    vals = np.unique(lab)
    out = np.searchsorted(vals, lab)
    return out


class TestFiedler:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            w = rng.random((n, n)) + 0.05
            w = 0.5 * (w + w.T)
            np.fill_diagonal(w, 1.0)
            ours = fiedler_vector(w)
            ref = dense_fiedler(w)
            agreement = abs(float(ours @ ref))
            assert agreement == pytest.approx(1.0, abs=1e-5)

    def test_slowly_converging_affinity_matches_dense_oracle(self):
        # an inverse power iteration missed a 1e-8 residual in 10,000 steps here
        rng = np.random.default_rng(14)
        w = rng.random((64, 64)) + 0.05
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 1.0)
        agreement = abs(float(fiedler_vector(w) @ dense_fiedler(w)))
        assert agreement == pytest.approx(1.0, abs=1e-9)

    def test_two_cliques_split_by_sign(self):
        n = 8
        w = np.full((n, n), 1e-5)
        w[:4, :4] = 1.0
        w[4:, 4:] = 1.0
        v = fiedler_vector(w)
        assert len(set(np.sign(v[:4]))) == 1
        assert len(set(np.sign(v[4:]))) == 1
        assert np.sign(v[0]) != np.sign(v[4])

    def test_unit_norm(self):
        # thresholded cosine affinity: 1 at cosine >= 0.2, a 1e-5 floor below
        x = np.random.default_rng(0).random((9, 4))
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        w = np.where(unit @ unit.T >= 0.2, 1.0, 1e-5)
        v = fiedler_vector(w)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_zero_degree_rejected(self):
        w = np.zeros((3, 3))
        with pytest.raises(NumericError):
            fiedler_vector(w)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            fiedler_vector(np.ones((2, 3)))


class TestSaliencyMetrics:
    def test_perfect_prediction(self):
        gt = np.array([[1, 0], [0, 1]])
        rep = saliency_metrics(gt.astype(float), gt)
        assert rep.max_f_beta == pytest.approx(1.0)
        assert rep.iou == 1.0
        assert rep.acc == 1.0

    def test_complement_prediction(self):
        gt = np.array([[1, 0], [0, 1]])
        rep = saliency_metrics(1.0 - gt, gt)
        assert rep.iou == 0.0
        assert rep.acc == 0.0

    def test_hand_four_cell_case(self):
        gt = np.array([[1, 1], [0, 0]])
        pred = np.array([[0.9, 0.4], [0.6, 0.1]])
        rep = saliency_metrics(pred, gt, beta2=0.3)
        assert rep.iou == pytest.approx(1.0 / 3.0)
        assert rep.acc == pytest.approx(0.5)
        assert rep.max_f_beta == pytest.approx(0.8125)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            saliency_metrics(np.ones((2, 2)), np.ones((2, 3)))

    def test_soft_range_enforced(self):
        with pytest.raises(UsageError):
            saliency_metrics(np.full((2, 2), 1.5), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_soft_prediction_rejected(self, bad):
        gt = np.array([[0, 1], [1, 0]])
        with pytest.raises(UsageError, match="finite"):
            saliency_metrics(np.array([[bad, 1.0], [1.0, 0.0]]), gt)

    def test_accepts_label_grids(self):
        g = LabelGrid.from_labels(np.array([[1, 0], [0, 1]]))
        rep = saliency_metrics(g, g)
        assert rep.acc == 1.0

    @given(st.integers(0, 2 ** 16 - 1))
    @settings(max_examples=30, deadline=None)
    def test_metrics_within_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.random((4, 4))
        gt = rng.integers(0, 2, size=(4, 4))
        rep = saliency_metrics(pred, gt)
        for v in (rep.max_f_beta, rep.iou, rep.acc):
            assert 0.0 <= v <= 1.0
