"""Unsupervised structure evaluation: part matching and saliency scores.

Predicted structures are compared against reference label grids at patch
resolution.  Parts are matched one-to-one with a maximum-score assignment
before IoU averaging; a soft foreground map made elsewhere is scored
against a binary mask.  ``fiedler_vector`` is the spectral bipartition
vector of an affinity graph (normalized cut).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import NumericError, ShapeError, UsageError


@dataclass
class LabelGrid:
    """Integer labels on a height x width patch grid; -1 marks ignore."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 2:
            raise ShapeError("label grid must be 2-D")
        if self.labels.size == 0:
            raise ShapeError("label grid has no cells")
        vals = np.unique(self.labels)
        parts = vals[vals >= 0]
        if vals[0] < -1 or not np.array_equal(parts, np.arange(parts.size)):
            raise ShapeError("labels must be -1 or dense 0..m-1")

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "LabelGrid":
        return cls(labels=labels)


@dataclass
class MetricReport:
    """Fractional quality scores; a None field means not applicable."""

    miou: float | None = None
    macc: float | None = None
    max_f_beta: float | None = None
    iou: float | None = None
    acc: float | None = None
    matching: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "matching" and v is not None and not 0.0 <= v <= 1.0 + 1e-9:
                raise UsageError(f"{f.name} = {v} outside [0, 1]")

    def to_json_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self)))  # matched pairs as JSON lists


def _best_total(scores: np.ndarray) -> float:
    """Maximum achievable total score with min(P, G) one-to-one pairs."""
    # Imported here, not at module level: scipy.optimize adds a noticeable
    # share to the package's import time and only part metrics need it.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(scores, maximize=True)
    return float(scores[rows, cols].sum())


def hungarian_match(scores: np.ndarray) -> list[tuple[int, int]]:
    """One-to-one pairing of rows to columns maximizing the total score.

    Returns min(P, G) pairs.  Among equally good assignments the
    lexicographically smallest pair sequence wins, fixed greedily by
    re-solving the reduced problem for each candidate pair.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError("score matrix must be 2-D")
    if not np.all(np.isfinite(scores)):
        raise NumericError("score matrix contains non-finite entries")
    p, g = scores.shape
    if p == 0 or g == 0:
        return []
    target = _best_total(scores)
    tol = 1e-9 * max(1.0, abs(target))
    pairs: list[tuple[int, int]] = []
    rows = list(range(p))
    cols = list(range(g))
    fixed = 0.0
    while rows and cols:
        i = rows.pop(0)
        # None leaves row i unmatched, which only a row beyond the column count can afford
        for j in [*cols, None]:
            gain = 0.0 if j is None else scores[i, j]
            rest = scores[np.ix_(rows, [c for c in cols if c != j])]
            if abs(fixed + gain + _best_total(rest) - target) <= tol:
                break
        else:
            raise NumericError("assignment fixing lost the optimum")
        if j is not None:
            pairs.append((i, j))
            fixed += gain
            cols.remove(j)
    return pairs


def part_metrics(pred: LabelGrid, gt: LabelGrid) -> MetricReport:
    """Match parts by IoU, then average IoU and per-part accuracy over
    the reference parts; unmatched reference parts score zero."""
    if pred.labels.shape != gt.labels.shape:
        raise ShapeError("prediction and reference grids differ in size")
    pv = pred.labels.ravel()
    gv = gt.labels.ravel()
    valid = (pv >= 0) & (gv >= 0)
    pred_ids, pi = np.unique(pv[valid], return_inverse=True)
    gt_ids, gi = np.unique(gv[valid], return_inverse=True)
    if gt_ids.size == 0:
        return MetricReport()
    p, g = pred_ids.size, gt_ids.size
    inter = np.bincount(pi * g + gi, minlength=p * g).reshape(p, g)
    gt_size = inter.sum(axis=0)
    scores = inter / (inter.sum(axis=1)[:, None] + gt_size[None, :] - inter)
    pairs = [(a, b) for a, b in hungarian_match(scores) if scores[a, b] > 0.0]
    ref_order = sorted(pairs, key=lambda ab: ab[1])
    return MetricReport(
        miou=sum(float(scores[a, b]) for a, b in ref_order) / g,
        macc=sum(float(inter[a, b] / gt_size[b]) for a, b in ref_order) / g,
        matching=[(int(pred_ids[a]), int(gt_ids[b])) for a, b in pairs],
    )


def fiedler_vector(affinity: np.ndarray) -> np.ndarray:
    """Second-smallest generalized eigenvector of (D - W, D), unit norm.

    Solved with scipy's dense symmetric eigensolver on the normalized
    Laplacian and mapped back through D^{-1/2}; the entry of largest
    magnitude is made positive.
    """
    # Imported here, not at module level: only this function needs it.
    from scipy.linalg import eigh

    w = np.asarray(affinity, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError("affinity must be square")
    n = w.shape[0]
    if n < 2:
        raise UsageError("need at least two nodes to bipartition")
    if not np.all(np.isfinite(w)):
        raise NumericError("affinity contains non-finite entries")
    deg = w.sum(axis=1)
    if np.any(deg <= 0.0):
        raise NumericError("zero-degree node; affinity floor missing")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - (inv_sqrt[:, None] * w * inv_sqrt[None, :])
    lap = 0.5 * (lap + lap.T)
    try:
        _, vecs = eigh(lap, subset_by_index=[1, 1])
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: overflow to inf
        raise NumericError(f"eigensolver failed: {exc}") from exc
    out = inv_sqrt * vecs[:, 0]
    out /= np.linalg.norm(out)
    if out[int(np.argmax(np.abs(out)))] < 0:
        out = -out
    return out


def saliency_metrics(pred: np.ndarray, gt: np.ndarray, beta2: float = 0.3) -> MetricReport:
    """Score a soft foreground map against a binary reference mask.

    max_f_beta sweeps thresholds 0.00..1.00 in steps of 0.01; IoU and
    accuracy are read at threshold 0.5.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt)
    if p.shape != g.shape:
        raise ShapeError("prediction and reference masks differ in shape")
    if p.size == 0:
        raise ShapeError("saliency maps have no cells")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both comparisons
        raise UsageError("soft prediction must be finite and lie in [0, 1]")
    if not 0.0 <= beta2 < math.inf:  # NaN fails both comparisons
        raise UsageError(f"beta2 {beta2} must be finite and >= 0")
    g = g.astype(bool).ravel()
    p = p.ravel()

    best_f = 0.0
    for i in range(101):
        t = i / 100.0
        b = p >= t
        tp = np.count_nonzero(b & g)
        prec = tp / b.sum() if b.any() else 0.0
        rec = tp / g.sum() if g.any() else 0.0
        denom = beta2 * prec + rec
        f = (1.0 + beta2) * prec * rec / denom if denom > 0 else 0.0
        best_f = max(best_f, f)

    b = p >= 0.5
    union = np.count_nonzero(b | g)
    inter = np.count_nonzero(b & g)
    iou = inter / union if union else 1.0
    acc = float(np.mean(b == g))
    return MetricReport(max_f_beta=best_f, iou=iou, acc=acc)
