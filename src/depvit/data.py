"""Synthetic blob scenes with verified feature geometry.

Each scene is a patch grid split into k contiguous color regions.  Patch
vectors from the same region are nearly parallel and patches from different
regions nearly orthogonal; both margins are asserted at construction time so
downstream structure-recovery tests rest on a known geometry, not luck.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, UsageError

_BASE_CHANNEL = (0.8, 0.9)   # main-channel intensity range per region color
_OFF_CHANNEL = (0.0, 0.01)   # stray intensity on the other two channels
WITHIN_COS_MIN = 0.95
CROSS_COS_MAX = 0.10
DATASET_KS = (2, 3)  # blob counts a dataset cycles through; the class is the index


@dataclass
class BlobSample:
    """One scene: image, its patch-level region labels, and the class."""

    image: np.ndarray    # (grid*patch, grid*patch, 3) float32 in [0, 1]
    labels: np.ndarray   # (grid, grid) region id per patch
    label: int           # classification target (k minus the smallest k)


def _grow_regions(grid: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Randomized multi-source flood fill; returns a (grid, grid) region map."""
    labels = np.full((grid, grid), -1, dtype=np.int64)
    seeds = rng.choice(grid * grid, size=k, replace=False)
    frontier: list[tuple[int, int, int]] = []
    for r, s in enumerate(seeds):
        y, x = divmod(int(s), grid)
        labels[y, x] = r
        frontier.append((y, x, r))
    while frontier:
        idx = int(rng.integers(len(frontier)))
        y, x, r = frontier[idx]
        nbrs = [
            (ny, nx)
            for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1))
            if 0 <= ny < grid and 0 <= nx < grid and labels[ny, nx] == -1
        ]
        if not nbrs:
            frontier[idx] = frontier[-1]
            frontier.pop()
            continue
        ny, nx = nbrs[int(rng.integers(len(nbrs)))]
        labels[ny, nx] = r
        frontier.append((ny, nx, r))
    return labels


def patch_vectors(image: np.ndarray, patch: int) -> np.ndarray:
    """Row-major flattened patch features, one row per grid cell."""
    hh, ww, _ = image.shape
    gh, gw = hh // patch, ww // patch
    return (
        image.reshape(gh, patch, gw, patch, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(gh * gw, patch * patch * 3)
    )


def _check_geometry(image: np.ndarray, labels: np.ndarray, patch: int) -> None:
    vecs = patch_vectors(image, patch)
    norms = np.linalg.norm(vecs, axis=1)
    cos = (vecs @ vecs.T) / np.outer(norms, norms)
    flat = labels.reshape(-1)
    same = flat[:, None] == flat[None, :]
    off_diag = ~np.eye(flat.size, dtype=bool)
    within = cos[same & off_diag]
    cross = cos[~same]
    if within.size and within.min() < WITHIN_COS_MIN:
        raise IntegrityError(f"within-blob cosine {within.min():.4f} below {WITHIN_COS_MIN}")
    if cross.size and cross.max() > CROSS_COS_MAX:
        raise IntegrityError(f"cross-blob cosine {cross.max():.4f} above {CROSS_COS_MAX}")


def blob_scene(k: int, rng: np.random.Generator, grid: int, patch: int) -> BlobSample:
    """One k-blob scene over a grid x grid patch layout.

    Regions are contiguous, each at least an eighth of the grid per region
    (and at least two patches).  Region r lights color channel r mod 3; at
    most three regions keep the colors orthogonal.  A grid too small for k
    regions at that floor is a usage error, raised before anything is drawn.
    """
    if not 1 <= k <= 3:
        raise UsageError(f"k must be in 1..3 for orthogonal colors, got {k}")
    min_cells = max(2, (grid * grid) // (8 * k))
    if k * min_cells > grid * grid:
        raise UsageError(f"a {grid}x{grid} patch grid cannot hold {k} regions "
                         f"of at least {min_cells} patches")
    for _ in range(200):
        labels = _grow_regions(grid, k, rng)
        sizes = np.bincount(labels.reshape(-1), minlength=k)
        if sizes.min() >= min_cells:
            break
    else:
        raise IntegrityError("could not grow regions meeting the size floor")

    side = grid * patch
    image = rng.uniform(*_OFF_CHANNEL, size=(side, side, 3))
    main = rng.uniform(*_BASE_CHANNEL, size=(side, side))
    channel_of = np.kron(labels % 3, np.ones((patch, patch), dtype=np.int64))
    for ch in range(3):
        sel = channel_of == ch
        image[..., ch][sel] = main[sel]
    _check_geometry(image, labels, patch)
    # drawn and checked in float64, kept at the width read_ppm returns and
    # a float32 model embeds
    return BlobSample(image=image.astype(np.float32), labels=labels, label=0)


def blob_dataset(count: int, seed: int, grid: int, patch: int) -> list[BlobSample]:
    """Balanced dataset cycling through ``DATASET_KS``; class = index there."""
    if count < 1:
        raise UsageError("count must be >= 1")
    if seed < 0:
        raise UsageError(f"seed {seed} must be >= 0")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        s = blob_scene(DATASET_KS[i % len(DATASET_KS)], rng, grid=grid, patch=patch)
        s.label = i % len(DATASET_KS)
        samples.append(s)
    return samples
