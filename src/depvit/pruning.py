"""Dependency-driven dynamic token pooling with lossless retrieval.

Pruning removes only leaves of the current argmax dependency graph, lowest
cumulative received mass first.  Every removal is journaled: the token's
original index, the block after which it was dropped, its cumulative gate,
and how its outgoing mass splits over the tokens still alive.  The journal
is enough to rebuild dense token matrices and full-size masks afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .block import AttentionState
from .errors import IntegrityError, UsageError
from .tensor import Tensor
from .tree import argmax_graph, received_mass


@dataclass
class PruneEvent:
    """One pruned token: who, when, and where its mass went."""

    layer: int                 # block (1-based) after which the token left
    token: int                 # original token index
    gate: float                # cumulative gate at prune time
    parents: dict[int, float]  # original index -> share, sums to 1

    def validate(self, n_tokens: int) -> None:
        if not 0 <= self.token < n_tokens:
            raise IntegrityError(f"event token {self.token} out of range")
        if self.layer < 1:
            raise IntegrityError(f"event layer {self.layer} must be >= 1")
        if not 0.0 <= self.gate <= 1.0 + 1e-6:
            raise IntegrityError(f"event gate {self.gate} outside [0, 1]")
        if not self.parents:
            raise IntegrityError(f"event for token {self.token} has no parents")
        if self.token in self.parents:
            raise IntegrityError(f"token {self.token} lists itself as parent")
        total = 0.0
        for idx, wgt in self.parents.items():
            if not 0 <= idx < n_tokens:
                raise IntegrityError(f"parent index {idx} out of range")
            if not np.isfinite(wgt) or wgt < -1e-12:
                raise IntegrityError(f"parent share {wgt} is negative or not finite")
            total += wgt
        if abs(total - 1.0) > 1e-6:
            raise IntegrityError(f"parent shares sum to {total}, expected 1")


@dataclass
class PruneLedger:
    """Ordered journal of prune events over an n-token input."""

    n_tokens: int
    events: list[PruneEvent] = field(default_factory=list)

    def survivors(self) -> np.ndarray:
        """Ascending original indices alive after the whole schedule."""
        gone = set(e.token for e in self.events)
        return np.array(
            [i for i in range(self.n_tokens) if i not in gone], dtype=np.int64
        )

    def validate(self) -> None:
        if self.n_tokens < 1:
            raise IntegrityError("ledger needs n_tokens >= 1")
        # O(events), never O(n_tokens): n_tokens may come from untrusted JSON
        seen: set[int] = set()
        last_layer = 0
        for e in self.events:
            e.validate(self.n_tokens)
            if e.token in seen:
                raise IntegrityError(f"token {e.token} pruned twice")
            if e.layer < last_layer:
                raise IntegrityError("events out of chronological order")
            for idx in e.parents:
                if idx in seen:
                    raise IntegrityError(
                        f"event for token {e.token} references dead parent {idx}"
                    )
            seen.add(e.token)
            last_layer = e.layer

    def to_json_dict(self) -> dict:
        return {
            "n_tokens": self.n_tokens,
            "events": [
                {
                    "layer": e.layer,
                    "token": e.token,
                    "gate": e.gate,
                    "parents": {str(k): v for k, v in e.parents.items()},
                }
                for e in self.events
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PruneLedger":
        try:
            ledger = cls(
                n_tokens=int(payload["n_tokens"]),
                events=[
                    PruneEvent(
                        layer=int(e["layer"]),
                        token=int(e["token"]),
                        gate=float(e["gate"]),
                        parents={int(k): float(v) for k, v in e["parents"].items()},
                    )
                    for e in payload["events"]
                ],
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            # AttributeError: "parents" is not a mapping, e.g. a JSON list
            raise IntegrityError(f"malformed ledger payload: {exc}") from exc
        ledger.validate()
        return ledger


def _event_distribution(column: np.ndarray, local_alive: np.ndarray,
                        survivors: np.ndarray) -> dict[int, float]:
    """Normalize a token's outgoing mass over the locally alive tokens.

    An all-zero column falls back to a uniform split so the journal always
    carries a proper distribution.
    """
    weights = column[local_alive]
    total = float(weights.sum())
    targets = survivors[local_alive]
    if total <= 1e-12:
        share = 1.0 / targets.size
        return {int(t): share for t in targets}
    return {int(t): float(w / total) for t, w in zip(targets, weights)}


def prune_step(states: list[AttentionState], survivors: np.ndarray,
               kept: int, layer: int | None = None) -> tuple[np.ndarray, list[PruneEvent]]:
    """Shrink the survivor set to ``kept`` tokens after the latest block.

    Leaves of the current argmax graph are ranked by cumulative received
    mass (lowest first, index breaking ties) and removed one by one; when
    the ranked leaves run out, the leaf set is re-derived from the not yet
    removed tokens.  Non-leaves are never removed, so if the graph's cycles
    alone exceed ``kept`` the step fails rather than break the guarantee.
    """
    survivors = np.asarray(survivors, dtype=np.int64)
    s = survivors.size
    if not states:
        raise UsageError("prune_step needs at least one block state")
    mask = states[-1].mask
    if mask.shape != (s, s):
        raise UsageError(f"latest mask must be ({s}, {s}) over the survivors")
    if kept > s:
        raise UsageError(f"kept {kept} exceeds current count {s}")
    if kept < 1:
        raise UsageError(f"kept must be >= 1, got {kept}")
    if kept == s:
        return survivors.copy(), []

    n_tokens = int(max(int(st.token_indices.max()) for st in states) + 1)
    scores = received_mass(states, n_tokens)[survivors]
    parent = argmax_graph(mask)
    if layer is None:
        layer = len(states)  # states list ends with the block just finished

    child_count = np.bincount(parent[parent >= 0], minlength=s)
    alive = np.ones(s, dtype=bool)
    events: list[PruneEvent] = []
    queue: list[int] = []

    def refill() -> None:
        leaves = np.where(alive & (child_count == 0))[0]
        order = np.lexsort((survivors[leaves], scores[leaves]))
        queue.extend(int(v) for v in leaves[order])

    refill()
    while int(alive.sum()) > kept:
        while queue and not alive[queue[0]]:
            queue.pop(0)
        if not queue:
            refill()
            if not queue:
                raise IntegrityError(
                    "argmax-graph cycles leave no prunable leaf; cannot reach kept count"
                )
            continue
        v = queue.pop(0)
        alive[v] = False
        local_alive = np.where(alive)[0]
        events.append(PruneEvent(
            layer=layer,
            token=int(survivors[v]),
            gate=float(states[-1].cumulative_gate[v]),
            parents=_event_distribution(mask[:, v], local_alive, survivors),
        ))
        if parent[v] >= 0:
            child_count[parent[v]] -= 1

    return survivors[alive], events


def retrieve_dense(final_tokens: np.ndarray, ledger: PruneLedger) -> np.ndarray:
    """Rebuild an n_tokens x C matrix by replaying prune events backwards.

    Survivor rows are copied; each pruned token is reconstructed as the
    recorded convex combination of its (already reconstructed) parents.
    """
    ledger.validate()
    if isinstance(final_tokens, Tensor):
        final_tokens = final_tokens.data
    final_tokens = np.asarray(final_tokens)
    survivors = ledger.survivors()
    if final_tokens.ndim != 2 or final_tokens.shape[0] != survivors.size:
        raise IntegrityError(
            f"final tokens have {final_tokens.shape[0]} rows, ledger expects {survivors.size}"
        )
    out = np.zeros((ledger.n_tokens, final_tokens.shape[1]), dtype=final_tokens.dtype)
    have = np.zeros(ledger.n_tokens, dtype=bool)
    out[survivors] = final_tokens
    have[survivors] = True
    for e in reversed(ledger.events):
        if have[e.token]:
            raise IntegrityError(f"token {e.token} reconstructed twice")
        acc = np.zeros(final_tokens.shape[1], dtype=np.float64)
        for idx, wgt in e.parents.items():
            if not have[idx]:
                raise IntegrityError(
                    f"token {e.token} needs parent {idx} before it is reconstructed"
                )
            acc += wgt * out[idx].astype(np.float64)
        out[e.token] = acc.astype(final_tokens.dtype)
        have[e.token] = True
    if not have.all():
        raise IntegrityError("ledger does not cover all tokens")
    return out


def expand_state_mask(state: AttentionState, ledger: PruneLedger) -> np.ndarray:
    """Embed a block's local mask into full coordinates via the ledger.

    Survivor entries are copied; each token pruned before the block gets its
    outgoing column reinstated as cached gate times its recorded parent
    distribution, which preserves every column's total sent mass.
    """
    idx = state.token_indices
    n = ledger.n_tokens
    if idx.size != state.mask.shape[0]:
        raise IntegrityError("state token_indices disagree with its mask size")
    full = np.zeros((n, n), dtype=np.float64)
    full[np.ix_(idx, idx)] = state.mask
    present = np.zeros(n, dtype=bool)
    present[idx] = True
    for e in ledger.events:
        if present[e.token]:
            continue  # pruned at or after this block; column already live
        for p, wgt in e.parents.items():
            full[p, e.token] = e.gate * wgt
    return full
