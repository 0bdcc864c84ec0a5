"""Dependency-driven dynamic token pooling with lossless retrieval.

Pruning removes only leaves of the current argmax dependency graph, lowest
cumulative received mass first.  Every removal is journaled: the token's
original index, the block after which it was dropped, its cumulative gate,
and how its outgoing mass splits over the tokens still alive.  The journal
is enough to rebuild dense token matrices and full-size masks afterwards.
The journal is checked and replayed one array step per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .block import AttentionState
from .errors import IntegrityError, UsageError, real_numbers, whole_numbers
from .tensor import Tensor


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
        lo, hi = min(self.parents), max(self.parents)
        if lo < 0 or hi >= min(n_tokens, 2**63):  # ids must also fit int64
            raise IntegrityError(f"parent index {lo if lo < 0 else hi} out of range")
        wgt = _parent_arrays([self])[1]
        bad = wgt[~(np.isfinite(wgt) & (wgt >= -1e-12))]
        if bad.size:
            raise IntegrityError(f"parent share {bad[0]} is negative or not finite")
        total = float(np.cumsum(wgt)[-1])  # in journal order, as a running total
        if abs(total - 1.0) > 1e-6:
            raise IntegrityError(f"parent shares sum to {total}, expected 1")


@dataclass
class PruneLedger:
    """Ordered journal of prune events over an n-token input."""

    n_tokens: int
    events: list[PruneEvent] = field(default_factory=list)

    def survivors(self) -> np.ndarray:
        """Ascending original indices alive after the whole schedule."""
        alive = np.ones(self.n_tokens, dtype=bool)
        alive[[e.token for e in self.events]] = False
        return np.flatnonzero(alive)

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
            if not seen.isdisjoint(e.parents):
                dead = next(idx for idx in e.parents if idx in seen)
                raise IntegrityError(f"event for token {e.token} references dead parent {dead}")
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
                    # no slower than leaving int keys to json.dumps (~23 ms per 17k keys)
                    "parents": {str(k): v for k, v in e.parents.items()},
                }
                for e in self.events
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PruneLedger":
        try:
            ledger = cls(
                n_tokens=whole_numbers(payload["n_tokens"])[0],
                events=[
                    PruneEvent(
                        *whole_numbers(e["layer"], e["token"]),
                        gate=real_numbers(e["gate"])[0],
                        parents=dict(zip(map(int, e["parents"]),
                                         real_numbers(*e["parents"].values()))),
                    )
                    for e in payload["events"]
                ],
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            # AttributeError: "parents" is not a mapping, e.g. a JSON list
            raise IntegrityError(f"malformed ledger payload: {exc}") from exc
        ledger.validate()
        return ledger


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
    np.fill_diagonal(w, -np.inf)
    return np.argmax(w, axis=0).astype(np.int64)


def received_mass(states: list[AttentionState]) -> np.ndarray:
    """Total incoming dependency mass per original token, summed over blocks."""
    if not states:
        raise UsageError("received_mass needs at least one block state")
    n_tokens = int(max(int(st.token_indices.max()) for st in states) + 1)
    out = np.zeros(n_tokens, dtype=np.float64)
    for st in states:
        out[st.token_indices] += st.mask.sum(axis=1)
    return out


def _event_distribution(column: np.ndarray, local_alive: np.ndarray,
                        survivors: np.ndarray) -> dict[int, float]:
    """Normalize a token's outgoing mass over the locally alive tokens.

    An all-zero column falls back to a uniform split so the journal always
    carries a proper distribution.
    """
    weights = column[local_alive]
    total = float(weights.sum())
    targets = survivors[local_alive].tolist()
    if total <= 1e-12:
        return dict.fromkeys(targets, 1.0 / len(targets))
    return dict(zip(targets, (weights / total).tolist()))


def prune_step(states: list[AttentionState], survivors: np.ndarray,
               kept: int) -> tuple[np.ndarray, list[PruneEvent]]:
    """Shrink the survivor set to ``kept`` tokens after the latest block.

    Tokens leave in leaf rounds.  Each round takes the alive tokens with no
    alive child in the current argmax graph, ranks them by cumulative
    received mass (lowest first, original index breaking ties) and removes
    them in that order until ``kept`` is reached; tokens that became leaves
    during a round wait for the next one.  Non-leaves are never removed, so
    if the graph's cycles alone exceed ``kept`` the step fails rather than
    break the guarantee.  Events are tagged with layer ``len(states)``.
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

    scores = received_mass(states)[survivors]
    parent = argmax_graph(mask)
    child_count = np.bincount(parent, minlength=s)  # s >= 2: every token has a parent
    alive = np.ones(s, dtype=bool)
    remaining = s
    events: list[PruneEvent] = []
    while remaining > kept:
        leaves = np.flatnonzero(alive & (child_count == 0))
        if leaves.size == 0:
            raise IntegrityError(
                "argmax-graph cycles leave no prunable leaf; cannot reach kept count"
            )
        for v in leaves[np.lexsort((survivors[leaves], scores[leaves]))][:remaining - kept]:
            alive[v] = False
            remaining -= 1
            events.append(PruneEvent(
                layer=len(states),
                token=int(survivors[v]),
                gate=float(states[-1].cumulative_gate[v]),
                parents=_event_distribution(mask[:, v], np.flatnonzero(alive), survivors),
            ))
            child_count[parent[v]] -= 1

    return survivors[alive], events


def _parent_arrays(events: list[PruneEvent]) -> tuple[np.ndarray, np.ndarray]:
    """The events' parent indices and shares, concatenated in journal order."""
    n = sum(len(e.parents) for e in events)
    return (np.fromiter(chain.from_iterable(e.parents for e in events), np.int64, n),
            np.fromiter(chain.from_iterable(e.parents.values() for e in events), np.float64, n))


def retrieve_dense(final_tokens: np.ndarray, ledger: PruneLedger) -> np.ndarray:
    """Rebuild an n_tokens x C matrix by replaying prune events backwards.

    Survivor rows are copied; each pruned token is reconstructed as the
    recorded convex combination of its parents.  A validated ledger names
    only parents that survive or leave later, so the reverse replay has
    always rebuilt them already.
    """
    ledger.validate()
    if isinstance(final_tokens, Tensor):
        final_tokens = final_tokens.data
    final_tokens = np.asarray(final_tokens)
    rows = ledger.n_tokens - len(ledger.events)  # validated: one new token per event
    if final_tokens.ndim != 2 or final_tokens.shape[0] != rows:
        raise IntegrityError(
            f"final tokens have shape {final_tokens.shape}, ledger expects {rows} rows"
        )
    c = final_tokens.shape[1]
    out = np.zeros((ledger.n_tokens, c), dtype=final_tokens.dtype)
    out[ledger.survivors()] = final_tokens
    idx, wgt = _parent_arrays(ledger.events)
    hi = idx.size
    for e in reversed(ledger.events):
        lo = hi - len(e.parents)
        terms = wgt[lo:hi, None] * out[idx[lo:hi]]  # float64 whatever the token dtype
        hi = lo
        # parents are added one by one in journal order: a sum over axis 0 adds
        # whole rows in order, but a single column is summed pairwise, so it takes
        # the last prefix sum; + 0.0 makes a -0.0 total +0.0, as a zero-started sum would
        total = np.add.reduce(terms, axis=0) if c != 1 else np.cumsum(terms[:, 0])[-1:]
        out[e.token] = total + 0.0
    return out


def expand_state_mask(state: AttentionState, ledger: PruneLedger) -> np.ndarray:
    """Embed a block's local mask into full coordinates via the ledger.

    Survivor entries are copied; each token pruned before the block gets its
    outgoing column reinstated as cached gate times its recorded parent
    distribution, which preserves every column's total sent mass.  The state's
    tokens plus those pruned before it must be exactly the ledger's n_tokens.
    """
    idx = state.token_indices
    alive = set(idx.tolist())
    gone = [e for e in ledger.events if e.token not in alive]  # pruned before the block
    n = ledger.n_tokens
    if idx.size != state.mask.shape[0] or n != idx.size + len(gone):
        raise IntegrityError(f"a {idx.size}-token state with a {state.mask.shape} mask and "
                             f"{len(gone)} tokens pruned before it do not make {n} tokens")
    rows, shares = _parent_arrays(gone)
    counts = [len(e.parents) for e in gone]
    cols = np.repeat(np.array([e.token for e in gone], dtype=np.int64), counts)
    full = np.zeros((n, n), dtype=np.float64)
    full[np.ix_(idx, idx)] = state.mask
    full[rows, cols] = np.repeat([e.gate for e in gone], counts) * shares
    return full
