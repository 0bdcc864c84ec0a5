"""Dependency-driven dynamic token pooling with lossless retrieval.

Pruning removes only leaves of the current argmax dependency graph, lowest
cumulative received mass first.  Every removal is journaled: the token's
original index, the block after which it was dropped, its cumulative gate,
and how its outgoing mass splits over the tokens still alive.  Who is alive
follows from the event order, so an event stores only the shares.  The
journal is enough to rebuild dense token matrices and full-size masks
afterwards.  It is checked once, when it is built, and replayed one array
step per event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block import AttentionState
from .errors import IntegrityError, UsageError, real_numbers, whole_numbers
from .tensor import Tensor


@dataclass(eq=False)
class PruneEvent:
    """One pruned token: who, when, and where its mass went.

    ``shares[j]`` belongs to the j-th token, in ascending original index,
    that is still alive right after this event: those are its parents.
    """

    layer: int          # block (1-based) after which the token left
    token: int          # original token index
    gate: float         # cumulative gate at prune time
    shares: np.ndarray  # float64, one per token alive after the event, sums to 1


@dataclass
class PruneLedger:
    """Ordered journal of prune events over an n-token input, checked when
    it is built."""

    n_tokens: int
    events: tuple[PruneEvent, ...]

    def __post_init__(self):
        self.events = tuple(self.events)
        self.validate()

    def survivors(self) -> np.ndarray:
        """Ascending original indices alive after the whole schedule."""
        alive = np.ones(self.n_tokens, dtype=bool)
        alive[[e.token for e in self.events]] = False
        return np.flatnonzero(alive)

    def validate(self) -> None:
        """Check each event, then that no token leaves twice and layers never
        go back.  Event k leaves n_tokens - k - 1 tokens alive, one share each."""
        n = self.n_tokens
        if n < 1:
            raise IntegrityError("ledger needs n_tokens >= 1")
        # O(events), never O(n_tokens): n_tokens may come from untrusted JSON
        seen: set[int] = set()
        last_layer = 0
        for k, e in enumerate(self.events):
            if not 0 <= e.token < n:
                raise IntegrityError(f"event token {e.token} out of range")
            if e.layer < 1:
                raise IntegrityError(f"event layer {e.layer} must be >= 1")
            if not 0.0 <= e.gate <= 1.0 + 1e-6:
                raise IntegrityError(f"event gate {e.gate} outside [0, 1]")
            wgt = e.shares
            alive = n - k - 1
            if alive < 1 or wgt.shape != (alive,):
                raise IntegrityError(f"event {k} for token {e.token} has {wgt.size} shares; "
                                     f"{alive} tokens are alive after it")
            bad = wgt[~(np.isfinite(wgt) & (wgt >= -1e-12))]
            if bad.size:
                raise IntegrityError(f"parent share {bad[0]} is negative or not finite")
            total = float(np.cumsum(wgt)[-1])  # in journal order, as a running total
            if abs(total - 1.0) > 1e-6:
                raise IntegrityError(f"parent shares sum to {total}, expected 1")
            if e.token in seen:
                raise IntegrityError(f"token {e.token} pruned twice")
            if e.layer < last_layer:
                raise IntegrityError("events out of chronological order")
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
                    "shares": e.shares.tolist(),
                }
                for e in self.events
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PruneLedger":
        try:
            events = payload["events"]
            for k, e in enumerate(events):
                if "parents" in e:
                    raise IntegrityError(f"event {k} lists 'parents', a key of an earlier "
                                         "ledger layout that is no longer read")
            return cls(
                n_tokens=whole_numbers(payload["n_tokens"])[0],
                events=[
                    PruneEvent(
                        *whole_numbers(e["layer"], e["token"]),
                        gate=real_numbers(e["gate"])[0],
                        shares=np.array(real_numbers(*e["shares"]), dtype=np.float64),
                    )
                    for e in events
                ],
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise IntegrityError(f"malformed ledger payload: {exc}") from exc


def argmax_graph(mask: np.ndarray) -> np.ndarray:
    """Greedy parent per token: the row with the largest entry in its column.

    A single token is its own root (-1).  Ties pick the lowest row index.
    The result may contain cycles; it is a graph, not yet a tree.
    """
    w = np.array(mask, dtype=np.float64)
    n = w.shape[0]
    if w.shape != (n, n):
        raise UsageError(f"mask must be square, got {w.shape}")
    if n == 1:
        return np.array([-1], dtype=np.int64)
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


def prune_step(states: list[AttentionState],
               kept: int) -> tuple[np.ndarray, list[PruneEvent]]:
    """Shrink the latest block's tokens to ``kept`` survivors.

    Tokens leave in leaf rounds.  Each round takes the alive tokens with no
    alive child in the current argmax graph, ranks them by cumulative
    received mass (lowest first, original index breaking ties) and removes
    them in that order until ``kept`` is reached; tokens that became leaves
    during a round wait for the next one.  Non-leaves are never removed, so
    if the graph's cycles alone exceed ``kept`` the step fails rather than
    break the guarantee.  Events are tagged with layer ``len(states)``.
    Returns the ascending local positions of the tokens kept, and the events.
    """
    if not states:
        raise UsageError("prune_step needs at least one block state")
    survivors = np.asarray(states[-1].token_indices, dtype=np.int64)
    if np.any(np.diff(survivors) <= 0):  # shares follow ascending original index
        raise UsageError("latest state's token_indices must be strictly ascending")
    s = survivors.size
    mask = states[-1].mask
    if mask.shape != (s, s):
        raise UsageError(f"latest mask must be ({s}, {s}) over the survivors")
    if kept > s:
        raise UsageError(f"kept {kept} exceeds current count {s}")
    if kept < 1:
        raise UsageError(f"kept must be >= 1, got {kept}")
    if kept == s:
        return np.arange(s), []

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
        for v in leaves[np.argsort(scores[leaves], kind="stable")][:remaining - kept]:
            alive[v] = False
            remaining -= 1
            local = np.flatnonzero(alive)
            sent = mask[local, v]
            total = float(sent.sum())
            events.append(PruneEvent(
                layer=len(states),
                token=int(survivors[v]),
                gate=float(states[-1].cumulative_gate[v]),
                # divided in the mask's dtype, then widened exactly; an all-zero
                # column splits evenly, so every event carries a distribution
                shares=(sent / total).astype(np.float64) if total > 1e-12
                else np.full(local.size, 1.0 / local.size),
            ))
            child_count[parent[v]] -= 1

    return np.flatnonzero(alive), events


def retrieve_dense(final_tokens: np.ndarray, ledger: PruneLedger) -> np.ndarray:
    """Rebuild an n_tokens x C matrix by replaying prune events backwards.

    Survivor rows are copied; each pruned token is reconstructed as the
    recorded convex combination of the tokens alive right after it left,
    which the reverse replay has always rebuilt already.
    """
    if isinstance(final_tokens, Tensor):
        final_tokens = final_tokens.data
    final_tokens = np.asarray(final_tokens)
    rows = ledger.n_tokens - len(ledger.events)  # one new token per event
    if final_tokens.ndim != 2 or final_tokens.shape[0] != rows:
        raise IntegrityError(
            f"final tokens have shape {final_tokens.shape}, ledger expects {rows} rows"
        )
    c = final_tokens.shape[1]
    out = np.zeros((ledger.n_tokens, c), dtype=final_tokens.dtype)
    alive = np.zeros(ledger.n_tokens, dtype=bool)
    alive[ledger.survivors()] = True
    out[alive] = final_tokens
    for e in reversed(ledger.events):
        parents = out[alive].astype(np.float64, copy=False)  # float64 whatever the token dtype
        # parents are added one by one in journal order, starting from zero:
        # einsum adds whole rows that way, but not a single column, which takes
        # the last prefix sum (+ 0.0 turns a -0.0 total into a zero start's +0.0)
        if c != 1:
            out[e.token] = np.einsum("p,pc->c", e.shares, parents)
        else:
            out[e.token] = np.cumsum(e.shares * parents[:, 0])[-1:] + 0.0
        alive[e.token] = True
    return out


def expand_state_mask(state: AttentionState, ledger: PruneLedger) -> np.ndarray:
    """Embed a block's local mask into full coordinates via the ledger.

    Survivor entries are copied; each token pruned before the block gets its
    outgoing column reinstated as cached gate times its recorded parent
    distribution, which preserves every column's total sent mass.  Those
    tokens are the ledger's first n_tokens - s events for an s-token state,
    and the tokens they leave alive must be exactly the state's.
    """
    idx = state.token_indices
    n = ledger.n_tokens
    gone = n - idx.size  # events before the block
    if state.mask.shape != (idx.size, idx.size) or not 0 <= gone <= len(ledger.events):
        raise IntegrityError(f"a {idx.size}-token state with a {state.mask.shape} mask does "
                             f"not fit a {n}-token ledger of {len(ledger.events)} events")
    full = np.zeros((n, n), dtype=np.float64)
    alive = np.ones(n, dtype=bool)
    for e in ledger.events[:gone]:
        alive[e.token] = False
        full[:, e.token][alive] = e.gate * e.shares  # faster than full[alive, e.token]
    if not np.array_equal(np.flatnonzero(alive), idx):
        raise IntegrityError(f"the {idx.size} tokens alive after the ledger's first {gone} "
                             "events are not the state's tokens")
    full[np.ix_(idx, idx)] = state.mask
    return full
