"""Tests for leaf-only token pruning, the journal, and lossless retrieval."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depvit.block import AttentionState
from depvit.errors import DepvitError, IntegrityError, UsageError
from depvit.fileio import write_json
from depvit.model import ModelConfig, init_weights, model_forward
from depvit.pruning import (
    PruneEvent,
    PruneLedger,
    expand_state_mask,
    prune_step,
    retrieve_dense,
)
from oracles import ledger_fault


def dict_event(layer, token, gate, parents):
    """A PruneEvent from a {parent id: share} dict, in the dict's order."""
    return PruneEvent(layer, token, gate, np.array(list(parents), dtype=np.int64),
                      np.array(list(parents.values()), dtype=np.float64))


def json_event(**fields):
    """One ledger event as JSON: token 0 leaves after block 1 into parent 1."""
    return {"layer": 1, "token": 0, "gate": 0.5, "parents": [1], "shares": [1.0], **fields}


def state_from_mask(mask, tokens=None, gate=None):
    mask = np.asarray(mask, dtype=np.float64)
    n = mask.shape[0]
    idx = np.arange(n) if tokens is None else np.asarray(tokens)
    return AttentionState(
        mask=mask,
        cumulative_gate=np.ones(n) if gate is None else np.asarray(gate, dtype=np.float64),
        token_indices=idx,
    )


def hand_mask_four_tokens():
    """Receiver-by-sender mask whose row sums are [0.1, 0.9, 0.8, 0.2].

    Argmax parents: 0 -> 1, 1 -> 2, 2 -> 1, 3 -> 1, so tokens 0 and 3 are
    the only leaves and carry the two lowest received masses.
    """
    a = np.zeros((4, 4))
    a[1, 0], a[2, 0], a[3, 0] = 0.5, 0.3, 0.05
    a[0, 1], a[2, 1], a[3, 1] = 0.04, 0.5, 0.05
    a[0, 2], a[1, 2], a[3, 2] = 0.03, 0.3, 0.1
    a[0, 3], a[1, 3], a[2, 3] = 0.03, 0.1, 0.0
    assert np.allclose(a.sum(axis=1), [0.1, 0.9, 0.8, 0.2])
    return a


class TestPruneEventValidation:
    def test_good_event_passes(self):
        PruneLedger(4, [dict_event(layer=1, token=0, gate=0.5, parents={1: 0.5, 2: 0.5})])

    def test_token_out_of_range(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [dict_event(layer=1, token=4, gate=0.5, parents={1: 1.0})])

    def test_layer_below_one(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [dict_event(layer=0, token=0, gate=0.5, parents={1: 1.0})])

    def test_gate_above_one(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [dict_event(layer=1, token=0, gate=1.5, parents={1: 1.0})])

    def test_empty_parents(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [dict_event(layer=1, token=0, gate=0.5, parents={})])

    def test_self_parent(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [dict_event(layer=1, token=0, gate=0.5, parents={0: 1.0})])

    def test_shares_must_sum_to_one(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [dict_event(layer=1, token=0, gate=0.5, parents={1: 0.7, 2: 0.7})])

    def test_duplicate_parent(self):
        # a dict could not hold this; expand_state_mask would drop one share
        ev = PruneEvent(1, 0, 0.5, np.array([2, 1, 2]), np.array([0.25, 0.5, 0.25]))
        with pytest.raises(IntegrityError, match="lists parent 2 twice"):
            PruneLedger(4, [ev])

    def test_one_share_per_parent(self):
        ev = PruneEvent(1, 0, 0.5, np.array([1, 2]), np.array([1.0]))
        with pytest.raises(IntegrityError, match="2 parents, 1 shares"):
            PruneLedger(4, [ev])


class TestLedgerValidation:
    def test_duplicate_token_rejected(self):
        with pytest.raises(IntegrityError):
            PruneLedger(n_tokens=3, events=[
                dict_event(1, 0, 1.0, {1: 1.0}),
                dict_event(2, 0, 1.0, {1: 1.0}),
            ])

    def test_layers_must_be_chronological(self):
        with pytest.raises(IntegrityError):
            PruneLedger(n_tokens=4, events=[
                dict_event(3, 0, 1.0, {1: 1.0}),
                dict_event(1, 2, 1.0, {1: 1.0}),
            ])

    def test_parent_must_be_alive_at_event(self):
        # token 1 leaves first, then token 0 claims it as a parent
        with pytest.raises(IntegrityError):
            PruneLedger(n_tokens=3, events=[
                dict_event(1, 1, 1.0, {2: 1.0}),
                dict_event(2, 0, 1.0, {1: 1.0}),
            ])

    def test_same_layer_order_is_event_order(self):
        # within one layer, earlier events die before later ones
        PruneLedger(n_tokens=3, events=[
            dict_event(1, 1, 1.0, {2: 1.0}),
            dict_event(1, 0, 1.0, {2: 1.0}),
        ])

    def test_survivors_and_pruned(self):
        led = PruneLedger(n_tokens=4, events=[
            dict_event(1, 2, 1.0, {0: 1.0}),
            dict_event(3, 0, 1.0, {1: 0.5, 3: 0.5}),
        ])
        assert list(led.survivors()) == [1, 3]

    def test_json_round_trip(self):
        led = PruneLedger(n_tokens=4, events=[
            dict_event(1, 2, 0.75, {0: 0.25, 3: 0.75}),
            dict_event(2, 0, 0.5, {1: 1.0}),
        ])
        back = PruneLedger.from_json_dict(led.to_json_dict())
        assert back.to_json_dict() == led.to_json_dict()
        for e, f in zip(led.events, back.events):
            assert f.parents.dtype == np.int64 and f.shares.dtype == np.float64
            assert f.parents.tobytes() == e.parents.tobytes()
            assert f.shares.tobytes() == e.shares.tobytes()

    def test_from_json_rejects_malformed(self):
        with pytest.raises(IntegrityError):
            PruneLedger.from_json_dict({"events": []})
        with pytest.raises(IntegrityError):
            PruneLedger.from_json_dict({"n_tokens": 4, "events": [{"layer": 1}]})

    @pytest.mark.parametrize("n_tokens, parents, shares", [
        (3, [[1, 1.0]], [1.0]),             # parents as pairs, not ids
        (3, [1], [float("nan")]),           # a NaN share must not pass the sum check
        (float("inf"), [1], [1.0]),         # n_tokens that no integer can hold
        (10**30, [2**63], [1.0]),           # a parent id beyond int64
        (10**30, [2**64], [1.0]),
        (10**30, [10**30], [1.0]),
        (10**30, [-2**63 - 1], [1.0]),
        (3, [True], [1.0]),                 # ids that are not whole numbers
        (3, ["1"], [1.0]),
        (3, [1.5], [1.0]),
        (3, {"1": 1.0}, [1.0]),             # the old {id: share} object
        (3, [1, 2], [1.0]),                 # one share short
        (3, [1], [0.5, 0.5]),               # one share over
    ])
    def test_from_json_rejects_bad_values(self, n_tokens, parents, shares):
        payload = {"n_tokens": n_tokens,
                   "events": [json_event(parents=parents, shares=shares)]}
        with pytest.raises(IntegrityError):
            PruneLedger.from_json_dict(payload)

    def test_from_json_rejects_a_parent_listed_twice(self):
        # json.loads keeps the last of two equal keys, so this {id: share}
        # object, the layout before parents and shares became lists, loaded
        # as parents [1, 2] with shares [0.5, 0.5]
        text = ('{"n_tokens": 4, "events": [{"layer": 1, "token": 0, "gate": 0.5,'
                ' "parents": {"1": 0.25, "2": 0.5, "1": 0.5}}]}')
        with pytest.raises(IntegrityError):
            PruneLedger.from_json_dict(json.loads(text))
        text = ('{"n_tokens": 4, "events": [{"layer": 1, "token": 0, "gate": 0.5,'
                ' "parents": [1, 2, 1], "shares": [0.25, 0.5, 0.25]}]}')
        with pytest.raises(IntegrityError, match="lists parent 1 twice"):
            PruneLedger.from_json_dict(json.loads(text))

    @pytest.mark.parametrize("field, value", [
        ("n_tokens", True), ("n_tokens", 3.5), ("n_tokens", "3"),
        ("layer", 1.5), ("layer", True), ("layer", "1"),
        ("token", 0.5), ("token", False), ("token", "0"),
    ])
    def test_from_json_rejects_counts_that_are_not_whole_numbers(self, field, value):
        # int() would take each of these: 3.5 as 3, True as 1, "3" as 3
        payload = {"n_tokens": 3, "events": [json_event()]}
        (payload if field == "n_tokens" else payload["events"][0])[field] = value
        with pytest.raises(IntegrityError, match="whole numbers"):
            PruneLedger.from_json_dict(payload)

    @pytest.mark.parametrize("field", ["gate", "share"])
    @pytest.mark.parametrize("value", ['"1.0"', "true", "NaN"])
    def test_from_json_rejects_gates_and_shares_that_are_not_finite_numbers(
            self, field, value):
        # float() would take "1.0" and true as 1.0, and NaN as it is
        event = json_event()
        if field == "gate":
            event["gate"] = json.loads(value)
        else:
            event["shares"][0] = json.loads(value)
        with pytest.raises(IntegrityError):
            PruneLedger.from_json_dict({"n_tokens": 3, "events": [event]})

    def test_from_json_takes_whole_floats(self):
        payload = {"n_tokens": 3.0, "events": [json_event(layer=1.0, token=2.0)]}
        led = PruneLedger.from_json_dict(payload)
        event = led.events[0]
        assert (led.n_tokens, event.layer, event.token) == (3, 1, 2)
        assert all(type(v) is int for v in (led.n_tokens, event.layer, event.token))

    def test_validation_does_not_enumerate_tokens(self):
        # a set of every token id would not fit in memory at this count, so
        # validation has to work from the events alone
        payload = {"n_tokens": 10**30, "events": [json_event()]}
        assert PruneLedger.from_json_dict(payload).n_tokens == 10**30


class TestPruneStep:
    def test_hand_case_prunes_lowest_mass_leaves(self):
        mask = hand_mask_four_tokens()
        states = [state_from_mask(mask, gate=[0.9, 0.8, 0.7, 0.6])]
        survivors, events = prune_step(states, kept=2)
        assert list(survivors) == [1, 2]
        assert [e.token for e in events] == [0, 3]
        # token 0 distributes its outgoing column over 1, 2, 3
        assert events[0].parents.dtype == np.int64
        assert events[0].shares.dtype == np.float64
        assert events[0].parents.tolist() == [1, 2, 3]
        np.testing.assert_allclose(events[0].shares, np.array([0.5, 0.3, 0.05]) / 0.85,
                                   atol=1e-12)
        # token 3 then distributes over 1, 2; its column is [0.1, 0.0]
        assert events[1].parents.tolist() == [1, 2]
        np.testing.assert_allclose(events[1].shares, [1.0, 0.0], atol=1e-12)
        assert events[0].gate == pytest.approx(0.9)
        assert events[1].gate == pytest.approx(0.6)
        assert all(e.layer == 1 for e in events)

    def test_float32_shares_are_widened_exactly(self):
        mask = hand_mask_four_tokens().astype(np.float32)
        state = AttentionState(mask=mask, cumulative_gate=np.ones(4, dtype=np.float32),
                               token_indices=np.arange(4))
        _, events = prune_step([state], kept=3)
        column = mask[1:, 0]
        assert events[0].shares.tolist() == (column / float(column.sum())).tolist()

    def test_noop_when_kept_equals_current(self):
        states = [state_from_mask(hand_mask_four_tokens())]
        survivors, events = prune_step(states, kept=4)
        assert list(survivors) == [0, 1, 2, 3]
        assert events == []

    def test_kept_bounds_rejected(self):
        states = [state_from_mask(hand_mask_four_tokens())]
        with pytest.raises(UsageError):
            prune_step(states, kept=0)
        with pytest.raises(UsageError):
            prune_step(states, kept=5)

    def test_only_leaves_are_pruned(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 12))
            mask = rng.random((n, n))
            np.fill_diagonal(mask, 0.0)
            kept = int(rng.integers(1, n))
            states = [state_from_mask(mask)]
            try:
                _, events = prune_step(states, kept)
            except IntegrityError:
                continue  # argmax cycles can make the target unreachable
            alive = np.ones(n, dtype=bool)
            for e in events:
                # recompute parents over currently alive tokens only: the
                # victim must have no alive child in the fixed argmax graph
                sub = mask[np.ix_(alive, alive)]
                local = np.where(alive)[0]
                np.fill_diagonal(sub, -np.inf)
                parent_local = np.argmax(sub, axis=0)
                children = set()
                for c in range(sub.shape[0]):
                    if sub.shape[0] > 1:
                        children.add(int(local[parent_local[c]]))
                # fixed-graph semantics: parents from the original mask
                orig_parent = np.argmax(np.where(np.eye(n, dtype=bool), -np.inf, mask), axis=0)
                has_child = any(
                    alive[c] and orig_parent[c] == e.token
                    for c in range(n) if c != e.token
                )
                assert not has_child, f"pruned token {e.token} still had a child"
                alive[e.token] = False

    def test_ranking_is_mass_ascending_with_index_tiebreak(self):
        # two leaves with identical mass: lower index goes first
        a = np.zeros((4, 4))
        a[1, 0], a[1, 3] = 0.4, 0.4   # parents: 0 -> 1, 3 -> 1
        a[2, 1] = 0.9                  # 1 -> 2
        a[1, 2] = 0.3                  # 2 -> 1
        states = [state_from_mask(a)]
        _, events = prune_step(states, kept=2)
        assert [e.token for e in events] == [0, 3]

    def test_leaf_rounds_finish_before_new_leaves(self):
        """Leaves 0 (mass 0.05) and 2 (0.3) form the first round.  Removing
        0 leaves its parent 1 childless with mass 0.2, below 2's, yet 2 goes
        first: 1 only joins the next round.  The cycle 3 <-> 4 stays."""
        a = np.zeros((5, 5))
        a[1, 0] = 0.2                 # 0 -> 1
        a[3, 1], a[0, 1] = 0.5, 0.05  # 1 -> 3
        a[3, 2] = 0.6                 # 2 -> 3
        a[4, 3], a[2, 3] = 0.9, 0.3   # 3 -> 4
        a[3, 4] = 0.8                 # 4 -> 3
        states = [state_from_mask(a), state_from_mask(a)]
        survivors, events = prune_step(states, kept=2)
        assert list(survivors) == [3, 4]
        assert [e.token for e in events] == [0, 2, 1]
        assert all(e.layer == 2 for e in events)  # one event layer per block run

    def test_cycle_stall_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        states = [state_from_mask(a)]
        with pytest.raises(IntegrityError):
            prune_step(states, kept=1)

    def test_uniform_fallback_for_zero_column(self):
        a = np.zeros((3, 3))
        a[1, 2] = 0.5   # 2 -> 1; tokens 0 and 2 are leaves, 0 has zero column
        a[2, 1] = 0.4
        states = [state_from_mask(a)]
        _, events = prune_step(states, kept=2)
        assert events[0].token == 0
        assert events[0].shares.tolist() == [0.5, 0.5]

    def test_token_indices_respected(self):
        # survivors carry original ids; events must report those
        mask = hand_mask_four_tokens()
        tokens = np.array([2, 5, 7, 11])
        states = [state_from_mask(mask, tokens=tokens)]
        survivors, events = prune_step(states, kept=2)
        assert list(survivors) == [5, 7]
        assert [e.token for e in events] == [2, 11]
        assert events[0].parents.tolist() == [5, 7, 11]


class TestRetrieveDense:
    def test_empty_ledger_is_bit_exact_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 5)).astype(np.float32)
        led = PruneLedger(n_tokens=6, events=[])
        out = retrieve_dense(x, led)
        assert out.dtype == x.dtype
        assert np.array_equal(out, x)

    def test_one_hot_parent_copies_feature(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        led = PruneLedger(n_tokens=3, events=[
            dict_event(1, 1, 0.5, {0: 1.0}),
        ])
        out = retrieve_dense(x, led)
        np.testing.assert_array_equal(out[1], x[0])
        np.testing.assert_array_equal(out[0], x[0])
        np.testing.assert_array_equal(out[2], x[1])

    def test_reverse_replay_hand_case(self):
        # chronological: token 0 leaves first (parents 1, 2, 3), token 3
        # second (parents 1, 2).  Replay must rebuild 3 before 0.
        led = PruneLedger(n_tokens=4, events=[
            dict_event(1, 0, 1.0, {1: 0.5, 2: 0.25, 3: 0.25}),
            dict_event(2, 3, 1.0, {1: 0.5, 2: 0.5}),
        ])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])  # rows for survivors 1, 2
        out = retrieve_dense(x, led)
        np.testing.assert_allclose(out[3], [0.5, 0.5])
        np.testing.assert_allclose(out[0], [0.625, 0.375])

    def test_row_count_mismatch(self):
        led = PruneLedger(n_tokens=4, events=[dict_event(1, 0, 1.0, {1: 1.0})])
        with pytest.raises(IntegrityError):
            retrieve_dense(np.zeros((2, 3)), led)
        with pytest.raises(IntegrityError):
            retrieve_dense(np.float64(1.0), led)  # no rows at all

    def test_row_count_is_checked_before_listing_survivors(self):
        # a ledger JSON may claim 10**30 tokens; listing them would never end
        led = PruneLedger.from_json_dict({"n_tokens": 10**30, "events": [json_event()]})
        with pytest.raises(IntegrityError):
            retrieve_dense(np.zeros((2, 3)), led)

    def test_forward_order_dependency_rejected(self):
        # token 3 leaves first naming 0 as parent; then 0 leaves.  During
        # reverse replay 0 is rebuilt after 3 needs it, which must fail
        # ledger validation (chronology is fine, coverage is the issue).
        # Parents were alive at event time, so the ledger builds.
        led = PruneLedger(n_tokens=4, events=[
            dict_event(1, 3, 1.0, {0: 1.0}),
            dict_event(2, 0, 1.0, {1: 1.0}),
        ])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = retrieve_dense(x, led)
        # 0 is rebuilt first (last event), then 3 copies it
        np.testing.assert_array_equal(out[0], x[0])
        np.testing.assert_array_equal(out[3], out[0])


    def test_matches_sequential_float64_replay(self):
        cfg = ModelConfig(image_size=128, patch_size=16, channels=16, heads=4,
                          layers=3, num_classes=3, seed=2,
                          prune_schedule=((1, 40), (2, 20)))
        img = np.random.default_rng(3).random((128, 128, 3)).astype(np.float32)
        res = model_forward(img, cfg, init_weights(cfg))
        assert len(res.ledger.events) == 44
        ref = np.zeros((64, res.tokens.data.shape[1]), dtype=res.tokens.data.dtype)
        ref[res.ledger.survivors()] = res.tokens.data
        for e in reversed(res.ledger.events):
            acc = np.zeros(ref.shape[1], dtype=np.float64)
            for idx, wgt in zip(e.parents.tolist(), e.shares.tolist()):
                acc += wgt * ref[idx].astype(np.float64)
            ref[e.token] = acc.astype(ref.dtype)
        out = retrieve_dense(res.tokens, res.ledger)
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_single_channel_sums_parents_in_journal_order(self):
        # one column is where a numpy reduction would regroup the terms
        rng = np.random.default_rng(5)
        shares = rng.random(40) * 10.0 ** rng.integers(-8, 8, 40)
        shares /= shares.sum()
        led = PruneLedger(n_tokens=41, events=[
            dict_event(1, 0, 1.0, {i + 1: float(w) for i, w in enumerate(shares)}),
        ])
        x = rng.standard_normal((40, 1)) * 10.0 ** rng.integers(-8, 8, (40, 1))
        acc = 0.0
        for i, w in zip(led.events[0].parents.tolist(), led.events[0].shares.tolist()):
            acc += w * x[i - 1, 0]
        assert retrieve_dense(x, led)[0, 0] == acc


    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_wide_tokens_sum_parents_in_journal_order(self, width):
        # a (P, C) table summed over axis 0 must add whole rows in journal
        # order, as the per-parent loop does, for every width above one
        rng = np.random.default_rng(20 + width)
        n, pruned = 60, 40
        order = rng.permutation(n)
        events = []
        for k, tok in enumerate(order[:pruned].tolist()):
            alive = order[k + 1:]
            parents = rng.choice(alive, size=min(alive.size, 25), replace=False)
            shares = rng.random(parents.size) * 10.0 ** rng.integers(-8, 8, parents.size)
            shares /= shares.sum()
            events.append(PruneEvent(1, tok, 1.0, parents, shares))
        led = PruneLedger(n_tokens=n, events=events)
        rows = (n - pruned, width)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
        ref = np.zeros((n, width))
        ref[led.survivors()] = x
        for e in reversed(events):
            acc = np.zeros(width)
            for idx, wgt in zip(e.parents.tolist(), e.shares.tolist()):
                acc += wgt * ref[idx]
            ref[e.token] = acc
        assert retrieve_dense(x, led).tobytes() == ref.tobytes()

    def test_negative_zero_total_is_positive_zero(self):
        # the replay starts from a zero accumulator: 0.0 + 1.0 * -0.0 is +0.0
        led = PruneLedger(n_tokens=2, events=[dict_event(1, 0, 1.0, {1: 1.0})])
        out = retrieve_dense(np.array([[-0.0, 2.0]]), led)
        assert out[0].tobytes() == np.array([0.0, 2.0]).tobytes()


class TestExpandMask:
    def test_identity_when_nothing_pruned(self):
        mask = hand_mask_four_tokens()
        st = state_from_mask(mask)
        led = PruneLedger(n_tokens=4, events=[])
        full = expand_state_mask(st, led)
        np.testing.assert_array_equal(full, mask)

    def test_pruned_column_is_gate_times_distribution(self):
        led = PruneLedger(n_tokens=3, events=[
            dict_event(1, 1, 0.8, {0: 0.75, 2: 0.25}),
        ])
        sub = np.array([[0.0, 0.3], [0.2, 0.0]])
        st = state_from_mask(sub, tokens=np.array([0, 2]))
        full = expand_state_mask(st, led)
        np.testing.assert_allclose(full[:, 1], [0.8 * 0.75, 0.0, 0.8 * 0.25])
        np.testing.assert_allclose(full[np.ix_([0, 2], [0, 2])], sub)
        assert full[1, :].sum() == 0.0  # pruned token receives nothing

    def test_column_sums_preserved(self):
        # column mass of a pruned token equals its cached gate
        led = PruneLedger(n_tokens=5, events=[
            dict_event(1, 0, 0.6, {1: 0.5, 2: 0.5}),
            dict_event(2, 4, 0.25, {1: 0.1, 2: 0.2, 3: 0.7}),
        ])
        sub = np.random.default_rng(1).random((3, 3))
        np.fill_diagonal(sub, 0.0)
        st = state_from_mask(sub, tokens=np.array([1, 2, 3]))
        full = expand_state_mask(st, led)
        assert full[:, 0].sum() == pytest.approx(0.6, abs=1e-12)
        assert full[:, 4].sum() == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n_tokens", [10**30, 5000])
    def test_token_count_must_match_state(self, n_tokens):
        # one state token plus one token pruned before the block make 2
        led = PruneLedger(n_tokens=n_tokens, events=[dict_event(1, 0, 1.0, {1: 1.0})])
        with pytest.raises(IntegrityError):
            expand_state_mask(state_from_mask([[0.0]], tokens=[1]), led)



_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**16) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=12,
)


@st.composite
def ledger_payloads(draw):
    """A valid journal, then possibly one field replaced by arbitrary JSON."""
    n = draw(st.integers(1, 6))
    alive = list(range(n))
    events = []
    layer = 1
    for _ in range(draw(st.integers(0, n - 1))):
        token = alive.pop(draw(st.integers(0, len(alive) - 1)))
        targets = draw(st.lists(st.sampled_from(alive), min_size=1, unique=True))
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(targets), max_size=len(targets)))
        layer += draw(st.integers(0, 2))
        events.append({
            "layer": layer, "token": token, "gate": draw(st.floats(0.0, 1.0)),
            "parents": targets, "shares": [w / sum(raw) for w in raw],
        })
    payload = {"n_tokens": n, "events": events}
    if draw(st.booleans()):
        target = payload if not events or draw(st.booleans()) else draw(st.sampled_from(events))
        target[draw(st.sampled_from(sorted(target)))] = draw(_JSON)
    return payload


class TestLedgerJsonProperty:
    @given(ledger_payloads() | _JSON)
    @settings(max_examples=200, deadline=None)
    def test_round_trips_or_fails_cleanly(self, payload):
        try:
            ledger = PruneLedger.from_json_dict(payload)
        except DepvitError:
            return
        text = json.dumps(ledger.to_json_dict())
        assert json.dumps(PruneLedger.from_json_dict(json.loads(text)).to_json_dict()) == text


_BAD_IDS = [-1, 2**63 - 1, -2**63]  # ids beyond int64 are a JSON reader case
_ODD_SHARES = [float("nan"), float("inf"), -float("inf"), -0.1, -1e-13]
_ODD_GATES = [float("nan"), float("inf"), -0.1, 1.0 + 5e-7, 1.0 + 2e-6]


@st.composite
def journals(draw):
    """The token count and events of a valid journal, then maybe one edit of
    a kind validation checks; some edits, such as a share of -1e-13 or a
    layer kept in order, stay valid."""
    n = draw(st.integers(2, 8))
    alive = list(range(n))
    events = []
    layer = 1
    for _ in range(draw(st.integers(1, n - 1))):
        token = alive.pop(draw(st.integers(0, len(alive) - 1)))
        targets = draw(st.lists(st.sampled_from(alive), min_size=1, unique=True))
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(targets), max_size=len(targets)))
        layer += draw(st.integers(0, 2))
        events.append(PruneEvent(layer, token, draw(st.floats(0.0, 1.0)),
                                 np.array(targets, dtype=np.int64),
                                 np.array([w / sum(raw) for w in raw])))
    kind = draw(st.sampled_from(
        ["none", "share", "parent id", "n_tokens", "self parent", "dead parent",
         "layer", "token", "gate", "empty", "scale", "duplicate", "share count"]))
    if kind == "none":
        return n, events
    if kind == "n_tokens":
        return draw(st.integers(-1, n + 1)), events
    e = draw(st.sampled_from(events))
    i = draw(st.integers(0, e.parents.size - 1))
    if kind == "share":
        e.shares[i] = draw(st.sampled_from(_ODD_SHARES))
    elif kind in ("parent id", "self parent", "dead parent"):
        e.parents[i] = draw(st.sampled_from({"parent id": _BAD_IDS, "self parent": [e.token],
                                             "dead parent": [f.token for f in events]}[kind]))
    elif kind == "layer":
        e.layer = draw(st.integers(-1, layer + 1))
    elif kind == "token":
        e.token = draw(st.integers(-1, n))
    elif kind == "gate":
        e.gate = draw(st.sampled_from(_ODD_GATES))
    elif kind == "empty":
        e.parents, e.shares = e.parents[:0], e.shares[:0]
    elif kind == "scale":
        e.shares = e.shares * np.array(
            [draw(st.sampled_from([1.0 + 5e-7, 1.0 + 2e-6, 0.5])) for _ in e.shares])
    elif kind == "duplicate":  # the sum still holds
        e.parents, e.shares = np.append(e.parents, e.parents[i]), np.append(e.shares, 0.0)
    elif kind == "share count":
        e.shares = np.delete(e.shares, i)
    return n, events


class TestLedgerValidationOracle:
    @given(journals())
    @settings(max_examples=600, deadline=None)
    def test_raises_exactly_when_the_entry_loop_does(self, journal):
        """The array checks agree with the per-entry reference loop; any
        other exception, such as an OverflowError, fails the property."""
        n_tokens, events = journal
        if ledger_fault(n_tokens, events) is None:
            PruneLedger(n_tokens, events)
        else:
            with pytest.raises(IntegrityError):
                PruneLedger(n_tokens, events)


class TestJournalScale:
    @pytest.mark.slow
    def test_journal_at_1024_tokens(self, tmp_path):
        # no runtime cliff up to 1024 tokens: four steps down to 128 journal
        # 896 events with about half a million parent entries
        rng = np.random.default_rng(11)
        survivors = np.arange(1024)
        states, journal = [], []
        t0 = time.monotonic()
        for kept in (768, 512, 256, 128):
            s = survivors.size
            mask = rng.uniform(size=(s, s))
            np.fill_diagonal(mask, 0.0)
            states.append(state_from_mask(mask, tokens=survivors, gate=rng.uniform(size=s)))
            survivors, events = prune_step(states, kept)
            journal += events
        ledger = PruneLedger(n_tokens=1024, events=journal)
        final = rng.standard_normal((128, 8))
        dense = retrieve_dense(final, ledger)
        full = expand_state_mask(states[-1], ledger)
        write_json(tmp_path / "ledger.json", ledger.to_json_dict())
        back = PruneLedger.from_json_dict(json.loads((tmp_path / "ledger.json").read_text()))
        assert time.monotonic() - t0 < 60.0
        assert len(ledger.events) == 896
        assert back.to_json_dict() == ledger.to_json_dict()
        assert dense[survivors].tobytes() == final.tobytes()
        gone = [e.token for e in ledger.events if e.layer < 4]
        np.testing.assert_allclose(full[:, gone].sum(axis=0),
                                   [e.gate for e in ledger.events if e.layer < 4])
