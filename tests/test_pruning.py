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
from depvit.model import LITE_SCHEDULE, ModelConfig, init_weights, model_forward
from depvit.pruning import (
    PruneEvent,
    PruneLedger,
    expand_state_mask,
    prune_step,
    retrieve_dense,
)
from oracles import (
    explicit_expand_state_mask,
    explicit_retrieve_dense,
    ledger_fault,
    ledger_parents,
)


def event(layer, token, gate, *shares):
    """A PruneEvent whose shares go, in order, to the tokens alive after it."""
    return PruneEvent(layer, token, gate, np.array(shares, dtype=np.float64))


def json_event(**fields):
    """One event of a 3-token ledger as JSON: token 0 leaves after block 1
    and splits its mass evenly over tokens 1 and 2."""
    return {"layer": 1, "token": 0, "gate": 0.5, "shares": [0.5, 0.5], **fields}


# A ledger as ``depvit prune`` wrote it while events still listed their
# parents: 9 tokens (48 px, C=8, H=2, L=3, seed 3), keeping 6 and then 4
# after blocks 1 and 2.
PR19_LEDGER = (
    '{"n_tokens": 9, "events": ['
    '{"layer": 1, "token": 6, "gate": 0.5007322430610657, "parents": [0, 1, 2, 3, 4, 5, 7, '
    '8], "shares": [0.1249684989452362, 0.12510564923286438, 0.12500888109207153, '
    '0.12496836483478546, 0.12491867691278458, 0.12495319545269012, 0.12507009506225586, '
    '0.12500664591789246]}, '
    '{"layer": 1, "token": 4, "gate": 0.5006901621818542, "parents": [0, 1, 2, 3, 5, 7, 8], '
    '"shares": [0.1428079754114151, 0.14296521246433258, 0.142852321267128, '
    '0.1428070217370987, 0.1427903175354004, 0.14292560517787933, 0.1428515762090683]}, '
    '{"layer": 1, "token": 5, "gate": 0.5007633566856384, "parents": [0, 1, 2, 3, 7, 8], '
    '"shares": [0.1665966808795929, 0.16678354144096375, 0.16664698719978333, '
    '0.16659270226955414, 0.16673430800437927, 0.1666458249092102]}, '
    '{"layer": 2, "token": 3, "gate": 0.2503077983856201, "parents": [0, 1, 2, 7, 8], '
    '"shares": [0.20003291964530945, 0.20006421208381653, 0.19991883635520935, '
    '0.2000143826007843, 0.19996961951255798]}, '
    '{"layer": 2, "token": 2, "gate": 0.25033289194107056, "parents": [0, 1, 7, 8], '
    '"shares": [0.2500200867652893, 0.2500525414943695, 0.24998979270458221, '
    '0.24993763864040375]}]}'
)


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
        PruneLedger(4, [event(1, 0, 0.5, 0.5, 0.5, 0.0)])

    def test_token_out_of_range(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [event(1, 4, 0.5, 1.0, 0.0, 0.0)])

    def test_layer_below_one(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [event(0, 0, 0.5, 1.0, 0.0, 0.0)])

    def test_gate_above_one(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [event(1, 0, 1.5, 1.0, 0.0, 0.0)])

    def test_shares_must_sum_to_one(self):
        with pytest.raises(IntegrityError):
            PruneLedger(4, [event(1, 0, 0.5, 0.7, 0.7, 0.0)])

    @pytest.mark.parametrize("shares", [(1.0,), (0.5, 0.25, 0.25), ()])
    def test_one_share_per_token_alive_after_it(self, shares):
        # the second of four tokens to leave leaves two alive
        with pytest.raises(IntegrityError, match="2 tokens are alive after it"):
            PruneLedger(4, [event(1, 0, 0.5, 1.0, 0.0, 0.0), event(1, 1, 0.5, *shares)])

    def test_last_token_cannot_leave(self):
        # after event k, n_tokens - k - 1 tokens are alive; the last event
        # must leave at least one to carry its mass
        with pytest.raises(IntegrityError, match="0 tokens are alive"):
            PruneLedger(2, [event(1, 0, 0.5, 1.0), event(1, 1, 0.5)])


class TestLedgerValidation:
    def test_duplicate_token_rejected(self):
        with pytest.raises(IntegrityError):
            PruneLedger(n_tokens=3, events=[
                event(1, 0, 1.0, 1.0, 0.0),
                event(2, 0, 1.0, 1.0),
            ])

    def test_layers_must_be_chronological(self):
        with pytest.raises(IntegrityError):
            PruneLedger(n_tokens=4, events=[
                event(3, 0, 1.0, 1.0, 0.0, 0.0),
                event(1, 2, 1.0, 1.0, 0.0),
            ])

    def test_same_layer_order_is_event_order(self):
        # within one layer, earlier events die before later ones
        PruneLedger(n_tokens=3, events=[
            event(1, 1, 1.0, 0.0, 1.0),
            event(1, 0, 1.0, 1.0),
        ])

    def test_survivors_and_pruned(self):
        led = PruneLedger(n_tokens=4, events=[
            event(1, 2, 1.0, 1.0, 0.0, 0.0),
            event(3, 0, 1.0, 0.5, 0.5),
        ])
        assert list(led.survivors()) == [1, 3]

    def test_json_round_trip(self):
        led = PruneLedger(n_tokens=4, events=[
            event(1, 2, 0.75, 0.25, 0.0, 0.75),
            event(2, 0, 0.5, 1.0, 0.0),
        ])
        payload = led.to_json_dict()
        assert [sorted(e) for e in payload["events"]] == [["gate", "layer", "shares", "token"]] * 2
        back = PruneLedger.from_json_dict(payload)
        assert back.to_json_dict() == payload
        for e, f in zip(led.events, back.events):
            assert f.shares.dtype == np.float64
            assert f.shares.tobytes() == e.shares.tobytes()

    def test_from_json_rejects_malformed(self):
        with pytest.raises(IntegrityError):
            PruneLedger.from_json_dict({"events": []})
        with pytest.raises(IntegrityError):
            PruneLedger.from_json_dict({"n_tokens": 4, "events": [{"layer": 1}]})

    @pytest.mark.parametrize("n_tokens, shares", [
        (2, [float("nan")]),                # a NaN share must not pass the sum check
        (float("inf"), [1.0]),              # n_tokens that no integer can hold
        (3, [[1, 1.0]]),                    # shares as pairs, not numbers
        (3, {"1": 1.0}),                    # the {id: share} object of an older layout
        (3, [1.0]),                         # one share short
        (2, [0.5, 0.5]),                    # one share over
        (1, []),                            # no token left to take the mass
        (10**30, [1.0]),                    # 10**30 - 1 tokens alive, one share
        (3, [10**400, 0.0]),                # a share no float can hold
    ])
    def test_from_json_rejects_bad_values(self, n_tokens, shares):
        payload = {"n_tokens": n_tokens, "events": [json_event(shares=shares)]}
        with pytest.raises(IntegrityError):
            PruneLedger.from_json_dict(payload)

    def test_pr19_layout_is_refused(self):
        # its parents were always the ascending alive set, but a reader that
        # took the key would have to check it; it is refused instead
        with pytest.raises(IntegrityError, match="event 0 lists 'parents'"):
            PruneLedger.from_json_dict(json.loads(PR19_LEDGER))

    @pytest.mark.parametrize("parents, shares", [
        ([1, 2], [0.5, 0.5]),   # the ascending alive set, as depvit prune wrote it
        ([2, 1], [0.9, 0.1]),   # the alive set, not ascending
        ([0, 0], [0.5, 0.5]),   # the token itself, listed twice
        ([1, 1], [0.5, 0.5]),   # an alive token listed twice
        ([1, 10**30], [0.5, 0.5]),  # an id no token has
        ([1, 2.5], [0.5, 0.5]),  # an id that is not a whole number
    ])
    def test_old_file_is_refused_whatever_its_parents(self, parents, shares):
        # loading some of these as they stand would rebuild token 0 from other
        # tokens, or with other weights, than the file says
        payload = {"n_tokens": 3, "events": [json_event(parents=parents, shares=shares)]}
        with pytest.raises(IntegrityError, match="event 0 lists 'parents'"):
            PruneLedger.from_json_dict(payload)

    def test_old_parents_are_checked_on_every_event(self):
        first = json_event(shares=[0.5, 0.25, 0.25])
        late = {"layer": 2, "token": 2, "gate": 0.25, "parents": [1, 3], "shares": [0.5, 0.5]}
        payload = {"n_tokens": 4, "events": [first, late]}
        with pytest.raises(IntegrityError, match="event 1 lists 'parents'"):
            PruneLedger.from_json_dict(payload)

    def test_old_file_with_a_subset_of_the_alive_tokens_is_refused(self):
        # the old check let an event name only some of the tokens still
        # alive; the key is refused before its share count is looked at
        text = ('{"n_tokens": 4, "events": [{"layer": 1, "token": 0, "gate": 0.5,'
                ' "parents": [1, 3], "shares": [0.25, 0.75]}]}')
        with pytest.raises(IntegrityError, match="event 0 lists 'parents'"):
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
        payload = {"n_tokens": 10**30, "events": []}
        assert PruneLedger.from_json_dict(payload).n_tokens == 10**30


class TestPruneStep:
    def test_hand_case_prunes_lowest_mass_leaves(self):
        mask = hand_mask_four_tokens()
        states = [state_from_mask(mask, gate=[0.9, 0.8, 0.7, 0.6])]
        keep, events = prune_step(states, kept=2)
        assert list(keep) == [1, 2]
        assert [e.token for e in events] == [0, 3]
        # token 0 distributes its outgoing column over 1, 2, 3
        assert events[0].shares.dtype == np.float64
        np.testing.assert_allclose(events[0].shares, np.array([0.5, 0.3, 0.05]) / 0.85,
                                   atol=1e-12)
        # token 3 then distributes over 1, 2; its column is [0.1, 0.0]
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
        keep, events = prune_step(states, kept=4)
        assert list(keep) == [0, 1, 2, 3]
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
        keep, events = prune_step(states, kept=2)
        assert list(keep) == [3, 4]
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
        # the state carries original ids; events report those, and the kept
        # tokens come back as positions in the state
        mask = hand_mask_four_tokens()
        tokens = np.array([2, 5, 7, 11])
        states = [state_from_mask(mask, tokens=tokens)]
        keep, events = prune_step(states, kept=2)
        assert list(keep) == [1, 2]
        assert list(tokens[keep]) == [5, 7]
        assert [e.token for e in events] == [2, 11]
        assert [e.shares.size for e in events] == [3, 2]

    @pytest.mark.parametrize("tokens", [[5, 2, 7, 11], [2, 5, 5, 11]])
    def test_token_indices_must_ascend(self, tokens):
        # shares follow ascending original index, so a shuffled state would
        # send them to the wrong parents
        states = [state_from_mask(hand_mask_four_tokens(), tokens=np.array(tokens))]
        with pytest.raises(UsageError, match="strictly ascending"):
            prune_step(states, kept=2)


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
            event(1, 1, 0.5, 1.0, 0.0),
        ])
        out = retrieve_dense(x, led)
        np.testing.assert_array_equal(out[1], x[0])
        np.testing.assert_array_equal(out[0], x[0])
        np.testing.assert_array_equal(out[2], x[1])

    def test_reverse_replay_hand_case(self):
        # chronological: token 0 leaves first (parents 1, 2, 3), token 3
        # second (parents 1, 2).  Replay must rebuild 3 before 0.
        led = PruneLedger(n_tokens=4, events=[
            event(1, 0, 1.0, 0.5, 0.25, 0.25),
            event(2, 3, 1.0, 0.5, 0.5),
        ])
        x = np.array([[1.0, 0.0], [0.0, 1.0]])  # rows for survivors 1, 2
        out = retrieve_dense(x, led)
        np.testing.assert_allclose(out[3], [0.5, 0.5])
        np.testing.assert_allclose(out[0], [0.625, 0.375])

    def test_row_count_mismatch(self):
        led = PruneLedger(n_tokens=4, events=[event(1, 0, 1.0, 1.0, 0.0, 0.0)])
        with pytest.raises(IntegrityError):
            retrieve_dense(np.zeros((2, 3)), led)
        with pytest.raises(IntegrityError):
            retrieve_dense(np.float64(1.0), led)  # no rows at all

    def test_row_count_is_checked_before_listing_survivors(self):
        # a ledger JSON may claim 10**30 tokens; listing them would never end
        led = PruneLedger.from_json_dict({"n_tokens": 10**30, "events": []})
        with pytest.raises(IntegrityError):
            retrieve_dense(np.zeros((2, 3)), led)

    def test_forward_order_dependency_rejected(self):
        # token 3 leaves first with all its mass on 0; then 0 leaves into 1.
        # The reverse replay rebuilds 0 before 3 needs it.
        led = PruneLedger(n_tokens=4, events=[
            event(1, 3, 1.0, 1.0, 0.0, 0.0),
            event(2, 0, 1.0, 1.0, 0.0),
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
        for e, parents in zip(reversed(res.ledger.events),
                              reversed(ledger_parents(res.ledger))):
            acc = np.zeros(ref.shape[1], dtype=np.float64)
            for idx, wgt in zip(parents.tolist(), e.shares.tolist()):
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
        led = PruneLedger(n_tokens=41, events=[event(1, 0, 1.0, *shares)])
        x = rng.standard_normal((40, 1)) * 10.0 ** rng.integers(-8, 8, (40, 1))
        acc = 0.0
        for i, w in enumerate(led.events[0].shares.tolist()):  # parents 1..40
            acc += w * x[i, 0]
        assert retrieve_dense(x, led)[0, 0] == acc


    @pytest.mark.parametrize("width", [2, 3, 4, 64])
    def test_wide_tokens_sum_parents_in_journal_order(self, width):
        # a (P, C) table summed over axis 0 must add whole rows in journal
        # order, as the per-parent loop does, for every width above one
        rng = np.random.default_rng(20 + width)
        n, pruned = 60, 40
        order = rng.permutation(n)
        events = []
        for tok in order[:pruned].tolist():
            alive = n - len(events) - 1
            shares = rng.random(alive) * 10.0 ** rng.integers(-8, 8, alive)
            shares /= shares.sum()
            events.append(PruneEvent(1, tok, 1.0, shares))
        led = PruneLedger(n_tokens=n, events=events)
        rows = (n - pruned, width)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
        ref = np.zeros((n, width))
        ref[led.survivors()] = x
        for e, parents in zip(reversed(events), reversed(ledger_parents(led))):
            acc = np.zeros(width)
            for idx, wgt in zip(parents.tolist(), e.shares.tolist()):
                acc += wgt * ref[idx]
            ref[e.token] = acc
        assert retrieve_dense(x, led).tobytes() == ref.tobytes()

    def test_negative_zero_total_is_positive_zero(self):
        # the replay starts from a zero accumulator: 0.0 + 1.0 * -0.0 is +0.0
        led = PruneLedger(n_tokens=2, events=[event(1, 0, 1.0, 1.0)])
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
            event(1, 1, 0.8, 0.75, 0.25),
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
            event(1, 0, 0.6, 0.5, 0.5, 0.0, 0.0),
            event(2, 4, 0.25, 0.1, 0.2, 0.7),
        ])
        sub = np.random.default_rng(1).random((3, 3))
        np.fill_diagonal(sub, 0.0)
        st = state_from_mask(sub, tokens=np.array([1, 2, 3]))
        full = expand_state_mask(st, led)
        assert full[:, 0].sum() == pytest.approx(0.6, abs=1e-12)
        assert full[:, 4].sum() == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n_tokens", [10**30, 5000])
    def test_token_count_must_match_state(self, n_tokens):
        # a one-token state needs n_tokens - 1 events before its block
        led = PruneLedger(n_tokens=n_tokens, events=[])
        with pytest.raises(IntegrityError):
            expand_state_mask(state_from_mask([[0.0]], tokens=[1]), led)

    @pytest.mark.parametrize("tokens", [[0, 1], [2, 0], [0, 0]])
    def test_state_tokens_must_be_the_ones_left_alive(self, tokens):
        # token 1 left first, so a two-token state must hold tokens 0 and 2
        led = PruneLedger(n_tokens=3, events=[event(1, 1, 0.8, 0.75, 0.25)])
        with pytest.raises(IntegrityError, match="not the state's tokens"):
            expand_state_mask(state_from_mask(np.zeros((2, 2)), tokens=tokens), led)


class TestExplicitParentReplays:
    """Parents taken from the event order give the bytes of the replays that
    gathered each event's parents by id."""

    @pytest.mark.parametrize("seed, dtype", [(1, np.float32), (2, np.float32),
                                             (3, np.float64)])
    def test_lite_schedule_matches_the_oracles(self, seed, dtype):
        cfg = ModelConfig(image_size=224, patch_size=16, channels=16, heads=4,
                          layers=12, num_classes=2, seed=seed, prune_schedule=LITE_SCHEDULE)
        img = np.random.default_rng(seed).random((224, 224, 3)).astype(np.float32)
        res = model_forward(img, cfg, init_weights(cfg, dtype=dtype))
        assert len(res.ledger.events) == 196 - 64
        dense = retrieve_dense(res.tokens, res.ledger)
        want = explicit_retrieve_dense(res.tokens.data, res.ledger)
        assert dense.dtype == want.dtype and dense.tobytes() == want.tobytes()
        for st in res.states:
            full = expand_state_mask(st, res.ledger)
            assert full.tobytes() == explicit_expand_state_mask(st, res.ledger).tobytes()



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
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(alive), max_size=len(alive)))
        layer += draw(st.integers(0, 2))
        events.append({
            "layer": layer, "token": token, "gate": draw(st.floats(0.0, 1.0)),
            "shares": [w / sum(raw) for w in raw],
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
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(alive), max_size=len(alive)))
        layer += draw(st.integers(0, 2))
        events.append(PruneEvent(layer, token, draw(st.floats(0.0, 1.0)),
                                 np.array([w / sum(raw) for w in raw])))
    kind = draw(st.sampled_from(
        ["none", "share", "n_tokens", "layer", "token", "gate", "scale",
         "wrong share count"]))
    if kind == "none":
        return n, events
    if kind == "n_tokens":
        return draw(st.integers(-1, n + 1)), events
    e = draw(st.sampled_from(events))
    i = draw(st.integers(0, e.shares.size - 1))
    if kind == "share":
        e.shares[i] = draw(st.sampled_from(_ODD_SHARES))
    elif kind == "layer":
        e.layer = draw(st.integers(-1, layer + 1))
    elif kind == "token":
        e.token = draw(st.integers(-1, n))
    elif kind == "gate":
        e.gate = draw(st.sampled_from(_ODD_GATES))
    elif kind == "scale":
        e.shares = e.shares * np.array(
            [draw(st.sampled_from([1.0 + 5e-7, 1.0 + 2e-6, 0.5])) for _ in e.shares])
    elif kind == "wrong share count":  # appending 0.0 keeps the sum
        e.shares = draw(st.sampled_from([np.delete(e.shares, i), np.append(e.shares, 0.0),
                                         e.shares[:0]]))
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
    @staticmethod
    def journal_at_1024_tokens():
        """Four steps down to 128 journal 896 events with about half a
        million shares; the survivors are chained through prune_step."""
        rng = np.random.default_rng(11)
        survivors = np.arange(1024)
        states, journal = [], []
        for kept in (768, 512, 256, 128):
            s = survivors.size
            mask = rng.uniform(size=(s, s))
            np.fill_diagonal(mask, 0.0)
            states.append(state_from_mask(mask, tokens=survivors, gate=rng.uniform(size=s)))
            keep, events = prune_step(states, kept)
            survivors = survivors[keep]
            journal += events
        ledger = PruneLedger(n_tokens=1024, events=journal)
        return states, ledger, survivors, rng.standard_normal((128, 8))

    @pytest.mark.slow
    def test_journal_at_1024_tokens(self, tmp_path):
        # no runtime cliff up to 1024 tokens
        t0 = time.monotonic()
        states, ledger, survivors, final = self.journal_at_1024_tokens()
        dense = retrieve_dense(final, ledger)
        full = expand_state_mask(states[-1], ledger)
        write_json(tmp_path / "ledger.json", ledger.to_json_dict())
        back = PruneLedger.from_json_dict(json.loads((tmp_path / "ledger.json").read_text()))
        assert time.monotonic() - t0 < 60.0
        assert len(ledger.events) == 896
        assert back.to_json_dict() == ledger.to_json_dict()
        assert np.array_equal(survivors, ledger.survivors())
        assert dense[survivors].tobytes() == final.tobytes()
        gone = [e.token for e in ledger.events if e.layer < 4]
        np.testing.assert_allclose(full[:, gone].sum(axis=0),
                                   [e.gate for e in ledger.events if e.layer < 4])

    @pytest.mark.slow
    def test_journal_at_1024_tokens_matches_the_oracles(self):
        states, ledger, _, final = self.journal_at_1024_tokens()
        assert (retrieve_dense(final, ledger).tobytes()
                == explicit_retrieve_dense(final, ledger).tobytes())
        for st in states:
            assert (expand_state_mask(st, ledger).tobytes()
                    == explicit_expand_state_mask(st, ledger).tobytes())
