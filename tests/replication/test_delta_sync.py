"""Frontier-diff anti-entropy: SyncDelta/SyncDecline exchanges, the
region-filtered harvest, merge safety (no resurrection, no opaque
windows), decline/backoff/rotation, piggybacked acknowledgements, and
the decode-fuzz discipline for the two new frames."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.encoding import (
    decode_state,
    encode_operation,
    encode_state,
    encode_state_segments,
)
from repro.core.node import TOMBSTONE, ArrayLeaf, slot_posid
from repro.core.ops import DeleteOp, InsertOp
from repro.core.path import ROOT
from repro.core.runs import RegionFilter
from repro.core.treedoc import Treedoc
from repro.errors import CorruptFrameError, DecodeError, TreeError
from repro.replication.clock import VectorClock
from repro.replication.cluster import Cluster
from repro.replication.commit import PrepareMsg
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.site import HISTORY_KEEP, ReplicaSite
from repro.replication.sync import AntiEntropyPolicy
from repro.replication.wire import (
    DECLINE_BUSY,
    DECLINE_NOT_AHEAD,
    DECLINE_TRY_PEER,
    EnvelopeFrame,
    SyncDecline,
    SyncDelta,
    SyncRequest,
    decode_wire,
    encode_wire,
)

#: Fire on any persistent gap, with no jitter: the direct-exchange
#: tests below assert exact request counts.
EAGER0 = AntiEntropyPolicy(max_buffered=1, max_gap_age=0.0,
                           min_request_interval=0.0, jitter=0.0)


def _future_envelope(origin, sequence=99, text="x"):
    """A fabricated envelope from the future: buffering it opens a
    causal gap at the receiver without any real history behind it."""
    doc = Treedoc(site=origin)
    payload, bits = encode_operation(doc.insert(0, text))
    return EnvelopeFrame(origin, VectorClock({origin: sequence}),
                         payload, bits)


def _identical(a, b) -> bool:
    """Same atoms and same identifiers (PosID identity), nothing
    buffered behind a gap at either site."""
    return (a.atoms() == b.atoms()
            and [repr(p) for p in a.doc.posids()]
            == [repr(p) for p in b.doc.posids()]
            and a.broadcast.blocked_since is None
            and b.broadcast.blocked_since is None)


def _admits(cover: RegionFilter, bits) -> bool:
    """Whether a walk from the root, narrowing ``cover`` one branch bit
    per level, reaches the subtree at ``bits`` (the mutual-prefix
    test: the subtree and some region intersect)."""
    narrowed = cover.root_cover()
    for depth, bit in enumerate(bits):
        if not narrowed:  # None: inside a region; (): disjoint
            break
        narrowed = RegionFilter.narrow(narrowed, depth, bit)
    return narrowed != ()


class TestRegionFilter:
    def test_mutual_prefix_admission(self):
        cover = RegionFilter([(0, 1)])
        assert _admits(cover, (0, 1))        # the region itself
        assert _admits(cover, (0, 1, 1, 0))  # subtree inside the region
        assert _admits(cover, (0,))          # ancestor spine
        assert _admits(cover, ())            # the root spans everything
        assert not _admits(cover, (1,))      # disjoint sibling
        assert not _admits(cover, (0, 0))

    def test_cover_minimised(self):
        cover = RegionFilter([(0, 1, 1), (0, 1), (0, 1, 0), (1, 0)])
        assert cover.regions == ((0, 1), (1, 0))
        assert len(cover) == 2

    def test_root_region_is_whole_document(self):
        assert RegionFilter([(), (0, 1)]).whole_document
        assert not RegionFilter([(0,)]).whole_document
        assert not RegionFilter([]).whole_document
        # An empty cover admits nothing.
        assert not _admits(RegionFilter([]), ())

    def test_filtered_harvest_subset_of_full(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, list("abcdefghijklmnop"))
        full = encode_state(doc.tree, "sdis", 1, "")
        named = doc.posid_at(3)
        cover = RegionFilter([named.bits()])
        part = encode_state(doc.tree, "sdis", 1, "", cover)
        part_posids = decode_state(part)[2].posids()
        assert named in part_posids  # the named region is served...
        # ...with nothing outside the cover (no leaf records here)...
        assert all(_admits(cover, posid.bits()) for posid in part_posids)
        # ...and never more than all.
        assert set(part_posids) <= set(decode_state(full)[2].posids())
        assert 1 <= part.atom_count < full.atom_count
        assert part.frame_bits < full.frame_bits


class TestMergeSegments:
    def test_merge_is_a_join_not_a_replacement(self):
        a = Treedoc(site=1, mode="sdis")
        a.insert_text(0, list("shared"))
        b = Treedoc(site=2, mode="sdis")
        b.load_state(a.capture_state())
        concurrent = b.insert(0, "!")  # local progress the delta lacks
        a.insert_text(6, list(" tail"))
        merged = b.merge_segments(a.capture_state())
        assert merged.placed == len(" tail")
        assert merged.revived == () and merged.tombstones == 0
        assert b.text() == "!shared tail"
        assert b.tree.lookup(concurrent.posid) is not None

    def test_skip_set_blocks_resurrection(self):
        # Under UDIS the delete left no tombstone: only the skip set
        # keeps the merge from re-inserting the atom.
        for mode in ("udis", "sdis"):
            a = Treedoc(site=1, mode=mode)
            a.insert_text(0, list("abc"))
            b = Treedoc(site=2, mode=mode)
            b.load_state(a.capture_state())
            victim = b.posid_at(1)
            b.delete(1)  # a has not seen this delete
            b.merge_segments(a.capture_state(), skip=frozenset([victim]))
            assert b.text() == "ac"  # 'b' stayed dead

    def test_frame_tombstone_deletes_nothing_live(self):
        # The delta's delete log replays new deletes; a tombstone in the
        # frame over a live atom here is a re-mint the sender has not
        # purged yet, so the atom stays.
        a = Treedoc(site=1, mode="sdis")
        a.insert_text(0, list("abc"))
        b = Treedoc(site=2, mode="sdis")
        b.load_state(a.capture_state())
        a.delete(1)
        merged = b.merge_segments(a.capture_state())
        assert b.text() == "abc"
        assert merged.placed == 0 and merged.tombstones == 0

    def test_live_atom_on_a_tombstone_revives_it(self):
        a = Treedoc(site=1, mode="sdis")
        a.insert_text(0, list("abc"))
        b = Treedoc(site=2, mode="sdis")
        b.load_state(a.capture_state())
        victim = b.posid_at(1)
        b.delete(1)
        merged = b.merge_segments(a.capture_state())
        assert b.text() == "abc"
        assert merged.revived == (victim,) and merged.placed == 1
        assert b.tree.id_length == len(b)
        b.check()

    def test_tombstones_materialized_are_counted(self):
        a = Treedoc(site=1, mode="sdis")
        a.insert_text(0, list("abc"))
        b = Treedoc(site=2, mode="sdis")
        b.load_state(a.capture_state())
        a.insert_text(3, list("de"))
        a.delete(3)
        merged = b.merge_segments(a.capture_state())
        assert b.text() == "abce"
        assert merged.tombstones == 1 and merged.placed == 1
        assert b.tree.id_length == 5

    def test_conflicting_atom_is_typed_error(self):
        a = Treedoc(site=1, mode="sdis")
        a.insert_text(0, list("abc"))
        b = Treedoc(site=2, mode="sdis")
        b.load_state(a.capture_state())
        clash = encode_state_segments([InsertOp(a.posid_at(0), "Z", 1)],
                                      "sdis", 1, "")
        with pytest.raises(TreeError):
            b.merge_segments(clash)

    def test_idempotent_over_shipping(self):
        a = Treedoc(site=1, mode="sdis")
        a.insert_text(0, list("idempotent"))
        b = Treedoc(site=2, mode="sdis")
        b.load_state(a.capture_state())
        assert b.merge_segments(a.capture_state()).placed == 0
        assert b.text() == "idempotent"


class TestDeltaExchange:
    def _pair(self, seed=2, text="the quick brown fox jumps"):
        net = SimulatedNetwork(seed=seed)
        a = ReplicaSite(1, net, mode="sdis", policy=EAGER0)
        b = ReplicaSite(2, net, mode="sdis", policy=EAGER0)
        a.insert_text(0, list(text))
        net.run()
        return net, a, b

    def test_one_origin_behind_gets_a_small_delta(self):
        # Long enough that five touched atoms are a small part of it:
        # the tree-walk snapshot of the bare 25-char sentence is smaller
        # than any diff (the responder then ships it instead).
        net, a, b = self._pair(text="the quick brown fox jumps " * 8)
        base = b.broadcast.clock.copy()
        a.insert_text(4, list("very "))
        a.delete(0)
        delta = a.make_sync_delta(base)
        assert delta is not None
        assert delta.base == base
        # The diff names only the touched regions; on a document this
        # size it must be well under the full snapshot.
        full = a.make_state_transfer()
        assert delta.wire_bytes < full.wire_bytes
        received = decode_wire(delta.to_wire())
        assert received == delta
        b._apply_sync_delta(received)
        assert b.sync_deltas_applied == 1
        assert b.text() == a.text()
        assert b.doc.posids() == a.doc.posids()
        net.run()  # the original envelopes arrive late: all duplicates
        assert b.text() == a.text()

    def test_delta_ships_deletes_explicitly(self):
        # A UDIS delete leaves no trace in region state — the delta's
        # delete log is the only way it travels.
        net = SimulatedNetwork(seed=3)
        a = ReplicaSite(1, net, mode="udis", policy=EAGER0)
        b = ReplicaSite(2, net, mode="udis", policy=EAGER0)
        a.insert_text(0, list("abcdef"))
        net.run()
        base = b.broadcast.clock.copy()
        a.delete(2)
        a.insert(0, "!")
        delta = decode_wire(a.make_sync_delta(base).to_wire())
        assert delta.delete_log
        b._apply_sync_delta(delta)
        assert b.text() == a.text() == "!abdef"

    def test_merge_does_not_resurrect_local_delete(self):
        net, a, b = self._pair(text="ab")
        victim = b.doc.posid_at(1)
        base = b.broadcast.clock.copy()
        b.delete(1)  # local-only: a has not seen it
        a.insert(2, "Z")  # a's edit admits the region around 'b'
        delta = decode_wire(a.make_sync_delta(base).to_wire())
        b._apply_sync_delta(delta)
        from repro.core.node import LIVE

        slot = b.doc.tree.lookup(victim)
        assert slot is None or slot.state != LIVE  # stayed dead
        assert "b" not in b.text()
        net.run()  # b's delete reaches a; a's envelope is a dup at b
        assert a.text() == b.text()

    def test_snapshot_adoption_poisons_delta_service(self):
        # History learned as a snapshot cannot be frontier-diffed
        # onward: the joiner's opaque frontier refuses old bases.
        net, a, b = self._pair()
        a.insert(0, "+")  # a second causal event past the bootstrap
        net.run()
        joiner = ReplicaSite(3, net, mode="sdis", policy=EAGER0)
        joiner.sync_from(a)
        joiner.insert_text(0, list(">> "))
        stale_base = VectorClock({1: 1})  # below the adopted frontier
        assert joiner.make_sync_delta(stale_base) is None
        # ...but a requester past the adopted frontier diffs fine.
        fresh_base = joiner.broadcast.clock.copy()
        joiner.insert(0, "!")
        assert joiner.make_sync_delta(fresh_base) is not None

    def test_flatten_in_window_is_opaque(self):
        net = SimulatedNetwork(seed=4)
        a = ReplicaSite(1, net, mode="sdis", policy=EAGER0)
        a.insert_text(0, list("flatten me please"))
        pre = a.broadcast.clock.copy()
        a.initiate_flatten(ROOT)  # alone: decides and applies at once
        assert a.make_sync_delta(pre) is None
        post = a.broadcast.clock.copy()
        a.insert(0, "!")
        delta = a.make_sync_delta(post)
        # The diff carries the insert plus its ancestor spine (benign
        # over-shipping), never the whole document.
        assert delta is not None
        assert 1 <= delta.state.atom_count < len(a.doc)

    def test_responder_prefers_full_when_delta_loses(self):
        # Deletes dominate the window: the diff must carry one delete
        # record per vanished atom, while the full snapshot just ships
        # the small survivor document — the cheaper frame wins.
        net = SimulatedNetwork(seed=21)
        a = ReplicaSite(1, net, mode="udis", policy=EAGER0)
        b = ReplicaSite(2, net, mode="udis", policy=EAGER0)
        a.insert_text(0, list("a long document that mostly dies " * 6))
        net.run()
        base = b.broadcast.clock.copy()
        a.delete_range(0, len(a.doc) - 4)
        delta = a.make_sync_delta(base)
        full = a.make_state_transfer()
        assert delta is not None
        assert delta.wire_bytes >= full.wire_bytes
        a._answer_sync_request(SyncRequest(2, base))
        assert a.sync_responses_sent == 1
        assert a.sync_deltas_sent == 0

    def test_responder_serves_delta_when_it_wins(self):
        net, a, b = self._pair(
            text="a long settled document that stays put " * 6)
        base = b.broadcast.clock.copy()
        a.insert(0, "!")
        a._answer_sync_request(SyncRequest(2, base))
        assert a.sync_deltas_sent == 1
        assert a.sync_responses_sent == 0
        net.run()
        # The pending "!" envelope may race the delta; either way the
        # delta is harmless and the sites agree.
        assert b.text() == a.text()
        assert b.doc.posids() == a.doc.posids()

    def test_fresh_joiner_bootstraps_with_full_snapshot(self):
        net, a, b = self._pair()
        joiner = ReplicaSite(4, net, mode="sdis", policy=EAGER0)
        a._answer_sync_request(SyncRequest(4, VectorClock()))
        assert a.sync_responses_sent == 1 and a.sync_deltas_sent == 0
        net.run()
        assert joiner.sync_responses_applied == 1
        assert joiner.text() == a.text()

    def test_stale_delta_is_counted_and_retriggers(self):
        net, a, b = self._pair()
        base = b.broadcast.clock.copy()
        a.insert(0, "!")
        delta = decode_wire(a.make_sync_delta(base).to_wire())
        # b adopts a snapshot first: its opaque frontier passes the
        # delta's clock, so the delta can no longer merge soundly.
        c = ReplicaSite(5, net, mode="sdis", policy=EAGER0)
        net.run()
        c.sync_from(a)
        c.insert(0, "?")
        hi = VectorClock({1: 99, 5: 99})
        c._opaque_frontier = c._opaque_frontier.merge(hi)
        c._apply_sync_delta(delta)
        assert c.sync_deltas_stale == 1
        assert c.sync_deltas_applied == 0
        assert c._peer_retry_at.get(1, 0) > net.now  # peer backed off


def _tombstone_posids(doc):
    """Every tombstone's PosID in identifier order: tombstone slots and
    the dead offsets of array leaves."""
    out = []
    for entry in doc.tree.iter_entries():
        if isinstance(entry, ArrayLeaf):
            out.extend(posid for offset, posid in enumerate(entry.id_posids())
                       if (entry.dead >> offset) & 1)
        elif entry.state == TOMBSTONE:
            out.append(slot_posid(entry))
    return out


#: One responder edit past the requester's frontier: an insert or a
#: delete at a relative position, or a collapse pass over cold regions.
_EDITS = st.one_of(
    st.tuples(st.just("insert"), st.floats(0, 1),
              st.text("xyz#", min_size=1, max_size=6)),
    st.tuples(st.just("delete"), st.floats(0, 1), st.integers(1, 8)),
    st.tuples(st.just("collapse")),
)


class TestDeltaMatchesFullSync:
    """Differential: a requester at ``base`` with no concurrent edits
    that merges ``make_sync_delta(base)`` ends identifier-identical to a
    replica that adopted the responder's full ``SyncResponse``."""

    @staticmethod
    def _collapse(doc):
        for _ in range(3):
            doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=4)

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(["udis", "sdis"]),
           collapse_requester=st.booleans(),
           edits=st.lists(_EDITS, min_size=1, max_size=12),
           seed=st.integers(0, 2**16))
    def test_delta_merge_equals_full_adoption(self, mode, collapse_requester,
                                              edits, seed):
        net = SimulatedNetwork(seed=seed)
        a = ReplicaSite(1, net, mode=mode, policy=EAGER0)
        b = ReplicaSite(2, net, mode=mode, policy=EAGER0)
        a.insert_text(0, [f"s{i}" for i in range(40)])
        net.run()
        a.initiate_flatten(ROOT)  # canonical regions, so leaves form
        net.run()
        b.delete_range(5, 9)
        net.run()
        self._collapse(a.doc)
        if collapse_requester:
            self._collapse(b.doc)
        base = b.broadcast.clock.copy()
        for edit in edits:  # never delivered to b
            if edit[0] == "collapse":
                self._collapse(a.doc)
                continue
            index = int(edit[1] * len(a.doc))
            if edit[0] == "insert":
                a.insert_text(index, list(edit[2]))
            elif len(a.doc):
                index = min(index, len(a.doc) - 1)
                a.delete_range(index, min(len(a.doc), index + edit[2]))
        delta = a.make_sync_delta(base)
        assert delta is not None
        at_base = b.doc.capture_state()
        purged_before = b.purged_tombstones
        b._apply_sync_delta(decode_wire(delta.to_wire()))
        full = Treedoc(site=3, mode=mode)
        full.load_state(decode_wire(a.make_state_transfer().to_wire()).state)
        assert b.text() == full.text() == a.text()
        assert b.doc.posids() == full.posids()
        # Under SDIS the requester may purge past the responder: it has
        # applied every delete of the delta and heard the responder's
        # clock, so a tombstone the full frame still carries can be
        # stable here already.
        held = set(_tombstone_posids(b.doc))
        shipped = set(_tombstone_posids(full))
        assert held <= shipped
        assert len(shipped - held) <= b.purged_tombstones - purged_before
        b.doc.check()
        # The merge of the responder's whole frame (leaf records
        # included) then the delta's delete log, into an empty replica
        # and, under SDIS, into the requester's document at ``base``,
        # also ends identical — up to the tombstones the responder had
        # already purged as stable: the requester held them at ``base``
        # (its own purge, on the delta path above, drops them as well).
        # The frame's tombstones delete nothing live; the log does.
        targets = [Treedoc(site=4, mode=mode)]
        if mode == "sdis":
            targets.append(Treedoc(site=2, mode=mode))
            targets[-1].load_state(at_base)
        for target in targets:
            held_at_base = set(_tombstone_posids(target))
            target.merge_segments(a.doc.capture_state())
            for posid, origin, _ in delta.delete_log:
                target.apply(DeleteOp(posid, origin))
            assert target.text() == full.text()
            assert target.posids() == full.posids()
            held = set(_tombstone_posids(target))
            assert held >= set(_tombstone_posids(full))
            assert held - set(_tombstone_posids(full)) <= held_at_base


class TestDeclineAndRotation:
    def test_level_peer_declines(self):
        cluster = Cluster(2, mode="sdis", seed=5, policy=EAGER0)
        cluster.bootstrap(list("abc"))
        cluster[2].request_sync(1)
        cluster.settle()
        assert cluster[1].sync_declines_sent == 1
        assert cluster[2].sync_declines_received == 1
        assert cluster[2].sync_responses_applied == 0
        # The failed exchange scored the peer into backoff.
        assert cluster[2]._peer_retry_at[1] > 0

    def test_decline_carries_hint_and_requester_rotates(self):
        cluster = Cluster(3, mode="sdis", seed=6, policy=EAGER0)
        cluster.bootstrap(list("abc"))
        b, c = cluster[2], cluster[3]
        # Both b and c buffer an envelope from future origin 1: equal
        # clocks, so b declines c — but b's gap names site 1, the hint.
        b.broadcast.on_frame(_future_envelope(1))
        c.broadcast.on_frame(_future_envelope(1))
        c.request_sync(2)
        cluster.settle()
        assert b.sync_declines_sent == 1
        assert c._peer_hint == 1
        # The decline reopened the request window; rotation goes to
        # the hinted peer immediately.
        assert c.maybe_request_sync() is True
        cluster.settle()
        assert cluster[1].sync_requests_received == 1

    def test_busy_decline_when_responder_is_gap_blocked(self):
        # BUSY only when no sound delta exists: b learned site 1's
        # latest edit as a snapshot (its opaque frontier), c is behind
        # that frontier and concurrent, and b is fighting its own gap.
        cluster = Cluster(3, mode="sdis", seed=7, policy=EAGER0)
        cluster.bootstrap(list("abc"))
        a, b, c = cluster[1], cluster[2], cluster[3]
        with cluster.partitioned({1}, {2, 3}):
            a.insert(0, "+")
            b.sync_from(a)
            b.broadcast.on_frame(_future_envelope(9, sequence=5))
            # c's clock is concurrent with b's: its own edit is still in
            # flight when its request is answered.
            c.insert(0, "!")
            request = SyncRequest(3, c.broadcast.clock.copy())
            assert b.make_sync_delta(request.clock) is None
            b._answer_sync_request(request)
            assert b.sync_declines_sent == 1
            assert b.sync_deltas_sent == b.sync_responses_sent == 0
            cluster.settle()
            assert c.sync_declines_received == 1

    def test_symmetric_loss_converges_by_delta(self):
        # Each site of a pair loses one envelope from the other (the
        # scripted corruption; the retransmission lands far beyond the
        # horizon). Both then hold the other's later envelope behind a
        # gap, so each is gap-blocked and concurrent with its only
        # peer. Declining BUSY without looking for a delta would leave
        # the pair waiting forever; serving the sound delta converges
        # it well before any retransmission.
        horizon = 1e9
        net = SimulatedNetwork(
            NetworkConfig(corrupt_transmissions=frozenset({3, 4}),
                          retransmit_delay=horizon),
            seed=5,
        )
        a = ReplicaSite(1, net, mode="sdis", policy=EAGER0)
        b = ReplicaSite(2, net, mode="sdis", policy=EAGER0)
        a.insert_text(0, list("shared "))
        b.insert_text(0, list("base "))
        net.run()
        assert net.transmissions == 2
        a.insert(0, "A1")  # transmission 3: corrupted on its way to b
        b.insert(0, "B1")  # transmission 4: corrupted on its way to a
        a.insert(0, "A2")
        b.insert(0, "B2")
        # The lag-detector loop (Cluster.anti_entropy's rounds) over
        # the traffic due before the horizon only.
        blocked = set()
        for _ in range(32):
            while net._queue and net._queue[0].time < horizon:
                net.step()
                blocked.update(site.site for site in (a, b)
                               if site.broadcast.blocked_since is not None)
            if _identical(a, b):
                break
            if not any([a.maybe_request_sync(), b.maybe_request_sync()]):
                net.advance(1000.0)
        assert blocked == {1, 2}
        assert net.corrupted_transmissions == 2
        assert _identical(a, b)
        assert net.now < horizon
        assert a.sync_deltas_sent + b.sync_deltas_sent >= 1
        assert {"A1", "A2", "B1", "B2"} <= set(a.atoms())

    def test_dead_requester_gets_no_answer(self):
        net = SimulatedNetwork(seed=8)
        a = ReplicaSite(1, net, mode="sdis", policy=EAGER0)
        a.insert_text(0, list("abc"))
        net.run()
        a._answer_sync_request(SyncRequest(77, VectorClock()))
        assert a.sync_requests_received == 1
        assert a.sync_responses_sent == 0
        assert a.sync_declines_sent == 0

    def test_backoff_grows_exponentially_and_caps(self):
        policy = AntiEntropyPolicy()
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == 200.0
        assert policy.backoff(2) == 400.0
        assert policy.backoff(10) == 3200.0

    def test_jitter_stream_is_seeded_and_per_site(self):
        from repro.util.rng import derive_rng

        one = derive_rng(7, "sync-jitter", 1)
        same = derive_rng(7, "sync-jitter", 1)
        other = derive_rng(7, "sync-jitter", 2)
        draws = [one.random() for _ in range(8)]
        assert draws == [same.random() for _ in range(8)]
        assert draws != [other.random() for _ in range(8)]

    def test_partitioned_origin_falls_back_to_connected_peer(self):
        # Satellite regression: peer selection used to fixate on the
        # oldest-gap origin even when it was unreachable; now any
        # connected candidate serves.
        cluster = Cluster(3, mode="sdis", seed=9, policy=EAGER0)
        cluster.bootstrap(list("abcdef"))
        c = cluster[3]
        cluster.partition({1}, {2, 3})
        c.broadcast.on_frame(_future_envelope(1))  # gap names origin 1
        assert c.request_sync() is True
        cluster.settle()
        # The request reached site 2 (reachable), not site 1 (held).
        assert cluster[2].sync_requests_received == 1
        assert cluster.network.held == 0

    def test_crashed_origin_falls_back_too(self):
        net = SimulatedNetwork(seed=10)
        a = ReplicaSite(1, net, mode="sdis", policy=EAGER0)
        b = ReplicaSite(2, net, mode="sdis", policy=EAGER0)
        c = ReplicaSite(3, net, mode="sdis", policy=EAGER0)
        a.insert_text(0, list("abc"))
        net.run()
        a.crash()
        c.broadcast.on_frame(_future_envelope(1))
        assert c.request_sync() is True
        net.run()
        assert b.sync_requests_received == 1

    def test_stale_response_counted_and_retriggers_immediately(self):
        # Satellite regression: a stale response used to be swallowed,
        # leaving the requester to wait out another full gap-age
        # window. Now it counts, scores the peer, and reopens the
        # request gate at once.
        slow = AntiEntropyPolicy(max_buffered=1, max_gap_age=0.0,
                                 min_request_interval=1e9, jitter=0.0)
        net = SimulatedNetwork(seed=11)
        a = ReplicaSite(1, net, mode="sdis", policy=EAGER0)
        b = ReplicaSite(2, net, mode="sdis", policy=slow)
        a.insert_text(0, list("history"))
        net.run()
        b.broadcast.on_frame(_future_envelope(9))
        assert b.maybe_request_sync() is True
        assert b.maybe_request_sync() is False  # inside the interval
        stale = a.make_state_transfer()
        b.insert(0, "!")  # now the snapshot cannot dominate b
        b._apply_sync_response(stale)
        assert b.sync_responses_stale == 1
        assert b.maybe_request_sync() is True  # gate reopened
        # The counter surfaces in the next successful SyncStats.
        c = ReplicaSite(3, net, mode="sdis", policy=EAGER0)
        net.run()
        stats = c.sync_from(a)
        assert stats.stale_responses == 0  # c never saw a stale one
        assert b.sync_responses_ignored == 1


class TestPiggybackedAcks:
    def test_frontier_advances_with_zero_ack_frames(self):
        # Steady envelope traffic alone must purge stable tombstones:
        # every envelope's clock is an acknowledgement.
        cluster = Cluster(2, mode="sdis", seed=12,
                          policy=EAGER0)
        cluster.bootstrap(list("abcdefgh"))
        cluster[1].delete_range(2, 5)
        cluster.settle()
        # Site 2 heard the deletes (and its own application of them):
        # it purges on delivery. Site 1 needs to hear site 2 speak.
        cluster[2].insert(0, "!")
        cluster.settle()
        assert cluster[1].purged_tombstones == 3
        assert cluster[2].purged_tombstones == 3
        for site in cluster:
            assert site.doc.tree.id_length == len(site.doc)
        cluster.assert_converged(identities=True)

    def test_frontier_advances_under_drop(self):
        from repro.replication.network import NetworkConfig

        cluster = Cluster(
            3, mode="sdis", seed=13, policy=EAGER0,
            config=NetworkConfig(drop_rate=0.15, min_latency=1,
                                 max_latency=30),
        )
        cluster.bootstrap(list("droppy droppy text"))
        cluster[1].delete_range(0, 4)
        cluster.settle()
        for site in cluster:
            site.insert(0, f"s{site.site}")
        cluster.settle()
        cluster.anti_entropy()
        for site in cluster:
            assert site.purged_tombstones == 4, site.site
        cluster.assert_converged(identities=True)

    def test_sync_traffic_is_an_ack_too(self):
        cluster = Cluster(2, mode="sdis", seed=14,
                          policy=EAGER0)
        cluster.bootstrap(list("abcd"))
        cluster[1].delete(1)
        cluster.settle()
        # A bare SyncRequest from site 2 carries its applied clock;
        # that alone completes site 1's frontier.
        cluster[2].request_sync(1)
        cluster.settle()
        assert cluster[1].purged_tombstones == 1


class TestNewFrameIntegrity:
    """Satellite: the same exhaustive corruption discipline the v2
    frames get — every single-bit flip and every truncation of the two
    new frames surfaces as a typed DecodeError, nothing else."""

    def _delta_frame(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, list("delta fuzz subject"))
        doc.delete_range(2, 4)
        # A region frame: the tombstones' region and the atom at 9.
        state = encode_state(doc.tree, "sdis", 1, "", RegionFilter(
            [doc.posid_at(1).bits(), doc.posid_at(9).bits()]))
        log = ((doc.posid_at(0), 1, 3),)
        return SyncDelta(1, VectorClock({1: 20, 2: 4}),
                         VectorClock({1: 18, 2: 4}), state, log)

    def test_sync_delta_round_trip(self):
        frame = self._delta_frame()
        back = decode_wire(frame.to_wire())
        assert back == frame
        assert back.wire_bytes == len(frame.to_wire())
        assert back.state.atom_count == frame.state.atom_count

    def test_sync_decline_round_trip(self):
        for frame in (
            SyncDecline(3),
            SyncDecline(3, DECLINE_BUSY),
            SyncDecline(3, DECLINE_TRY_PEER, hint=12),
            SyncDecline(2**30, DECLINE_NOT_AHEAD, hint=None),
        ):
            assert decode_wire(encode_wire(frame)) == frame

    def test_every_delta_bit_flip_detected(self):
        wire = self._delta_frame().to_wire()
        for position in range(len(wire) * 8):
            damaged = bytearray(wire)
            damaged[position // 8] ^= 0x80 >> (position % 8)
            with pytest.raises(CorruptFrameError) as err:
                decode_wire(bytes(damaged))
            # Satellite: errors attribute the damaged frame — length
            # always, the kind whenever the header byte survived.
            assert err.value.length == len(wire)
            if position >= 8:
                assert err.value.frame_kind == "sync_delta"

    def test_every_decline_bit_flip_detected(self):
        wire = encode_wire(SyncDecline(5, DECLINE_TRY_PEER, hint=9))
        for position in range(len(wire) * 8):
            damaged = bytearray(wire)
            damaged[position // 8] ^= 0x80 >> (position % 8)
            with pytest.raises(CorruptFrameError) as err:
                decode_wire(bytes(damaged))
            assert err.value.length == len(wire)
            if position >= 8:
                assert err.value.frame_kind == "sync_decline"

    def test_every_truncation_detected(self):
        from repro.replication.wire import peek_wire_kind

        for wire in (self._delta_frame().to_wire(),
                     encode_wire(SyncDecline(5, DECLINE_BUSY, hint=2))):
            kind = peek_wire_kind(wire)
            assert kind in ("sync_delta", "sync_decline")
            for cut in range(len(wire)):
                with pytest.raises(DecodeError) as err:
                    decode_wire(wire[:cut])
                assert err.value.length == cut
                if cut >= 1:
                    assert err.value.frame_kind == kind

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_multi_flips_never_escape(self, data):
        wire = self._delta_frame().to_wire()
        flips = data.draw(st.lists(
            st.integers(0, len(wire) * 8 - 1), min_size=1, max_size=8,
            unique=True,
        ))
        damaged = bytearray(wire)
        for position in flips:
            damaged[position // 8] ^= 0x80 >> (position % 8)
        try:
            decode_wire(bytes(damaged))
        except DecodeError:
            pass  # the only acceptable escape


class TestBoundedHistory:
    """A long-running pair drives each site's edit history past
    :data:`HISTORY_KEEP`: the history stays capped, a requester inside
    the window still gets a delta that merges identically to full
    adoption, a requester behind the history floor gets the full
    snapshot, and a prepare whose snapshot is below the floor is voted
    down."""

    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    def test_soak_past_the_history_cap(self, mode):
        net = SimulatedNetwork(seed=11)
        a = ReplicaSite(1, net, mode=mode, policy=EAGER0)
        b = ReplicaSite(2, net, mode=mode, policy=EAGER0)
        c = ReplicaSite(3, net, mode=mode, policy=EAGER0)
        a.insert_text(0, [f"s{i}" for i in range(400)])
        net.run()
        a.initiate_flatten(ROOT)  # canonical regions, so leaves form
        net.run()
        # c falls behind here and stays behind for the whole soak. No
        # edit below touches the root slot's left subtree (the first
        # 255 atoms), so only the history floor can turn this
        # prepare's vote to No.
        assert a.doc.posid_at(255) == ROOT
        net.partition({3})
        stale = PrepareMsg("3.0", ROOT.child(0), c.broadcast.clock.copy(), 3)
        assert a._vote(stale)
        rng = random.Random(5)
        sites = (a, b)
        for round_number in range(700):
            site = sites[round_number % 2]
            start = rng.randrange(300, len(site.doc) - 8)
            if len(site.doc) > 600:
                site.delete_range(start, start + 8)
            else:
                site.insert_text(start, [f"{round_number}.{k}"
                                         for k in range(8)])
            if round_number % 50 == 0:
                for each in sites:
                    TestDeltaMatchesFullSync._collapse(each.doc)
            net.run()
            for each in sites:
                assert len(each._history) <= HISTORY_KEEP
                assert (len(each.doc._explode_history)
                        <= Treedoc._HISTORY_LIMIT == 64)
        assert a._history_floor != VectorClock()
        assert not a._vote(stale)
        assert a._vote(PrepareMsg("3.1", ROOT.child(0),
                                  a.broadcast.clock.copy(), 3))

        # A requester inside the window gets a delta.
        base = b.broadcast.clock.copy()
        for offset in (300, 350, 400):  # never delivered to b
            a.insert_text(offset, list("new"))
            a.delete_range(offset + 10, offset + 14)
        delta = a.make_sync_delta(base)
        assert delta is not None
        b._apply_sync_delta(decode_wire(delta.to_wire()))
        full = Treedoc(site=4, mode=mode)
        full.load_state(decode_wire(a.make_state_transfer().to_wire()).state)
        assert b.text() == full.text() == a.text()
        assert b.doc.posids() == full.posids()
        assert _tombstone_posids(b.doc) == _tombstone_posids(full)
        b.doc.check()

        # A requester behind the floor gets the full snapshot.
        behind = c.broadcast.clock.copy()
        assert a.make_sync_delta(behind) is None
        net.heal()
        a._answer_sync_request(SyncRequest(3, behind))
        assert a.sync_responses_sent == 1 and a.sync_deltas_sent == 0
        net.run()
        assert c.sync_responses_applied == 1
        assert _identical(a, c) and _identical(a, b)
