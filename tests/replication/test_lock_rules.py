"""Which local edits a pending flatten refuses: every edit verb at every
position around one locked subtree.

The rule, stated independently of the site's implementation: an atom
is *locked* when its identifier overlaps the locked region (it lies in
the subtree, or is one of its ancestors). A delete is refused when any
atom it removes is locked. An insert lands between the atoms at
``index - 1`` and ``index``, so it is refused when either neighbour is
locked, or when the document is empty and any region is locked. A
replace is refused when its delete half or an insert at its start would
be, or when the atom at its end is locked: once the range is gone, that
atom is the inserted atoms' right neighbour.
"""

import pytest

from repro.core.path import PosID
from repro.replication.cluster import Cluster
from repro.replication.commit import CommitDecision, paths_overlap
from repro.replication.site import RegionLockedError

ATOMS = list("abcdefghijklmnop")
#: A subtree of the balanced 16-atom bootstrap tree: it holds atoms
#: 4-6, and its ancestors hold atoms 3, 7 and 15.
REGION = (1, 0, 0, 1)
LOCKED = {3, 4, 5, 6, 7, 15}


def _locked_cluster(atoms=ATOMS):
    cluster = Cluster(2, seed=3)
    if atoms:
        cluster.bootstrap(atoms)
    # The initiator locks the region at once; the network never runs,
    # so the lock stays held for the whole test.
    cluster[1].initiate_flatten(PosID.from_bits(list(REGION)))
    assert cluster[1].locked_regions == 1
    return cluster


def _refused_insert(locked, length, index):
    if length == 0:
        return True
    return any(n in locked for n in (index - 1, index) if 0 <= n < length)


def _refused_range(locked, start, end):
    return any(i in locked for i in range(start, end))


def _expected(verb, locked, length, position):
    end = min(position + 2, length)
    if verb in ("insert", "insert_text"):
        return _refused_insert(locked, length, position)
    if verb == "delete":
        return position in locked
    if verb == "delete_range":
        return _refused_range(locked, position, end)
    return (_refused_range(locked, position, end)
            or _refused_insert(locked, length, position)
            or (end < length and end in locked))


def _edit(site, verb, position):
    end = min(position + 2, len(site))
    if verb == "insert":
        site.insert(position, "x")
    elif verb == "insert_text":
        site.insert_text(position, list("xy"))
    elif verb == "delete":
        site.delete(position)
    elif verb == "delete_range":
        site.delete_range(position, end)
    else:
        site.replace_range(position, end, list("xy"))


VERBS = ("insert", "insert_text", "delete", "delete_range", "replace_range")


def test_fixture_region_locks_the_expected_atoms():
    site = _locked_cluster()[1]
    locked = {i for i in range(len(site))
              if paths_overlap(site.doc.posid_at(i).bits(), REGION)}
    assert locked == LOCKED


#: Every gap an insert can target; every atom a removal can start at.
CASES = [(verb, position) for verb in VERBS
         for position in range(len(ATOMS) + 1 if verb.startswith("insert")
                               else len(ATOMS))]


@pytest.mark.parametrize("verb,position", CASES)
def test_verb_at_position(verb, position):
    cluster = _locked_cluster()
    site = cluster[1]
    text, clock = site.text(), site.broadcast.clock.copy()
    sent = cluster.network.sent_messages
    if _expected(verb, LOCKED, len(ATOMS), position):
        with pytest.raises(RegionLockedError):
            _edit(site, verb, position)
        assert site.text() == text
        assert site.broadcast.clock == clock
        assert cluster.network.sent_messages == sent
    else:
        _edit(site, verb, position)
        assert site.text() != text
        assert site.broadcast.clock.get(site.site) == clock.get(site.site) + 1


@pytest.mark.parametrize("verb", VERBS)
def test_empty_document(verb):
    site = _locked_cluster(atoms=())[1]
    if verb in ("insert", "insert_text", "replace_range"):
        with pytest.raises(RegionLockedError):
            _edit(site, verb, 0)
    elif verb == "delete":
        with pytest.raises(IndexError):
            site.delete(0)
    else:
        site.delete_range(0, 0)  # removes nothing, ships nothing
    assert site.text() == ""
    assert site.broadcast.clock.get(site.site) == 0


def test_replace_checks_its_right_neighbour_on_a_participant():
    # UDIS: with atom 3 (the region's parent) deleted, a replace of
    # atoms 1-2 lands between atom 0 and the region's first atom. Let
    # through, its identifiers fall inside the region and the committed
    # flatten finds content it did not vote on.
    cluster = Cluster(2, seed=3, mode="udis")
    cluster.bootstrap(ATOMS)
    cluster[1].delete(3)
    cluster.settle()
    coordinator = cluster[2].initiate_flatten(PosID.from_bits(list(REGION)))
    while not cluster[1].locked_regions:
        assert cluster.network.step()
    text = cluster[1].text()
    with pytest.raises(RegionLockedError):
        cluster[1].replace_range(1, 3, list("xy"))
    assert cluster[1].text() == text
    cluster.settle()
    assert cluster[1].locked_regions == cluster[2].locked_regions == 0
    assert coordinator.decision is CommitDecision.COMMITTED
    cluster.assert_converged(identities=True)
