"""The admin identity digest is a pure read of the document.

``identity_digest`` backs the admin ``digest`` op, the end-to-end
benchmark's correctness gates and the cluster tests. It must answer
from collapsed regions' implied paths, never exploding them: a digest
taken for monitoring must not change the replica's representation.
"""

from __future__ import annotations

from repro.core.path import ROOT
from repro.replication.network import SimulatedNetwork
from repro.replication.site import ReplicaSite
from repro.server.admin import identity_digest, identity_pairs


def _collapsed_site(site_id: int, atoms: int = 2000,
                    holes: int = 31) -> ReplicaSite:
    """A quiescent site: typed, flattened, every ``holes``-th atom
    deleted, cold regions collapsed into many small leaves."""
    site = ReplicaSite(site_id, SimulatedNetwork(seed=1))
    doc = site.doc
    for start in range(0, atoms, 200):
        doc.insert_text(len(doc), [chr(97 + (start + k) % 26)
                                   for k in range(200)])
    doc.note_revision()
    doc.flatten_local(ROOT)
    for index in range(len(doc) - holes, 0, -holes):
        doc.delete(index)
    for _ in range(3):
        doc.note_revision()
    doc.collapse_cold()
    return site


class TestIdentityDigestIsAPureRead:
    def test_warm_digest_leaves_collapsed_storage_alone(self):
        site = _collapsed_site(1)
        tree = site.doc.tree
        site.text()  # a warm read first, as a serving daemon would have
        leaves = tree.array_leaves()
        explodes = (tree.explodes, tree.partial_explodes)
        assert len(leaves) > 10

        digest = identity_digest(site)

        after = tree.array_leaves()
        assert len(after) == len(leaves)
        assert all(a is b for a, b in zip(after, leaves))
        assert (tree.explodes, tree.partial_explodes) == explodes

        exploded = _collapsed_site(2)
        for leaf in exploded.doc.tree.array_leaves():
            exploded.doc.tree.explode_leaf(leaf)
        assert not exploded.doc.tree.array_leaves()
        assert identity_digest(exploded) == digest
        assert identity_pairs(exploded) == identity_pairs(site)
