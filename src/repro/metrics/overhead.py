"""Treedoc overhead measurements (Table 1, Tables 3-4, Figure 6).

Definitions follow section 5.2 of the paper:

- **PosID size**: the bit-packed identifier size (branch bits +
  disambiguator payloads); maximum and average are taken over the
  visible atoms of the final state.
- **Node count**: one logical node per position node, plus one per
  additional mini-node beyond the first (a node with mini-nodes stores
  an array of ``{node, disambiguator}`` pairs).
- **Memory overhead**: nodes × 26 bytes — the paper's standard node
  record (subtree counter, two child pointers, disambiguator, atom
  pointer on a 32-bit machine).
- **% non-tombstone**: live-atom slots over all used slots plus empty
  structural nodes, i.e. the fraction of nodes that still pay their way.
- **On-disk overhead**: the tree bytes of :mod:`repro.core.disk`,
  excluding the atom file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.disk import measure_on_disk
from repro.core.node import (
    EMPTY,
    LIVE,
    TOMBSTONE,
    ArrayLeaf,
    PathMemo,
    iter_subtree_entries,
)
from repro.core.tree import TreedocTree

#: The paper's per-node memory estimate: subtree count (4) + two child
#: pointers (8) + disambiguator (6+4) + atom pointer (4) = 26 bytes.
NODE_RECORD_BYTES = 26
#: Per-array-region bookkeeping cost in bytes: a (path, length, pointer)
#: record replacing the whole subtree's node records.
ARRAY_REGION_HEADER_BYTES = 12
#: Per-atom cost inside an array region: one pointer (32-bit machine,
#: matching the paper's 26-byte node model).
ARRAY_SLOT_BYTES = 4


@dataclass
class TreeStats:
    """Measurements of one Treedoc state (one Table 1 row)."""

    #: Visible atoms (document length in atoms).
    live_atoms: int = 0
    #: Used identifiers (live + tombstones).
    used_ids: int = 0
    #: Tombstone slots.
    tombstones: int = 0
    #: Logical node count (see module docstring).
    nodes: int = 0
    #: Document size in bytes (sum of atom text sizes).
    document_bytes: int = 0
    #: Maximum PosID size over visible atoms, in bits.
    max_posid_bits: int = 0
    #: Average PosID size over visible atoms, in bits.
    avg_posid_bits: float = 0.0
    #: Total PosID size over visible atoms, in bits.
    total_posid_bits: int = 0
    #: Tree height (deepest materialized path).
    height: int = 0
    #: On-disk overhead in bytes (tree image without atoms).
    disk_overhead_bytes: int = 0
    #: On-disk atom-file size in bytes.
    disk_document_bytes: int = 0
    #: Collapsed quiescent regions (section 4.2 live mixed storage).
    array_leaves: int = 0
    #: Atoms held inside collapsed regions (zero per-atom metadata).
    array_atoms: int = 0
    #: State-transfer (anti-entropy) message size in bits, with the
    #: tree-walk state frame (``measure_tree(..., with_sync=True)``).
    sync_frame_bits: int = 0
    #: The same state shipped as per-operation v1 records (one framed
    #: insert per atom, one framed delete per tombstone) — the replay
    #: baseline the run frames are measured against.
    sync_per_op_bits: int = 0
    #: Array-leaf records in the measured state frame.
    sync_run_segments: int = 0
    #: Slot records (outside leaves) in the measured state frame.
    sync_op_segments: int = 0
    #: **Measured** anti-entropy wire bytes: what one real
    #: SyncRequest/SyncResponse exchange of this state put on a
    #: simulated link (:func:`measure_network_sync` — read from the
    #: network's byte counters, framing, clock and CRC included; not
    #: an estimate).
    sync_wire_bytes: int = 0
    #: Measured bytes of the SyncRequest probe that solicited it.
    sync_request_bytes: int = 0
    #: Storage-health counters, cumulative over the tree's lifetime
    #: (:class:`repro.core.tree.TreedocTree`): full region explosions
    #: and partial (leaf/core/leaf) explosions.
    explodes: int = 0
    partial_explodes: int = 0
    #: Per-atom PosID sizes (bits), for distribution plots.
    posid_bits: List[int] = field(default_factory=list)

    @property
    def memory_overhead_bytes(self) -> int:
        """In-memory overhead of the *pure tree* form: one 26-byte
        record per logical node, counting collapsed regions as if
        exploded (section 5.2) — so the Table 1 number is comparable
        regardless of the current storage form."""
        return (self.nodes + self.array_atoms) * NODE_RECORD_BYTES

    @property
    def mixed_memory_overhead_bytes(self) -> int:
        """In-memory overhead of the *current mixed* form: 26-byte
        records for tree-resident nodes plus the array costs of
        collapsed regions (a header per region, a pointer per atom)."""
        return (
            self.nodes * NODE_RECORD_BYTES
            + self.array_leaves * ARRAY_REGION_HEADER_BYTES
            + self.array_atoms * ARRAY_SLOT_BYTES
        )

    @property
    def memory_overhead_ratio(self) -> float:
        """Memory overhead relative to the document size ("Mem ovhd")."""
        if self.document_bytes == 0:
            return 0.0
        return self.memory_overhead_bytes / self.document_bytes

    @property
    def non_tombstone_fraction(self) -> float:
        """Fraction of nodes that hold a live atom ("% non-Tomb"),
        over the pure-tree-equivalent node count."""
        total = self.nodes + self.array_atoms
        if total == 0:
            return 1.0
        return self.live_atoms / total

    @property
    def tombstone_fraction(self) -> float:
        """Fraction of nodes that do not hold a live atom (Table 3)."""
        return 1.0 - self.non_tombstone_fraction

    @property
    def disk_overhead_ratio(self) -> float:
        """On-disk overhead relative to document size ("% doc")."""
        if self.document_bytes == 0:
            return 0.0
        return self.disk_overhead_bytes / self.document_bytes

    @property
    def sync_per_op_bytes(self) -> int:
        """Per-operation replay message size, in bytes."""
        return (self.sync_per_op_bits + 7) // 8

    @property
    def sync_compression(self) -> float:
        """How many times smaller the run-aware state frame is than
        per-op replay (the Table 3 sync column)."""
        if self.sync_frame_bits == 0:
            return 1.0
        return self.sync_per_op_bits / self.sync_frame_bits

    @property
    def overhead_per_atom_bits(self) -> float:
        """Identifier overhead per visible atom in bits: the total PosID
        size of *all used identifiers* amortized over visible atoms
        (Table 4 "overhead/atom"); under SDIS tombstones keep paying."""
        if self.live_atoms == 0:
            return 0.0
        return self._total_id_bits / self.live_atoms

    _total_id_bits: int = 0


def _atom_bytes(atom: object) -> int:
    text = atom if isinstance(atom, str) else repr(atom)
    return len(text.encode("utf-8"))


def measure_sync(tree: TreedocTree, mode: str = "sdis",
                 site: int = 0) -> Tuple[int, int, int, int]:
    """State-transfer message sizes of ``tree``'s current state:
    ``(frame_bits, per_op_bits, run_segments, op_segments)``.

    ``frame_bits`` is the tree-walk state frame that full state
    transfer ships (:func:`repro.core.encoding.encode_state`; the run
    and op counts are its leaf and slot records); ``per_op_bits`` ships
    the same information as framed v1 records — one insert per visible
    atom, one delete per tombstone. The per-op figure is a *lower*
    bound on real replay (a tombstone's original insert is not even
    counted), so the compression ratio reported is conservative.
    """
    from repro.core.encoding import encode_state, operation_cost_bits
    from repro.core.runs import AtomRun, iter_state_segments

    state = encode_state(tree, mode, site, digest="")
    per_op_bits = 0
    for segment in iter_state_segments(tree, site):
        if isinstance(segment, AtomRun):
            for op in segment.insert_ops(site):
                per_op_bits += operation_cost_bits(op)
        else:
            per_op_bits += operation_cost_bits(segment)
    return (state.frame_bits, per_op_bits, state.run_segments,
            state.op_segments)


def measure_network_sync(doc) -> Tuple[int, int]:
    """Measured wire cost of catching a cold replica up to ``doc``:
    ``(response_bytes, request_bytes)``.

    Runs one real anti-entropy exchange — an empty late joiner sends a
    ``SyncRequest``, ``doc``'s site answers with a ``SyncResponse``
    frame — over a two-site :class:`SimulatedNetwork`, and reads the
    numbers from the network's per-link byte counters. Unlike the
    frame-bits estimate of :func:`measure_sync`, this includes every
    real cost: clock varints, the (empty) delete-log field, frame
    headers and the CRC.
    """
    from repro.replication.network import SimulatedNetwork
    from repro.replication.site import ReplicaSite

    network = SimulatedNetwork(seed=0)
    server = ReplicaSite(doc.site, network, mode=doc.mode,
                         balanced=doc.allocator.balanced)
    server.doc = doc
    # One synthetic causal event stands in for the history that built
    # the document, so the server's frontier strictly dominates the
    # empty joiner's and the responder agrees to ship.
    server.broadcast.clock = server.broadcast.clock.tick(doc.site)
    joiner = ReplicaSite(doc.site + 1, network, mode=doc.mode)
    joiner.request_sync(doc.site)
    network.run()
    if joiner.sync_responses_applied != 1:  # pragma: no cover - rig bug
        raise RuntimeError("network sync measurement failed to converge")
    return (
        network.link_bytes.get((doc.site, joiner.site), 0),
        network.link_bytes.get((joiner.site, doc.site), 0),
    )


def measure_tree(tree: TreedocTree, with_disk: bool = True,
                 with_sync: bool = False) -> TreeStats:
    """Take all Table 1 measurements of ``tree``'s current state.

    Collapsed regions (live mixed storage, section 4.2) are measured
    without exploding them: their atoms' PosIDs are the implied
    canonical plain paths, ``nodes`` counts only tree-resident
    structure, and the ``array_*`` fields carry the mixed-form shape so
    both the pure-tree and mixed overheads can be reported.
    ``with_sync`` additionally measures the state-transfer message
    sizes (:func:`measure_sync`), feeding the Table 3 sync columns.
    """
    stats = TreeStats()
    total_bits = 0
    total_id_bits = 0
    structural_nodes = 0
    for node in tree.root.iter_nodes():
        # One logical node per position node, plus extra entries of the
        # mini-node array beyond the first.
        structural_nodes += 1 + max(0, len(node.mini_nodes()) - 1)
    # Subtract the root when it is bare bookkeeping only.
    root = tree.root
    if root.state == EMPTY and not root.minis:
        structural_nodes -= 1
    stats.nodes = max(0, structural_nodes)
    paths = PathMemo()
    for entry in iter_subtree_entries(tree.root):
        if isinstance(entry, ArrayLeaf):
            stats.array_leaves += 1
            stats.array_atoms += entry.id_count
            dead = entry.dead
            for offset, posid in enumerate(entry.id_posids()):
                bits = posid.size_bits
                total_id_bits += bits
                stats.used_ids += 1
                if (dead >> offset) & 1:
                    stats.tombstones += 1
                    continue
                stats.posid_bits.append(bits)
                total_bits += bits
                stats.live_atoms += 1
                stats.document_bytes += _atom_bytes(entry.atoms[offset])
                if bits > stats.max_posid_bits:
                    stats.max_posid_bits = bits
            continue
        slot = entry
        if slot.state == LIVE:
            bits = paths.posid(slot).size_bits
            stats.posid_bits.append(bits)
            total_bits += bits
            total_id_bits += bits
            stats.live_atoms += 1
            stats.used_ids += 1
            stats.document_bytes += _atom_bytes(slot.atom)
            if bits > stats.max_posid_bits:
                stats.max_posid_bits = bits
        elif slot.state == TOMBSTONE:
            stats.tombstones += 1
            stats.used_ids += 1
            total_id_bits += paths.posid(slot).size_bits
    stats.total_posid_bits = total_bits
    stats._total_id_bits = total_id_bits
    if stats.live_atoms:
        stats.avg_posid_bits = total_bits / stats.live_atoms
    stats.height = tree.height
    stats.explodes = tree.explodes
    stats.partial_explodes = tree.partial_explodes
    if with_disk:
        overhead, document = measure_on_disk(tree)
        stats.disk_overhead_bytes = overhead
        stats.disk_document_bytes = document
    if with_sync:
        (stats.sync_frame_bits, stats.sync_per_op_bits,
         stats.sync_run_segments, stats.sync_op_segments) = measure_sync(tree)
    return stats
