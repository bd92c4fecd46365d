"""Replication substrate: what the paper assumes around the CRDT.

Treedoc requires operations to replay in happened-before order
(section 1); this package supplies that substrate for simulation and
testing:

- :mod:`repro.replication.clock` — vector and Lamport clocks;
- :mod:`repro.replication.network` — a deterministic discrete-event
  network with latency, reordering, loss (with retransmission),
  duplication and partitions;
- :mod:`repro.replication.broadcast` — causal broadcast with
  vector-clock delivery buffering;
- :mod:`repro.replication.site` — a replica site wiring a Treedoc to
  the broadcast layer;
- :mod:`repro.replication.commit` — the distributed commitment protocol
  guarding ``flatten`` (section 4.2.1; two-phase commit — the paper
  allows any commitment protocol);
- :mod:`repro.replication.stability` — SDIS tombstone garbage collection
  through causal stability (section 4.2);
- :mod:`repro.replication.wire` — the peer protocol: every replication
  message as a typed, self-describing, CRC-guarded byte frame (causal
  envelopes, ack gossip, anti-entropy request/response, commitment);
- :mod:`repro.replication.sync` — state-transfer anti-entropy: a lagging
  replica catches up from one tree-walk state frame (collapsed
  regions as inline leaves) instead of per-atom replay, with
  :class:`AntiEntropyPolicy` deciding when to stop waiting for replay;
- :mod:`repro.replication.cluster` — an N-site simulation harness with
  convergence checking and an anti-entropy tick.
"""

from repro.replication.clock import VectorClock, LamportClock
from repro.replication.network import SimulatedNetwork, NetworkConfig
from repro.replication.broadcast import CausalBroadcast
from repro.replication.wire import (
    AckFrame,
    EnvelopeFrame,
    SyncRequest,
    SyncResponse,
    decode_wire,
    encode_wire,
)
from repro.replication.site import ReplicaSite
from repro.replication.commit import FlattenCoordinator, CommitDecision
from repro.replication.sync import AntiEntropyPolicy, StateTransfer, SyncStats
from repro.replication.cluster import Cluster

__all__ = [
    "VectorClock",
    "LamportClock",
    "SimulatedNetwork",
    "NetworkConfig",
    "CausalBroadcast",
    "EnvelopeFrame",
    "AckFrame",
    "SyncRequest",
    "SyncResponse",
    "encode_wire",
    "decode_wire",
    "ReplicaSite",
    "FlattenCoordinator",
    "CommitDecision",
    "AntiEntropyPolicy",
    "StateTransfer",
    "SyncStats",
    "Cluster",
]
