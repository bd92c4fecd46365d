"""Networked catch-up benchmark: replay vs anti-entropy, measured on the wire.

Since the bytes-first redesign, every replication message is an encoded
frame on the :class:`SimulatedNetwork`, so catch-up cost is **read from
the network's byte counters**, not estimated. Two ways a replica that
missed an edit-heavy history can catch up:

1. **replay** — the laggard was partitioned away while the others
   edited; on heal, every held envelope (one per edit batch) is
   delivered and replayed. The wire pays for the whole history,
   including content that was later deleted.
2. **anti-entropy** — the laggard *joined late* (the history predates
   it; no envelopes exist for it). Hearing one post-join envelope it
   cannot causally deliver, the :class:`AntiEntropyPolicy` fires a
   ``SyncRequest`` and the origin ships one ``SyncResponse`` state
   frame: the final document only, quiescent regions as runs.

A third scenario repeats the anti-entropy exchange under loss +
duplication + **corruption** (bit flips): every damaged frame must be
rejected by the CRC and retransmitted, and the cluster must still
converge — the fault-tolerance story measured end to end.

Two scenarios added with the frontier-diff protocol:

4. **delta vs full** — a requester exactly one origin-event burst
   behind on a settled ~1500-line document asks for sync; the
   responder's ``SyncDelta`` (only the touched regions plus the recent
   delete log) is weighed against the full ``SyncResponse`` snapshot it
   replaces. The delta must win by :data:`MIN_DELTA_RATIO`.
5. **churn scaling** — 10 -> 50 -> 100 sites run a scripted
   churn schedule (partition, join, leave) under 15% drop + 5%
   corruption to convergence with PosID identity; per-site wire bytes
   are read from the network counters and checked against the
   checked-in ``BUDGETS.json`` ceilings (:mod:`benchmarks.budgets`).

Writes ``BENCH_network.json`` (checked into the repo root; CI refreshes
it as an artifact) and fails loudly if the anti-entropy path does not
beat replay on wire bytes by the acceptance floor, if the delta loses
to the full snapshot, if any churn row busts its wire-byte budget, or
if any scenario fails to converge identifier-identically. Run::

    PYTHONPATH=src python benchmarks/bench_network.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

if __package__:
    from benchmarks import budgets
else:  # run as a script: benchmarks/ itself is on sys.path
    import budgets

#: Acceptance floor: anti-entropy catch-up must beat replay catch-up on
#: wire bytes to the laggard by at least this factor on the edit-heavy
#: history.
MIN_BYTES_RATIO = 1.5

#: Acceptance floor: for a requester one origin-event burst behind on
#: the settled long document, the frontier-diff ``SyncDelta`` must be
#: at least this many times smaller than the full snapshot. The region
#: frame measures ~87x (141 B against 12.0 KiB); the floor sits at under
#: half that, so it fails if the delta falls back toward the segment
#: stream it replaced (615 B, ~20x).
MIN_DELTA_RATIO = 40.0

#: Fire on any persistent gap immediately: benchmark scenarios settle
#: between phases, so little simulated time elapses.
def _eager_policy():
    from repro.replication.sync import AntiEntropyPolicy

    return AntiEntropyPolicy(max_buffered=1, max_gap_age=0.0,
                             min_request_interval=0.0)


def _drive_history(cluster, cfg, rng) -> None:
    """An edit-heavy two-site history: bootstrap, then churn (bursts
    and trims) — the kind of history whose replay cost far exceeds its
    final state."""
    cluster.bootstrap(list("seed line of shared text. "))
    for edit in range(cfg["edits"]):
        site = cluster[1 + edit % 2]
        if len(site) > 60 and rng.random() < 0.35:
            start = rng.randrange(len(site) - 20)
            site.delete_range(start, start + rng.randint(4, 16))
        else:
            text = f"edit {edit} " + "x" * rng.randint(4, 24)
            site.insert_text(rng.randint(0, len(site)), list(text))
        if edit % 40 == 39:
            cluster.settle()
    cluster.settle()


def _settle_storage(cluster) -> None:
    """Flatten (commitment) + collapse so the responder's document is
    canonical and run-dense — the steady state of a settled document."""
    from repro.core.path import ROOT

    coordinator = cluster[1].initiate_flatten(ROOT)
    cluster.settle()
    from repro.replication.commit import CommitDecision

    if coordinator.decision is not CommitDecision.COMMITTED:
        raise SystemExit("FAIL: benchmark flatten did not commit")
    for _ in range(2):
        for site in cluster:
            site.note_revision()
    for site in cluster:
        site.collapse_cold(min_age=1, min_atoms=8)
    cluster.settle()


def measure_replay(cfg) -> dict:
    """Partitioned laggard catches up by replaying the held history."""
    from repro.replication.cluster import Cluster

    cluster = Cluster(3, mode="sdis", seed=cfg["seed"],
                      policy=_eager_policy())
    laggard = 3
    cluster.partition({1, 2}, {laggard})
    _drive_history(cluster, cfg, random.Random(cfg["seed"]))
    bytes_before = cluster.network.link_bytes_to(laggard)
    delivered_before = cluster.network.delivered_messages
    sim_before = cluster.network.now
    started = time.perf_counter()
    cluster.heal()
    cluster.settle()
    wall = time.perf_counter() - started
    cluster.assert_converged()
    return {
        "wire_bytes_to_laggard": cluster.network.link_bytes_to(laggard)
        - bytes_before,
        "messages_to_laggard": (
            cluster.network.delivered_messages - delivered_before
        ),
        "catch_up_sim_ms": cluster.network.now - sim_before,
        "wall_seconds": wall,
        "atoms": len(cluster[laggard]),
    }


def measure_anti_entropy(cfg, config=None, label_faults=False) -> dict:
    """Late joiner catches up by the networked SyncRequest/SyncResponse
    exchange (plus the one nudge envelope that reveals the gap)."""
    from repro.replication.cluster import Cluster

    cluster = Cluster(2, mode="sdis", seed=cfg["seed"], config=config,
                      policy=_eager_policy())
    _drive_history(cluster, cfg, random.Random(cfg["seed"]))
    _settle_storage(cluster)
    joiner = cluster.add_site()
    bytes_before = cluster.network.link_bytes_to(joiner.site)
    sim_before = cluster.network.now
    started = time.perf_counter()
    cluster[1].insert_text(0, list(">> "))  # the gap-revealing nudge
    requests = cluster.anti_entropy()
    wall = time.perf_counter() - started
    cluster.assert_converged()
    if joiner.doc.posids() != cluster[1].doc.posids():
        raise SystemExit("FAIL: joiner is not identifier-identical")
    if joiner.sync_responses_applied < 1:
        raise SystemExit("FAIL: catch-up did not use the sync exchange")
    result = {
        "wire_bytes_to_joiner": cluster.network.link_bytes_to(joiner.site)
        - bytes_before,
        "sync_requests": requests,
        "catch_up_sim_ms": cluster.network.now - sim_before,
        "wall_seconds": wall,
        "atoms": len(joiner),
        "loaded_leaves": joiner.array_leaf_count,
    }
    if label_faults:
        network = cluster.network
        result.update({
            "corrupted_transmissions": network.corrupted_transmissions,
            "decode_rejections": network.decode_rejections,
            "dropped_transmissions": network.dropped_transmissions,
        })
        if network.decode_rejections != network.corrupted_transmissions:
            raise SystemExit(
                "FAIL: a corrupted frame slipped past the decoder"
            )
    return result


def measure_delta_vs_full(cfg) -> dict:
    """One-origin-behind requester: frontier-diff delta vs full snapshot.

    The responder builds both frames for the same request clock, so the
    comparison is exact — same document, same moment. The delta is then
    also exchanged for real over the network to confirm it converges
    identifier-identically."""
    from repro.replication.cluster import Cluster

    cluster = Cluster(2, mode="sdis", seed=cfg["seed"],
                      policy=_eager_policy())
    cluster.bootstrap(list("delta-vs-full benchmark document\n"))
    responder, requester = cluster[1], cluster[2]
    for line in range(cfg["lines"]):
        responder.insert_text(len(responder), list(f"ln {line:04d}\n"))
        if line % 50 == 49:
            cluster.settle()
    cluster.settle()
    _settle_storage(cluster)
    base = requester.broadcast.clock.copy()
    # The requester now falls exactly one origin-event burst behind.
    responder.insert_text(0, list("hotfix: one small edit\n"))
    delta = responder.make_sync_delta(base)
    full = responder.make_state_transfer()
    if delta is None:
        raise SystemExit("FAIL: responder refused the frontier diff")
    # Ship it for real: the pending envelope and the sync exchange both
    # travel the simulated wire, and the requester must end identical.
    bytes_before = cluster.network.link_bytes_to(requester.site)
    cluster.settle()
    cluster.assert_converged()
    if requester.doc.posids() != responder.doc.posids():
        raise SystemExit("FAIL: delta receiver is not identifier-identical")
    return {
        "lines": cfg["lines"],
        "atoms": len(responder),
        "delta_wire_bytes": delta.wire_bytes,
        "delta_atoms": delta.state.atom_count,
        "full_wire_bytes": full.wire_bytes,
        "exchange_wire_bytes": cluster.network.link_bytes_to(requester.site)
        - bytes_before,
    }


def measure_churn_scaling(cfg) -> list:
    """Scripted churn at 10 -> 50 -> 100 sites under drop + corruption:
    per-site wire bytes, read from the network's own counters."""
    from repro.replication.cluster import ChurnEvent, Cluster
    from repro.replication.network import NetworkConfig
    from repro.replication.sync import AntiEntropyPolicy

    faults = NetworkConfig(drop_rate=0.15, corruption_rate=0.05,
                           min_latency=1, max_latency=40)
    policy = AntiEntropyPolicy(max_buffered=4, max_gap_age=150.0,
                               min_request_interval=100.0,
                               jitter=0.5, jitter_seed=7)
    rows = []
    for sites in cfg["cluster_sizes"]:
        cluster = Cluster(sites, mode="sdis", config=faults,
                          seed=cfg["seed"] + sites, policy=policy)
        cluster.bootstrap(list("churn scaling row under faults"))
        ids = cluster.site_ids
        third = max(2, sites // 3)
        schedule = [
            ChurnEvent(1, "partition", groups=(tuple(ids[:third]),)),
            ChurnEvent(2, "join"),
            ChurnEvent(3, "heal"),
            ChurnEvent(4, "leave", site=ids[-1]),
        ]
        started = time.perf_counter()
        report = cluster.run_churn(schedule, steps=cfg["churn_steps"],
                                   edits_per_step=2, pump=200,
                                   seed=cfg["seed"])
        cluster.converge(max_cycles=40)
        wall = time.perf_counter() - started
        atoms = cluster.assert_converged(identities=True)
        per_site = cluster.wire_bytes_per_site()
        total = cluster.network.bytes_delivered
        rows.append({
            "sites": sites,
            "wire_bytes_total": total,
            "wire_bytes_per_site": round(total / len(per_site), 1),
            "sync_deltas_applied": sum(
                s.sync_deltas_applied for s in cluster),
            "sync_responses_applied": sum(
                s.sync_responses_applied for s in cluster),
            "sync_declines_received": sum(
                s.sync_declines_received for s in cluster),
            "edits": report["edits"],
            "atoms": len(atoms),
            "wall_seconds": wall,
        })
    return rows


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB"):
        if abs(value) < 1024 or unit == "MiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{value:,.0f} B"
        value /= 1024
    return f"{value:,.1f} MiB"  # pragma: no cover


def _render(results: dict) -> str:
    replay = results["replay"]
    sync = results["anti_entropy"]
    faulty = results["anti_entropy_under_faults"]
    lines = [
        "Networked catch-up (edit-heavy history; bytes read from the "
        "network's counters)",
        "",
        f"  history                {results['config']['edits']:,d} edit "
        f"batches -> {sync['atoms']:,d} atoms",
        f"  replay catch-up        "
        f"{_fmt_bytes(replay['wire_bytes_to_laggard']):>12s}   "
        f"{replay['messages_to_laggard']:,d} messages, "
        f"{replay['catch_up_sim_ms']:,.0f} sim-ms",
        f"  anti-entropy catch-up  "
        f"{_fmt_bytes(sync['wire_bytes_to_joiner']):>12s}   "
        f"{sync['sync_requests']} request(s), "
        f"{sync['loaded_leaves']} leaves loaded, "
        f"{sync['catch_up_sim_ms']:,.0f} sim-ms",
        f"  under faults           "
        f"{_fmt_bytes(faulty['wire_bytes_to_joiner']):>12s}   "
        f"{faulty['corrupted_transmissions']} corrupted, "
        f"{faulty['decode_rejections']} rejected+retried, "
        f"{faulty['dropped_transmissions']} dropped",
        "",
        f"  bytes: replay/anti-entropy {results['bytes_ratio']:8.1f}x  "
        f"(acceptance floor {MIN_BYTES_RATIO:.1f}x)",
        "  joiner identifier-identical to source: yes (checked)",
        "  every corrupted frame rejected by CRC and retried: yes (checked)",
    ]
    delta = results["delta_vs_full"]
    lines += [
        "",
        f"  delta vs full ({delta['lines']:,d}-line doc, one burst behind)",
        f"    full snapshot        "
        f"{_fmt_bytes(delta['full_wire_bytes']):>12s}   "
        f"{delta['atoms']:,d} atoms",
        f"    frontier-diff delta  "
        f"{_fmt_bytes(delta['delta_wire_bytes']):>12s}   "
        f"{delta['delta_atoms']:,d} atoms shipped",
        f"    bytes: full/delta    {results['delta_ratio']:8.1f}x  "
        f"(acceptance floor {MIN_DELTA_RATIO:.1f}x)",
        "",
        "  churn scaling (drop 15%, corruption 5%; PosID-identical "
        "convergence checked)",
    ]
    for row in results["churn_scaling"]:
        lines.append(
            f"    {row['sites']:>3d} sites  "
            f"{_fmt_bytes(row['wire_bytes_per_site']):>12s}/site   "
            f"{row['sync_deltas_applied']:,d} deltas, "
            f"{row['sync_responses_applied']:,d} snapshots, "
            f"{row['sync_declines_received']:,d} declines, "
            f"{row['edits']:,d} edits"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    from repro.replication.network import NetworkConfig

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (seconds, not minutes)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_network.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.quick:
        cfg = dict(edits=160, seed=2009, lines=1500,
                   cluster_sizes=(10, 50, 100), churn_steps=6)
    else:
        cfg = dict(edits=900, seed=2009, lines=1500,
                   cluster_sizes=(10, 50, 100), churn_steps=12)
    faults = NetworkConfig(drop_rate=0.15, duplicate_rate=0.05,
                           corruption_rate=0.1, min_latency=1,
                           max_latency=80)
    results: dict = {
        "config": {
            "quick": args.quick,
            **cfg,
            "fault_rates": {
                "drop": faults.drop_rate,
                "duplicate": faults.duplicate_rate,
                "corruption": faults.corruption_rate,
            },
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "replay": measure_replay(cfg),
        "anti_entropy": measure_anti_entropy(cfg),
        "anti_entropy_under_faults": measure_anti_entropy(
            cfg, config=faults, label_faults=True
        ),
        "delta_vs_full": measure_delta_vs_full(cfg),
        "churn_scaling": measure_churn_scaling(cfg),
    }
    results["bytes_ratio"] = (
        results["replay"]["wire_bytes_to_laggard"]
        / results["anti_entropy"]["wire_bytes_to_joiner"]
    )
    results["delta_ratio"] = (
        results["delta_vs_full"]["full_wire_bytes"]
        / results["delta_vs_full"]["delta_wire_bytes"]
    )
    print(_render(results))
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    status = 0
    if results["bytes_ratio"] < MIN_BYTES_RATIO:
        print(
            f"FAIL: bytes ratio {results['bytes_ratio']:.2f}x below the "
            f"{MIN_BYTES_RATIO:.1f}x acceptance floor", file=sys.stderr,
        )
        status = 1
    if results["delta_ratio"] < MIN_DELTA_RATIO:
        print(
            f"FAIL: delta ratio {results['delta_ratio']:.2f}x below the "
            f"{MIN_DELTA_RATIO:.1f}x acceptance floor", file=sys.stderr,
        )
        status = 1
    root = Path(__file__).resolve().parent.parent
    if not budgets.check_wire(results, budgets.load(root)["wire"]):
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
