"""CLI entry point: ``python -m repro.server`` runs one site daemon.

Example — a three-daemon loopback cluster (each in its own shell)::

    python -m repro.server --site 1 --port 7101 --admin-port 7201 \\
        --peer 2=127.0.0.1:7102 --peer 3=127.0.0.1:7103 --store /tmp/site1
    python -m repro.server --site 2 --port 7102 --admin-port 7202 \\
        --peer 1=127.0.0.1:7101 --peer 3=127.0.0.1:7103 --store /tmp/site2
    python -m repro.server --site 3 --port 7103 --admin-port 7203 \\
        --peer 1=127.0.0.1:7101 --peer 2=127.0.0.1:7102 --store /tmp/site3

then talk line-JSON to an admin port::

    printf '{"op":"edit","index":0,"text":"hi"}\\n' | nc 127.0.0.1 7201

SIGTERM/SIGINT drain and checkpoint; SIGKILL is the crash the durable
store recovers from on the next start.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Dict, Tuple

from repro.core.disambiguator import SiteId
from repro.server.daemon import DaemonConfig, SiteDaemon


def parse_peer(value: str) -> Tuple[SiteId, Tuple[str, int]]:
    try:
        site_part, address = value.split("=", 1)
        host, port_part = address.rsplit(":", 1)
        return int(site_part), (host, int(port_part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"peer must look like ID=HOST:PORT, got {value!r}"
        )


def build_config(argv) -> DaemonConfig:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve one Treedoc replica site over TCP.",
    )
    parser.add_argument("--site", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--admin-port", type=int, default=0)
    parser.add_argument("--peer", type=parse_peer, action="append",
                        default=[], metavar="ID=HOST:PORT")
    parser.add_argument("--mode", choices=("udis", "sdis"), default="udis")
    parser.add_argument("--store", default=None,
                        help="durable store directory (volatile if unset)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint-every", type=int, default=64)
    parser.add_argument("--tick-interval", type=float, default=0.05)
    parser.add_argument("--heartbeat-interval", type=float, default=0.5)
    parser.add_argument("--idle-timeout", type=float, default=5.0)
    args = parser.parse_args(argv)
    peers: Dict[SiteId, Tuple[str, int]] = dict(args.peer)
    return DaemonConfig(
        site=args.site, host=args.host, port=args.port,
        admin_port=args.admin_port, peers=peers, mode=args.mode,
        store_path=args.store, checkpoint_every=args.checkpoint_every,
        seed=args.seed,
        tick_interval=args.tick_interval,
        heartbeat_interval=args.heartbeat_interval,
        idle_timeout=args.idle_timeout,
    )


async def run(config: DaemonConfig) -> None:
    daemon = SiteDaemon(config)
    daemon.install_signal_handlers()
    await daemon.start()
    print(f"site {config.site} serving on {config.host}:{daemon.port} "
          f"(admin {daemon.admin_port})", flush=True)
    await daemon.wait_closed()


def main(argv=None) -> int:
    config = build_config(sys.argv[1:] if argv is None else argv)
    try:
        asyncio.run(run(config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
