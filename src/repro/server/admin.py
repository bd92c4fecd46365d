"""Line-JSON admin protocol: drive and observe a daemon from outside.

The admin socket is the daemon's *local* face — the editor-session
side of the site, where the peer socket is the replication side. One
request per line, one JSON object per response::

    {"op": "edit", "index": 0, "text": "hello"}
    {"ok": true, "atoms": 5, "site": 1}

Operations: ``ping``, ``status`` (the daemon's counters),
``text`` / ``digest`` (document queries), ``edit`` / ``delete``
(local optimistic writes, refused typed while overloaded), ``sync``
(force an anti-entropy request), ``ack`` (gossip the applied clock),
``checkpoint`` and ``shutdown``.

``digest`` is the convergence oracle the multi-process tests rest on:
a SHA-256 over the document's full **(PosID, atom)** identity sequence
— not just the visible text — so two daemons agreeing on the digest
agree on every position identifier, which is the CRDT property worth
asserting (identical text under different identifiers would be a
silent future conflict). The serialization is ``repr`` of primitive
ints and atoms, deterministic across processes and hash seeds.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.errors import OverloadedError, ReproError
from repro.replication.site import ReplicaSite


def identity_pairs(site: ReplicaSite) -> List[Tuple[Tuple[int, ...], object]]:
    """The document's (PosID bits, atom) sequence, in order. A pure
    read: collapsed regions answer from their implied paths and stay
    collapsed."""
    tree = site.doc.tree
    return [(posid.bits(), atom)
            for posid, atom in zip(tree.posids(), tree.atoms())]


def identity_digest(site: ReplicaSite) -> str:
    """SHA-256 of the full PosID-to-atom binding."""
    digest = hashlib.sha256()
    for bits, atom in identity_pairs(site):
        digest.update(repr(bits).encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(repr(atom).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


class AdminServer:
    """The daemon's line-JSON control socket."""

    def __init__(self, daemon: "SiteDaemon") -> None:
        self.daemon = daemon
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._serve, host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                response = self._dispatch(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
                if response.get("closing"):
                    return
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(self, line: bytes) -> Dict[str, object]:
        try:
            request = json.loads(line)
            if not isinstance(request, dict) or "op" not in request:
                raise ValueError("request must be an object with an 'op'")
        except (ValueError, UnicodeDecodeError) as exc:
            return {"ok": False, "error": str(exc), "kind": "bad-request"}
        op = request["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}",
                    "kind": "bad-request"}
        try:
            return handler(request)
        except OverloadedError as exc:
            # The typed refusal under overload: the client backs off.
            return {"ok": False, "error": str(exc), "kind": "overloaded"}
        except ReproError as exc:
            return {"ok": False, "error": str(exc),
                    "kind": type(exc).__name__}
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            return {"ok": False, "error": str(exc), "kind": "bad-request"}

    # -- operations ------------------------------------------------------------------

    def _op_ping(self, request: Dict) -> Dict[str, object]:
        return {"ok": True, "site": self.daemon.config.site}

    def _op_status(self, request: Dict) -> Dict[str, object]:
        status = self.daemon.status()
        status["ok"] = True
        return status

    def _op_text(self, request: Dict) -> Dict[str, object]:
        return {"ok": True, "text": self.daemon.site.text(),
                "atoms": len(self.daemon.site)}

    def _op_digest(self, request: Dict) -> Dict[str, object]:
        site = self.daemon.site
        return {
            "ok": True,
            "digest": identity_digest(site),
            "atoms": len(site),
            "clock": {str(k): v for k, v in
                      sorted(site.broadcast.clock.items())},
            "inbound_depth": self.daemon._inbound.qsize(),
        }

    def _op_edit(self, request: Dict) -> Dict[str, object]:
        self.daemon.check_admission()
        index = int(request.get("index", len(self.daemon.site)))
        text = str(request["text"])
        if not 0 <= index <= len(self.daemon.site):
            raise ValueError(f"index {index} out of range")
        if text:
            self.daemon.site.insert_text(index, list(text))
        return {"ok": True, "atoms": len(self.daemon.site)}

    def _op_delete(self, request: Dict) -> Dict[str, object]:
        self.daemon.check_admission()
        index = int(request["index"])
        count = int(request.get("count", 1))
        if not 0 <= index < len(self.daemon.site):
            raise ValueError(f"index {index} out of range")
        end = min(index + count, len(self.daemon.site))
        self.daemon.site.delete_range(index, end)
        return {"ok": True, "atoms": len(self.daemon.site)}

    def _op_sync(self, request: Dict) -> Dict[str, object]:
        peer = request.get("peer")
        sent = self.daemon.site.request_sync(
            None if peer is None else int(peer)
        )
        return {"ok": True, "requested": sent}

    def _op_ack(self, request: Dict) -> Dict[str, object]:
        self.daemon.site.broadcast_ack()
        return {"ok": True}

    def _op_checkpoint(self, request: Dict) -> Dict[str, object]:
        self.daemon.site.checkpoint()
        return {"ok": True}

    def _op_shutdown(self, request: Dict) -> Dict[str, object]:
        self.daemon.request_shutdown()
        return {"ok": True, "closing": True}


class AdminClient:
    """Blocking admin-socket client (tests and the CLI use it)."""

    def __init__(self, host: str, port: int, timeout: float = 5.0) -> None:
        import socket

        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, op: str, **fields) -> Dict[str, object]:
        payload = dict(fields)
        payload["op"] = op
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("admin connection closed")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "AdminClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
