"""Multi-user editing sessions over the simulated network.

``SharedDocument`` assembles N :class:`EditorSession` participants, each
an :class:`repro.editor.buffer.EditorBuffer` wired to causal broadcast —
the peer-to-peer cooperative editor the paper's conclusion sketches.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.disambiguator import SiteId
from repro.core.ops import OpBatch
from repro.editor.buffer import Cursor, EditorBuffer
from repro.errors import ReplicationError
from repro.replication.broadcast import CausalBroadcast
from repro.replication.network import NetworkConfig, SimulatedNetwork


class EditorSession:
    """One user's editor attached to the shared session."""

    def __init__(self, site: SiteId, network: SimulatedNetwork,
                 mode: str = "udis") -> None:
        self.site = site
        self.buffer = EditorBuffer(site, mode=mode)
        self.broadcast = CausalBroadcast(
            site, network, self._on_deliver, register=True
        )

    # -- editing (each call applies locally and broadcasts ONE batch envelope) --

    def type(self, offset: int, text: str) -> None:
        """Type ``text`` at a character offset."""
        self._send(self.buffer.insert_batch(offset, text))

    def type_at(self, cursor: Cursor, text: str) -> None:
        """Type at a cursor (which stays glued to its anchor)."""
        self._send(self.buffer.insert_batch(cursor.offset, text))

    def erase(self, start: int, end: int) -> None:
        """Delete the character range ``[start, end)``."""
        self._send(self.buffer.delete_batch(start, end))

    def replace(self, start: int, end: int, text: str) -> None:
        """Overwrite a range; the delete and insert halves travel in
        one envelope."""
        self._send(self.buffer.replace_batch(start, end, text))

    def _send(self, batch: OpBatch) -> None:
        if batch.ops:
            self.broadcast.broadcast(batch)

    def cursor(self, offset: int = 0, name: str = "") -> Cursor:
        """A cursor pinned at ``offset``."""
        return self.buffer.cursor(offset, name or f"site-{self.site}")

    def text(self) -> str:
        return self.buffer.text()

    # -- delivery -------------------------------------------------------------------

    def _on_deliver(self, origin: SiteId, payload: object) -> None:
        if not isinstance(payload, OpBatch):
            raise ReplicationError(f"unexpected payload {payload!r}")
        self.buffer.apply_batch(payload)


class SharedDocument:
    """An N-user cooperative editing session."""

    def __init__(self, n_users: int, mode: str = "udis",
                 config: Optional[NetworkConfig] = None,
                 seed: int = 0) -> None:
        self.network = SimulatedNetwork(config, seed=seed)
        self.users: Dict[SiteId, EditorSession] = {
            site: EditorSession(site, self.network, mode=mode)
            for site in range(1, n_users + 1)
        }

    def __getitem__(self, site: SiteId) -> EditorSession:
        return self.users[site]

    def __iter__(self):
        return iter(self.users.values())

    def sync(self) -> None:
        """Deliver all in-flight operations."""
        self.network.run()

    def assert_converged(self) -> str:
        """All users see the same text; returns it.

        Reads go through each buffer's generation-cached text, so
        polling convergence between quiescent syncs costs one cache
        lookup per user, not a tree walk."""
        texts = {site: user.text() for site, user in self.users.items()}
        reference = next(iter(texts.values()))
        for site, text in texts.items():
            if text != reference:
                raise ReplicationError(
                    f"user {site} diverged: {text!r} != {reference!r}"
                )
        return reference
