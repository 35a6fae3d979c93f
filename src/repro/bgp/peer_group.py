"""BGP peer-group replication with blocking semantics.

The paper (section II-B3) describes the vendor peer-group feature:
updates for peers with identical outbound policy are generated once,
placed in a common queue, and replicated to every member's TCP
connection — and "the queued common updates would be cleared only after
being successfully delivered to all peers", so one slow or failed
member drags the whole group down.  That is precisely the behaviour
implemented here: the group advances its common queue only when *every*
active member's TCP has fully delivered (ACKed) the previous batch.
"""

from __future__ import annotations

from collections import deque

from repro.bgp.speaker import BgpSession
from repro.bgp.table import Rib
from repro.netsim.simulator import PeriodicTimer, Simulator


class PeerGroup:
    """A common update queue replicated to member sessions in lockstep."""

    def __init__(
        self,
        sim: Simulator,
        members: list[BgpSession],
        batch_messages: int = 20,
        poll_interval_us: int = 5_000,
    ) -> None:
        if not members:
            raise ValueError("a peer group needs at least one member")
        if batch_messages <= 0:
            raise ValueError(f"non-positive batch {batch_messages}")
        self.sim = sim
        self.members = list(members)
        self.active = list(members)
        self.batch_messages = batch_messages
        self._queue: deque[bytes] = deque()
        self._poller = PeriodicTimer(
            sim, poll_interval_us, self._poll, name="peer-group"
        )
        for member in self.members:
            self._chain_down_callback(member)

    def _chain_down_callback(self, member: BgpSession) -> None:
        previous = member.on_down

        def _down(session: BgpSession, reason: str) -> None:
            self.remove_member(session)
            if previous is not None:
                previous(session, reason)

        member.on_down = _down

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def announce_table(self, rib: Rib) -> int:
        """Queue one table transfer for replication to all members."""
        updates = rib.wire_form()
        self._queue.extend(updates)
        for member in self.active:
            member.transfer_started_at_us = self.sim.now
        if not self._poller.running:
            self._poller.start(initial_delay_us=0)
        return len(updates)

    def remove_member(self, session: BgpSession) -> None:
        """Drop a (failed) member; the group resumes without it."""
        if session in self.active:
            self.active.remove(session)

    # ------------------------------------------------------------------
    # Replication engine
    # ------------------------------------------------------------------
    def _all_members_drained(self) -> bool:
        return all(
            member.endpoint.sender.buffered_bytes == 0
            for member in self.active
        )

    def _poll(self) -> None:
        if not self._queue:
            self._poller.stop()
            return
        if not self.active:
            # Everyone failed; drop the queue.
            self._queue.clear()
            self._poller.stop()
            return
        if not self._all_members_drained():
            return
        batch = [
            self._queue.popleft()
            for _ in range(min(self.batch_messages, len(self._queue)))
        ]
        for member in self.active:
            for encoded in batch:
                member.endpoint.send(encoded)
                member.updates_sent += 1
        if not self._queue:
            for member in self.active:
                member.transfer_drained_at_us = self.sim.now
