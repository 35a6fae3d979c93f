"""The BGP session state machine over a simulated TCP endpoint.

A :class:`BgpSession` drives one side of a peering: OPEN exchange,
keepalive/hold timers, table transfer through a pluggable sender model,
and incremental decoding of the inbound message stream.  Callbacks
expose everything a collector or scenario needs to observe.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.bgp.messages import (
    ERR_HOLD_TIMER_EXPIRED,
    ERR_OPEN_MESSAGE,
    OPEN_ERR_BAD_PEER_AS,
    OPEN_ERR_UNACCEPTABLE_HOLD_TIME,
    OPEN_ERR_UNSUPPORTED_VERSION,
    BgpMessage,
    KeepaliveMessage,
    MessageDecoder,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    encode_message,
)
from repro.bgp.sender_models import ImmediateSender, SenderModel
from repro.bgp.table import Rib
from repro.core.units import seconds
from repro.netsim.simulator import PeriodicTimer, Simulator, Timer
from repro.tcp.socket import TcpEndpoint

DEFAULT_HOLD_TIME_S = 180


class BgpSessionState(enum.Enum):
    """The RFC 4271 FSM states the simulation distinguishes."""

    IDLE = "idle"
    CONNECT = "connect"
    OPEN_SENT = "open-sent"
    OPEN_CONFIRM = "open-confirm"
    ESTABLISHED = "established"


class BgpSession:
    """One BGP peering endpoint bound to a TCP connection."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: TcpEndpoint,
        local_as: int,
        bgp_id: str,
        hold_time_s: int = DEFAULT_HOLD_TIME_S,
        expected_peer_as: int | None = None,
        rib: Rib | None = None,
        sender_model: SenderModel | None = None,
        on_established: Callable[["BgpSession"], None] | None = None,
        on_update: Callable[["BgpSession", UpdateMessage, int], None] | None = None,
        on_message: Callable[["BgpSession", BgpMessage, int], None] | None = None,
        on_down: Callable[["BgpSession", str], None] | None = None,
        auto_read: bool = True,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.local_as = local_as
        self.bgp_id = bgp_id
        self.configured_hold_time_s = hold_time_s
        self.hold_time_s = hold_time_s
        self.expected_peer_as = expected_peer_as
        self.rib = rib
        self.sender_model = sender_model or ImmediateSender()
        self.sender_model.attach(self._write_message)
        self.on_established = on_established
        self.on_update = on_update
        self.on_message = on_message
        self.on_down = on_down
        self.auto_read = auto_read
        # Invoked instead of process_input() when auto_read is False;
        # lets a collector CPU schedule the reads itself.
        self.on_readable: Callable[["BgpSession"], None] | None = None
        self.state = BgpSessionState.IDLE
        self.peer_open: OpenMessage | None = None
        self.decoder = MessageDecoder()
        self._hold_timer = Timer(sim, self._hold_expired, name="bgp-hold")
        self._keepalive_timer = PeriodicTimer(
            sim, seconds(max(hold_time_s // 3, 1)), self._send_keepalive,
            name="bgp-keepalive",
        )
        self.established_at_us: int | None = None
        self.down_at_us: int | None = None
        self.updates_received = 0
        self.updates_sent = 0
        self.transfer_started_at_us: int | None = None
        self.transfer_drained_at_us: int | None = None
        endpoint.on_established = self._tcp_established
        endpoint.on_data = self._tcp_readable
        endpoint.on_close = self._tcp_closed
        self.sender_model.on_drained = self._transfer_drained
        self.state = BgpSessionState.CONNECT

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def _write_message(self, encoded: bytes) -> None:
        self.endpoint.send(encoded)
        self.updates_sent += 1

    def send_message(self, message: BgpMessage) -> None:
        """Encode and send a protocol message immediately."""
        self.endpoint.send(encode_message(message))

    def announce_table(self, rib: Rib | None = None) -> int:
        """Queue a full table transfer through the sender model.

        Returns the number of UPDATE messages queued.
        """
        table = rib if rib is not None else self.rib
        if table is None:
            return 0
        updates = table.wire_form()
        self.transfer_started_at_us = self.sim.now
        self.sender_model.enqueue(updates)
        return len(updates)

    def _transfer_drained(self) -> None:
        self.transfer_drained_at_us = self.sim.now

    def _send_keepalive(self) -> None:
        if self.state is BgpSessionState.ESTABLISHED:
            self.send_message(KeepaliveMessage())

    # ------------------------------------------------------------------
    # TCP callbacks
    # ------------------------------------------------------------------
    def _tcp_established(self, endpoint: TcpEndpoint) -> None:
        self.send_message(
            OpenMessage(
                my_as=self.local_as,
                hold_time_s=self.configured_hold_time_s,
                bgp_id=self.bgp_id,
            )
        )
        self.state = BgpSessionState.OPEN_SENT

    def _tcp_readable(self, endpoint: TcpEndpoint) -> None:
        if self.auto_read:
            self.process_input()
        elif self.on_readable is not None:
            self.on_readable(self)

    def process_input(self, max_bytes: int | None = None) -> list[BgpMessage]:
        """Read from TCP and process complete messages.

        Collectors with a CPU model call this themselves with a byte
        budget; ``auto_read`` sessions call it on every data arrival.
        """
        data = self.endpoint.read(max_bytes)
        if not data:
            return []
        messages = self.decoder.feed(data)
        for message in messages:
            self._handle_message(message)
        return messages

    def _tcp_closed(self, endpoint: TcpEndpoint) -> None:
        if self.state is not BgpSessionState.IDLE:
            self._go_down("tcp-closed")

    # ------------------------------------------------------------------
    # Inbound FSM
    # ------------------------------------------------------------------
    def _handle_message(self, message: BgpMessage) -> None:
        self._restart_hold_timer()
        if self.on_message is not None:
            self.on_message(self, message, self.sim.now)
        if isinstance(message, OpenMessage):
            self._handle_open(message)
        elif isinstance(message, KeepaliveMessage):
            self._handle_keepalive()
        elif isinstance(message, UpdateMessage):
            self.updates_received += 1
            if self.on_update is not None:
                self.on_update(self, message, self.sim.now)
        elif isinstance(message, NotificationMessage):
            self._go_down(f"notification-{message.error_code}")

    def _handle_open(self, message: OpenMessage) -> None:
        error = self._validate_open(message)
        if error is not None:
            code, subcode = error
            try:
                self.send_message(NotificationMessage(code, subcode))
            except RuntimeError:
                pass
            self._go_down(f"open-rejected-{subcode}")
            self.endpoint.abort()
            return
        self.peer_open = message
        self.hold_time_s = min(self.configured_hold_time_s, message.hold_time_s)
        self.send_message(KeepaliveMessage())
        if self.state is BgpSessionState.OPEN_SENT:
            self.state = BgpSessionState.OPEN_CONFIRM

    def _validate_open(self, message: OpenMessage) -> tuple[int, int] | None:
        """RFC 4271 section 6.2 OPEN checks; None means acceptable."""
        if message.version != 4:
            return (ERR_OPEN_MESSAGE, OPEN_ERR_UNSUPPORTED_VERSION)
        if (
            self.expected_peer_as is not None
            and message.my_as != self.expected_peer_as
        ):
            return (ERR_OPEN_MESSAGE, OPEN_ERR_BAD_PEER_AS)
        if message.hold_time_s in (1, 2):
            # Zero means "no keepalives"; 1-2s are unacceptable.
            return (ERR_OPEN_MESSAGE, OPEN_ERR_UNACCEPTABLE_HOLD_TIME)
        return None

    def _handle_keepalive(self) -> None:
        if self.state is BgpSessionState.OPEN_CONFIRM:
            self._establish()

    def _establish(self) -> None:
        self.state = BgpSessionState.ESTABLISHED
        self.established_at_us = self.sim.now
        interval = seconds(max(self.hold_time_s // 3, 1))
        self._keepalive_timer.interval_us = interval
        self._keepalive_timer.start()
        self._restart_hold_timer()
        if self.on_established is not None:
            self.on_established(self)

    # ------------------------------------------------------------------
    # Timers and teardown
    # ------------------------------------------------------------------
    def _restart_hold_timer(self) -> None:
        if self.hold_time_s > 0:
            self._hold_timer.start(seconds(self.hold_time_s))

    def _hold_expired(self) -> None:
        try:
            self.send_message(NotificationMessage(ERR_HOLD_TIMER_EXPIRED))
        except RuntimeError:
            pass  # TCP may already be unusable
        # Record the reason before the abort's on_close fires.
        self._go_down("hold-timer-expired")
        self.endpoint.abort()

    def _go_down(self, reason: str) -> None:
        if self.state is BgpSessionState.IDLE:
            return
        self.state = BgpSessionState.IDLE
        self.down_at_us = self.sim.now
        self._hold_timer.stop()
        self._keepalive_timer.stop()
        self.sender_model.stop()
        if self.on_down is not None:
            self.on_down(self, reason)
