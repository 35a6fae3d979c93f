"""The passive sniffer: link taps that record byte-faithful pcap.

The paper's collection setup (Figure 2) places a tcpdump box immediately
in front of the BGP collector, capturing both directions of the TCP
connection.  :class:`SnifferTap` reproduces that: it attaches to the
egress of one or more simulated links and serializes every observed
segment into a real Ethernet/IPv4/TCP frame with the simulation
timestamp.  Because taps observe packets *before* the next link's loss
or buffer drop, placing the tap one link upstream of the receiver makes
"downstream" (receiver-local) losses visible exactly as in the paper's
methodology (section II-B2).
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO

from repro.core.health import STAGE_CAPTURE, TraceHealth
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.wire import frames
from repro.wire.pcap import PcapRecord, write_pcap


class SnifferTap:
    """Records frames passing configured link taps into pcap records."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "sniffer",
        drop_windows: list[tuple[int, int]] | None = None,
    ) -> None:
        """``drop_windows`` are [start_us, end_us) intervals during which
        the sniffer loses packets (tcpdump drops, paper section II-A)."""
        self.sim = sim
        self.name = name
        self.drop_windows = sorted(drop_windows or [])
        self.records: list[PcapRecord] = []
        self.dropped_records = 0
        self.dropped_bytes = 0
        self._drops_per_window: list[int] = [0] * len(self.drop_windows)
        self._bytes_per_window: list[int] = [0] * len(self.drop_windows)
        self._ip_id: dict[tuple[str, str], int] = {}

    def attach(self, *links: Link) -> "SnifferTap":
        """Start observing the egress of each link."""
        for link in links:
            link.add_tap(self._observe)
        return self

    def _observe(self, packet: Packet, time_us: int) -> None:
        window = self._drop_window_index(time_us)
        if window is not None:
            self.dropped_records += 1
            self.dropped_bytes += packet.wire_length
            self._drops_per_window[window] += 1
            self._bytes_per_window[window] += packet.wire_length
            return
        if packet.ip_id is not None:
            ident = packet.ip_id
        else:
            key = (packet.src, packet.dst)
            ident = self._ip_id.get(key, 0)
            self._ip_id[key] = (ident + 1) & 0xFFFF
        frame = frames.build_frame(
            packet.src, packet.dst, packet.payload, identification=ident
        )
        self.records.append(PcapRecord(timestamp_us=time_us, data=frame))

    def _drop_window_index(self, time_us: int) -> int | None:
        for i, (start, end) in enumerate(self.drop_windows):
            if start <= time_us < end:
                return i
        return None

    def health(self) -> TraceHealth:
        """Capture-side ledger: one issue per drop window that hit.

        The paper's section II-A capture voids, accounted at the
        source: downstream ingest can merge this into its own
        :class:`TraceHealth` so reports distinguish "the sniffer never
        saw it" from "the file was damaged afterwards".
        """
        health = TraceHealth(records_read=len(self.records))
        for i, (start, end) in enumerate(self.drop_windows):
            if self._drops_per_window[i] == 0:
                continue
            health.record(
                STAGE_CAPTURE, "sniffer-drop-window",
                timestamp_us=start,
                bytes_lost=self._bytes_per_window[i],
                detail=(
                    f"[{start}, {end})us: "
                    f"{self._drops_per_window[i]} frame(s) dropped"
                ),
            )
        return health

    def sorted_records(self) -> list[PcapRecord]:
        """Records in timestamp order (stable across taps)."""
        return sorted(self.records, key=lambda r: r.timestamp_us)

    def write(self, target: BinaryIO | str | Path) -> int:
        """Write the capture as a pcap file; returns the record count."""
        records = self.sorted_records()
        write_pcap(target, records)
        return len(records)
