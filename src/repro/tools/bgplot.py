"""BGPlot: render time-sequence graphs and event-series square waves.

The repo's stand-in for the paper's SCNMPlot-derived visualizer
(Table VI, Figure 11): the TCP sequence progression and the binary
square curves of selected event series, as plain-text panels and as CSV
series any plotting tool can consume.
"""

from __future__ import annotations

import io

from repro.analysis.series import ConnectionSeries
from repro.analysis.tdat import ConnectionAnalysis
from repro.core.events import EventSeries

DEFAULT_SERIES = [
    "Transmission",
    "SendAppLimited",
    "UpstreamLoss",
    "DownstreamLoss",
    "AdvBndOut",
    "CwdBndOut",
]


def render_square_wave(
    series: EventSeries,
    start_us: int,
    end_us: int,
    width: int = 100,
) -> str:
    """One text line: '█' where the series covers, '·' elsewhere."""
    if end_us <= start_us:
        return ""
    cells = []
    step = (end_us - start_us) / width
    for i in range(width):
        cell_start = round(start_us + i * step)
        cell_end = round(start_us + (i + 1) * step)
        covered = series.ranges.overlapping(cell_start, max(cell_end, cell_start + 1))
        cells.append("█" if covered else "·")
    return "".join(cells)


def render_panel(
    series_bundle: ConnectionSeries,
    names: list[str] | None = None,
    width: int = 100,
) -> str:
    """A multi-line panel: one labelled square wave per series."""
    names = names or DEFAULT_SERIES
    start = series_bundle.window.start
    end = series_bundle.window.end
    label_width = max(len(n) for n in names) + 1
    lines = [
        f"window: [{start / 1e6:.3f}s, {end / 1e6:.3f}s]  "
        f"({(end - start) / 1e6:.3f}s)"
    ]
    for name in names:
        series = series_bundle.catalog.get_or_empty(name).clip(start, end)
        wave = render_square_wave(series, start, end, width)
        ratio = series.delay_ratio(end - start)
        lines.append(f"{name:<{label_width}}|{wave}| {ratio:6.1%}")
    return "\n".join(lines)


def render_analysis(analysis: ConnectionAnalysis, width: int = 100) -> str:
    """The full text report for one analyzed connection."""
    conn = analysis.connection
    profile = conn.profile
    src, sport, dst, dport = conn.key
    out = io.StringIO()
    out.write(f"connection {src}:{sport} <-> {dst}:{dport}\n")
    out.write(
        f"  sender={conn.sender_ip} mss={profile.mss} "
        f"rtt={profile.rtt_us / 1000:.1f}ms "
        f"(d1={profile.d1_us / 1000:.1f}ms d2={profile.d2_us / 1000:.1f}ms) "
        f"max_wnd={profile.max_advertised_window}\n"
    )
    out.write(
        f"  data: {profile.total_data_packets} pkts / "
        f"{profile.total_data_bytes} bytes, "
        f"retx={len(analysis.labeling.retransmissions())}\n"
    )
    rs, rr, rn = analysis.factors.group_vector
    out.write(f"  delay ratios: sender={rs:.2f} receiver={rr:.2f} network={rn:.2f}\n")
    major = analysis.factors.major_factors()
    out.write(f"  major factors: {major if major else 'none (unknown)'}\n")
    if analysis.timer_gaps.detected:
        out.write(
            f"  ! timer gaps: ~{analysis.timer_gaps.timer_us / 1000:.0f}ms "
            f"({analysis.timer_gaps.plateau_count} gaps, "
            f"{analysis.timer_gaps.induced_delay_us / 1e6:.1f}s induced)\n"
        )
    if analysis.consecutive_losses.detected:
        out.write(
            f"  ! consecutive losses: {analysis.consecutive_losses.episodes} "
            f"episode(s), worst run {analysis.consecutive_losses.worst_run}, "
            f"{analysis.consecutive_losses.induced_delay_us / 1e6:.1f}s induced\n"
        )
    if analysis.zero_ack_bug.detected:
        out.write(
            f"  ! zero-window probe bug: "
            f"{analysis.zero_ack_bug.occurrences} occurrence(s)\n"
        )
    out.write(render_panel(analysis.series, width=width))
    return out.getvalue()


def render_time_sequence(
    analysis: ConnectionAnalysis,
    width: int = 100,
    height: int = 24,
    window: tuple[int, int] | None = None,
) -> str:
    """A tcptrace-style ASCII time-sequence graph.

    Data packets plot as ``.`` at (time, relative sequence), labeled
    retransmissions as ``R``, and the cumulative-ACK frontier as ``a``
    — the view the paper's Figures 5-8 are drawn in.
    """
    conn = analysis.connection
    data, acks = conn.data, conn.acks
    if not data:
        return "(no data packets)"
    if window is None:
        window = (data.time[0], data.time[-1] + 1)
    start, end = window
    span = max(end - start, 1)
    max_seq = max(max(data.end), 1)
    grid = [[" "] * width for _ in range(height)]

    def plot(t_us: int, seq: int, char: str, only_blank: bool = False) -> None:
        if not start <= t_us < end:
            return
        x = min(int((t_us - start) / span * width), width - 1)
        y = height - 1 - min(int(seq / max_seq * height), height - 1)
        if grid[y][x] == "R":
            return  # retransmission marks win
        if only_blank and grid[y][x] != " ":
            return
        grid[y][x] = char

    retx_times = {
        l.timestamp_us for l in analysis.labeling.retransmissions()
    }
    for time_us, seq in zip(data.time, data.seq):
        plot(time_us, seq, "R" if time_us in retx_times else ".")
    # ACKs trail just below the data line; draw them into free cells so
    # the data points stay visible at coarse resolutions.
    for time_us, value in zip(acks.time, acks.value):
        plot(time_us, value, "a", only_blank=True)

    lines = [
        f"time-sequence [{start / 1e6:.3f}s .. {end / 1e6:.3f}s], "
        f"seq 0..{max_seq} ('.'=data, 'R'=retransmission, 'a'=ACK)"
    ]
    lines.extend("|" + "".join(row) + "|" for row in grid)
    return "\n".join(lines)


def series_to_csv(
    series_bundle: ConnectionSeries, names: list[str] | None = None
) -> str:
    """CSV rows ``series,start_us,end_us,duration_us`` for plotting."""
    names = names or DEFAULT_SERIES
    lines = ["series,start_us,end_us,duration_us"]
    for name in names:
        for rng in series_bundle.catalog.get_or_empty(name).ranges:
            lines.append(f"{name},{rng.start},{rng.end},{rng.duration}")
    return "\n".join(lines)
