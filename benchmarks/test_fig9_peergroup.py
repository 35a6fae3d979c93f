"""Figure 9 — session failure and peer-group blocking timeline.

Paper: at t1 the vendor collector fails; the router retransmits into
the void and the whole peer group pauses; at t2 (t1 + hold time) the
faulty session times out, leaves the group, and the healthy Quagga
connection immediately resumes.
"""


def build_figure(peer_group_episodes):
    lines = []
    blocked_durations = {}
    for name, episode in peer_group_episodes.items():
        report = episode.peer_group
        lines.append(f"{name}:")
        if report.detected:
            for rng in report.blocked_ranges:
                lines.append(
                    f"  t1={rng.start / 1e6:7.1f}s  t2={rng.end / 1e6:7.1f}s  "
                    f"blocked {rng.duration / 1e6:6.1f}s"
                )
        else:
            lines.append("  (no blocking detected)")
        blocked_durations[name] = report.induced_delay_us / 1e6
    return "\n".join(lines), blocked_durations


def test_fig9(peer_group_episodes, artifact_writer, benchmark):
    text, blocked = benchmark(build_figure, peer_group_episodes)
    artifact_writer("fig9_peergroup", text)
    print("\n" + text)
    # Every episode is detected and blocks for roughly the hold time:
    # 90s for ISP_A, 60s for RV (the paper's 180s default scaled).
    assert 60 <= blocked["ISP_A-Vendor"] <= 100
    assert 60 <= blocked["ISP_A-Quagga"] <= 100
    assert 35 <= blocked["RV"] <= 70
