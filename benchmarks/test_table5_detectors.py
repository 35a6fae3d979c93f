"""Table V — known problems identified per trace, with induced delays.

Paper rows: timer gaps (857/74/7 transfers; 7-19s average induced
delay), consecutive losses (2092/176/29; ~5s in ISP_A but 31s in RV
whose TCP backs off aggressively), and peer-group blocking upon resets
(8/8/3; 94-135s).  The reproduced shape: every detector fires in every
campaign where its pathology was injected; RV's consecutive-loss delay
exceeds ISP_A's; peer-group blocking costs roughly a hold time.
"""


def mean(values):
    return sum(values) / len(values) if values else 0.0


def build_table(campaigns, peer_group_episodes):
    lines = [
        f"{'trace':14s} {'problem':24s} {'count':>5s} {'avg delay (s)':>14s}"
    ]
    stats = {}
    for name, result in campaigns.items():
        timer_hits = [r for r in result.records if r.timer.detected]
        loss_hits = [r for r in result.records if r.consecutive.detected]
        timer_delay = mean([r.timer.induced_delay_us / 1e6 for r in timer_hits])
        loss_delay = mean(
            [r.consecutive.induced_delay_us / 1e6 for r in loss_hits]
        )
        episode = peer_group_episodes[name]
        pg_count = 1 if episode.peer_group.detected else 0
        pg_delay = episode.peer_group.induced_delay_us / 1e6
        stats[name] = {
            "timer": (len(timer_hits), timer_delay),
            "loss": (len(loss_hits), loss_delay),
            "peer-group": (pg_count, pg_delay),
        }
        lines.append(
            f"{name:14s} {'Gaps in table transfers':24s} "
            f"{len(timer_hits):5d} {timer_delay:14.2f}"
        )
        lines.append(
            f"{name:14s} {'Consecutive losses':24s} "
            f"{len(loss_hits):5d} {loss_delay:14.2f}"
        )
        lines.append(
            f"{name:14s} {'Peer-group blocking':24s} "
            f"{pg_count:5d} {pg_delay:14.2f}"
        )
    return "\n".join(lines), stats


def test_table5(campaigns, peer_group_episodes, artifact_writer, benchmark):
    text, stats = benchmark(build_table, campaigns, peer_group_episodes)
    artifact_writer("table5_detectors", text)
    print("\n" + text)
    for name, rows in stats.items():
        # Timer gaps and consecutive losses detected in every campaign.
        assert rows["timer"][0] >= 1, f"{name}: no timer gaps found"
        assert rows["loss"][0] >= 1, f"{name}: no consecutive losses found"
        # Peer-group blocking detected, costing roughly a hold time.
        assert rows["peer-group"][0] == 1, name
        assert rows["peer-group"][1] > 30, name
    # RV's aggressive RTO backoff makes its loss episodes costlier than
    # ISP_A's (paper: 31s vs ~5s).
    assert stats["RV"]["loss"][1] > stats["ISP_A-Quagga"]["loss"][1]
