"""Table II — transport problems observed in slow table transfers.

Paper method (section II-B): per router, inspect transfers slower than
mean + 3 sigma (or the slowest one), and count the observed problems:
timer gaps, consecutive retransmissions, peer-group blocking.
"""

import statistics
from collections import defaultdict


def sample_slow_transfers(result):
    """The paper's mu + 3*sigma (fallback: slowest) sampling rule."""
    by_router = defaultdict(list)
    for record in result.records:
        by_router[record.router].append(record)
    sampled = []
    for records in by_router.values():
        durations = [r.duration_s for r in records]
        if len(durations) >= 2:
            mu = statistics.mean(durations)
            sigma = statistics.pstdev(durations)
            slow = [r for r in records if r.duration_s > mu + 3 * sigma]
        else:
            slow = []
        if not slow:
            # Fallback: this router's slowest transfers.
            slow = sorted(records, key=lambda r: r.duration_s)[-2:]
        sampled.extend(slow)
    return sampled


def build_table(campaigns, peer_group_episodes):
    sampled = []
    for result in campaigns.values():
        sampled.extend(sample_slow_transfers(result))
    gaps = sum(1 for r in sampled if r.timer.detected)
    consecutive = sum(1 for r in sampled if r.consecutive.detected)
    blocking = sum(
        1 for e in peer_group_episodes.values() if e.peer_group.detected
    )
    lines = [
        f"sampled slow transfers: {len(sampled)}",
        f"{'Observation':34s} {'Num':>4s}",
        f"{'Gaps in table transfers':34s} {gaps:4d}",
        f"{'Consecutive retransmission':34s} {consecutive:4d}",
        f"{'BGP peer-group blocking':34s} {blocking:4d}",
    ]
    return "\n".join(lines), (gaps, consecutive, blocking)


def test_table2(campaigns, peer_group_episodes, artifact_writer, benchmark):
    text, (gaps, consecutive, blocking) = benchmark(
        build_table, campaigns, peer_group_episodes
    )
    artifact_writer("table2_problems", text)
    print("\n" + text)
    # All three problem classes appear among the slow transfers, as in
    # the paper's Table II (25 / 58 / 15 there).
    assert gaps >= 1
    assert consecutive >= 1
    assert blocking >= 1
