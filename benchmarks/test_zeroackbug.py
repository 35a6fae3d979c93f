"""The ZeroAckBug discovery (paper section IV-B, unnumbered finding).

Paper: intersecting series exposed a conflict — connections that were
zero-window bounded *and* suffering losses at the same time.  The root
cause: a sender that discards its zero-window probe when a window
update races it, stalling until timer-driven retransmissions recover.
"""

from repro.workloads.campaign import (
    isp_quagga_config,
    run_episode,
    zero_ack_bug_spec,
)


def build_report(record):
    lines = [
        f"transfer duration: {record.duration_s:.2f}s",
        f"ZeroAckBug series: {record.zero_bug.occurrences} occurrence(s), "
        f"{record.zero_bug.induced_delay_us / 1e6:.3f}s of coincident "
        "zero-window + loss-recovery time",
        f"detected: {record.zero_bug.detected}",
    ]
    return "\n".join(lines), record


def test_zero_ack_bug(artifact_writer, benchmark):
    (record,) = run_episode(zero_ack_bug_spec(isp_quagga_config()))
    text, record = benchmark(build_report, record)
    artifact_writer("zeroackbug", text)
    print("\n" + text)
    assert record.zero_bug.detected
    assert record.zero_bug.occurrences >= 1
