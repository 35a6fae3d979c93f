#!/usr/bin/env python3
"""Peer-group blocking: one dead collector drags down a healthy session.

Reproduces the paper's Figure 9 / section II-B3: a router replicates its
table to a Quagga and a vendor collector through a shared peer-group
queue ("cleared only after being successfully delivered to all peers").
At t1 the vendor box dies silently; the router keeps retransmitting into
the void and — because the common queue cannot advance — the *healthy*
Quagga session stalls too, resuming only when the dead session's hold
timer expires at t2.

T-DAT finds this from the two traces with the paper's rule::

    Quagga.SendAppLimited  ∩  Vendor.Loss

The episode is an ``EpisodeSpec`` from ``peer_group_spec``, run by the
same ``run_episode`` as every campaign transfer.  It returns the
surviving Quagga record, which carries the rule's verdict.

Run:  python examples/peer_group_blocking.py  (exits 1 if no block is found)
"""

import sys

from repro.workloads.campaign import peer_group_spec, run_episode

HOLD_TIME_S = 60  # scaled down from the paper's 180s for a quick run
# The 20k-prefix transfer lasts about 0.7 s, so the vendor must die
# before that to catch the group mid-transfer.
FAIL_AFTER_S = 0.3


def main() -> int:
    print(f"hold time {HOLD_TIME_S}s; vendor collector dies "
          f"{FAIL_AFTER_S:.1f}s into the transfer...\n")
    (record,) = run_episode(
        peer_group_spec(
            hold_time_s=HOLD_TIME_S,
            table_size=20_000,
            fail_after_s=FAIL_AFTER_S,
        )
    )

    report = record.peer_group
    if report.detected:
        print("peer-group blocking detected (Quagga.SendAppLimited ∩ Vendor.Loss):")
        for rng in report.blocked_ranges:
            print(f"  blocked [{rng.start / 1e6:8.1f}s .. {rng.end / 1e6:8.1f}s] "
                  f"= {rng.duration / 1e6:.1f}s, only keepalives on the wire")
        print(f"  total induced delay: {report.induced_delay_us / 1e6:.1f}s "
              f"(expected ~ hold time {HOLD_TIME_S}s)")
    else:
        print("no blocking detected (unexpected!)")
        return 1

    print(f"\nQuagga-side MCT window: {record.duration_s:.1f}s "
          f"(ended_by={record.mct_ended_by}; an interrupted transfer "
          "looks 'idle' to MCT — the block itself is what the "
          "cross-connection rule above measures)")
    pause = record.keepalive_pause
    if pause is not None and pause.detected:
        print("single-trace confirmation: long keepalive-only pause found "
              f"({pause.induced_delay_us / 1e6:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
