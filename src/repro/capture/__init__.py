"""Passive capture: sniffer taps producing pcap traces."""
