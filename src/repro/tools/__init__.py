"""Analysis tool suite: pcap2bgp, tcptrace-lite, bgplot, reports, CLIs."""
