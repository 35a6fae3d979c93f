"""Wire formats: pcap files and Ethernet/IPv4/TCP framing."""
