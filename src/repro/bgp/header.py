"""The BGP-4 message header (RFC 4271 section 4.1), apart from the codec
in :mod:`repro.bgp.messages` so that code which only recognizes headers
(the analysis front end's keepalive bit) does not load the codec."""

MARKER = b"\xff" * 16
HEADER_LEN = 19
MAX_MESSAGE_LEN = 4096

TYPE_OPEN = 1
TYPE_UPDATE = 2
TYPE_NOTIFICATION = 3
TYPE_KEEPALIVE = 4
