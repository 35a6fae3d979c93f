"""Routing tables: the RIB and a synthetic global-table generator.

The paper's transfers move "5~8 MB for the full BGP table" (section
II-B) — a few hundred thousand prefixes in 2008–2011.  The generator
produces tables with the same wire-level character: unique prefixes of
realistic lengths, AS paths of 1–6 hops drawn from a skewed ASN pool,
and attribute sharing so that many prefixes pack into each UPDATE, as
real routers emit them.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import attrgetter

from repro.bgp.attributes import PathAttributes
from repro.bgp.header import HEADER_LEN, MAX_MESSAGE_LEN
from repro.bgp.messages import (
    Prefix,
    UpdateMessage,
    encode_message,
    encode_nlri,
)

_key = attrgetter("key")


@dataclass(frozen=True)
class Route:
    """One RIB entry: a prefix with its path attributes."""

    prefix: Prefix
    attributes: PathAttributes


class Rib:
    """A Routing Information Base keyed by prefix.

    The table maps each prefix's :attr:`Prefix.key`, its NLRI read as
    one integer, to its ``PathAttributes``.  A key holds what the wire
    holds, so ``10.0.0.1/8`` and ``10.0.0.0/8`` are one route.
    :class:`Prefix` and :class:`Route` objects are built only when a
    caller reads them (``lookup``, iteration); filing a received UPDATE
    (:meth:`apply`) and packing the table into UPDATEs
    (:meth:`to_updates`) touch only ints and bytes.

    The table transfer's encoded UPDATEs (:meth:`wire_form`) are packed
    on first use and held until the table changes: every mutator drops
    them, and a pickled table leaves them behind.
    """

    def __init__(self, routes: list[Route] | None = None) -> None:
        self._routes: dict[int, PathAttributes] = {}
        self._wire: tuple[bytes, ...] | None = None
        for route in routes or ():
            self.add(route)

    def __getstate__(self) -> dict:
        return {"_routes": self._routes}

    def __setstate__(self, state: dict) -> None:
        self._routes = state["_routes"]
        self._wire = None

    def add(self, route: Route) -> None:
        """Insert or replace the route for its prefix."""
        self._routes[route.prefix.key] = route.attributes
        self._wire = None

    def announce(
        self, prefixes: Iterable[Prefix], attributes: PathAttributes
    ) -> None:
        """Insert or replace the route of each of ``prefixes``.

        All of them get ``attributes``: this files one UPDATE's NLRI.
        """
        self._routes.update(zip(map(_key, prefixes), repeat(attributes)))
        self._wire = None

    def apply(self, update: UpdateMessage) -> None:
        """File one received UPDATE by its keys.

        Its NLRI get its attributes, then its withdrawn routes go.
        """
        routes = self._routes
        if update.attributes is not None:
            routes.update(zip(update.announced_keys, repeat(update.attributes)))
        for key in update.withdrawn_keys:
            routes.pop(key, None)
        self._wire = None

    def withdraw(self, prefix: Prefix) -> Route | None:
        """Remove and return the route for ``prefix`` if present."""
        attributes = self._routes.pop(prefix.key, None)
        self._wire = None
        return None if attributes is None else Route(prefix, attributes)

    def lookup(self, prefix: Prefix) -> Route | None:
        """Exact-match lookup."""
        attributes = self._routes.get(prefix.key)
        return None if attributes is None else Route(prefix, attributes)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        routes = self._routes
        return map(Route, map(Prefix.from_key, routes), routes.values())

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix.key in self._routes

    def to_updates(self, max_message_len: int = MAX_MESSAGE_LEN) -> list[UpdateMessage]:
        """Pack the whole table into UPDATE messages.

        Routes sharing a ``PathAttributes`` value ride in the same
        UPDATE until the 4096-byte limit, exactly as a router walks its
        RIB grouped by attribute set during a table transfer.  Groups
        come in the order their first route was added.  Each attribute
        set is encoded once, for every UPDATE of its group.
        """
        # Group by attribute object first, so each distinct object is
        # hashed by value once rather than once per route.
        groups: dict[PathAttributes, list[int]] = {}
        by_object: dict[int, list[int]] = {}
        for key, attributes in self._routes.items():
            members = by_object.get(id(attributes))
            if members is None:
                members = groups.setdefault(attributes, [])
                by_object[id(attributes)] = members
            members.append(key)
        updates: list[UpdateMessage] = []
        for attributes, keys in groups.items():
            block = attributes.encode()
            room = max_message_len - HEADER_LEN - 4 - len(block)
            nlris = encode_nlri(keys)
            # Greedy packing: each UPDATE takes the longest run of
            # prefixes whose NLRI fits the room left (at least one).
            ends = list(accumulate(map(len, nlris)))
            start = used = 0
            while start < len(nlris):
                stop = max(bisect_right(ends, used + room), start + 1)
                updates.append(UpdateMessage.from_wire(
                    b"".join(nlris[start:stop]), attributes, block
                ))
                start, used = stop, ends[stop - 1]
        return updates

    def wire_form(self) -> tuple[bytes, ...]:
        """The table transfer as encoded UPDATE messages.

        These are the messages :meth:`to_updates` packs, encoded once
        and shared by every session that sends this table until the
        table next changes.
        """
        if self._wire is None:
            self._wire = tuple(map(encode_message, self.to_updates()))
        return self._wire

    def wire_size(self) -> int:
        """Total encoded size of the table transfer in bytes."""
        return sum(map(len, self.wire_form()))


# Observed prefix-length mix of the 2010-era global table (approximate).
_PREFIX_LENGTH_WEIGHTS = [
    (24, 0.53),
    (23, 0.07),
    (22, 0.08),
    (21, 0.04),
    (20, 0.05),
    (19, 0.05),
    (18, 0.04),
    (17, 0.02),
    (16, 0.09),
    (15, 0.01),
    (14, 0.01),
    (13, 0.005),
    (12, 0.005),
    (11, 0.002),
    (10, 0.002),
    (9, 0.002),
    (8, 0.004),
]


# Indexed by the position of each length above: its cumulative weight,
# for the length draw, its network mask, and the shift and tag that
# make a masked address its NLRI integer (``Prefix.key``): the length
# byte, then the fewest address bytes that hold ``length`` bits.
_LENGTHS = [length for length, _ in _PREFIX_LENGTH_WEIGHTS]
_LENGTH_CUM_WEIGHTS = list(accumulate(weight for _, weight in _PREFIX_LENGTH_WEIGHTS))
_LENGTH_MASKS = [(0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in _LENGTHS]
_LENGTH_SHIFTS = [32 - 8 * ((length + 7) // 8) for length in _LENGTHS]
_LENGTH_TAGS = [
    length << (32 - shift) for length, shift in zip(_LENGTHS, _LENGTH_SHIFTS)
]
# First octets outside routable unicast space.
_OFF_UNICAST = frozenset((0, 10, 127, *range(224, 256)))

# AS path hop counts 1-6 are weighted 5, 20, 30, 25, 15, 5.
_HOP_CUM_WEIGHTS = [5, 25, 55, 80, 95, 100]
_MEDS = (None, 0, 10, 100)


def generate_table(
    size: int,
    rng: random.Random,
    next_hop: str = "10.0.0.1",
    asn_pool: int = 3000,
    attribute_groups: int | None = None,
    wide_asn_fraction: float = 0.0,
) -> Rib:
    """Create a synthetic routing table of ``size`` unique prefixes.

    ``attribute_groups`` bounds the number of distinct attribute sets;
    by default roughly one per 60 prefixes, which yields the several-
    hundred-byte UPDATE messages real table transfers carry.
    """
    if size < 0:
        raise ValueError(f"negative table size {size}")
    if attribute_groups is None:
        attribute_groups = max(1, size // 60)
    attribute_sets = [
        _random_attributes(rng, next_hop, asn_pool, wide_asn_fraction)
        for _ in range(attribute_groups)
    ]
    if size and not attribute_sets:
        raise ValueError(f"no attribute sets to draw from ({attribute_groups})")
    # Each prefix makes exactly the draws of the stdlib calls the loop
    # was written with (CPython 3.11's random.py), so tables and the
    # state left in ``rng`` are what those calls gave, at the cost of
    # the draws alone (``tests/bgp/test_table_identity.py`` pins both):
    # - the length, ``rng.choices(_LENGTHS, cum_weights=...)[0]``: one
    #   ``random()`` times the total weight, bisected into the
    #   cumulative weights;
    # - the address, ``getrandbits(32)`` masked to the length.  A first
    #   octet outside unicast space is replaced the way ``randint(1,
    #   223)``, retried on 10 and 127, replaced it: ``getrandbits(8) + 1``
    #   until that is at most 223 and neither 10 nor 127;
    # - a new prefix's attribute set, ``rng.choice(attribute_sets)``:
    #   ``getrandbits(k)``, k the bit length of the set count, until it
    #   is below the count.
    draw = rng.random
    getrandbits = rng.getrandbits
    cum_weights, masks = _LENGTH_CUM_WEIGHTS, _LENGTH_MASKS
    tags, shifts = _LENGTH_TAGS, _LENGTH_SHIFTS
    total = cum_weights[-1] + 0.0
    hi = len(cum_weights) - 1
    off_unicast = _OFF_UNICAST
    groups = len(attribute_sets)
    group_bits = groups.bit_length()
    rib = Rib()
    # Filed straight into the fresh table, which has no wire form yet.
    routes = rib._routes
    while len(routes) < size:
        i = bisect_right(cum_weights, draw() * total, 0, hi)
        address = getrandbits(32) & masks[i]
        if address >> 24 in off_unicast:
            octet = getrandbits(8) + 1
            while octet > 223 or octet == 10 or octet == 127:
                octet = getrandbits(8) + 1
            address = (address & 0x00FFFFFF) | octet << 24
        key = tags[i] | address >> shifts[i]
        if key in routes:
            continue
        group = getrandbits(group_bits)
        while group >= groups:
            group = getrandbits(group_bits)
        routes[key] = attribute_sets[group]
    return rib


def _random_attributes(
    rng: random.Random,
    next_hop: str,
    asn_pool: int,
    wide_asn_fraction: float = 0.0,
) -> PathAttributes:
    # The hop count is ``rng.choices(range(1, 7), [5, 20, 30, 25, 15,
    # 5])[0]``'s one draw, and the MED ``rng.choice(_MEDS)``'s draws.
    hops = 1 + bisect_right(_HOP_CUM_WEIGHTS, rng.random() * 100.0, 0, 5)
    path = []
    for _ in range(hops):
        # Skewed ASN popularity: low ASNs (big transits) appear often.
        asn = min(int(rng.paretovariate(0.6) * 100), 64000)
        asn = max(1, asn % asn_pool + 1)
        if wide_asn_fraction and rng.random() < wide_asn_fraction:
            # A post-2009 4-byte AS (carried via AS_TRANS + AS4_PATH).
            asn += 4_200_000_000
        path.append(asn)
    med = rng.getrandbits(3)
    while med >= len(_MEDS):
        med = rng.getrandbits(3)
    return PathAttributes.from_path(path, next_hop=next_hop, med=_MEDS[med])
