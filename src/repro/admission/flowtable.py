"""The flow record: a flow is one dict entry, its route a reference.

The edge controller remembers a flow only so that it can release it.
:class:`FlowTable` is everything it remembers: a ``flow id -> value``
index (ids are arbitrary hashables) whose value is an int packing the
flow's route code, class code, priority tag and pinned bit.  Flows
alike in all four share one int object, so a flow costs its id and one
dict entry.

The index is an ordered list of small dicts, its *segments*.  A new
flow goes into the last, open one.  Once the open segment has taken
its share of inserts — :data:`SEGMENT_INSERTS`, or an eighth of the
flows if that is more — it takes no batch its table has no room for:
that batch opens the next segment (a batch is never split), so the
table CPython grew is sealed full rather than grown again.  Each seal
merges adjacent sealed segments whose flows now fit in one share
(``{**a, **b}``) and drops the ones releases emptied.  So the segments
in order are the establishment order, a lookup probes at most
``2 * SEGMENT_SHARES + 2`` dicts, and a table CPython rebuilds — a
segment growing, or a merge — holds about a share of the flows, never
all of them.  One dict is rebuilt whole under churn, since its deleted
entries are not reused: at a stationary 6.5k flows, copied from 16 384
into 32 768 slots while both tables are held.

Routes are fixed at configuration time, so committed routes are few:
each distinct one, with its source/destination pair, is interned once
in the route table — a list of server tuples indexed by route code
(the tuple ``LinkServerGraph.route_servers`` returns), pair codes, a
live count per route and a ``(pair, servers) -> code`` dict keyed on
those same tuples.  A pair's configured route counts as a holder of
its own (:meth:`configure`), so its code is stable; a pinned or
replaced route is freed when nothing holds it, and its code reused.
The server tuple is the only place a flow says where it is: the
committed route is read back from it
(``LinkServerGraph.servers_to_route``), and a ``FlowSpec`` is rebuilt
from :meth:`records` and :meth:`servers_of` by whoever needs one.
Batches are committed, freed or scanned by gathering the stored tuples
through the route codes; :meth:`FlowTable.pop_batch` alone still hands
out ``int64`` arrays, for the frozen waterfall.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress
from operator import not_
from struct import calcsize
from sys import getsizeof
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from ..errors import AdmissionError

__all__ = ["FlowTable"]

#: Inserts the open segment of the id index takes at least before it
#: is sealed; it is sealed once its table is full, at 2 730 inserts
#: (4 096 slots, ≈ 52 KB with str ids) when it grew insert by insert.
SEGMENT_INSERTS = 2048
#: Past ``SEGMENT_INSERTS * SEGMENT_SHARES`` flows the open segment
#: takes ``1 / SEGMENT_SHARES`` of them, so a lookup probes a bounded
#: number of dicts at any population.
SEGMENT_SHARES = 8

#: Bytes a slot of a list costs (one pointer).
_POINTER_BYTES = calcsize("P")

# A flow's value, from the low bit: pinned (1 bit), priority tag + 1
# (3 bits: tags -1 .. 6), route code (32 bits), class code (the rest).
_TAG_SHIFT, _TAG_MASK = 1, 7
_ROUTE_SHIFT, _ROUTE_MASK = 4, (1 << 32) - 1
_CLASS_SHIFT = 36

Pair = Tuple[Hashable, Hashable]
Servers = Tuple[int, ...]
#: ``(flow id, class code, tag, pair, pinned)``.
Record = Tuple[Hashable, int, int, Optional[Pair], bool]


def _route(value: int) -> int:
    """The route code of a flow's value."""
    return value >> _ROUTE_SHIFT & _ROUTE_MASK


def _absent(flow_id: Hashable) -> AdmissionError:
    return AdmissionError(f"flow {flow_id!r} is not established")


class FlowTable:
    """Established-flow store keyed by flow id, over a table of routes.

    Parameters
    ----------
    pad:
        The number of servers (the controllers use
        ``graph.num_servers``): :meth:`usage` counts that many, and
        :meth:`pop_batch` pads its matrix with it.
    """

    __slots__ = (
        "pad", "pair_codes", "_pair_names", "_segs", "_inserts", "_share", "_sealed",
        "_canon", "_keys", "_routes", "_pairs", "_live", "_free", "_loose", "_configured",
    )

    def __init__(self, pad: int):
        self.pad = int(pad)
        #: ``pair -> code`` of every interned source/destination pair.
        self.pair_codes: Dict[Pair, int] = {}
        self._pair_names: List[Pair] = []
        # The id index: sealed segments, then the open one, which has
        # taken _inserts[0] inserts (in C: an int object would be
        # allocated anew at every add); the share of inserts the open
        # one takes and what each sealed one held, both at the last seal.
        self._segs: List[Dict[Hashable, int]] = [{}]
        self._inserts = array("q", [0])
        self._share = SEGMENT_INSERTS
        self._sealed: List[int] = []
        # The one int object each distinct value is held as.
        self._canon: Dict[int, int] = {}
        self._keys: Dict[Tuple[int, Servers], int] = {}
        # Per route code: its servers (() on a free row), its pair code
        # (-1: none, or a free row) and the flows on it, plus one while
        # it is its pair's configured route (-1 on a free row).
        self._routes: List[Servers] = []
        self._pairs: List[int] = []
        self._live: List[int] = []
        self._free: List[int] = []
        # Routes that may have no holder: freed by _tidy unless held.
        self._loose: List[int] = []
        # Pair code -> its configured route's code, or -1.
        self._configured: List[int] = []

    # ------------------------------------------------------------------ #
    # the route table
    # ------------------------------------------------------------------ #

    def pair_code(self, pair: Pair) -> int:
        """The interned code of a source/destination pair."""
        code = self.pair_codes.get(pair)
        if code is None:
            code = len(self._pair_names)
            self._configured.append(-1)
            self.pair_codes[pair] = code
            self._pair_names.append(pair)
        return code

    def route_code(self, pair: int, servers: Sequence[int]) -> int:
        """The code of route ``servers`` of pair code ``pair`` (-1: no
        pair), interned if it is new: then it is freed at the next add
        unless a flow is added on it."""
        if type(servers) is not tuple:
            servers = tuple(map(int, servers))
        key = (pair, servers)
        code = self._keys.get(key)
        if code is None:
            if self._free:
                code = self._free.pop()
                self._routes[code], self._pairs[code], self._live[code] = servers, pair, 0
            else:
                code = len(self._routes)
                self._routes.append(servers)
                self._pairs.append(pair)
                self._live.append(0)
            self._keys[key] = code
            self._loose.append(code)
        return code

    def configure(self, pair: int, servers: Sequence[int]) -> None:
        """Make ``servers`` the configured route of pair code ``pair``;
        the route it replaces is freed once no flow holds it."""
        code = self.route_code(pair, servers)
        old = self._configured[pair]
        self._configured[pair] = code
        self._live[code] += 1
        if old >= 0:
            self._live[old] -= 1
            self._loose.append(old)
        self._tidy()

    def configured_routes(self, pairs: Sequence[int]) -> List[int]:
        """The configured route code of each pair code (-1: none)."""
        configured = self._configured
        return [configured[p] for p in pairs]

    def configured_servers(self, pair: Pair) -> Servers:
        """The servers of ``pair``'s configured route."""
        return self._routes[self._configured[self.pair_codes[pair]]]

    def route_rows(self, routes: Sequence[int]) -> List[Servers]:
        """The servers of each route code."""
        return list(map(self._routes.__getitem__, routes))

    def _tidy(self) -> None:
        """Free the loose routes nothing holds — one interned for a
        refused flow, a pinned or replaced one whose last holder went —
        and the shared values that name them."""
        live = self._live
        dead = {route for route in self._loose if not live[route]}
        self._loose.clear()
        if dead:
            at = sorted(dead)
            routes, pairs = self._routes, self._pairs
            for route in at:
                del self._keys[pairs[route], routes[route]]
                routes[route], pairs[route], live[route] = (), -1, -1
            self._free.extend(at)
            for value in [v for v in self._canon if _route(v) in dead]:
                del self._canon[value]

    def _seal(self) -> None:
        """The open segment was just sealed and a new one appended:
        merge adjacent sealed segments whose flows fit in one share and
        drop the empty ones."""
        segs = self._segs
        share = self._share = max(SEGMENT_INSERTS, sum(map(len, segs)) // SEGMENT_SHARES)
        # In place, so each merged pair is let go before the next merge.
        at = 0
        while at < len(segs) - 1:
            if not segs[at]:
                del segs[at]
            elif at and len(segs[at - 1]) + len(segs[at]) <= share:
                segs[at - 1:at + 1] = [{**segs[at - 1], **segs[at]}]
            else:
                at += 1
        self._sealed = list(map(len, segs[:-1]))

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add(
        self, flow_id: Hashable, code: int, servers: Sequence[int],
        tag: int = -1, pair: int = -1, pinned: bool = False,
    ) -> None:
        """Record one flow: its class ``code``, the ``servers`` of the
        route it was admitted on, its priority ``tag``, its
        :meth:`pair_code` and whether its route was ``pinned``."""
        for seg in self._segs:
            if flow_id in seg:
                raise AdmissionError(f"flow {flow_id!r} is already established")
        route = self.route_code(pair, servers)
        value = code << _CLASS_SHIFT | route << _ROUTE_SHIFT | (tag + 1) << _TAG_SHIFT | pinned
        inserts = self._inserts[0]
        if inserts >= self._share and inserts >= (2 << max(4, 3 * inserts // 2).bit_length()) // 3:
            self._segs.append({})
            self._seal()
            inserts = 0
        self._segs[-1][flow_id] = self._canon.setdefault(value, value)
        self._inserts[0] = inserts + 1
        self._live[route] += 1
        if self._loose:
            self._tidy()

    def add_routed(
        self, flow_ids: Sequence[Hashable], code, routes: Sequence[int], tags=-1, pinned=False
    ) -> None:
        """Record many flows on interned ``routes`` (one code per flow),
        in the given (establishment) order.  ``code``, ``tags`` and
        ``pinned`` are one int for the batch or one per flow.  All or
        nothing: an id that is already established (or repeats) raises
        with the table unchanged.  A batch the open segment is full for
        goes whole into a new one, sealing it once the batch is in."""
        n = len(routes)
        codes = [code] * n if isinstance(code, int) else code
        tags = [tags] * n if isinstance(tags, int) else tags
        pins = [pinned] * n if isinstance(pinned, int) else pinned
        segs, live, inserts = self._segs, self._live, self._inserts[0]
        # Full: the open segment has taken its share of inserts and its
        # table has no room for the batch.  A dict that took n inserts
        # holds 2/3 of the power of two above 3n/2 entries, 5 at least
        # (CPython's growth), and releases do not give entries back.
        room = (2 << max(4, 3 * inserts // 2).bit_length()) // 3
        fresh = inserts >= self._share and inserts + n > room
        if fresh:
            segs.append({})
            inserts = 0
        index, setdefault = segs[-1], self._canon.setdefault
        try:
            for k, fid in enumerate(flow_ids):
                for seg in segs:
                    if fid in seg:
                        if fresh:
                            segs.pop()
                        else:
                            for undo in flow_ids[:k]:
                                del index[undo]
                        raise AdmissionError(f"flow {fid!r} is already established")
                value = (
                    codes[k] << _CLASS_SHIFT | routes[k] << _ROUTE_SHIFT
                    | (tags[k] + 1) << _TAG_SHIFT | pins[k]
                )
                index[fid] = setdefault(value, value)
            for route in routes:
                live[route] += 1
            self._inserts[0] = inserts + n
            if fresh:
                self._seal()
        finally:
            if self._loose:
                self._tidy()

    def add_batch(self, flow_ids: Sequence[Hashable], code, matrix, lengths) -> None:
        """:meth:`add_routed` from a padded server matrix (an ``int64``
        array) and its row lengths, each row interned as a route of no
        pair.  Kept for the frozen waterfall until ROADMAP 1(b)."""
        routes = [
            self.route_code(-1, row[:n]) for row, n in zip(matrix.tolist(), lengths.tolist())
        ]
        self.add_routed(flow_ids, code, routes)

    def pop(self, flow_id: Hashable) -> Tuple[int, Servers, int]:
        """Remove a flow; returns ``(code, servers, tag)``."""
        for seg in self._segs:
            value = seg.pop(flow_id, None)
            if value is not None:
                break
        else:
            raise _absent(flow_id)
        route = _route(value)
        servers = self._routes[route]
        self._live[route] -= 1
        if not self._live[route]:
            self._loose.append(route)
            self._tidy()
        return value >> _CLASS_SHIFT, servers, (value >> _TAG_SHIFT & _TAG_MASK) - 1

    def check_poppable(self, flow_ids: Sequence[Hashable]) -> None:
        """Raise what :meth:`pop_rows` raises for ``flow_ids`` — the
        first id that repeats or is not established — and change
        nothing."""
        segs, seen = self._segs, set()
        for fid in flow_ids:
            if fid in seen:
                raise AdmissionError(f"duplicate flow id {fid!r} in batch")
            for seg in segs:
                if fid in seg:
                    break
            else:
                raise _absent(fid)
            seen.add(fid)

    def pop_rows(
        self, flow_ids: Sequence[Hashable]
    ) -> Tuple[List[int], List[Servers], List[int]]:
        """Remove many flows; returns ``(codes, rows, tags)``, a class
        code, the servers and a tag per flow.

        All or nothing: the ids must be distinct and all established,
        and a call that raises removed none of them (the survivors keep
        their establishment order).
        """
        segs, values, held = self._segs, [], []
        for fid in flow_ids:
            for seg in segs:
                value = seg.get(fid)
                if value is not None:
                    break
            values.append(value)
            held.append(seg)
        if None in values or len(set(flow_ids)) != len(values):
            self.check_poppable(flow_ids)
        for fid, seg in zip(flow_ids, held):
            del seg[fid]
        routes, live, loose = self._routes, self._live, self._loose
        codes, rows, tags = [], [], []
        for value in values:
            route = value >> _ROUTE_SHIFT & _ROUTE_MASK
            rows.append(routes[route])
            codes.append(value >> _CLASS_SHIFT)
            tags.append((value >> _TAG_SHIFT & _TAG_MASK) - 1)
            live[route] -= 1
            if not live[route]:
                loose.append(route)
        if loose:
            self._tidy()
        return codes, rows, tags

    def pop_batch(self, flow_ids: Sequence[Hashable]):
        """:meth:`pop_rows` as ``int64`` arrays ``(codes, matrix,
        lengths, tags)``, the matrix padded with :attr:`pad` to the
        longest popped route.  Kept for the frozen waterfall until
        ROADMAP 1(b)."""
        import numpy as np

        codes, rows, tags = self.pop_rows(flow_ids)
        lengths = np.array([len(row) for row in rows], dtype=np.int64)
        matrix = np.full((len(rows), int(lengths.max(initial=0))), self.pad, dtype=np.int64)
        for i, row in enumerate(rows):
            matrix[i, :len(row)] = row
        return np.array(codes, np.int64), matrix, lengths, np.array(tags, np.int64)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def __contains__(self, flow_id: Hashable) -> bool:
        for seg in self._segs:
            if flow_id in seg:
                return True
        return False

    def __len__(self) -> int:
        return sum(map(len, self._segs))

    def __iter__(self) -> Iterator[Hashable]:
        return chain.from_iterable(self._segs)

    @property
    def rows(self) -> int:
        """Rows of the route table, free ones included."""
        return len(self._routes)

    @property
    def nbytes(self) -> int:
        """The route table's bytes: each route's server tuple, and per
        row its three list slots (servers, pair code, live count)."""
        routes = self._routes
        tuples = sum(getsizeof(routes[route]) for route in self._keys.values())
        return tuples + 3 * _POINTER_BYTES * len(routes)

    def _value(self, flow_id: Hashable) -> int:
        for seg in self._segs:
            if flow_id in seg:
                return seg[flow_id]
        raise _absent(flow_id)

    def servers_of(self, flow_id: Hashable) -> Servers:
        """Committed server indices of an established flow."""
        return self._routes[_route(self._value(flow_id))]

    def _record(self, flow_id: Hashable, value: int) -> Record:
        pair = self._pairs[_route(value)]
        tag = (value >> _TAG_SHIFT & _TAG_MASK) - 1
        name = self._pair_names[pair] if pair >= 0 else None
        return flow_id, value >> _CLASS_SHIFT, tag, name, bool(value & 1)

    def record(self, flow_id: Hashable) -> Record:
        """Everything kept about one established flow but its servers."""
        return self._record(flow_id, self._value(flow_id))

    def records(self) -> List[Record]:
        """:meth:`record` of every flow, in establishment order."""
        return [self._record(*item) for item in chain.from_iterable(map(dict.items, self._segs))]

    def holders(
        self, code: int, tags: Sequence[int], servers: Sequence[int]
    ) -> Tuple[List[Hashable], List[int], List[Tuple[bool, ...]]]:
        """Flows of class ``code``, tagged with one of ``tags``, that
        hold a slot on any of ``servers``.  Returns ``(flow_ids, tags,
        hits)`` with ``hits[i][j]`` true when flow ``i`` holds
        ``servers[j]``.

        The match is decided per route, not per flow: one pass over the
        route tuples finds the routes that cross ``servers``, and each
        such route, tag and pinned bit is one value flows share.  The
        flows are then one pass of set lookups, in C."""
        routes = self._routes
        # In C: the codes of the routes that share a server with
        # ``servers`` (a free row is ()).
        crossing = compress(range(len(routes)), map(not_, map(set(servers).isdisjoint, routes)))
        hits_of: Dict[int, Tuple[bool, ...]] = {}
        tag_of: Dict[int, int] = {}
        for route in crossing:
            hits = tuple(map(routes[route].__contains__, servers))
            base = code << _CLASS_SHIFT | route << _ROUTE_SHIFT
            for tag in tags:
                value = base | (tag + 1) << _TAG_SHIFT
                hits_of[value] = hits_of[value | 1] = hits
                tag_of[value] = tag_of[value | 1] = tag
        segs = self._segs
        kept = compress(
            chain.from_iterable(map(dict.items, segs)),
            map(hits_of.__contains__, chain.from_iterable(map(dict.values, segs))),
        )
        ids, tags_found, hits_found = [], [], []
        for fid, value in kept:
            ids.append(fid)
            tags_found.append(tag_of[value])
            hits_found.append(hits_of[value])
        return ids, tags_found, hits_found

    def usage(self, code: int) -> array:
        """Slots the flows of class ``code`` hold, per server — what a
        ledger's ``used`` vector must equal (an ``array('q')``)."""
        held = array("q", [0]) * self.pad
        for value in chain.from_iterable(map(dict.values, self._segs)):
            if value >> _CLASS_SHIFT == code:
                for server in self._routes[_route(value)]:
                    held[server] += 1
        return held

    def verify(self) -> List[str]:
        """Self-consistency of the id index, the values and the route
        table: no id is in two segments; the last seal left no sealed
        segment empty and no two adjacent ones that fit in one share,
        and none has gained a flow since; every flow holds the shared
        value of a route in use, each route's live count is its
        holders, each key's route row holds the key's pair and servers,
        and the free list is the rows that hold no route.  Returns the
        violations found."""
        problems: List[str] = []
        segs, sealed, held = self._segs, self._sealed, {}
        for at, seg in enumerate(segs):
            for fid in seg:
                if held.setdefault(fid, at) != at:
                    problems.append(f"flow {fid!r} is in segments {held[fid]} and {at}")
        if len(sealed) != len(segs) - 1:
            problems.append(f"{len(sealed)} seal sizes for {len(segs) - 1} sealed segments")
        for at, (seg, size) in enumerate(zip(segs, sealed)):
            if not size:
                problems.append(f"sealed segment {at} was sealed empty")
            elif len(seg) > size:
                problems.append(f"sealed segment {at} holds {len(seg)} flows, sealed with {size}")
            elif at and sealed[at - 1] + size <= self._share:
                problems.append(
                    f"sealed segments {at - 1} and {at} were sealed with "
                    f"{sealed[at - 1]} and {size} flows: they fit in one"
                )
        live = self._live
        named: Dict[int, List[Hashable]] = {}
        for fid, value in chain.from_iterable(map(dict.items, segs)):
            route = _route(value)
            if route >= len(live) or live[route] < 0:
                problems.append(f"flow {fid!r} names route {route}, which is free")
            elif self._canon.get(value) is not value:
                problems.append(f"flow {fid!r} holds its own copy of its value")
            named.setdefault(route, []).append(fid)
        configured = [0] * len(live)
        for route in self._configured:
            if route >= 0:
                configured[route] += 1
        in_use = [route for route, count in enumerate(live) if count >= 0]
        for route in in_use:
            fids = named.get(route, [])
            holders = configured[route] + len(fids)
            if live[route] != holders:
                problems.append(
                    f"route {route} counts {live[route]} holders, but {holders} "
                    f"hold it (flows {fids!r})"
                )
        for (pair, servers), route in self._keys.items():
            row, row_pair = self._routes[route], self._pairs[route]
            if row is not servers or row_pair != pair:
                problems.append(
                    f"route row {route} holds servers {list(row)} of pair "
                    f"code {row_pair}, not its key's"
                )
        if sorted(self._keys.values()) != in_use:
            problems.append("the route keys are not the route rows in use")
        if sorted(self._free) != [route for route, count in enumerate(live) if count < 0]:
            problems.append("the free route list is not the set of rows that hold no route")
        if any(_route(v) >= len(live) or live[_route(v)] < 0 for v in self._canon):
            problems.append("a canonical value names a free route")
        return problems
