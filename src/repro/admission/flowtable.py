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

Routes are fixed at configuration time, so committed server rows are
few: each distinct one, with its source/destination pair, is interned
once in the route table — a padded server matrix, lengths, pair codes,
a live count per route and a ``(pair, servers) -> code`` dict.  A
pair's configured route counts as a holder of its own
(:meth:`configure`), so its code is stable; a pinned or replaced route
is freed when nothing holds it, and its row reused.  The server row is
the only place a flow says where it is: the committed route is read
back from it (``LinkServerGraph.servers_to_route``), and a ``FlowSpec``
is rebuilt from :meth:`records` and :meth:`servers_of` by whoever needs
one.  Batches are committed, freed or scanned by gathering through the
route codes.

Each integer column of the route table holds the narrowest signed type
that fits its range (:func:`narrowest`): the server matrix follows
``pad`` (``int8`` up to 127 servers), lengths the matrix width and pair
codes the number of pairs.  numpy wraps an out-of-range array write
silently, so a column is widened *before* it is handed a value it cannot
hold, never after.  What the table hands out is ``int64``.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AdmissionError

__all__ = ["FlowTable"]

#: Route rows and server columns a new table starts with.
INITIAL_CAPACITY = 64
INITIAL_WIDTH = 4

#: Inserts the open segment of the id index takes at least before it
#: is sealed; it is sealed once its table is full, at 2 730 inserts
#: (4 096 slots, ≈ 52 KB with str ids) when it grew insert by insert.
SEGMENT_INSERTS = 2048
#: Past ``SEGMENT_INSERTS * SEGMENT_SHARES`` flows the open segment
#: takes ``1 / SEGMENT_SHARES`` of them, so a lookup probes a bounded
#: number of dicts at any population.
SEGMENT_SHARES = 8

#: What the table hands out, whatever its columns hold (a dtype object:
#: ``astype`` resolves one faster than the scalar type).
_INT64 = np.dtype(np.int64)
#: Bytes a slot of a list costs (one pointer).
_POINTER_BYTES = np.dtype(np.intp).itemsize

# A flow's value, from the low bit: pinned (1 bit), priority tag + 1
# (3 bits: tags -1 .. 6), route code (32 bits), class code (the rest).
# The same shifts and masks unpack a Python int and an int64 array.
_TAG_SHIFT, _TAG_MASK = 1, 7
_ROUTE_SHIFT, _ROUTE_MASK = 4, (1 << 32) - 1
_CLASS_SHIFT = 36

Pair = Tuple[Hashable, Hashable]
#: ``(flow id, class code, tag, pair, pinned)``.
Record = Tuple[Hashable, int, int, Optional[Pair], bool]


def narrowest(high: int) -> np.dtype:
    """The narrowest signed integer type holding every value from -1
    (a column's "none") to ``high``."""
    return np.min_scalar_type(-(max(int(high), 0) + 1))


def _fit(column: np.ndarray, high: int) -> np.ndarray:
    """``column``, or a wider copy of it if it cannot hold ``high``."""
    dtype = narrowest(high)
    return column if dtype.itemsize <= column.itemsize else column.astype(dtype)


def _doubled(column: np.ndarray, fill) -> np.ndarray:
    """``column`` with as many rows again, filled with ``fill``."""
    return np.concatenate([column, np.full(column.shape, fill, column.dtype)])


def _route(value):
    """The route code of a flow's value (or of an array of them)."""
    return value >> _ROUTE_SHIFT & _ROUTE_MASK


def _absent(flow_id: Hashable) -> AdmissionError:
    return AdmissionError(f"flow {flow_id!r} is not established")


class FlowTable:
    """Established-flow store keyed by flow id, over a table of routes.

    Parameters
    ----------
    pad:
        Sentinel server index filling unused matrix cells (the
        controllers use ``graph.num_servers``, their kernels' virtual
        padding slot); it fixes the matrix's integer type.
    The route table starts ``INITIAL_CAPACITY`` rows by
    ``INITIAL_WIDTH`` columns; both grow automatically.
    """

    __slots__ = (
        "pad", "pair_codes", "_pair_names", "_segs", "_inserts", "_share", "_sealed",
        "_canon", "_keys", "_servers", "_lengths", "_pairs", "_live",
        "_free", "_loose", "_configured",
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
        self._keys: Dict[Tuple[int, bytes], int] = {}
        rows = INITIAL_CAPACITY
        self._servers = np.full((rows, INITIAL_WIDTH), self.pad, narrowest(self.pad))
        self._lengths = np.zeros(rows, narrowest(INITIAL_WIDTH))
        self._pairs = np.full(rows, -1, narrowest(0))
        # Flows on the route, plus one while it is its pair's configured
        # route; -1 on a free row.  A list: it changes a flow at a time.
        self._live: List[int] = [-1] * rows
        self._free: List[int] = list(range(rows - 1, -1, -1))
        # Routes that may have no holder: freed by _tidy unless held.
        self._loose: List[int] = []
        # Pair code -> its configured route's code, or -1.
        self._configured = np.full(rows, -1, np.int32)

    # ------------------------------------------------------------------ #
    # the route table
    # ------------------------------------------------------------------ #

    def pair_code(self, pair: Pair) -> int:
        """The interned code of a source/destination pair."""
        code = self.pair_codes.get(pair)
        if code is None:
            code = len(self._pair_names)
            self._pairs = _fit(self._pairs, code)
            if code == self._configured.size:
                self._configured = _doubled(self._configured, -1)
            self.pair_codes[pair] = code
            self._pair_names.append(pair)
        return code

    def route_code(self, pair: int, servers: np.ndarray) -> int:
        """The code of route ``servers`` of pair code ``pair`` (-1: no
        pair), interned if it is new: then it is freed at the next add
        unless a flow is added on it."""
        row = servers.astype(self._servers.dtype)
        key = (pair, row.tobytes())
        code = self._keys.get(key)
        if code is None:
            if not self._free:
                rows = len(self._live)
                self._servers = _doubled(self._servers, self.pad)
                self._lengths = _doubled(self._lengths, 0)
                self._pairs = _doubled(self._pairs, -1)
                self._live.extend([-1] * rows)
                self._free.extend(range(2 * rows - 1, rows - 1, -1))
            extra = row.size - self._servers.shape[1]
            if extra > 0:
                widths = ((0, 0), (0, extra))
                self._servers = np.pad(self._servers, widths, constant_values=self.pad)
                self._lengths = _fit(self._lengths, row.size)
            code = self._keys[key] = self._free.pop()
            self._servers[code, :row.size] = row
            self._lengths[code] = row.size
            self._pairs[code] = pair
            self._live[code] = 0
            self._loose.append(code)
        return code

    def configure(self, pair: int, servers: np.ndarray) -> None:
        """Make ``servers`` the configured route of pair code ``pair``;
        the route it replaces is freed once no flow holds it."""
        code = self.route_code(pair, servers)
        old = int(self._configured[pair])
        self._configured[pair] = code
        self._live[code] += 1
        if old >= 0:
            self._live[old] -= 1
            self._loose.append(old)
        self._tidy()

    def configured_routes(self, pairs: Sequence[int]) -> np.ndarray:
        """The configured route code of each pair code (-1: none)."""
        return self._configured.take(pairs)

    def configured_servers(self, pair: Pair) -> np.ndarray:
        """The servers of ``pair``'s configured route."""
        route = self._configured[self.pair_codes[pair]]
        return self._servers[route, :self._lengths[route]].astype(_INT64)

    def servers_matrix(self, routes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(matrix, lengths)`` of route codes: their server rows,
        padded with :attr:`pad` to the longest of them."""
        lengths = self._lengths.take(routes).astype(_INT64)
        width = int(lengths.max()) if lengths.size else 0
        # take() then slice: gathering whole rows is far cheaper than
        # indexing rows and columns at once.
        return self._servers.take(routes, axis=0)[:, :width].astype(_INT64), lengths

    def _tidy(self) -> None:
        """Free the loose routes nothing holds — one interned for a
        refused flow, a pinned or replaced one whose last holder went —
        and the shared values that name them."""
        live = self._live
        dead = {route for route in self._loose if not live[route]}
        self._loose.clear()
        if dead:
            at = sorted(dead)
            lengths, pairs = self._lengths.tolist(), self._pairs.tolist()
            for route in at:
                del self._keys[pairs[route], self._servers[route, :lengths[route]].tobytes()]
                live[route] = -1
            self._free.extend(at)
            self._servers[at], self._lengths[at], self._pairs[at] = self.pad, 0, -1
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
        self, flow_id: Hashable, code: int, servers: np.ndarray,
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
        self, flow_ids: Sequence[Hashable], code, routes, tags=-1, pinned=False
    ) -> None:
        """Record many flows on interned ``routes`` (one code per flow),
        in the given (establishment) order.  ``code``, ``tags`` and
        ``pinned`` are one value for the batch or one per flow.  All or
        nothing: an id that is already established (or repeats) raises
        with the table unchanged.  A batch the open segment is full for
        goes whole into a new one, sealing it once the batch is in."""
        routes = np.asarray(routes, _INT64)
        packed = routes << _ROUTE_SHIFT
        packed |= np.asarray(code, _INT64) << _CLASS_SHIFT
        packed |= (np.asarray(tags, _INT64) + 1) << _TAG_SHIFT
        packed |= np.asarray(pinned, _INT64)
        segs, live, inserts = self._segs, self._live, self._inserts[0]
        # Full: the open segment has taken its share of inserts and its
        # table has no room for the batch.  A dict that took n inserts
        # holds 2/3 of the power of two above 3n/2 entries, 5 at least
        # (CPython's growth), and releases do not give entries back.
        room = (2 << max(4, 3 * inserts // 2).bit_length()) // 3
        fresh = inserts >= self._share and inserts + routes.size > room
        if fresh:
            segs.append({})
            inserts = 0
        index, setdefault = segs[-1], self._canon.setdefault
        try:
            for k, (fid, value) in enumerate(zip(flow_ids, packed.tolist())):
                for seg in segs:
                    if fid in seg:
                        if fresh:
                            segs.pop()
                        else:
                            for undo in flow_ids[:k]:
                                del index[undo]
                        raise AdmissionError(f"flow {fid!r} is already established")
                index[fid] = setdefault(value, value)
            for route in routes.tolist():
                live[route] += 1
            self._inserts[0] = inserts + routes.size
            if fresh:
                self._seal()
        finally:
            if self._loose:
                self._tidy()

    def add_batch(
        self, flow_ids: Sequence[Hashable], code, matrix: np.ndarray, lengths: np.ndarray
    ) -> None:
        """:meth:`add_routed` from a padded server matrix, each row
        interned as a route of no pair."""
        routes = [self.route_code(-1, row[:n]) for row, n in zip(matrix, lengths.tolist())]
        self.add_routed(flow_ids, code, routes)

    def pop(self, flow_id: Hashable) -> Tuple[int, np.ndarray, int]:
        """Remove a flow; returns ``(code, servers, tag)``."""
        for seg in self._segs:
            value = seg.pop(flow_id, None)
            if value is not None:
                break
        else:
            raise _absent(flow_id)
        route = _route(value)
        servers = self._servers[route, :self._lengths[route]].astype(_INT64)
        self._live[route] -= 1
        if not self._live[route]:
            self._loose.append(route)
            self._tidy()
        return value >> _CLASS_SHIFT, servers, (value >> _TAG_SHIFT & _TAG_MASK) - 1

    def check_poppable(self, flow_ids: Sequence[Hashable]) -> None:
        """Raise what :meth:`pop_batch` raises for ``flow_ids`` — the
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

    def pop_batch(
        self, flow_ids: Sequence[Hashable]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Remove many flows; returns ``(codes, matrix, lengths, tags)``.

        The matrix is padded with :attr:`pad` and sliced to the longest
        popped route.  All or nothing: the ids must be distinct and all
        established, and a call that raises removed none of them (the
        survivors keep their establishment order).
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
        packed = np.array(values, _INT64)
        routes = _route(packed)
        matrix, lengths = self.servers_matrix(routes)
        live = self._live
        for route in routes.tolist():
            live[route] -= 1
            if not live[route]:
                self._loose.append(route)
        if self._loose:
            self._tidy()
        return packed >> _CLASS_SHIFT, matrix, lengths, (packed >> _TAG_SHIFT & _TAG_MASK) - 1

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
        return len(self._live)

    @property
    def nbytes(self) -> int:
        """The route rows' fixed-width bytes: servers, length, pair code
        and a live-count pointer per row."""
        columns = (self._servers, self._lengths, self._pairs)
        return sum(c.nbytes for c in columns) + _POINTER_BYTES * len(self._live)

    def _value(self, flow_id: Hashable) -> int:
        for seg in self._segs:
            if flow_id in seg:
                return seg[flow_id]
        raise _absent(flow_id)

    def _packed(self) -> np.ndarray:
        """Every flow's value, in establishment order."""
        return np.fromiter(chain.from_iterable(map(dict.values, self._segs)), _INT64, len(self))

    def servers_of(self, flow_id: Hashable) -> np.ndarray:
        """Committed server indices of an established flow (copy)."""
        route = _route(self._value(flow_id))
        return self._servers[route, :self._lengths[route]].astype(_INT64)

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
    ) -> Tuple[List[Hashable], np.ndarray, np.ndarray]:
        """Flows of class ``code``, tagged with one of ``tags``, that
        hold a slot on any of ``servers`` — one masked scan of the
        values, the servers looked up per route.  Returns ``(flow_ids,
        tags, hits)`` with ``hits[j, i]`` true when flow ``i`` holds
        ``servers[j]``."""
        packed = self._packed()
        flow_tags = (packed >> _TAG_SHIFT & _TAG_MASK) - 1
        routes = _route(packed)
        on_route = np.zeros((len(servers), self.rows), bool)
        for j, server in enumerate(servers):
            (self._servers == server).any(axis=1, out=on_route[j])
        mask = np.zeros(packed.size, bool)
        for tag in tags:
            mask |= flow_tags == tag
        mask &= on_route.any(axis=0)[routes] & (packed >> _CLASS_SHIFT == code)
        keep = np.flatnonzero(mask)
        ids = list(compress(chain.from_iterable(self._segs), mask.tolist()))
        return ids, flow_tags[keep], on_route[:, routes[keep]]

    def usage(self, code: int) -> np.ndarray:
        """Slots the flows of class ``code`` hold, per server — what a
        ledger's ``used`` vector must equal."""
        packed = self._packed()
        flows = np.bincount(_route(packed[packed >> _CLASS_SHIFT == code]), minlength=self.rows)
        weights = np.repeat(flows, self._servers.shape[1])
        held = np.bincount(self._servers.ravel(), weights=weights, minlength=self.pad + 1)
        return held[: self.pad].astype(_INT64)

    def verify(self) -> List[str]:
        """Self-consistency of the id index, the values and the route
        table: no id is in two segments; the last seal left no sealed
        segment empty and no two adjacent ones that fit in one share,
        and none has gained a flow since; every flow holds the shared
        value of a route in use, each route's live count is its
        holders, each route row is what its key says, and the free list
        is the rows that hold no route.  Returns the violations found."""
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
        live = np.array(self._live)
        named: Dict[int, List[Hashable]] = {}
        for fid, value in chain.from_iterable(map(dict.items, segs)):
            route = _route(value)
            if route >= live.size or live[route] < 0:
                problems.append(f"flow {fid!r} names route {route}, which is free")
            elif self._canon.get(value) is not value:
                problems.append(f"flow {fid!r} holds its own copy of its value")
            named.setdefault(route, []).append(fid)
        configured = np.bincount(self._configured[self._configured >= 0], minlength=live.size)
        in_use = np.flatnonzero(live >= 0).tolist()
        for route in in_use:
            fids = named.get(route, [])
            holders = configured[route] + len(fids)
            if live[route] != holders:
                problems.append(
                    f"route {route} counts {live[route]} holders, but {holders} "
                    f"hold it (flows {fids!r})"
                )
            row, n, pair = self._servers[route], self._lengths[route], self._pairs[route]
            if self._keys.get((pair, row[:n].tobytes())) != route or (row[n:] != self.pad).any():
                problems.append(
                    f"route row {route} holds servers {row.tolist()} of pair "
                    f"code {pair}, not its key's"
                )
        if sorted(self._keys.values()) != in_use:
            problems.append("the route keys are not the route rows in use")
        if sorted(self._free) != np.flatnonzero(live < 0).tolist():
            problems.append("the free route list is not the set of rows that hold no route")
        if any(_route(v) >= live.size or live[_route(v)] < 0 for v in self._canon):
            problems.append("a canonical value names a free route")
        return problems
