"""The flow record: established flows as columns, not objects.

The edge controller remembers a flow only so that it can release it.
:class:`FlowTable` is everything it remembers: one ``flow id -> row``
dict (ids are arbitrary hashables; the dict's insertion order is the
establishment order) and, per row, flat columns — class code, priority
tag, the padded row of committed server indices, an interned
source/destination pair, a pinned bit and a reference to the committed
route.  No per-flow object hangs off a row: whoever needs a
``FlowSpec`` back (snapshots, the chaos harness) rebuilds it from
:meth:`records`, and whole batches are committed, freed or scanned with
a handful of vectorized operations.

Rows are recycled through a free list; the columns grow by doubling and
the server matrix widens on demand when a longer route arrives.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import AdmissionError

__all__ = ["FlowTable"]

#: Class code of a row that holds no flow (class codes are >= 0).
NO_CLASS = -1
#: The committed servers of a flow that holds no slot (best-effort).
NO_SERVERS = np.empty(0, dtype=np.int64)

Pair = Tuple[Hashable, Hashable]
#: ``(flow id, class code, tag, pair, committed route, pinned)``.
Record = Tuple[Hashable, int, int, Optional[Pair], Sequence[Hashable], bool]


class FlowTable:
    """Established-flow store keyed by flow id, backed by flat arrays.

    Parameters
    ----------
    pad:
        Sentinel server index filling unused matrix cells (the
        controllers use ``graph.num_servers``, their kernels' virtual
        padding slot).
    width / capacity:
        Initial matrix shape; both grow automatically.
    """

    __slots__ = (
        "pad", "_index", "_ids", "_codes", "_tags", "_servers",
        "_lengths", "_pairs", "_pinned", "_routes", "_free",
        "_pair_codes", "_pair_names",
    )

    def __init__(self, pad: int, *, width: int = 4, capacity: int = 64):
        capacity = max(int(capacity), 1)
        width = max(int(width), 1)
        self.pad = int(pad)
        self._index: Dict[Hashable, int] = {}
        # The two object columns are plain lists: they are only ever
        # read and written an element at a time.
        self._ids: List[Hashable] = [None] * capacity
        self._codes = np.full(capacity, NO_CLASS, dtype=np.int64)
        self._tags = np.full(capacity, -1, dtype=np.int64)
        self._servers = np.full((capacity, width), self.pad, dtype=np.int64)
        self._lengths = np.zeros(capacity, dtype=np.int64)
        self._pairs = np.full(capacity, -1, dtype=np.int64)
        self._pinned = np.zeros(capacity, dtype=bool)
        self._routes: List[Optional[Sequence[Hashable]]] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        # Endpoints are a fact of their own (a committed route must join
        # them), stored once per distinct pair rather than per flow.
        self._pair_codes: Dict[Pair, int] = {}
        self._pair_names: List[Pair] = []

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #

    def _grow_rows(self) -> None:
        old = self._servers.shape[0]

        def grown(column: np.ndarray, fill) -> np.ndarray:
            return np.concatenate(
                [column, np.full((old,) + column.shape[1:], fill,
                                 dtype=column.dtype)]
            )

        self._ids.extend([None] * old)
        self._codes = grown(self._codes, NO_CLASS)
        self._tags = grown(self._tags, -1)
        self._servers = grown(self._servers, self.pad)
        self._lengths = grown(self._lengths, 0)
        self._pairs = grown(self._pairs, -1)
        self._pinned = grown(self._pinned, False)
        self._routes.extend([None] * old)
        self._free.extend(range(2 * old - 1, old - 1, -1))

    def _ensure_width(self, width: int) -> None:
        have = self._servers.shape[1]
        if width <= have:
            return
        extra = np.full(
            (self._servers.shape[0], width - have), self.pad,
            dtype=np.int64,
        )
        self._servers = np.concatenate([self._servers, extra], axis=1)

    def _alloc(self, n: int) -> List[int]:
        while len(self._free) < n:
            self._grow_rows()
        rows = self._free[-n:]
        del self._free[-n:]
        return rows

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def pair_code(self, pair: Pair) -> int:
        """The interned code of a source/destination pair."""
        code = self._pair_codes.get(pair)
        if code is None:
            code = self._pair_codes[pair] = len(self._pair_names)
            self._pair_names.append(pair)
        return code

    def add(
        self,
        flow_id: Hashable,
        code: int,
        servers: np.ndarray,
        tag: int = -1,
        pair: int = -1,
        route: Optional[Sequence[Hashable]] = None,
        pinned: bool = False,
    ) -> None:
        """Record one flow: its class ``code``, the ``servers`` it holds
        a slot on (none for best-effort), its priority ``tag``, its
        :meth:`pair_code` and the ``route`` it was admitted on."""
        if flow_id in self._index:
            raise AdmissionError(
                f"flow {flow_id!r} is already established"
            )
        n = int(servers.size)
        self._ensure_width(n)
        (row,) = self._alloc(1)
        self._ids[row] = flow_id
        self._codes[row] = code
        self._tags[row] = tag
        self._lengths[row] = n
        self._servers[row, :] = self.pad
        if n:
            self._servers[row, :n] = servers
        self._pairs[row] = pair
        self._pinned[row] = pinned
        self._routes[row] = route
        self._index[flow_id] = row

    def add_batch(
        self,
        flow_ids: Sequence[Hashable],
        code,
        matrix: np.ndarray,
        lengths: np.ndarray,
        tags=None,
        pairs=None,
        routes: Optional[Sequence[Sequence[Hashable]]] = None,
        pinned=None,
    ) -> None:
        """Record many flows from a padded server matrix, in the given
        (establishment) order.  ``code``, ``tags``, ``pairs`` and
        ``pinned`` are one value for the batch or one per flow.  All or
        nothing: an id that is already established (or repeats) raises
        with the table unchanged."""
        n = len(flow_ids)
        if n == 0:
            return
        width = matrix.shape[1]
        self._ensure_width(width)
        rows = self._alloc(n)
        index = self._index
        ids = self._ids
        for k, (fid, row) in enumerate(zip(flow_ids, rows)):
            if fid in index:
                for undo in flow_ids[:k]:
                    del index[undo]
                self._free.extend(rows)
                raise AdmissionError(
                    f"flow {fid!r} is already established"
                )
            index[fid] = row
            ids[row] = fid
        at = np.asarray(rows, dtype=np.intp)
        self._codes[at] = code
        self._tags[at] = -1 if tags is None else tags
        self._lengths[at] = lengths
        # Reused rows may hold a previous occupant's longer route; clear
        # the tail beyond this batch's width before writing.
        self._servers[at, width:] = self.pad
        self._servers[at, :width] = matrix
        self._pairs[at] = -1 if pairs is None else pairs
        self._pinned[at] = False if pinned is None else pinned
        column = self._routes
        for row, route in zip(rows, routes or [None] * n):
            column[row] = route

    def pop(self, flow_id: Hashable) -> Tuple[int, np.ndarray, int]:
        """Remove a flow; returns ``(code, servers, tag)``."""
        try:
            row = self._index.pop(flow_id)
        except KeyError:
            raise AdmissionError(
                f"flow {flow_id!r} is not established"
            ) from None
        n = int(self._lengths[row])
        servers = self._servers[row, :n].copy()
        code = int(self._codes[row])
        tag = int(self._tags[row])
        self._codes[row] = NO_CLASS
        self._free.append(row)
        return code, servers, tag

    def pop_batch(
        self, flow_ids: Sequence[Hashable]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Remove many flows; returns ``(codes, matrix, lengths, tags)``.

        The matrix is padded with :attr:`pad` and sliced to the longest
        popped route.  All or nothing: the ids must be distinct and all
        established, and a call that raises removed none of them (the
        survivors keep their establishment order).
        """
        index = self._index
        get = index.get
        rows = [get(fid, -1) for fid in flow_ids]
        if len(set(rows)) != len(rows) or -1 in rows:
            seen = set()
            for fid in flow_ids:
                if fid in seen:
                    raise AdmissionError(
                        f"duplicate flow id {fid!r} in batch"
                    )
                if fid not in index:
                    raise AdmissionError(
                        f"flow {fid!r} is not established"
                    )
                seen.add(fid)
        for fid in flow_ids:
            del index[fid]
        at = np.asarray(rows, dtype=np.intp)
        lengths = self._lengths[at]
        width = int(lengths.max()) if rows else 0
        matrix = self._servers[at, :width]
        codes = self._codes[at]
        tags = self._tags[at]
        self._codes[at] = NO_CLASS
        self._free.extend(rows)
        return codes, matrix, lengths, tags

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._index)

    def _row(self, flow_id: Hashable) -> int:
        try:
            return self._index[flow_id]
        except KeyError:
            raise AdmissionError(
                f"flow {flow_id!r} is not established"
            ) from None

    def servers_of(self, flow_id: Hashable) -> np.ndarray:
        """Committed server indices of an established flow (copy)."""
        row = self._row(flow_id)
        return self._servers[row, : int(self._lengths[row])].copy()

    def route_of(self, flow_id: Hashable) -> Sequence[Hashable]:
        """The route an established flow was admitted on (shared, not
        copied: read-only to every caller)."""
        return self._routes[self._row(flow_id)]

    def record(self, flow_id: Hashable) -> Record:
        """Everything kept about one established flow but its servers."""
        row = self._row(flow_id)
        pair = int(self._pairs[row])
        return (
            flow_id,
            int(self._codes[row]),
            int(self._tags[row]),
            self._pair_names[pair] if pair >= 0 else None,
            self._routes[row],
            bool(self._pinned[row]),
        )

    def records(self) -> List[Record]:
        """:meth:`record` of every flow, in establishment order."""
        codes = self._codes.tolist()
        tags = self._tags.tolist()
        pairs = self._pairs.tolist()
        pinned = self._pinned.tolist()
        routes = self._routes
        names = self._pair_names
        return [
            (
                fid,
                codes[row],
                tags[row],
                names[pairs[row]] if pairs[row] >= 0 else None,
                routes[row],
                pinned[row],
            )
            for fid, row in self._index.items()
        ]

    def holders(
        self, code: int, tags: Sequence[int], servers: Sequence[int]
    ) -> Tuple[List[Hashable], np.ndarray, np.ndarray]:
        """Flows of class ``code``, tagged with one of ``tags``, that
        hold a slot on any of ``servers`` — one masked scan of the
        columns.  Returns ``(flow_ids, tags, hits)`` with ``hits[j, i]``
        true when flow ``i`` holds ``servers[j]``."""
        mask = np.zeros(self._codes.size, dtype=bool)
        for tag in tags:
            mask |= self._tags == tag
        mask &= self._codes == code
        rows = np.flatnonzero(mask)
        # Transposed, so that every reduction runs along the long axis.
        held = np.ascontiguousarray(self._servers[rows].T)
        hits = np.empty((len(servers), rows.size), dtype=bool)
        for j, server in enumerate(servers):
            (held == server).any(axis=0, out=hits[j])
        keep = hits.any(axis=0)
        rows = rows[keep]
        ids = self._ids
        return (
            [ids[r] for r in rows.tolist()],
            self._tags[rows],
            hits[:, keep],
        )

    def usage(self, code: int) -> np.ndarray:
        """Slots the flows of class ``code`` hold, per server — what a
        ledger's ``used`` vector must equal."""
        held = self._servers[self._codes == code]
        return np.bincount(held.ravel(), minlength=self.pad + 1)[: self.pad]

    def verify(self) -> List[str]:
        """Self-consistency of the two directions of the index:
        ``id -> row`` against the ``row -> id`` column, and the rows in
        use against the free list.  Returns the violations found."""
        problems: List[str] = []
        ids = self._ids
        codes = self._codes
        for fid, row in self._index.items():
            if codes[row] == NO_CLASS:
                problems.append(
                    f"flow {fid!r} indexes flow-table row {row}, which "
                    "holds no flow"
                )
            elif ids[row] != fid:
                problems.append(
                    f"flow {fid!r} indexes flow-table row {row}, which "
                    f"belongs to {ids[row]!r}"
                )
        live = np.flatnonzero(codes != NO_CLASS)
        for row in sorted(set(live.tolist()) - set(self._index.values())):
            problems.append(
                f"flow-table row {row} holds {ids[row]!r}, which no "
                "flow id indexes"
            )
        if sorted(self._free) != np.flatnonzero(codes == NO_CLASS).tolist():
            problems.append(
                "flow-table free list is not the set of rows that hold "
                "no flow"
            )
        return problems
