"""Array-backed flow table for the admission hot path.

The controllers used to keep a ``dict`` mapping every established flow
to a freshly allocated NumPy array of its committed server indices.
That layout forces a Python-level loop (and an allocation) per flow on
both admit and release.  :class:`FlowTable` stores the same information
as contiguous arrays — one padded server-index matrix plus per-row
class code / tag / length columns — so whole batches of flows can be
committed or freed with a handful of vectorized operations.

Rows are recycled through a free list; the matrix grows by doubling and
widens on demand when a longer route arrives.  A small ``dict`` from
flow id to row index remains (ids are arbitrary hashables), but it is
the only per-flow Python object on the path.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AdmissionError

__all__ = ["FlowTable"]

#: Class code stored for flows that hold no slots (best-effort traffic).
NO_CLASS = -1


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
        "pad", "_index", "_codes", "_tags", "_servers", "_lengths",
        "_free",
    )

    def __init__(self, pad: int, *, width: int = 4, capacity: int = 64):
        capacity = max(int(capacity), 1)
        width = max(int(width), 1)
        self.pad = int(pad)
        self._index: Dict[Hashable, int] = {}
        self._codes = np.full(capacity, NO_CLASS, dtype=np.int64)
        self._tags = np.full(capacity, -1, dtype=np.int64)
        self._servers = np.full((capacity, width), self.pad, dtype=np.int64)
        self._lengths = np.zeros(capacity, dtype=np.int64)
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #

    def _grow_rows(self) -> None:
        old = self._servers.shape[0]
        new = old * 2
        self._codes = np.concatenate(
            [self._codes, np.full(old, NO_CLASS, dtype=np.int64)]
        )
        self._tags = np.concatenate(
            [self._tags, np.full(old, -1, dtype=np.int64)]
        )
        self._servers = np.concatenate(
            [
                self._servers,
                np.full(
                    (old, self._servers.shape[1]), self.pad, dtype=np.int64
                ),
            ]
        )
        self._lengths = np.concatenate(
            [self._lengths, np.zeros(old, dtype=np.int64)]
        )
        self._free.extend(range(new - 1, old - 1, -1))

    def _ensure_width(self, width: int) -> None:
        have = self._servers.shape[1]
        if width <= have:
            return
        extra = np.full(
            (self._servers.shape[0], width - have), self.pad,
            dtype=np.int64,
        )
        self._servers = np.concatenate([self._servers, extra], axis=1)

    def _alloc(self, n: int) -> np.ndarray:
        while len(self._free) < n:
            self._grow_rows()
        rows = np.asarray(self._free[-n:], dtype=np.int64)
        del self._free[-n:]
        return rows

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add(
        self,
        flow_id: Hashable,
        code: int,
        servers: np.ndarray,
        tag: int = -1,
    ) -> None:
        """Record one flow's committed servers (code -1 = holds none)."""
        if flow_id in self._index:
            raise AdmissionError(
                f"flow {flow_id!r} already in the flow table"
            )
        n = int(servers.size)
        self._ensure_width(n)
        row = int(self._alloc(1)[0])
        self._codes[row] = code
        self._tags[row] = tag
        self._lengths[row] = n
        self._servers[row, :] = self.pad
        if n:
            self._servers[row, :n] = servers
        self._index[flow_id] = row

    def add_batch(
        self,
        flow_ids: Sequence[Hashable],
        code: int,
        matrix: np.ndarray,
        lengths: np.ndarray,
        tags: Optional[np.ndarray] = None,
    ) -> None:
        """Record many same-class flows from a padded server matrix."""
        n = len(flow_ids)
        if n == 0:
            return
        width = matrix.shape[1]
        self._ensure_width(width)
        rows = self._alloc(n)
        self._codes[rows] = code
        self._tags[rows] = -1 if tags is None else tags
        self._lengths[rows] = lengths
        # Reused rows may hold a previous occupant's longer route; clear
        # the tail beyond this batch's width before writing.
        self._servers[rows, width:] = self.pad
        self._servers[rows, :width] = matrix
        index = self._index
        # tolist() converts the whole row array to Python ints in C; a
        # per-element int(rows[i]) costs ~3x as much at batch sizes.
        for fid, row in zip(flow_ids, rows.tolist()):
            if fid in index:
                raise AdmissionError(
                    f"flow {fid!r} already in the flow table"
                )
            index[fid] = row

    def pop(self, flow_id: Hashable) -> Tuple[int, np.ndarray, int]:
        """Remove a flow; returns ``(code, servers, tag)``."""
        try:
            row = self._index.pop(flow_id)
        except KeyError:
            raise AdmissionError(
                f"flow {flow_id!r} is not in the flow table"
            ) from None
        n = int(self._lengths[row])
        servers = self._servers[row, :n].copy()
        code = int(self._codes[row])
        tag = int(self._tags[row])
        self._free.append(row)
        return code, servers, tag

    def pop_batch(
        self, flow_ids: Sequence[Hashable]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Remove many flows; returns ``(codes, matrix, lengths, tags)``.

        The matrix is padded with :attr:`pad` and sliced to the longest
        popped route.
        """
        index = self._index
        pop = index.pop
        row_list: List[int] = []
        append = row_list.append
        try:
            for fid in flow_ids:
                append(pop(fid))
        except KeyError:
            raise AdmissionError(
                f"flow {fid!r} is not in the flow table"
            ) from None
        rows = np.asarray(row_list, dtype=np.int64)
        lengths = self._lengths[rows].copy()
        width = int(lengths.max()) if rows.size else 0
        matrix = self._servers[rows, :width].copy()
        codes = self._codes[rows].copy()
        tags = self._tags[rows].copy()
        self._free.extend(row_list)
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

    def servers_of(self, flow_id: Hashable) -> np.ndarray:
        """Committed server indices of an established flow (copy)."""
        try:
            row = self._index[flow_id]
        except KeyError:
            raise AdmissionError(
                f"flow {flow_id!r} is not in the flow table"
            ) from None
        return self._servers[row, : int(self._lengths[row])].copy()

    def entry(self, flow_id: Hashable) -> Tuple[int, np.ndarray, int]:
        """``(code, servers, tag)`` of a flow **without** removing it —
        the read-only twin of :meth:`pop` for invariant audits."""
        try:
            row = self._index[flow_id]
        except KeyError:
            raise AdmissionError(
                f"flow {flow_id!r} is not in the flow table"
            ) from None
        n = int(self._lengths[row])
        return (
            int(self._codes[row]),
            self._servers[row, :n].copy(),
            int(self._tags[row]),
        )
