"""Deterministic consistent-hash sharding for the serving fleet.

Regions are assigned to nodes by a **content hash** of the region id — not
Python's salted ``hash()`` — so the assignment is stable across processes,
machines and reruns.  Stability is what makes fleet serving reproducible:
the same region always lands on the same node, per-node embedding caches
stay hot, and a re-run reproduces the exact same batch compositions.

:class:`HashRing` (virtual-node blake2s ring) serves a membership that
*churns* — the multi-node :class:`~repro.serve.fleet.FleetClient`, where
nodes crash, recover, join and leave at runtime.  Removing a node moves
**only that node's keys** to the survivors (the survivors' own keys never
move, so their embedding caches stay warm), and adding a node steals only
≈``1/(N+1)`` of the keys.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Hashable, Iterable, List, Sequence

__all__ = ["HashRing"]


class HashRing:
    """Virtual-node consistent hashing over an elastic node membership.

    Every node is placed on a 64-bit ring at ``replicas`` points (blake2s of
    ``"{node}#{replica}"``); a key is owned by the first node point at or
    after its own blake2s hash, wrapping around.  Because both sides are
    content hashes, the mapping is identical across processes, machines and
    reruns — no salted ``hash()``, no insertion-order dependence.

    The property the fleet cares about: **membership changes move O(1/N) of
    the keys**.  Removing a node deletes only its points, so exactly the
    keys it owned remap (onto their next points — the survivors); every
    surviving node keeps every key it had, which is what keeps per-node
    embedding caches warm through crashes and restarts.  Adding a node
    steals ≈``1/(N+1)`` of the keys and touches nothing else.

    Node ids may be any hashable with a stable ``str()`` (the fleet uses
    its integer member indices, so a node that restarts under the same
    index reclaims exactly its old shard).
    """

    def __init__(self, nodes: Iterable[Hashable] = (), replicas: int = 64) -> None:
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.replicas = replicas
        # Sorted, parallel arrays: ring points and the node owning each point.
        # Entries sort by (point, str(node)) so hash collisions (astronomically
        # unlikely at 64 bits) still order deterministically.
        self._entries: List[tuple] = []
        self._points: List[int] = []
        self._members: set = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2s(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    # ------------------------------------------------------------ membership
    @property
    def nodes(self) -> List[Hashable]:
        """The current membership, deterministically ordered."""
        return sorted(self._members, key=str)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._members

    def add(self, node: Hashable) -> None:
        """Join ``node``: it steals ≈1/(N+1) of the keys, nothing else moves."""
        if node in self._members:
            raise ValueError(f"node {node!r} is already on the ring")
        self._members.add(node)
        for replica in range(self.replicas):
            point = self._hash(f"{node}#{replica}")
            entry = (point, str(node), node)
            index = bisect.bisect(self._entries, entry)
            self._entries.insert(index, entry)
            self._points.insert(index, point)

    def remove(self, node: Hashable) -> None:
        """Leave ``node``: only the keys it owned remap (to the survivors)."""
        if node not in self._members:
            raise KeyError(f"node {node!r} is not on the ring")
        self._members.discard(node)
        kept = [entry for entry in self._entries if entry[2] != node]
        self._entries = kept
        self._points = [entry[0] for entry in kept]

    # -------------------------------------------------------------- lookups
    def node_for(self, key: str) -> Hashable:
        """The node owning ``key``: first ring point at or after its hash."""
        if not self._entries:
            raise LookupError("the hash ring has no nodes")
        index = bisect.bisect_right(self._points, self._hash(key))
        return self._entries[index % len(self._entries)][2]

    def assignments(self, keys: Sequence[str]) -> List[Hashable]:
        """``[self.node_for(key) for key in keys]`` (the bulk form)."""
        return [self.node_for(key) for key in keys]

    def positions(self, keys: Sequence[str]) -> Dict[Hashable, List[int]]:
        """Input positions grouped by owning node: ``{node: [position, ...]}``.

        Only nodes owning at least one key appear, and each position list
        preserves input order.
        """
        positions: Dict[Hashable, List[int]] = {}
        for position, node in enumerate(self.assignments(keys)):
            positions.setdefault(node, []).append(position)
        return positions
