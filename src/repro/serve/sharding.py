"""Deterministic consistent-hash sharding for the serving fleet.

Regions are assigned to nodes by a **content hash** of the region id — not
Python's salted ``hash()`` — so the assignment is stable across processes,
machines and reruns.  Stability is what makes fleet serving reproducible:
the same region always lands on the same node, per-node embedding caches
stay hot, and a re-run reproduces the exact same batch compositions.

:class:`HashRing` (virtual-node blake2s ring) serves a membership that
*churns* — the multi-node :class:`~repro.serve.fleet.FleetClient`, where
nodes crash, recover, join and leave at runtime.  Each membership gets its
own immutable ring; losing a node moves **only that node's keys** to the
survivors (the survivors' own keys never move, so their embedding caches
stay warm), and adding a node steals only ≈``1/(N+1)`` of the keys.

Routers look rings up through :func:`shared_ring`, one memo per process
keyed by the serving membership, so a steady membership builds its ring
once.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

__all__ = ["HashRing", "shared_ring"]

#: Ring points per node.
_REPLICAS = 64


class HashRing:
    """Virtual-node consistent hashing over one node membership.

    Every node is placed on a 64-bit ring at 64 points (blake2s of
    ``"{node}#{replica}"``); a key is owned by the first node point at or
    after its own blake2s hash, wrapping around.  Because both sides are
    content hashes, the mapping is identical across processes, machines and
    reruns — no salted ``hash()``, no dependence on the order of ``nodes``.

    A ring is immutable: a membership change builds the ring of the new
    membership (through :func:`shared_ring`).  The property the fleet cares
    about is that **the two rings differ by O(1/N) of the keys**.  Dropping
    a node drops only its points, so exactly the keys it owned remap (onto
    their next points — the survivors); every surviving node keeps every
    key it had, which is what keeps per-node embedding caches warm through
    crashes and restarts.  Adding a node steals ≈``1/(N+1)`` of the keys and
    touches nothing else.

    Node ids may be any hashable with a stable ``str()`` (the fleet uses
    its integer member indices, so a node that restarts under the same
    index reclaims exactly its old shard).
    """

    def __init__(self, nodes: Iterable[Hashable] = ()) -> None:
        # Sorted, parallel arrays: ring points and the node owning each point.
        # Entries sort by (point, str(node)) so hash collisions (astronomically
        # unlikely at 64 bits) still order deterministically.
        self._entries: List[tuple] = sorted(
            (self._hash(f"{node}#{replica}"), str(node), node)
            for node in nodes
            for replica in range(_REPLICAS)
        )
        self._points: List[int] = [entry[0] for entry in self._entries]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2s(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

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


@functools.lru_cache(maxsize=64)
def shared_ring(nodes: Tuple[Hashable, ...]) -> HashRing:
    """The :class:`HashRing` over ``nodes``, built once per membership.

    Every caller with the same membership gets the same ring object.  The
    ring's point order does not depend on the order of ``nodes``; pass them
    sorted so that one membership has one memo entry.
    """
    return HashRing(nodes)
