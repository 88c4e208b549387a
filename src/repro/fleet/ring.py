"""Consistent-hash ring: deterministic key -> shard routing.

The sharded cache tier (:class:`~repro.fleet.sharded.ShardedProfileCache`)
partitions the profile store across N cache servers.  Profile keys are
already location-independent 64-hex SHA-256 digests
(``QualityEstimator.cache_key``, also the disk tier's file names), so
the ring routes on the key itself and only needs a stable function
``key -> shard url`` with three properties:

* **Deterministic.**  The mapping is a pure function of the shard URL
  set (and the replica count): every client configured with the same
  ``cache_urls`` -- in any order -- routes every digest to the same
  shard, with no coordination and no shared state.  This is what lets a
  whole fleet of planners and workers agree on placement.
* **Uniform.**  Each shard carries ~1/N of the key space.  Placing
  ``replicas`` virtual points per shard on the ring smooths the
  partition sizes (the classic consistent-hashing trick); with the
  default 96 points per shard the busiest of 4 shards stays well within
  2x of the ideal quarter.
* **Minimal movement.**  Adding or removing one shard of N remaps only
  the keys the changed shard owns (~1/N of the space); every other
  digest keeps its assignment, so a ring change never invalidates the
  surviving shards' stores.  (Plain modulo hashing would remap nearly
  everything.)

Ring points are the first 8 bytes of ``sha256(f"{url}#{index}")``;
digests land on the ring by their own first 8 bytes and are served by
the next point clockwise.  Both sides reuse SHA-256 so the ring adds no
new hash dependency.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

#: Virtual points per shard.  More points = smoother partition at the
#: cost of a (tiny) larger sorted ring; 96 keeps the busiest of four
#: shards well within 2x of ideal while the ring stays a few hundred
#: entries.
DEFAULT_REPLICAS = 96


def _point(label: str) -> int:
    """A 64-bit ring position for an arbitrary label."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """An immutable consistent-hash ring over shard URLs.

    Parameters
    ----------
    nodes:
        The shard identifiers (cache-server base URLs).  Order does not
        matter -- the ring is a pure function of the *set* -- but
        duplicates are rejected (two names for one position would skew
        the partition).
    replicas:
        Virtual points placed per node.
    """

    def __init__(self, nodes: Sequence[str], replicas: int = DEFAULT_REPLICAS) -> None:
        cleaned = [str(node) for node in nodes]
        if not cleaned:
            raise ValueError("a hash ring needs at least one node")
        if len(set(cleaned)) != len(cleaned):
            raise ValueError(f"duplicate ring nodes: {cleaned!r}")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.nodes: tuple[str, ...] = tuple(sorted(cleaned))
        self.replicas = replicas
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for index in range(replicas):
                points.append((_point(f"{node}#{index}"), node))
        # Ties between different labels are astronomically unlikely but
        # must still order deterministically: break by node name.
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [node for _, node in points]

    # ------------------------------------------------------------------

    def node(self, digest: str) -> str:
        """The shard owning a 64-hex-char cache key.

        Uses the key's own leading 8 bytes as the ring position -- a
        cache key is a SHA-256 digest, uniformly distributed, so no
        re-hashing is needed.
        """
        position = int(digest[:16], 16)
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):  # wrap past the last point
            index = 0
        return self._owners[index]

    def assignments(self, digests: Iterable[str]) -> dict[str, str]:
        """``{digest: owning node}`` for a batch of digests."""
        return {digest: self.node(digest) for digest in digests}

    def counts(self, digests: Iterable[str]) -> dict[str, int]:
        """How many of the given digests each node owns (0 included)."""
        counts = {node: 0 for node in self.nodes}
        for digest in digests:
            counts[self.node(digest)] += 1
        return counts

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashRing):
            return NotImplemented
        return self.nodes == other.nodes and self.replicas == other.replicas

    def __hash__(self) -> int:
        return hash((self.nodes, self.replicas))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(nodes={list(self.nodes)!r}, replicas={self.replicas})"
