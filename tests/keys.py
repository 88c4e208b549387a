"""Well-formed cache keys for tests that store profiles under made-up names.

Every cache tier takes the 64-character lowercase hex keys
``QualityEstimator.cache_key`` produces; the disk tier and the cache
server refuse anything else.  :func:`cache_key` turns a readable label into
such a key, the same label always giving the same key.
"""

from __future__ import annotations

import hashlib


def cache_key(*parts: object) -> str:
    """The cache key standing for ``parts`` (SHA-256 hex of their ``repr``)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
