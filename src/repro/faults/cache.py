"""Cache-level fault injection: failed writes and bit-flipped entries.

:class:`FaultInjectingCache` is a drop-in :class:`~repro.core.cache.
ResultCache` whose ``put`` raises :class:`OSError` on chosen write
ordinals — proving the scheduler survives storage failures without
losing results.  :func:`corrupt_cache_entry` flips one byte of a stored
entry on disk — proving the cache's checksum verification quarantines
(rather than serves or crashes on) corrupted data.  :func:`flip_byte` is
the same damage for any entry file, e.g. a stored contact graph at
:meth:`~repro.core.cache.ResultCache.graph_path`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Collection, Optional, Union

from ..core.cache import ResultCache, result_key
from ..core.parameters import ScenarioConfig
from ..core.simulation import ScenarioResult


class FaultInjectingCache(ResultCache):
    """ResultCache raising ``OSError`` on selected write ordinals.

    ``fail_write_ordinals`` names which ``put()`` calls fail, counting
    from 0 — deterministic by construction (the scheduler writes results
    in completion order, but *which* writes fail is fixed, not timing-
    dependent, when the ordinals come from a seeded plan).
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        fail_write_ordinals: Collection[int] = (),
    ) -> None:
        super().__init__(root)
        self.fail_write_ordinals = frozenset(fail_write_ordinals)
        self.failed_writes = 0
        self._write_ordinal = 0

    def put(self, result: ScenarioResult) -> Path:
        ordinal = self._write_ordinal
        self._write_ordinal += 1
        if ordinal in self.fail_write_ordinals:
            self.failed_writes += 1
            raise OSError(f"injected cache write failure (ordinal {ordinal})")
        return super().put(result)


def corrupt_cache_entry(
    cache: ResultCache,
    config: ScenarioConfig,
    seed: int,
    replication: int,
    flip_offset: Optional[int] = None,
) -> Path:
    """Flip one byte of a stored entry in place; returns the entry path.

    Flips at ``flip_offset`` (default: the middle of the file) — inside
    the JSON payload, so the damage is the silent-corruption kind only a
    checksum catches, not necessarily a parse error.
    """
    return flip_byte(
        cache._path_for(result_key(config, seed, replication)), flip_offset
    )


def flip_byte(path: Path, flip_offset: Optional[int] = None) -> Path:
    """Flip the low bit of one byte of ``path`` in place; returns ``path``.

    ``flip_offset`` defaults to the middle of the file, which for every
    entry kind lands inside the stored payload.
    """
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"entry {path} is empty")
    offset = flip_offset if flip_offset is not None else len(data) // 2
    if not 0 <= offset < len(data):
        raise ValueError(f"flip_offset {offset} outside entry of {len(data)} bytes")
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))
    return path


__all__ = ["FaultInjectingCache", "corrupt_cache_entry", "flip_byte"]
