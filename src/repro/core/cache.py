"""Disk-backed replication result cache.

A replication is fully determined by ``(scenario config, master seed,
replication index)`` — the RNG streams derive from the seed pair and the
topology from the config — so its :class:`ScenarioResult` can be memoized
on disk and reused across figure reruns, sweeps, and CLI invocations.

Keys are content hashes of the *canonical JSON* of the scenario (via
:mod:`repro.core.serialization`) plus the seed, the replication index, and
a cache schema version.  Bumping :data:`CACHE_SCHEMA_VERSION` invalidates
every stored entry — do that whenever a simulation-behaviour change makes
old results stale even for identical configs.

Entries are sharded two-level (``<root>/<k[:2]>/<k>.json``) and written
atomically (tmp file + ``os.replace``), so a crashed or concurrent writer
never leaves a truncated entry behind; unreadable entries count as misses.

Integrity: every entry embeds a SHA-256 checksum of its canonical result
payload, verified on every read.  An entry that fails verification — bit
rot, a torn write, foreign junk — is **quarantined** (moved to
``<root>/quarantine/``, never served, never crashed on) and counts as a
miss, so the slot heals by recomputation while the damaged bytes stay
available for forensics.

Contact graphs: the same tree also stores the xl engine's CSR contact
graphs, content-addressed by :func:`graph_key` as ``<k[:2]>/<k>.npz``
(``indptr``, ``indices`` and an embedded SHA-256 over both).  A graph is
a pure function of the network parameters, the ``topology`` stream's
seed and the NumPy version, so every job that would redraw a stored
graph loads it instead (:meth:`ResultCache.get_or_build_graph`).  Graph
entries share the result entries' atomic write, verify-on-read,
quarantine and orphan sweep; they never count as results (``len``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterator, Optional, Union

import numpy as np

from ..topology.csr import CSRAdjacency
from .parameters import NetworkParameters, ScenarioConfig
from .serialization import (
    SerializationError,
    result_from_dict,
    result_to_dict,
    scenario_to_dict,
)
from .simulation import ScenarioResult

#: Bump to invalidate all cached results after behaviour-changing releases.
#: v2: entries embed a per-entry SHA-256 checksum, verified on read.
CACHE_SCHEMA_VERSION = 2

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Temp-file prefix used by atomic writes; anything carrying it is an
#: orphan of a crashed ``put()`` and never a cache entry.
_TMP_PREFIX = ".tmp-"

#: Subdirectory corrupted entries are moved into (never served from).
QUARANTINE_DIR = "quarantine"

#: Names the xl topology generators in every graph key.  Bump it whenever
#: a change to ``csr_powerlaw`` or ``contact_network`` alters the graph a
#: given ``topology`` stream draws, so stored graphs stop matching.
GRAPH_GENERATOR = "xl-topology-v1"

#: File suffixes of the two entry kinds.
_RESULT_SUFFIX = ".json"
_GRAPH_SUFFIX = ".npz"


def default_cache_dir() -> Path:
    """The cache root, resolved to an *absolute* anchored path.

    ``$REPRO_CACHE_DIR`` wins when set (with ``~`` and nested environment
    variables expanded, so ``REPRO_CACHE_DIR=~/caches/$PROJECT`` works);
    otherwise ``.repro-cache`` under the **current working directory**.

    The CWD fallback is deliberate — a per-checkout cache keeps unrelated
    projects from sharing entries — but it also means invocations from
    different directories use different caches.  Set ``REPRO_CACHE_DIR``
    for one shared cache; the resolved absolute path is recorded in every
    run manifest (``cache.dir``) so a split cache is visible instead of
    silent.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(os.path.expandvars(env)).expanduser().resolve()
    return (Path.cwd() / DEFAULT_CACHE_DIR).resolve()


def result_key(
    config: ScenarioConfig,
    seed: int,
    replication: int,
    schema_version: int = CACHE_SCHEMA_VERSION,
) -> str:
    """Stable content hash identifying one replication's result.

    Any change to the scenario config (including response parameters),
    the seed, the replication index, or the schema version yields a
    different key, so stale hits are impossible by construction.
    """
    payload = {
        "scenario": scenario_to_dict(config),
        "seed": seed,
        "replication": replication,
        "cache_schema": schema_version,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_checksum(result_document: Dict) -> str:
    """SHA-256 over the canonical JSON of one serialized result payload.

    This is the integrity checksum embedded in every cache entry; any
    bit flipped inside the payload changes it.
    """
    canonical = json.dumps(result_document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def graph_key(
    network: NetworkParameters,
    seed_seq: np.random.SeedSequence,
    numpy_version: str = np.__version__,
    schema_version: int = CACHE_SCHEMA_VERSION,
) -> str:
    """Stable content hash identifying one xl contact graph.

    The graph depends only on the network's size and shape parameters,
    the ``topology`` stream's ``SeedSequence`` (which already encodes the
    seed and the replication index), and the NumPy version whose
    generator draws it; the key covers exactly those, plus the generator
    tag and the cache schema version.  Response, virus and user settings
    are deliberately absent: every scenario of a sweep or frontier that
    shares a seed shares its graphs.
    """
    payload = {
        "generator": GRAPH_GENERATOR,
        "population": network.population,
        "mean_contact_list_size": network.mean_contact_list_size,
        "powerlaw_exponent": network.powerlaw_exponent,
        "topology_model": network.topology_model,
        "entropy": np.asarray(seed_seq.entropy).tolist(),
        "spawn_key": [int(part) for part in seed_seq.spawn_key],
        "pool_size": int(seed_seq.pool_size),
        "numpy": numpy_version,
        "cache_schema": schema_version,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def graph_checksum(indptr: np.ndarray, indices: np.ndarray) -> str:
    """SHA-256 over both CSR arrays' dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    for array in (indptr, indices):
        digest.update(f"{array.dtype.str}{array.shape}".encode("ascii"))
        digest.update(np.ascontiguousarray(array).data)
    return digest.hexdigest()


def _write_graph(handle: BinaryIO, adjacency: CSRAdjacency) -> None:
    """Write an ``.npz`` archive with fixed member timestamps.

    ``np.savez`` stamps each member with the wall clock; fixing the stamp
    makes the bytes a pure function of the graph, so two workers racing
    on one key write identical files.
    """
    members = {
        "indptr": adjacency.indptr,
        "indices": adjacency.indices,
        "sha256": np.array(graph_checksum(adjacency.indptr, adjacency.indices)),
    }
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
        for name, array in members.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


class CorruptEntry(ValueError):
    """Internal: an entry's stored checksum does not match its payload."""


class ResultCache:
    """File-per-entry cache of :class:`ScenarioResult` documents."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_RESULT_SUFFIX}"

    def graph_path(self, key: str) -> Path:
        """Where the graph entry for :func:`graph_key` ``key`` lives."""
        return self.root / key[:2] / f"{key}{_GRAPH_SUFFIX}"

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside (fall back to deletion).

        Either way the entry stops being servable; quarantining keeps
        the bytes for forensics.
        """
        target = self.root / QUARANTINE_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1

    def get(
        self, config: ScenarioConfig, seed: int, replication: int
    ) -> Optional[ScenarioResult]:
        """Look up one replication; ``None`` (and a miss) when absent.

        Every read verifies the entry's embedded checksum; a mismatch —
        or any parse/shape failure — quarantines the entry and counts as
        a miss, so corruption costs one recomputation, never a crash and
        never silently wrong data.
        """
        path = self._path_for(result_key(config, seed, replication))
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
            stored = document["sha256"]
            if result_checksum(document["result"]) != stored:
                raise CorruptEntry(f"checksum mismatch in {path}")
            result = result_from_dict(document["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, SerializationError):
            # Corrupt/truncated/foreign entry: miss + quarantine so the
            # slot heals on the next put.
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def _write_atomic(self, path: Path, write: Callable[[BinaryIO], None]) -> None:
        """Write ``path`` via a ``.tmp-*`` sibling and ``os.replace``.

        A crash between the two leaves only an orphan :meth:`sweep`
        removes, never a truncated entry; concurrent writers of one key
        each replace the whole file, so the last one wins intact.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=_TMP_PREFIX, suffix=path.suffix
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                write(tmp)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def put(self, result: ScenarioResult) -> Path:
        """Store one replication result (atomic write) and return its path."""
        key = result_key(result.config, result.seed, result.replication)
        path = self._path_for(key)
        result_document = result_to_dict(result)
        document = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "sha256": result_checksum(result_document),
            "result": result_document,
        }
        payload = json.dumps(document, sort_keys=True).encode("utf-8")
        self._write_atomic(path, lambda tmp: tmp.write(payload))
        self.writes += 1
        return path

    def _load_graph(self, path: Path) -> Optional[CSRAdjacency]:
        """Read and verify one graph entry; ``None`` when absent or damaged.

        A damaged entry (checksum mismatch, torn archive, foreign bytes)
        is quarantined, exactly like a damaged result.
        """
        try:
            with np.load(path, allow_pickle=False) as archive:
                indptr = archive["indptr"]
                indices = archive["indices"]
                stored = str(archive["sha256"])
            if graph_checksum(indptr, indices) != stored:
                raise CorruptEntry(f"checksum mismatch in {path}")
            return CSRAdjacency(indptr=indptr, indices=indices)
        except FileNotFoundError:
            return None
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
            self._quarantine(path)
            return None

    def get_or_build_graph(
        self, key: str, build: Callable[[], CSRAdjacency]
    ) -> CSRAdjacency:
        """The stored graph for ``key``, else ``build()`` and store it.

        ``key`` must come from :func:`graph_key` for the inputs ``build``
        draws from, so a hit returns exactly the arrays a rebuild would.
        Either way the arrays come back read-only: the graph may be
        shared, and nothing downstream may mutate it.  A failed write
        costs a rebuild next time, never the run.
        """
        path = self.graph_path(key)
        adjacency = self._load_graph(path)
        if adjacency is None:
            adjacency = build()
            try:
                self._write_atomic(path, lambda tmp: _write_graph(tmp, adjacency))
            except OSError:
                pass
        adjacency.indptr.flags.writeable = False
        adjacency.indices.flags.writeable = False
        return adjacency

    def _entry_paths(self, suffix: str = _RESULT_SUFFIX) -> Iterator[Path]:
        """Paths of real entries — never ``.tmp-*`` orphans.

        ``suffix`` picks the entry kind: results (``.json``, the default)
        or graphs (``.npz``).

        ``pathlib`` globs *do* match dot-prefixed names (unlike shell
        globs), so ``*/*.json`` picks up ``.tmp-*.json`` files left by a
        ``put()`` that crashed between ``mkstemp`` and ``os.replace``;
        every tree walk must filter them or orphans get counted (and
        served) as entries.  Real entries live only in the two-character
        shard directories — that rule also excludes the sibling
        ``quarantine/`` and ``checkpoints/`` directories the same glob
        would otherwise reach.
        """
        if not self.root.exists():
            return
        for path in self.root.glob(f"*/*{suffix}"):
            if (
                not path.name.startswith(_TMP_PREFIX)
                and len(path.parent.name) == 2
            ):
                yield path

    def quarantine_paths(self) -> Iterator[Path]:
        """Entries moved aside after failing integrity verification."""
        quarantine = self.root / QUARANTINE_DIR
        if not quarantine.exists():
            return
        for suffix in (_RESULT_SUFFIX, _GRAPH_SUFFIX):
            yield from quarantine.glob(f"*{suffix}")

    def _tmp_paths(self) -> Iterator[Path]:
        """Orphaned temp files from crashed writes."""
        if not self.root.exists():
            return
        yield from self.root.glob(f"*/{_TMP_PREFIX}*")

    def __len__(self) -> int:
        """Number of stored results (walks the tree; diagnostic use).

        Graph entries are not results and are not counted.
        """
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> int:
        """Delete every stored entry; returns how many results were removed.

        Graph entries and orphaned temp files are removed as well, but
        not counted, matching :meth:`__len__`.
        """
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self._entry_paths(_GRAPH_SUFFIX):
            try:
                path.unlink()
            except OSError:
                pass
        self.sweep()
        return removed

    def sweep(self) -> int:
        """Remove orphaned ``.tmp-*`` files from crashed writes.

        Safe to run at any time: a live concurrent ``put()`` that loses
        its temp file simply fails that one write and retries on the next
        miss.  Returns the number of files removed.
        """
        removed = 0
        for path in self._tmp_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def graph_footprint(self) -> Dict[str, int]:
        """Stored graph entries and their bytes on disk.

        A 1M-phone graph is hundreds of MB, so the footprint is reported
        (stats, run manifests) rather than left to surprise.
        """
        count = size = 0
        for path in self._entry_paths(_GRAPH_SUFFIX):
            try:
                size += path.stat().st_size
            except OSError:
                continue
            count += 1
        return {"graph_entries": count, "graph_bytes": size}

    def stats(self) -> Dict[str, int]:
        """Hit/miss/write counters plus on-disk entry/orphan counts.

        The hit/miss/write counters are for results; graph entries are
        reported by their on-disk footprint.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "entries": len(self),
            "tmp_files": sum(1 for _ in self._tmp_paths()),
            "quarantine_files": sum(1 for _ in self.quarantine_paths()),
            **self.graph_footprint(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "GRAPH_GENERATOR",
    "QUARANTINE_DIR",
    "ResultCache",
    "default_cache_dir",
    "graph_checksum",
    "graph_key",
    "result_checksum",
    "result_key",
]
