"""CSR (compressed sparse row) contact networks for large populations.

The object-based :class:`~repro.topology.graph.ContactGraph` keeps one
``set`` per node; at the paper's density (mean contact-list size 80) that
is ~80 Python object references per phone, which caps practical
population size around 10⁴.  This module provides the same contact-list
semantics as two flat integer arrays:

``indptr``
    ``int64`` array of length ``n + 1``; the neighbours of phone ``i``
    live at ``indices[indptr[i]:indptr[i + 1]]``.
``indices``
    ``int32`` array of neighbour ids, sorted within each row (matching
    the sorted tuples from :meth:`ContactGraph.neighbor_lists`).

:func:`csr_powerlaw` is a vectorised configuration-model generator using
the *same calibration* as
:func:`~repro.topology.generators.powerlaw_configuration_model`
(truncated power law ``p(k) ∝ k^-exponent``, ``k_min`` solved so the
drawn mean compensates for duplicate-edge collapse), so degree
distributions agree statistically across the two generators even though
the edge-by-edge realisations differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generators import _truncated_powerlaw_pmf, solve_powerlaw_k_min
from .graph import ContactGraph


@dataclass(frozen=True)
class CSRAdjacency:
    """Reciprocal contact network in compressed sparse row form."""

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if len(self.indptr) < 1:
            raise ValueError("indptr must have at least one entry")
        if int(self.indptr[-1]) != len(self.indices):
            raise ValueError(
                f"indptr[-1]={int(self.indptr[-1])} does not match "
                f"len(indices)={len(self.indices)}"
            )

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice in ``indices``)."""
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Contact-list size per phone (``int64``, length ``num_nodes``)."""
        return np.diff(self.indptr)

    def mean_degree(self) -> float:
        if self.num_nodes == 0:
            return 0.0
        return len(self.indices) / self.num_nodes

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node`` (view into ``indices``)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    @classmethod
    def from_edges(cls, num_nodes: int, u: np.ndarray, v: np.ndarray) -> "CSRAdjacency":
        """Build from undirected edge endpoint arrays.

        Self-loops are dropped and duplicate edges collapse, mirroring
        :meth:`ContactGraph.add_edge` semantics.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        keep = u != v
        u, v = u[keep], v[keep]
        # Canonicalise at native width (the stub arrays arrive as int32;
        # widening before min/max doubles the memory traffic for nothing)
        # and only widen for the 64-bit (lo < hi) keys, deduped by sort +
        # adjacent-diff (an order of magnitude faster than np.unique's
        # hash path on multi-million-edge arrays).
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = lo.astype(np.int64, copy=False) * num_nodes + hi
        # Free the endpoint copies before the sort; held to the end they
        # sit under the build's peak memory.
        del u, v, keep, lo, hi
        key.sort()
        if key.size:
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        lo = key // num_nodes
        hi = key % num_nodes
        # Symmetrise into (source, neighbour) order so each row comes out
        # sorted like ContactGraph.neighbor_lists().  The forward run
        # (lo -> hi) is already key-sorted, so only the reverse run needs
        # an argsort — half the elements of sorting the concatenation —
        # and the two sorted runs merge via searchsorted rank arithmetic.
        # Keys never collide across runs: a forward key has lo < hi, a
        # reverse key hi > lo, so equality would force lo == hi.
        reverse_key = hi * num_nodes + lo
        reverse_order = np.argsort(reverse_key)
        reverse_sorted = reverse_key[reverse_order]
        del reverse_key
        edge_count = key.size
        rank = np.arange(edge_count, dtype=np.int64)
        indices = np.empty(2 * edge_count, dtype=np.int32)
        indices[np.searchsorted(reverse_sorted, key) + rank] = hi.astype(np.int32)
        indices[np.searchsorted(key, reverse_sorted) + rank] = lo[
            reverse_order
        ].astype(np.int32)
        counts = np.bincount(lo, minlength=num_nodes) + np.bincount(
            hi, minlength=num_nodes
        )
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=indices)

    @classmethod
    def from_contact_graph(cls, graph: ContactGraph) -> "CSRAdjacency":
        """Convert an object graph (e.g. a pinned validation topology)."""
        neighbor_lists = graph.neighbor_lists()
        counts = np.fromiter(
            (len(row) for row in neighbor_lists), dtype=np.int64, count=graph.num_nodes
        )
        indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if int(indptr[-1]) == 0:
            indices = np.empty(0, dtype=np.int32)
        else:
            indices = np.concatenate(
                [np.asarray(row, dtype=np.int32) for row in neighbor_lists if row]
            )
        return cls(indptr=indptr, indices=indices)

    def to_contact_graph(self) -> ContactGraph:
        """Convert back to an object graph (small n only)."""
        graph = ContactGraph(self.num_nodes)
        for node in range(self.num_nodes):
            for other in self.neighbors(node):
                if node < other:
                    graph.add_edge(node, int(other))
        return graph


def csr_powerlaw(
    num_nodes: int,
    mean_degree: float,
    exponent: float,
    rng: np.random.Generator,
    k_max: Optional[int] = None,
) -> CSRAdjacency:
    """Vectorised power-law configuration model straight to CSR.

    Same model family and calibration as
    :func:`~repro.topology.generators.powerlaw_configuration_model`
    (see that docstring for why the drawn mean sits ~13% above target),
    but built entirely with array operations: degree draws, stub
    shuffling, consecutive-pair matching, self-loop drop, duplicate
    collapse via unique edge keys, and an isolated-node fixup — all
    without per-edge Python objects.  Practical up to populations of
    millions (N=1M at mean degree 80 peaks around ~1 GB transient).
    """
    if num_nodes < 2:
        return CSRAdjacency(
            indptr=np.zeros(max(num_nodes, 0) + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int32),
        )
    if k_max is None:
        k_max = max(2, num_nodes // 2, int(math.ceil(mean_degree * 2)))
    k_max = min(k_max, num_nodes - 1)
    target = min(mean_degree * 1.13, float(k_max))
    k_min = solve_powerlaw_k_min(target, exponent, k_max)
    pmf = _truncated_powerlaw_pmf(exponent, k_min, k_max)
    ks = np.arange(k_min, k_max + 1)
    degrees = rng.choice(ks, size=num_nodes, p=pmf)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(0, num_nodes))] += 1

    stubs = np.repeat(np.arange(num_nodes, dtype=np.int32), degrees)
    rng.shuffle(stubs)
    half = len(stubs) // 2
    u = stubs[: 2 * half : 2]
    v = stubs[1 : 2 * half : 2]
    adjacency = CSRAdjacency.from_edges(num_nodes, u, v)

    isolated = np.nonzero(adjacency.degrees() == 0)[0]
    if isolated.size == 0:
        return adjacency
    # Mirror attach_isolated_nodes: one random distinct contact each.  The
    # handful of repair edges are spliced into the existing CSR arrays
    # (rebuilding from scratch would double the generation cost).
    partners = rng.integers(0, num_nodes - 1, size=isolated.size)
    partners = partners + (partners >= isolated)
    repair_lo = np.minimum(isolated, partners).astype(np.int64)
    repair_hi = np.maximum(isolated, partners).astype(np.int64)
    unique_keys = np.unique(repair_lo * num_nodes + repair_hi)
    repair_lo = unique_keys // num_nodes
    repair_hi = unique_keys % num_nodes
    return _insert_edges(adjacency, repair_lo, repair_hi)


def _insert_edges(
    adjacency: CSRAdjacency, u: np.ndarray, v: np.ndarray
) -> CSRAdjacency:
    """Splice a *small* batch of new undirected edges into a CSR graph.

    Edges must not already exist.  Cost is one pass over ``indices`` plus
    O(len(u)) row searches — far cheaper than a full rebuild when the
    batch is a few repair edges.
    """
    indptr, indices = adjacency.indptr, adjacency.indices
    rows = np.concatenate((u, v))
    values = np.concatenate((v, u)).astype(np.int32)
    positions = np.empty(rows.size, dtype=np.int64)
    for i, (row, value) in enumerate(zip(rows, values)):
        start, stop = indptr[row], indptr[row + 1]
        positions[i] = start + np.searchsorted(indices[start:stop], value)
    order = np.argsort(positions, kind="stable")
    new_indices = np.insert(indices, positions[order], values[order])
    new_indptr = indptr.copy()
    new_indptr[1:] += np.cumsum(np.bincount(rows, minlength=adjacency.num_nodes))
    return CSRAdjacency(indptr=new_indptr, indices=new_indices)


__all__ = ["CSRAdjacency", "csr_powerlaw"]
