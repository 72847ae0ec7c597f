"""Tests for the vectorized waypoint field + spatial-hash grid.

The grid is the xl Bluetooth channel's partner source, so its two hard
contracts are pinned both by seeded cases and by Hypothesis properties:

* ``neighbors_within`` returns exactly the brute-force within-radius set;
* ``sample_partners`` returns the very array a full-population spatial
  hash (the frozen reference below) returns for the same generator, so
  bucketing only the queried neighborhoods never reorders a candidate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.parameters import MobilityParameters
from repro.mobility import (
    GridSnapshot,
    GridWaypointField,
    brute_force_neighbors,
)


def make_field(n=200, arena=100.0, radius=8.0, seed=0) -> GridWaypointField:
    params = MobilityParameters(
        arena_size=arena,
        speed_min=10.0,
        speed_max=40.0,
        pause_min=0.0,
        pause_max=0.5,
        bluetooth_radius=radius,
    )
    return GridWaypointField(n, params, np.random.default_rng(seed))


def full_hash_candidates(positions, arena_size, radius, sources):
    """Frozen full-population spatial hash: ``(owner, candidate)`` oracle.

    Buckets every phone with one stable argsort over all cell ids and a
    per-cell start/count table, then fans each source out over its 9-cell
    neighborhood in (dx, dy) order.  ``GridSnapshot`` must reproduce its
    output element for element.
    """
    sources = np.asarray(sources, dtype=np.int64)
    occupancy_cap = 2 * int(math.isqrt(max(1, positions.shape[0]))) + 1
    ncells = max(1, min(int(arena_size // radius), occupancy_cap))
    cell_size = arena_size / ncells
    cx = np.clip((positions[:, 0] // cell_size).astype(np.int64), 0, ncells - 1)
    cy = np.clip((positions[:, 1] // cell_size).astype(np.int64), 0, ncells - 1)
    cell_id = cx * ncells + cy
    order = np.argsort(cell_id, kind="stable")
    cell_counts = np.bincount(cell_id, minlength=ncells * ncells)
    cell_starts = np.concatenate(([0], np.cumsum(cell_counts)[:-1]))
    owners, candidates = [], []
    for index, source in enumerate(sources):
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = cx[source] + dx, cy[source] + dy
                if not (0 <= nx < ncells and 0 <= ny < ncells):
                    continue
                cell = nx * ncells + ny
                start = cell_starts[cell]
                for phone in order[start:start + cell_counts[cell]]:
                    delta = positions[phone] - positions[source]
                    if phone != source and (
                        delta[0] ** 2 + delta[1] ** 2 <= radius**2
                    ):
                        owners.append(index)
                        candidates.append(phone)
    return np.asarray(owners, dtype=np.int64), np.asarray(candidates, dtype=np.int64)


def full_hash_partners(positions, arena_size, radius, sources, rng):
    """Reference ``sample_partners`` over the frozen full hash."""
    partners = np.full(len(sources), -1, dtype=np.int64)
    owner, candidate = full_hash_candidates(positions, arena_size, radius, sources)
    if candidate.size == 0:
        return partners
    keys = rng.random(candidate.size)
    order = np.lexsort((keys, owner))
    owner_sorted = owner[order]
    last = np.concatenate((owner_sorted[1:] != owner_sorted[:-1], [True]))
    partners[owner_sorted[last]] = candidate[order[last]]
    return partners


def assert_matches_full_hash(positions, arena_size, radius, sources, seed=0):
    """Same candidates, same partners and same generator state afterwards."""
    sources = np.asarray(sources, dtype=np.int64)
    snapshot = GridSnapshot(positions, arena_size, radius)
    owner, candidate = snapshot._candidates(sources)
    expected_owner, expected_candidate = full_hash_candidates(
        positions, arena_size, radius, sources
    )
    np.testing.assert_array_equal(owner, expected_owner)
    np.testing.assert_array_equal(candidate, expected_candidate)
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    partners = snapshot.sample_partners(sources, rng)
    expected = full_hash_partners(positions, arena_size, radius, sources, reference_rng)
    np.testing.assert_array_equal(partners, expected)
    assert rng.random() == reference_rng.random()
    return snapshot, partners


class TestPartnerOracle:
    """``sample_partners`` is bit-identical to the full-hash reference."""

    def test_empty_sources(self):
        positions = np.random.default_rng(0).uniform(0.0, 50.0, size=(30, 2))
        _snapshot, partners = assert_matches_full_hash(
            positions, 50.0, 5.0, np.empty(0, dtype=np.int64)
        )
        assert partners.size == 0

    def test_duplicated_sources_draw_independently(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(0.0, 30.0, size=(200, 2))
        sources = np.repeat(rng.integers(0, 200, size=5), 40)
        _snapshot, partners = assert_matches_full_hash(positions, 30.0, 4.0, sources, 7)
        assert len(set(partners[:40].tolist())) > 1

    def test_phones_on_the_far_edge_use_the_clip_path(self):
        rng = np.random.default_rng(2)
        arena = 40.0
        positions = rng.uniform(0.0, arena, size=(120, 2))
        positions[:20, 0] = arena
        positions[10:30, 1] = arena
        positions[40:50] = arena
        snapshot, _partners = assert_matches_full_hash(
            positions, arena, 5.0, np.arange(120), 3
        )
        # arena // cell_size would be one past the last cell without clip.
        assert snapshot.cell_x[:20].max() == snapshot.ncells - 1

    def test_phones_on_cell_boundaries(self):
        rng = np.random.default_rng(3)
        arena, radius = 60.0, 6.0
        cell_size = arena / GridSnapshot(np.zeros((150, 2)), arena, radius).ncells
        positions = rng.integers(0, 11, size=(150, 2)) * cell_size
        assert_matches_full_hash(positions, arena, radius, np.arange(150), 4)

    def test_single_cell(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0.0, 10.0, size=(25, 2))
        snapshot, _partners = assert_matches_full_hash(
            positions, 10.0, 50.0, rng.integers(0, 25, size=60), 5
        )
        assert snapshot.ncells == 1

    def test_sparse_occupancy_cap(self):
        # A 1 m radius in a 1 km arena would want 1000 cells per axis; ten
        # phones cap it at 2 * isqrt(10) + 1 = 7.
        rng = np.random.default_rng(5)
        positions = rng.uniform(0.0, 1000.0, size=(10, 2))
        positions[1] = positions[0] + 0.5
        snapshot, partners = assert_matches_full_hash(
            positions, 1000.0, 1.0, np.array([0, 0, 1, 2]), 6
        )
        assert snapshot.ncells == 7
        assert partners[:2].tolist() == [1, 1]


class TestGridSnapshot:
    def test_neighbors_match_brute_force_seeded_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 120))
            arena = float(rng.uniform(5.0, 500.0))
            radius = float(rng.uniform(0.5, arena))
            positions = rng.uniform(0.0, arena, size=(n, 2))
            snapshot = GridSnapshot(positions, arena, radius)
            for phone in rng.integers(0, n, size=5):
                expected = np.sort(brute_force_neighbors(positions, int(phone), radius))
                actual = snapshot.neighbors_within(int(phone))
                np.testing.assert_array_equal(actual, expected)

    def test_sampled_partner_always_in_range(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(0.0, 50.0, size=(300, 2))
        snapshot = GridSnapshot(positions, 50.0, 5.0)
        sources = rng.integers(0, 300, size=500)
        partners = snapshot.sample_partners(sources, rng)
        for source, partner in zip(sources, partners):
            if partner < 0:
                assert brute_force_neighbors(positions, int(source), 5.0).size == 0
            else:
                assert partner != source
                assert partner in brute_force_neighbors(positions, int(source), 5.0)

    def test_sampled_partner_roughly_uniform(self):
        # Phone 0 with exactly two equidistant neighbors: each should win
        # about half of many independent encounters.
        positions = np.array([[10.0, 10.0], [11.0, 10.0], [9.0, 10.0], [90.0, 90.0]])
        snapshot = GridSnapshot(positions, 100.0, 5.0)
        rng = np.random.default_rng(2)
        sources = np.zeros(2000, dtype=np.int64)
        partners = snapshot.sample_partners(sources, rng)
        counts = np.bincount(partners, minlength=4)
        assert counts[0] == counts[3] == 0
        assert abs(counts[1] - counts[2]) < 200  # ~1000 each

    def test_isolated_source_fizzles(self):
        positions = np.array([[1.0, 1.0], [99.0, 99.0]])
        snapshot = GridSnapshot(positions, 100.0, 5.0)
        partners = snapshot.sample_partners(
            np.array([0, 1]), np.random.default_rng(3)
        )
        assert partners.tolist() == [-1, -1]

    def test_validation(self):
        positions = np.zeros((3, 2))
        with pytest.raises(ValueError):
            GridSnapshot(positions, 10.0, 0.0)
        with pytest.raises(ValueError):
            GridSnapshot(positions, 0.0, 1.0)

    def test_radius_larger_than_arena_single_cell(self):
        # ncells clamps to 1: the whole arena is one cell and every other
        # phone is a candidate.
        rng = np.random.default_rng(4)
        positions = rng.uniform(0.0, 10.0, size=(20, 2))
        snapshot = GridSnapshot(positions, 10.0, 50.0)
        assert snapshot.ncells == 1
        assert snapshot.neighbors_within(0).size == 19


class TestGridWaypointField:
    def test_positions_stay_in_arena_over_long_horizon(self):
        field = make_field()
        for time in (0.0, 1.0, 10.0, 100.0, 1000.0):
            points = field.positions(time)
            assert np.all(points >= 0.0)
            assert np.all(points <= 100.0)

    def test_positions_continuous_in_time(self):
        field = make_field(n=20)
        previous = field.positions(0.0)
        for step in range(1, 100):
            current = field.positions(step * 0.05)
            jump = np.hypot(*(current - previous).T)
            # Max speed 40 units/h x 0.05 h = 2 units per step.
            assert np.all(jump <= 2.0 + 1e-9)
            previous = current

    def test_time_monotonicity_enforced(self):
        field = make_field(n=5)
        field.positions(10.0)
        with pytest.raises(ValueError, match="monotone"):
            field.positions(5.0)

    def test_snapshot_defaults_to_bluetooth_radius(self):
        field = make_field(radius=8.0)
        snapshot = field.snapshot(1.0)
        assert snapshot.radius == 8.0
        assert field.snapshot(2.0, radius=3.0).radius == 3.0

    def test_deterministic_given_seed(self):
        a = make_field(seed=7).positions(25.0)
        b = make_field(seed=7).positions(25.0)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        params = MobilityParameters()
        with pytest.raises(ValueError):
            GridWaypointField(0, params, np.random.default_rng(0))


# -- Hypothesis property: grid == brute force --------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def grid_cases(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    arena = draw(st.floats(min_value=1.0, max_value=1000.0,
                           allow_nan=False, allow_infinity=False))
    radius = draw(st.floats(min_value=0.01, max_value=2.0,
                            allow_nan=False, allow_infinity=False)) * arena
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    positions = np.random.default_rng(seed).uniform(0.0, arena, size=(n, 2))
    phone = draw(st.integers(min_value=0, max_value=n - 1))
    return positions, arena, radius, phone


@settings(max_examples=200, deadline=None)
@given(grid_cases())
def test_property_grid_equals_brute_force(case):
    positions, arena, radius, phone = case
    snapshot = GridSnapshot(positions, arena, radius)
    expected = np.sort(brute_force_neighbors(positions, phone, radius))
    np.testing.assert_array_equal(snapshot.neighbors_within(phone), expected)


@st.composite
def partner_cases(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    arena = draw(st.floats(min_value=1.0, max_value=1000.0,
                           allow_nan=False, allow_infinity=False))
    radius = draw(st.floats(min_value=0.01, max_value=1.5,
                            allow_nan=False, allow_infinity=False)) * arena
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, arena, size=(n, 2))
    # Some phones sit exactly on cell boundaries or on the far edge.
    cell_size = arena / GridSnapshot(positions, arena, radius).ncells
    on_grid = rng.random((n, 2)) < 0.2
    positions[on_grid] = np.minimum(
        rng.integers(0, 1 + int(arena // cell_size), size=int(on_grid.sum())) * cell_size,
        arena,
    )
    positions[rng.random((n, 2)) < 0.1] = arena
    sources = rng.integers(0, n, size=draw(st.integers(min_value=0, max_value=3 * n)))
    return positions, arena, radius, sources, seed


@settings(max_examples=200, deadline=None)
@given(partner_cases())
def test_property_partners_equal_full_hash(case):
    positions, arena, radius, sources, seed = case
    assert_matches_full_hash(positions, arena, radius, sources, seed)
