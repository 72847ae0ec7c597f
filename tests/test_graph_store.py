"""The content-addressed xl contact-graph store inside the result cache.

An xl graph is a pure function of the network parameters, the
``topology`` stream's seed and the NumPy version, so the engine may load
a stored graph instead of drawing it.  These tests pin the contract that
makes that safe: a result is byte-identical with no store, a cold store
and a warm store, under every executor and start method; the key moves
with every input the graph depends on; stored arrays are read-only; and
damaged entries are quarantined and rebuilt like damaged results.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from repro.core.cache import ResultCache, graph_key
from repro.core.parallel import START_METHOD_ENV, mp_context
from repro.core.parameters import BlacklistConfig, NetworkParameters
from repro.core.scenarios import baseline_scenario
from repro.core.serialization import result_to_dict
from repro.core.simulation import run_scenario
from repro.des.random import StreamFactory
from repro.experiments.scheduler import ReplicationJob, ReplicationScheduler
from repro.faults import flip_byte
from repro.resilience import RetryPolicy
from repro.service import CampaignDaemon
from repro.topology.csr import csr_powerlaw

SEEDS = (3, 11)
REPLICATIONS = (0, 1)


@pytest.fixture(scope="module")
def scenario():
    """Virus 1 on the xl engine: contact-list targeting draws a graph."""
    return baseline_scenario(
        1, network=NetworkParameters(population=1500), duration=48.0
    ).with_engine("xl")


def _canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def _topology_seed(seed: int, replication: int) -> np.random.SeedSequence:
    """The seed the xl engine's topology build draws from."""
    stream = StreamFactory(seed).replication(replication).stream("topology")
    return stream.bit_generator.seed_seq


def _graph_files(cache: ResultCache):
    return sorted(cache._entry_paths(".npz"))


def test_no_cold_and_warm_store_give_identical_results(scenario, tmp_path):
    cache = ResultCache(tmp_path / "c")
    for seed in SEEDS:
        for replication in REPLICATIONS:
            fresh = _canonical(run_scenario(scenario, seed, replication))
            cold = _canonical(run_scenario(scenario, seed, replication, graphs=cache))
            warm = _canonical(run_scenario(scenario, seed, replication, graphs=cache))
            assert fresh == cold == warm
    assert cache.graph_footprint()["graph_entries"] == len(SEEDS) * len(REPLICATIONS)


def test_graphs_are_shared_across_scenarios_of_one_network(scenario, tmp_path):
    # A frontier or response sweep varies everything but the network.
    cache = ResultCache(tmp_path / "c")
    mitigated = scenario.with_responses(BlacklistConfig(threshold=5), suffix="bl")
    for config in (scenario, mitigated):
        run_scenario(config, 3, 0, graphs=cache)
    assert cache.graph_footprint()["graph_entries"] == 1
    assert _canonical(run_scenario(mitigated, 3, 0)) == _canonical(
        run_scenario(mitigated, 3, 0, graphs=cache)
    )


def test_key_changes_with_every_input():
    network = NetworkParameters(population=1500)
    base = graph_key(network, _topology_seed(3, 0))
    assert base == graph_key(network, _topology_seed(3, 0))
    variants = [
        graph_key(network, _topology_seed(4, 0)),
        graph_key(network, _topology_seed(3, 1)),
        graph_key(replace(network, population=1501), _topology_seed(3, 0)),
        graph_key(replace(network, mean_contact_list_size=40.0), _topology_seed(3, 0)),
        graph_key(replace(network, powerlaw_exponent=2.5), _topology_seed(3, 0)),
        graph_key(replace(network, topology_model="random"), _topology_seed(3, 0)),
        graph_key(network, _topology_seed(3, 0), numpy_version="0.0.0"),
        graph_key(network, _topology_seed(3, 0), schema_version=-1),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_key_ignores_parameters_the_graph_does_not_depend_on():
    network = NetworkParameters(population=1500)
    assert graph_key(network, _topology_seed(3, 0)) == graph_key(
        replace(network, susceptible_fraction=0.5), _topology_seed(3, 0)
    )


def test_built_and_loaded_graphs_are_read_only(scenario, tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = graph_key(scenario.network, _topology_seed(3, 0))
    calls = []

    def build():
        calls.append(1)
        return csr_powerlaw(50, 4.0, 1.8, np.random.default_rng(1))

    built = cache.get_or_build_graph(key, build)
    loaded = cache.get_or_build_graph(key, build)
    assert len(calls) == 1
    for adjacency in (built, loaded):
        for array in (adjacency.indptr, adjacency.indices):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
    assert np.array_equal(built.indptr, loaded.indptr)
    assert np.array_equal(built.indices, loaded.indices)
    assert loaded.indices.dtype == np.int32 and loaded.indptr.dtype == np.int64


def test_entries_are_byte_identical_across_writers(scenario, tmp_path):
    # Two workers racing on one key both write; the bytes must not depend
    # on which one wins.
    first, second = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
    run_scenario(scenario, 3, 0, graphs=first)
    run_scenario(scenario, 3, 0, graphs=second)
    [a], [b] = _graph_files(first), _graph_files(second)
    assert a.read_bytes() == b.read_bytes()


def test_tampered_arrays_fail_the_embedded_checksum(scenario, tmp_path):
    cache = ResultCache(tmp_path / "c")
    expected = _canonical(run_scenario(scenario, 3, 0))
    run_scenario(scenario, 3, 0, graphs=cache)
    [path] = _graph_files(cache)
    with np.load(path) as archive:
        indptr, indices, sha = (archive[k] for k in ("indptr", "indices", "sha256"))
    swapped = indices.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # a valid archive, wrong contents
    with open(path, "wb") as handle:
        np.savez(handle, indptr=indptr, indices=swapped, sha256=sha)
    assert _canonical(run_scenario(scenario, 3, 0, graphs=cache)) == expected
    assert cache.quarantined == 1


def test_scheduler_under_spawn_stores_each_graph_once(scenario, tmp_path, monkeypatch):
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("start method 'spawn' unavailable on this platform")
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    assert mp_context().get_start_method() == "spawn"
    configs = [
        scenario,
        scenario.with_responses(BlacklistConfig(threshold=5), suffix="bl"),
    ]
    jobs = [
        ReplicationJob(config, 3, replication)
        for config in configs
        for replication in REPLICATIONS
    ]
    cache = ResultCache(tmp_path / "c")
    with ReplicationScheduler(processes=2, cache=cache, auto_degrade=False) as sched:
        cached = sched.run_jobs(jobs)
        assert sched.dispatch_decisions[-1]["mode"] == "parallel"
        telemetry = sched.cache_telemetry()
    with ReplicationScheduler(processes=1) as sched:
        uncached = sched.run_jobs(jobs)
    assert [_canonical(r) for r in cached] == [_canonical(r) for r in uncached]
    assert len(_graph_files(cache)) == len(REPLICATIONS)
    assert telemetry["graph_entries"] == len(REPLICATIONS)
    assert telemetry["graph_bytes"] == sum(p.stat().st_size for p in _graph_files(cache))


def test_supervised_and_daemon_pools_use_the_store(scenario, tmp_path, monkeypatch):
    jobs = [ReplicationJob(scenario, 3, replication) for replication in REPLICATIONS]
    expected = [_canonical(run_scenario(scenario, 3, r)) for r in REPLICATIONS]

    cache = ResultCache(tmp_path / "supervised")
    with ReplicationScheduler(
        processes=2, cache=cache, resilience=RetryPolicy()
    ) as sched:
        assert [_canonical(r) for r in sched.run_jobs(jobs)] == expected
    assert len(_graph_files(cache)) == len(REPLICATIONS)

    # The daemon's own pool under spawn: its cache reaches the workers
    # pickled as the graph store, and results stream back.
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("start method 'spawn' unavailable on this platform")
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    daemon = CampaignDaemon(tmp_path / "spool", shards=2)
    results = {}
    try:
        assert daemon.pool._ctx.get_start_method() == "spawn"
        daemon.pool.run(
            [(i, job.config, job.seed, job.replication) for i, job in enumerate(jobs)],
            results.__setitem__,
        )
    finally:
        daemon.close()
    assert [_canonical(results[i]) for i in range(len(jobs))] == expected
    assert len(_graph_files(daemon.cache)) == len(REPLICATIONS)


def test_no_cache_scheduler_writes_no_graphs(scenario, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with ReplicationScheduler(processes=1) as sched:
        sched.run_jobs([ReplicationJob(scenario, 3, 0)])
    assert not any(tmp_path.rglob("*.npz"))


@pytest.mark.faultinject
class TestGraphEntryFaults:
    def test_bit_flipped_entry_is_quarantined_and_rebuilt(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "c")
        expected = _canonical(run_scenario(scenario, 3, 0))
        run_scenario(scenario, 3, 0, graphs=cache)
        [path] = _graph_files(cache)
        original = path.read_bytes()
        flip_byte(path)
        assert _canonical(run_scenario(scenario, 3, 0, graphs=cache)) == expected
        assert cache.quarantined == 1
        assert [p.name for p in cache.quarantine_paths()] == [path.name]
        assert path.read_bytes() == original  # rebuilt and re-written
        assert cache.stats()["quarantine_files"] == 1

    def test_sweep_removes_graph_orphans(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_scenario(scenario, 3, 0, graphs=cache)
        [entry] = _graph_files(cache)
        orphan = entry.parent / ".tmp-interrupted0.npz"
        orphan.write_bytes(b"PK partial")
        assert cache.stats()["graph_entries"] == 1  # the orphan is no entry
        assert cache.sweep() == 1
        assert not orphan.exists() and entry.exists()

    def test_clear_removes_graphs_and_len_counts_results_only(
        self, scenario, tmp_path
    ):
        cache = ResultCache(tmp_path / "c")
        cache.put(run_scenario(scenario, 3, 0, graphs=cache))
        stats = cache.stats()
        assert len(cache) == stats["entries"] == 1
        assert stats["graph_entries"] == 1
        assert stats["graph_bytes"] == _graph_files(cache)[0].stat().st_size
        assert cache.clear() == 1
        assert _graph_files(cache) == []
        assert cache.graph_footprint() == {"graph_entries": 0, "graph_bytes": 0}
