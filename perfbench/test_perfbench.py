"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
from compare import compare  # noqa: E402
from layers import LAYER_METRICS, iteration_metrics  # noqa: E402
from tracer import TARGETS, Tracer, load_spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every binding a tracer may replace: class attributes and, for
    module-level targets, each name any loaded repro module gives them."""
    found = {}
    for module_name, qualname, _, _ in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = qualname.rpartition(".")
        if owner_path:
            owner = getattr(module, owner_path)
            found[(id(owner), attr)] = (owner, attr, owner.__dict__[attr])
            continue
        original = getattr(module, attr)
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and loaded is not None:
                for binding, value in vars(loaded).items():
                    if value is original:
                        found[(id(loaded), binding)] = (loaded, binding, original)
    return found


def test_wrappers_restore_originals(tmp_path):
    import repro.experiments  # noqa: F401
    import repro.service.shard  # noqa: F401  (aliases run_indexed_job)

    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        before = _bindings()  # resolved through the wrappers' names
        from repro.topology.csr import csr_powerlaw

        csr_powerlaw(300, 6.0, 2.5, np.random.default_rng(1))
    finally:
        tracer.uninstall()
    originals = _bindings()
    assert len(originals) >= len(TARGETS)
    for key, (owner, attr, value) in originals.items():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is value
    from repro.core import parallel
    from repro.service import shard

    assert shard.run_indexed_job is parallel._run_indexed
    spans = {span[0]: span for span in load_spans(tmp_path)}
    assert spans["topology.from_edges"][4] == spans["topology.csr_powerlaw"][3]
    assert spans["topology.csr_powerlaw"][4] is None
    assert len(before) == len(originals)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for value in vars(module).values():
                assert not hasattr(value, "span_name"), (name, value)
                if isinstance(value, type):
                    for member in vars(value).values():
                        member = getattr(member, "__func__", member)
                        assert not hasattr(member, "span_name"), (name, member)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    produced = iteration_metrics([], wall=1.0, workers=2, main_pid=1, client={})
    assert set(produced) | {"trace.overhead_pct"} == set(LAYER_METRICS)


def test_layer_metrics_split_topology_and_pool():
    spans = [
        ["topology.csr_powerlaw", 0.0, 3.0, "1:1", None, {"key": "a"}],
        ["topology.from_edges", 1.0, 2.5, "1:2", "1:1", {}],
        ["topology.csr_powerlaw", 4.0, 6.0, "1:3", None, {"key": "a"}],
        ["pool.job", 0.0, 5.0, "2:1", None, {}],
        ["pool.job", 0.0, 3.0, "3:1", None, {}],
    ]
    m = iteration_metrics(spans, wall=8.0, workers=2, main_pid=1, client={})
    assert m["topology.build_s"] == 5.0
    assert m["topology.from_edges_s"] == 1.5
    assert m["topology.draw_s"] == 3.5
    assert (m["topology.calls"], m["topology.distinct_graphs"]) == (2, 1)
    assert m["topology.useful_ratio"] == 0.5
    assert m["pool.efficiency"] == 0.5 and m["pool.idle_s"] == 8.0
    assert m["trace.coverage_pct"] == 100.0 * 5.0 / 8.0


def _record(workload, numpy_version, wall):
    metrics = {m["name"]: {"value": wall, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    fingerprint = {"numpy": numpy_version, "python": "3.11"}
    return {"workload": workload, "trace": 0, "fingerprint": fingerprint, "metrics": metrics}


def test_compare_reports_fingerprint_difference_before_deltas(tmp_path):
    name = SPEC["workloads"][0]["name"]
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(_record(name, "1.26.0", 10.0)) + "\n")
    new.write_text(json.dumps(_record(name, "2.4.6", 11.0)) + "\n")
    lines = compare(str(base), str(new), SPEC)
    warning = next(i for i, line in enumerate(lines) if "numpy" in line)
    delta = next(i for i, line in enumerate(lines) if "wall_s" in line)
    assert lines[warning].startswith("WARNING") and warning < delta
    same = compare(str(base), str(base), SPEC)
    assert not any(line.startswith("WARNING") for line in same)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
