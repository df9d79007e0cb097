"""Tests of the benchmark itself (not part of the program's test suite).

Run from the repository root::

    python -m pytest perfbench/tests -q

Each workload is measured once, traced, with the minimum number of
rounds (about two minutes in total).
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.probes import Probe, Probes, _repro_modules
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3                         # not the default seed


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def patched_leftovers():
    """Every attribute of a loaded ``repro`` module or class that is
    still a probe wrapper."""
    found = []
    for mod in _repro_modules():
        for name, val in list(vars(mod).items()):
            if hasattr(val, "__probe_original__"):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for attr, member in vars(val).items():
                    if hasattr(member, "__probe_original__"):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


def _probe_targets():
    return {(id(p.owner), p.attr): vars(p.owner).get(p.attr)
            for p in harness.setup_probes() + harness.layer_probes()}


@pytest.fixture(scope="module")
def traced():
    """Every workload measured once with tracing, plus the probe
    targets as they were before any run."""
    before = _probe_targets()
    results = {name: harness.measure(w, SEED, seconds=0, trace=True)
               for name, w in WORKLOADS.items()}
    return before, results


def test_declared_names_are_valid_and_match_the_code(spec):
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    declared += [w["name"] for w in spec["workloads"]]
    assert len(declared) == len(set(declared))
    for name in declared:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(harness.EXERCISED) == list(WORKLOADS)
    layer_names = {n for n, _ in harness.PER_LAYER}
    for metrics in harness.EXERCISED.values():
        assert set(metrics) <= layer_names


def test_bounds_within_contract(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_emitted(traced, name):
    res = traced[1][name]
    assert set(res.e2e) == {n for n, _ in harness.E2E}
    for key, val in res.e2e.items():
        assert math.isfinite(val) and val > 0, (key, val)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_present(traced, name):
    res = traced[1][name]
    assert set(res.layers) == {n for n, _ in harness.PER_LAYER}
    assert all(math.isfinite(v) for v in res.layers.values())
    idle = [m for m in harness.EXERCISED[name] if not res.layers[m] > 0]
    assert not idle, f"{name}: exercised layers read 0: {idle}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_and_nothing_fails(traced, name):
    res = traced[1][name]
    assert res.correct, res.errors
    assert res.attempted > 0 and res.failed == 0


def test_wrappers_leave_nothing_patched(traced):
    before, _ = traced
    assert _probe_targets() == before
    assert patched_leftovers() == []


def test_wrappers_restored_when_the_run_raises():
    from repro.sampling import NeighborSampler
    original = vars(NeighborSampler)["sample"]
    with pytest.raises(RuntimeError):
        with Probes(harness.layer_probes()):
            assert vars(NeighborSampler)["sample"] is not original
            raise RuntimeError("boom")
    assert vars(NeighborSampler)["sample"] is original
    assert patched_leftovers() == []


def test_nested_spans_count_self_and_inclusive_time():
    class Owner:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    probes = [Probe(Owner, "outer", "a"), Probe(Owner, "inner", "b")]
    with Probes(probes) as p:
        assert Owner().outer() == 2
    assert p.inclusive["a"] >= p.inclusive["b"] > 0
    assert p.self_time["a"] == pytest.approx(
        p.inclusive["a"] - p.inclusive["b"])
    assert p.root_time == p.inclusive["a"]
    assert "outer" in vars(Owner) and not hasattr(Owner.outer,
                                                  "__probe_original__")


def test_overload_counts_failures_and_lowers_items_per_s(traced):
    """Above the serving knee requests time out: they count as failed,
    and useful work per host second falls even though the run ends
    sooner (the server sheds work)."""
    steady = traced[1]["serve-steady"]
    base = WORKLOADS["serve-steady"]
    overload = dataclasses.replace(base, base=base.base.with_(rate=800.0))
    res = harness.measure(overload, SEED, seconds=0, trace=False)
    assert res.correct, res.errors
    assert res.failed > 0 and res.failed < res.attempted
    assert res.e2e["wall_s"] < steady.e2e["wall_s"]
    assert res.e2e["items_per_s"] < steady.e2e["items_per_s"]


def test_same_seed_same_inputs():
    for w in WORKLOADS.values():
        assert w.dataset_args(SEED) == w.dataset_args(SEED)
        assert w.dataset_args(SEED) != w.dataset_args(SEED + 1)
