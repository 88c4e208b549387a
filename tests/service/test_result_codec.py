"""The result document and the profile codec against full-flow oracles.

A result carries the initial flow once and every alternative as a delta
against it (:meth:`ETLGraph.to_delta_dict`), and one measure table for
every profile.  The decoded flows must be the planned ones in every
detail -- adjacency order, schemas, labels, annotations, lineage --
and merge the same signatures and fingerprints as flows built from
scratch by the full-flow oracle in ``tests/reference_results.py``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cache import DiskProfileCache, ProfileCache
from repro.cache.http import HTTPProfileCache
from repro.core import Planner, ProcessingConfiguration
from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import Schema
from repro.io.jsonflow import (
    WIRE_FORMAT,
    WireFormatError,
    merge_profile_documents,
    profiles_from_dict,
    profiles_to_dict,
)
from repro.quality.framework import default_registry
from repro.quality.manageability import Coupling
from repro.service import CacheServer, RedesignClient, RedesignServiceError
from repro.service import cache_server as cache_server_module
from repro.service.results import result_from_dict, result_to_dict
from repro.wire import WireError
from repro.workloads import purchases_flow
from tests.conftest import twelve_cases
from tests.keys import cache_key
from tests.reference_results import reference_result_from_dict, reference_result_to_dict


def _plan(build, budget: int):
    configuration = ProcessingConfiguration(pattern_budget=budget, simulation_runs=1)
    return Planner(configuration=configuration).plan(build())


def _wire(document: dict) -> dict:
    return json.loads(json.dumps(document))


def _bits(profile) -> dict:
    """Every number of a profile as its exact float text."""
    return {
        "scores": {c.value: float(s).hex() for c, s in profile.scores.items()},
        "values": {
            name: (float(v.value).hex(), float(v.normalized).hex())
            for name, v in profile.values.items()
        },
    }


def _assert_same_flow(decoded: ETLGraph, original: ETLGraph) -> None:
    assert decoded.to_dict() == original.to_dict()
    for op_id in original.operation_ids():
        assert decoded.predecessor_ids(op_id) == original.predecessor_ids(op_id)
        assert decoded.successor_ids(op_id) == original.successor_ids(op_id)
    assert decoded.signature() == original.signature()
    assert decoded.fingerprint() == original.fingerprint()


@pytest.mark.parametrize(("build", "budget"), twelve_cases())
def test_decoded_alternatives_are_the_planned_ones(build, budget):
    result = _plan(build, budget)
    decoded = result_from_dict(_wire(result_to_dict(result)))
    oracle = reference_result_from_dict(_wire(reference_result_to_dict(result)))
    assert decoded.fingerprint() == result.fingerprint() == oracle.fingerprint()
    _assert_same_flow(decoded.initial_flow, result.initial_flow)
    assert len(decoded.alternatives) == len(result.alternatives)
    for back, original, scratch in zip(
        decoded.alternatives, result.alternatives, oracle.alternatives
    ):
        _assert_same_flow(back.flow, original.flow)
        # merged from the decoded initial flow, equal to a from-scratch build
        assert back.flow.derived_from(decoded.initial_flow)
        assert back.flow.signature() == scratch.flow.signature()
        assert back.flow.fingerprint() == scratch.flow.fingerprint()
        assert back.label == original.label
        assert back.profile == original.profile
    assert decoded.skyline_indices == result.skyline_indices
    assert decoded.characteristics == result.characteristics


def test_decoding_shares_each_distinct_schema():
    result = _plan(purchases_flow, 1)
    decoded = result_from_dict(_wire(result_to_dict(result)))
    schemas: dict[tuple, Schema] = {}
    flows = [decoded.initial_flow] + [alternative.flow for alternative in decoded.alternatives]
    for flow in flows:
        for op in flow.operations():
            shared = schemas.setdefault(op.output_schema.fields, op.output_schema)
            assert op.output_schema is shared
    assert len(schemas) < sum(len(flow) for flow in flows)


def test_the_document_is_smaller_than_the_full_flows():
    result = _plan(purchases_flow, 1)
    delta = len(json.dumps(result_to_dict(result)))
    full = len(json.dumps(reference_result_to_dict(result)))
    assert delta * 3 < full


def _fan_in() -> ETLGraph:
    flow = ETLGraph(name="fan_in")
    for op_id, kind in (
        ("a", OperationKind.EXTRACT_TABLE),
        ("b", OperationKind.EXTRACT_TABLE),
        ("c", OperationKind.EXTRACT_TABLE),
        ("join", OperationKind.JOIN),
        ("load", OperationKind.LOAD_TABLE),
    ):
        flow.add_operation(Operation(kind, op_id=op_id))
    flow.add_edge("b", "join")
    flow.add_edge("a", "join", label="left")
    flow.add_edge("c", "join")
    flow.add_edge("join", "load")
    flow.record_pattern("built by hand")
    return flow


class TestDeltaReplay:
    def _round_trip(self, base: ETLGraph, flow: ETLGraph) -> None:
        document = _wire(flow.to_delta_dict(base))
        replayed = base.replay_delta_dict(document)
        _assert_same_flow(replayed, flow)
        assert replayed.signature() == ETLGraph.from_dict(flow.to_dict()).signature()

    def test_an_alternative_rebuilt_from_scratch_round_trips(self, linear_flow, make_config):
        result = Planner(configuration=make_config()).plan(linear_flow)
        for alternative in result.alternatives:
            rebuilt = ETLGraph.from_dict(alternative.flow.to_dict())
            assert not rebuilt.derived_from(result.initial_flow)
            self._round_trip(result.initial_flow, rebuilt)
        rebuilt = [
            dataclasses.replace(a, flow=ETLGraph.from_dict(a.flow.to_dict()))
            for a in result.alternatives
        ]
        result.alternatives[:] = rebuilt
        decoded = result_from_dict(_wire(result_to_dict(result)))
        assert decoded.fingerprint() == result.fingerprint()

    def test_an_unrelated_flow_round_trips(self, linear_flow, branching_flow):
        self._round_trip(linear_flow, branching_flow)
        self._round_trip(branching_flow, linear_flow)

    def test_reordered_relabelled_and_rewired_operations_round_trip(self):
        base = _fan_in()
        flow = base.copy(name="rewired")
        flow.remove_edge("b", "join")
        flow.add_edge("b", "join")  # "join" now reads a, c, b
        flow.set_edge_schema("join", "load", Schema.from_dict([{"name": "x", "dtype": "integer"}]))
        flow.relabel_operation("a", "a2")  # moves to the end of the order
        flow.update_operation("load", name="renamed load")
        flow.remove_operation("c")
        flow.set_annotation("note", [1, 2])
        flow.record_pattern("rewired")
        self._round_trip(base, flow)

    def test_an_operation_removed_and_re_added_keeps_its_new_position(self):
        base = _fan_in()
        flow = base.copy()
        op = flow.operation("b")
        flow.remove_operation("b")
        flow.add_operation(op)  # same payload, now last
        flow.add_edge("b", "join")
        assert flow.operation_ids()[-1] == "b"
        self._round_trip(base, flow)

    def test_an_operation_re_added_with_its_edges_in_place_round_trips(self):
        base = _fan_in()
        flow = base.copy()
        op = flow.operation("c")
        flow.remove_operation("c")
        flow.add_operation(op)  # now last
        flow.add_edge("c", "join")  # "join" lists its predecessors as before
        assert flow.operation_ids()[-1] == "c"
        assert flow.predecessor_ids("join") == base.predecessor_ids("join")
        self._round_trip(base, flow)

    def test_inconsistent_adjacency_is_refused(self):
        base = _fan_in()
        flow = base.copy()
        flow.remove_edge("c", "join")
        document = _wire(flow.to_delta_dict(base))
        del document["predecessors"]["join"]  # one side only
        with pytest.raises(ValueError, match="one side only"):
            base.replay_delta_dict(document)
        document = _wire(flow.to_delta_dict(base))
        document["successors"]["load"] = [["a", "", None]]  # closes a cycle
        document["predecessors"]["a"] = ["load"]
        with pytest.raises(ValueError, match="cycle"):
            base.replay_delta_dict(document)


@pytest.fixture(scope="module")
def baseline_profile():
    flow = purchases_flow(rows_per_source=500)
    planner = Planner()
    return planner.evaluate_flow(flow)


class TestProfileCodec:
    def test_every_default_measure_is_bit_equal_after_json(self, baseline_profile):
        assert set(baseline_profile.values) == set(default_registry().names())
        (back,) = profiles_from_dict(_wire(profiles_to_dict([baseline_profile])))
        assert _bits(back) == _bits(baseline_profile)
        assert back == baseline_profile

    def test_every_default_measure_is_bit_equal_through_a_ring_shard(self, baseline_profile):
        with CacheServer(ProfileCache()) as server:
            writer = HTTPProfileCache(server.url, timeout=5.0)
            writer.put(cache_key("p"), baseline_profile)
            writer.flush()
            server._hot.clear()  # served by the backend, then by the hot map
            for _ in range(2):
                (back,) = HTTPProfileCache(server.url, timeout=5.0).get_many([cache_key("p")])
                assert _bits(back) == _bits(baseline_profile)
                assert back == baseline_profile

    def test_every_default_measure_is_bit_equal_through_the_disk_tier(
        self, baseline_profile, tmp_path
    ):
        DiskProfileCache(tmp_path).put(cache_key("p"), baseline_profile)
        back = DiskProfileCache(tmp_path).get(cache_key("p"))  # read from the file
        assert _bits(back) == _bits(baseline_profile)
        assert back == baseline_profile

    def test_a_reused_measure_name_keeps_its_own_metadata(self, linear_flow):
        class CouplingInLinks(Coupling):
            unit = "links"
            description = "coupling, counted in links"

        registry = default_registry()
        registry.register(CouplingInLinks())
        custom = Planner(measures=registry).evaluate_flow(linear_flow)
        default = Planner().evaluate_flow(linear_flow)
        assert custom.values["coupling"].unit == "links"
        assert default.values["coupling"].unit != "links"
        document = _wire(profiles_to_dict([default, custom]))
        back_default, back_custom = profiles_from_dict(document)
        assert back_default == default and back_custom == custom
        (alone,) = profiles_from_dict(_wire(profiles_to_dict([custom])))
        assert alone == custom
        # a ring shard answers a batch by merging its hot one-profile documents
        merged = merge_profile_documents([profiles_to_dict([p]) for p in (default, custom)])
        assert merged == document
        with CacheServer(ProfileCache()) as server:
            writer = HTTPProfileCache(server.url, timeout=5.0)
            writer.put(cache_key("d"), default)
            writer.put(cache_key("c"), custom)
            writer.flush()
            reader = HTTPProfileCache(server.url, timeout=5.0)
            assert reader.get_many([cache_key("d"), cache_key("c")]) == [default, custom]

    def test_a_document_of_another_format_is_refused(self, baseline_profile, linear_flow):
        document = profiles_to_dict([baseline_profile])
        for stale in (1, WIRE_FORMAT + 1, None, True):
            with pytest.raises(WireFormatError):
                profiles_from_dict(dict(document, format=stale))
        result = Planner(configuration=ProcessingConfiguration(pattern_budget=1)).plan(
            linear_flow
        )
        with pytest.raises(WireFormatError):
            result_from_dict(_wire(reference_result_to_dict(result)))  # no format at all
        with pytest.raises(WireFormatError):
            result_from_dict(dict(result_to_dict(result), format=WIRE_FORMAT - 1))

    def test_a_ring_peer_of_another_format_is_refused(self, baseline_profile, monkeypatch):
        with CacheServer(ProfileCache()) as server:
            server.backend.put(cache_key("p"), baseline_profile)
            # the server refuses a request of another format...
            stale = HTTPProfileCache(server.url, timeout=5.0)
            with pytest.raises(WireError) as excinfo:
                stale._client.request_json(
                    "POST", "/get_many", {"format": 1, "digests": [cache_key("p")]}
                )
            assert excinfo.value.status == 400
            # ...and a client degrades on a response of another format
            real = cache_server_module.merge_profile_documents
            monkeypatch.setattr(
                cache_server_module,
                "merge_profile_documents",
                lambda documents: dict(real(documents), format=WIRE_FORMAT + 1),
            )
            client = HTTPProfileCache(server.url, timeout=5.0)
            assert client.get(cache_key("p")) is None
            assert client.degraded

    def test_the_redesign_client_refuses_another_format(self, monkeypatch):
        client = RedesignClient("http://127.0.0.1:1", timeout=1.0)
        monkeypatch.setattr(client, "result_raw", lambda job_id: {"format": 1})
        with pytest.raises(RedesignServiceError, match="format"):
            client.result("plan-1")
