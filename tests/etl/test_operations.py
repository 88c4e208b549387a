"""Unit tests for the operation taxonomy and operations as frozen values."""

import dataclasses
import json
import pickle
from dataclasses import replace

import pytest

from repro.etl.builder import FlowBuilder
from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationCategory, OperationKind
from repro.etl.properties import OperationProperties
from repro.etl.schema import DataType, Field, Schema


class TestOperationKind:
    def test_every_kind_has_a_category(self):
        for kind in OperationKind:
            assert isinstance(kind.category, OperationCategory)

    def test_source_kinds(self):
        assert OperationKind.EXTRACT_TABLE.is_source
        assert OperationKind.EXTRACT_FILE.is_source
        assert not OperationKind.FILTER.is_source

    def test_sink_kinds(self):
        assert OperationKind.LOAD_TABLE.is_sink
        assert OperationKind.LOAD_FILE.is_sink
        assert not OperationKind.DERIVE.is_sink

    def test_blocking_kinds(self):
        assert OperationKind.SORT.is_blocking
        assert OperationKind.AGGREGATE.is_blocking
        assert not OperationKind.FILTER.is_blocking

    def test_router_kinds(self):
        assert OperationKind.SPLIT.is_router
        assert OperationKind.PARTITION.is_router
        assert not OperationKind.JOIN.is_router

    def test_merger_kinds(self):
        assert OperationKind.JOIN.is_merger
        assert OperationKind.MERGE.is_merger
        assert OperationKind.UNION.is_merger
        assert not OperationKind.SPLIT.is_merger

    def test_data_quality_category(self):
        assert OperationKind.DEDUPLICATE.category is OperationCategory.DATA_QUALITY
        assert OperationKind.FILTER_NULLS.category is OperationCategory.DATA_QUALITY
        assert OperationKind.CHECKPOINT.category is OperationCategory.CONTROL


class TestOperation:
    def test_generated_identifiers_are_unique(self):
        a = Operation(OperationKind.FILTER)
        b = Operation(OperationKind.FILTER)
        assert a.op_id != b.op_id
        assert a.op_id.startswith("filter_")

    def test_name_defaults_to_id(self):
        op = Operation(OperationKind.DERIVE)
        assert op.name == op.op_id

    def test_explicit_identifiers_are_kept(self):
        op = Operation(OperationKind.FILTER, name="my filter", op_id="f1")
        assert op.op_id == "f1"
        assert op.name == "my filter"

    def test_category_and_flags_delegate_to_kind(self):
        op = Operation(OperationKind.EXTRACT_TABLE)
        assert op.is_source
        assert not op.is_sink
        assert op.category is OperationCategory.EXTRACTION

    def test_parallelism_defaults_to_one(self):
        op = Operation(OperationKind.DERIVE)
        assert op.parallelism == 1
        assert replace(op, config={"parallelism": 8}).parallelism == 8

    def test_replace_leaves_the_original_unchanged(self):
        op = Operation(
            OperationKind.FILTER,
            config={"predicate": "x > 1"},
            properties=OperationProperties(selectivity=0.4),
        )
        changed = replace(
            op,
            config={**op.config, "predicate": "changed"},
            properties=replace(op.properties, selectivity=0.9),
        )
        assert changed.config["predicate"] == "changed"
        assert changed.properties.selectivity == 0.9
        assert op.config["predicate"] == "x > 1"
        assert op.properties.selectivity == 0.4

    def test_replace_with_overrides(self):
        op = Operation(OperationKind.FILTER, name="original")
        renamed = replace(op, name="renamed")
        assert renamed.name == "renamed"
        assert renamed.op_id == op.op_id
        assert renamed.kind is OperationKind.FILTER

    def test_round_trip_serialisation(self):
        schema = Schema.of(Field("id", DataType.INTEGER, nullable=False, key=True))
        op = Operation(
            OperationKind.AGGREGATE,
            name="agg",
            op_id="agg_1",
            output_schema=schema,
            config={"group_by": ["id"]},
            properties=OperationProperties(cost_per_tuple=0.2, selectivity=0.1),
        )
        restored = Operation.from_dict(op.to_dict())
        assert restored.op_id == "agg_1"
        assert restored.kind is OperationKind.AGGREGATE
        assert restored.output_schema == schema
        assert restored.config == {"group_by": ["id"]}
        assert restored.properties.cost_per_tuple == pytest.approx(0.2)
        assert restored.properties.selectivity == pytest.approx(0.1)
        assert restored == op


class TestOperationIdsRefuseNul:
    """Flow fingerprints end each transition id with NUL, so no id may hold one."""

    def test_constructor(self):
        with pytest.raises(ValueError, match="NUL"):
            Operation(OperationKind.FILTER, op_id="a\x00b")

    def test_from_dict(self):
        data = Operation(OperationKind.FILTER, op_id="f1").to_dict()
        data["op_id"] = "f\x001"
        with pytest.raises(ValueError, match="NUL"):
            Operation.from_dict(data)
        document = {"operations": [data], "edges": []}
        with pytest.raises(ValueError, match="NUL"):
            ETLGraph.from_dict(document)

    def test_relabel_operation_leaves_the_flow_intact(self, linear_flow):
        before = linear_flow.to_dict()
        victim = linear_flow.operation_ids()[1]
        with pytest.raises(ValueError, match="NUL"):
            linear_flow.relabel_operation(victim, "renamed\x00")
        assert linear_flow.to_dict() == before

    def test_builder(self):
        builder = FlowBuilder("nul")
        with pytest.raises(ValueError, match="NUL"):
            builder.add(OperationKind.FILTER, "filter", op_id="\x00")
        assert len(builder.build(validate=False)) == 0

    def test_other_characters_are_accepted(self):
        for op_id in ("(a", "a')", ",", ":", "1:2:", "\x01", "\ud800"):
            assert Operation(OperationKind.FILTER, op_id=op_id).op_id == op_id


class TestOperationProperties:
    def test_defaults_are_sane(self):
        props = OperationProperties()
        assert props.selectivity == 1.0
        assert props.failure_rate == 0.0

    @pytest.mark.parametrize("field", ["error_rate", "null_rate", "duplicate_rate", "failure_rate"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError):
            OperationProperties(**{field: 1.5})
        with pytest.raises(ValueError):
            OperationProperties(**{field: -0.1})

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            OperationProperties(cost_per_tuple=-1.0)
        with pytest.raises(ValueError):
            OperationProperties(fixed_cost=-1.0)
        with pytest.raises(ValueError):
            OperationProperties(selectivity=-0.1)

    def test_replace_leaves_the_original_unchanged(self):
        props = OperationProperties(extra={"note": "x"})
        changed = replace(props, extra={"note": "changed"}, cost_per_tuple=99.0)
        assert changed.extra["note"] == "changed"
        assert props.extra["note"] == "x"
        assert props.cost_per_tuple != 99.0

    def test_replace_still_validates(self):
        with pytest.raises(ValueError):
            replace(OperationProperties(), failure_rate=1.5)

    def test_round_trip_serialisation(self):
        props = OperationProperties(
            cost_per_tuple=0.5, selectivity=0.3, failure_rate=0.1, extra={"k": 1}
        )
        restored = OperationProperties.from_dict(props.to_dict())
        assert restored.cost_per_tuple == pytest.approx(0.5)
        assert restored.selectivity == pytest.approx(0.3)
        assert restored.failure_rate == pytest.approx(0.1)
        assert restored.extra == {"k": 1}

    def test_from_dict_ignores_unknown_keys(self):
        restored = OperationProperties.from_dict({"cost_per_tuple": 0.2, "bogus": 1})
        assert restored.cost_per_tuple == pytest.approx(0.2)


class TestOperationsAreValues:
    """Operations taken from a flow are frozen: every write raises."""

    def test_config_write_raises(self, linear_flow):
        op = linear_flow.operation("flt")
        with pytest.raises(TypeError):
            op.config["predicate"] = "changed"
        for write in (
            lambda: op.config.update(predicate="changed"),
            lambda: op.config.pop("predicate"),
            lambda: op.config.setdefault("new", 1),
            lambda: op.config.clear(),
        ):
            with pytest.raises(TypeError):
                write()
        with pytest.raises(TypeError):
            del op.config["predicate"]
        assert op.config["predicate"] == "amount > 0"

    def test_properties_write_raises(self, linear_flow):
        op = linear_flow.operation("flt")
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.properties.selectivity = 0.1
        assert op.properties.selectivity == 0.8

    def test_extra_write_raises(self, linear_flow):
        op = linear_flow.operation("src")
        with pytest.raises(TypeError):
            op.properties.extra["note"] = "x"
        assert "note" not in op.properties.extra

    def test_operation_field_write_raises(self, linear_flow):
        op = linear_flow.operation("flt")
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.op_id = "renamed"
        assert op.op_id == "flt"
        assert linear_flow.operation("flt") is op

    def test_dict_round_trip_is_equal(self, linear_flow):
        for op in linear_flow.operations():
            assert Operation.from_dict(op.to_dict()) == op

    def test_mappings_read_like_dicts(self):
        op = Operation(
            OperationKind.DERIVE,
            config={"expressions": {"a": "b"}, "parallelism": 2},
            properties=OperationProperties(extra={"k": [1, 2]}),
        )
        config = {"expressions": {"a": "b"}, "parallelism": 2}
        assert op.config == config
        assert repr(op.config) == repr(config)
        assert json.dumps(op.config) == json.dumps(config)
        assert repr(op.properties.extra) == repr({"k": [1, 2]})
        writable = op.config.copy()
        writable["parallelism"] = 4
        assert op.parallelism == 2

    def test_pickle_keeps_values_read_only(self):
        op = Operation(OperationKind.DERIVE, config={"parallelism": 2})
        restored = pickle.loads(pickle.dumps(op))
        assert restored == op
        assert restored.config == {"parallelism": 2}
        with pytest.raises(TypeError):
            restored.config["parallelism"] = 3
