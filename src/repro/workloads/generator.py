"""Parameterised random ETL flow generator.

The scalability claims of the paper (thousands of alternative flows from
processes with tens of operators) are exercised on generated flows of
controlled size: the generator produces valid ETL flows with a requested
number of operations, multiple sources, a mix of row-level
transformations, occasional joins and aggregations, and one or more loads.
Generation is seeded and therefore reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.etl.builder import FlowBuilder
from repro.etl.graph import ETLGraph
from repro.etl.schema import DataType, Field, Schema


@dataclass(frozen=True)
class RandomFlowConfig:
    """Parameters of the random flow generator.

    Attributes
    ----------
    operations:
        Approximate number of operations in the generated flow (the
        generator may add a handful of structural operations such as the
        final loads).
    sources:
        Number of extraction operations.
    rows_per_source:
        Base extraction volume per source.
    seed:
        Seed of the generator.
    failure_prone_fraction:
        Fraction of transformation operations given a non-zero failure
        rate (so that reliability patterns have something to improve).
    """

    operations: int = 20
    sources: int = 3
    rows_per_source: int = 10_000
    seed: int = 42
    failure_prone_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.operations < 4:
            raise ValueError("a generated flow needs at least 4 operations")
        if self.sources < 1:
            raise ValueError("a generated flow needs at least one source")
        if self.sources > self.operations // 2:
            raise ValueError("too many sources for the requested number of operations")


def _random_schema(rng: random.Random, index: int) -> Schema:
    """A plausible record schema with keys, numerics, dates and nullable fields."""
    fields = [
        Field(f"id_{index}", DataType.INTEGER, nullable=False, key=True),
        Field(f"code_{index}", DataType.STRING, nullable=True),
        Field(f"amount_{index}", DataType.DECIMAL, nullable=True),
        Field(f"quantity_{index}", DataType.INTEGER, nullable=True),
        Field(f"event_date_{index}", DataType.DATE, nullable=True),
    ]
    extra = rng.randint(0, 3)
    for i in range(extra):
        fields.append(Field(f"attr_{index}_{i}", DataType.STRING, nullable=True))
    return Schema(tuple(fields))


def random_flow(config: RandomFlowConfig | None = None) -> ETLGraph:
    """Generate a random but valid ETL flow according to ``config``."""
    config = config or RandomFlowConfig()
    rng = random.Random(config.seed)
    builder = FlowBuilder(f"generated_flow_{config.seed}_{config.operations}")

    # Sources.  Each branch is tracked by the id of its current head.
    branch_heads: list[str] = []
    for index in range(config.sources):
        source = builder.extract_table(
            f"extract_source_{index}",
            schema=_random_schema(rng, index),
            rows=int(config.rows_per_source * rng.uniform(0.5, 1.5)),
            null_rate=rng.uniform(0.0, 0.08),
            duplicate_rate=rng.uniform(0.0, 0.04),
            error_rate=rng.uniform(0.0, 0.05),
            freshness_lag=rng.uniform(10.0, 600.0),
            update_frequency=rng.choice([1.0, 4.0, 24.0, 96.0]),
        )
        branch_heads.append(source.op_id)

    # Transformation operations distributed over the branches.
    remaining = config.operations - config.sources - 1  # reserve one load
    transformation_count = 0
    while transformation_count < remaining:
        branch_index = rng.randrange(len(branch_heads))
        head = branch_heads[branch_index]
        choice = rng.random()
        name = f"op_{transformation_count}"
        if choice < 0.30:
            head = builder.filter(
                f"filter_{name}",
                predicate=f"amount_{branch_index} > {rng.randint(0, 100)}",
                selectivity=rng.uniform(0.3, 0.95),
                after=head,
            ).op_id
        elif choice < 0.60:
            head = builder.derive(
                f"derive_{name}",
                expressions={"computed": f"amount * {rng.uniform(0.5, 2.0):.2f}"},
                cost_per_tuple=rng.uniform(0.01, 0.06),
                after=head,
            ).op_id
        elif choice < 0.75:
            head = builder.lookup(
                f"lookup_{name}",
                reference=f"reference_{transformation_count}",
                on=["id_0"],
                cost_per_tuple=rng.uniform(0.01, 0.03),
                error_rate=rng.uniform(0.0, 0.02),
                after=head,
            ).op_id
        elif choice < 0.85:
            head = builder.surrogate_key(
                f"surrogate_{name}", key_field=f"sk_{transformation_count}", after=head,
            ).op_id
        elif choice < 0.93 and len(branch_heads) > 1:
            # Join two branches together (only when they are still distinct;
            # earlier joins may already have merged them into the same head).
            other_index = rng.randrange(len(branch_heads))
            if other_index == branch_index:
                other_index = (other_index + 1) % len(branch_heads)
            other = branch_heads[other_index]
            if other == head:
                head = builder.derive(
                    f"derive_{name}",
                    expressions={"computed": "amount"},
                    cost_per_tuple=rng.uniform(0.01, 0.06),
                    after=head,
                ).op_id
            else:
                head = builder.join(
                    f"join_{name}", head, other, on=["id_0"],
                    selectivity=rng.uniform(0.8, 1.2),
                    cost_per_tuple=rng.uniform(0.02, 0.04),
                ).op_id
                # The other branch now continues through the join.
                branch_heads[other_index] = head
        else:
            head = builder.aggregate(
                f"aggregate_{name}",
                group_by=["code_0"],
                aggregations={"amount": "sum"},
                selectivity=rng.uniform(0.05, 0.3),
                cost_per_tuple=rng.uniform(0.02, 0.06),
                after=head,
            ).op_id
        if rng.random() < config.failure_prone_fraction:
            builder.set_properties(head, failure_rate=rng.uniform(0.01, 0.1))
        branch_heads[branch_index] = head
        transformation_count += 1

    # Terminate the flow: independent branches are consolidated through a
    # union so the generated process forms one connected workflow, then
    # loaded into the target table.
    unique_heads = []
    for head in branch_heads:
        if head not in unique_heads:
            unique_heads.append(head)
    if len(unique_heads) > 1:
        tail = builder.union("consolidate_branches", unique_heads).op_id
    else:
        tail = unique_heads[0]
    builder.load_table("load_target", table="target", after=tail)

    return builder.build()
