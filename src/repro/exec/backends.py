"""The execution backend protocol and its pure-Python implementation.

An :class:`ETLBackend` turns one operation at a time into data: it holds
a *dispatch table* mapping :class:`~repro.etl.operations.OperationKind`
to a handler, and the executor walks the compiled DAG calling
:meth:`ETLBackend.run_node` on each node with the frames produced by its
predecessors.  :class:`LocalBackend` is the dependency-free
implementation over plain Python rows (:class:`repro.exec.frame.Frame`);
a native dataframe backend plugs in by subclassing :class:`ETLBackend`
(or :class:`LocalBackend`, overriding the structural operators) and
passing an instance to :class:`~repro.exec.executor.FlowExecutor`.

Predicate and derivation text always goes through the shared expression
interpreter (:mod:`repro.exec.expr`), and row-level semantics are
normalized at the frame boundary
(:func:`repro.exec.frame.normalize_value`), so a backend only has to
implement the structural operators (joins, group-bys, sorts, dedup).
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Mapping, Sequence

from repro.etl.operations import Operation, OperationKind
from repro.exec import data as datagen
from repro.exec.expr import CompiledPredicate, compile_expression, evaluate
from repro.exec.frame import Frame, _sort_token, normalize_value

__all__ = [
    "UnsupportedOperationError",
    "ETLBackend",
    "LocalBackend",
]


class UnsupportedOperationError(ValueError):
    """Raised when a backend has no handler for an operation kind."""


#: Control kinds that move data through unchanged on every backend.
PASSTHROUGH_KINDS: tuple[OperationKind, ...] = (
    OperationKind.RECOVERY_BRANCH,
    OperationKind.ENCRYPT,
    OperationKind.DECRYPT,
    OperationKind.ACCESS_CONTROL,
    OperationKind.SCHEDULE,
    OperationKind.NOOP,
)


def _partition_index(value: Any, partitions: int) -> int:
    """Deterministic hash partition of one key value (backend-agnostic)."""
    digest = zlib.crc32(repr(normalize_value(value)).encode("utf-8"))
    return digest % max(1, partitions)


def _join_pairs(
    on: Sequence[str], left_names: Sequence[str], right_names: Sequence[str]
) -> list[tuple[str, str]]:
    """Resolve ``on`` entries into ``(left column, right column)`` pairs.

    The builders express joins either as a shared column name present on
    both sides (``on=["id"]``) or as a left/right pair
    (``on=["o_custkey", "c_custkey"]``); this resolves both spellings.

    Returns an empty list when no key resolves against either side --
    generated and heavily projected flows may join on a column an
    upstream operation dropped; the join then degrades to passing the
    probe side through unchanged (the total-function behaviour the
    simulator's abstract cost model implies) instead of failing the run.
    """
    left_set, right_set = set(left_names), set(right_names)
    pairs: list[tuple[str, str]] = []
    pending_left: list[str] = []
    pending_right: list[str] = []
    for column in on:
        in_left, in_right = column in left_set, column in right_set
        if in_left and in_right:
            pairs.append((column, column))
        elif in_left:
            if pending_right:
                pairs.append((column, pending_right.pop(0)))
            else:
                pending_left.append(column)
        elif in_right:
            if pending_left:
                pairs.append((pending_left.pop(0), column))
            else:
                pending_right.append(column)
    return pairs


def _lookup_pairs(
    on: Sequence[str],
    reference_operation: Operation | None,
    right_names: Sequence[str],
) -> list[tuple[str, str]]:
    """Key pairs for a lookup: probe columns vs. the reference's keys."""
    right_set = set(right_names)
    key_names = []
    if reference_operation is not None:
        key_names = [
            f.name for f in reference_operation.output_schema.key_fields if f.name in right_set
        ]
    pairs: list[tuple[str, str]] = []
    for index, column in enumerate(on):
        if column in right_set:
            pairs.append((column, column))
        elif index < len(key_names):
            pairs.append((column, key_names[index]))
        elif right_names:
            pairs.append((column, right_names[0]))
    return pairs


def _collision_renames(
    left_names: Sequence[str], right_names: Sequence[str], exclude: set[str]
) -> dict[str, str]:
    """Rename colliding right-side columns the way ``Schema.merge`` does."""
    taken = set(left_names)
    renames: dict[str, str] = {}
    for name in right_names:
        if name in exclude:
            continue
        target = name
        while target in taken:
            target = "r_" + target
        if target != name:
            renames[name] = target
        taken.add(target)
    return renames


class ETLBackend:
    """Base class of the executable backends (the dispatch-table protocol).

    Subclasses implement ``_op_<kind>`` methods; :meth:`_build_dispatch`
    collects them into :attr:`dispatch` keyed by
    :class:`~repro.etl.operations.OperationKind`.  Handlers receive the
    operation, the list of input frames (predecessor order) and the
    execution context, and return either one frame or -- for routers -- a
    list of frames, one per outgoing edge.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.dispatch: dict[OperationKind, Callable] = self._build_dispatch()

    def _build_dispatch(self) -> dict[OperationKind, Callable]:
        table: dict[OperationKind, Callable] = {}
        for kind in OperationKind:
            handler = getattr(self, f"_op_{kind.value}", None)
            if handler is not None:
                table[kind] = handler
        for kind in PASSTHROUGH_KINDS:
            table.setdefault(kind, self._op_passthrough)
        return table

    def supports(self, kind: OperationKind) -> bool:
        """Whether this backend has a handler for ``kind``."""
        return kind in self.dispatch

    def run_node(self, operation: Operation, inputs: list, context) -> Any:
        """Execute one operation over its input frames."""
        handler = self.dispatch.get(operation.kind)
        if handler is None:
            raise UnsupportedOperationError(
                f"backend {self.name!r} does not implement operation kind "
                f"{operation.kind.value!r} (operation {operation.op_id!r})"
            )
        return handler(operation, inputs, context)

    # -- frame boundary (must be overridden) ----------------------------

    def from_columns(self, columns: Mapping[str, list]):
        raise NotImplementedError

    def to_columns(self, frame) -> dict[str, list]:
        raise NotImplementedError

    def row_count(self, frame) -> int:
        raise NotImplementedError

    def column_names(self, frame) -> list[str]:
        raise NotImplementedError

    def _orient(self, operation: Operation, inputs: list) -> tuple[int, int]:
        """Resolve which input is the probe (left) side of a join/lookup.

        Edge insertion order is not stable across graph copies (pattern
        application may enumerate predecessors differently), so the role
        of each input is recovered from the data: the side that carries
        the first ``on`` column is the probe.  Falls back to the given
        order when the column appears on both sides or neither.
        """
        on = operation.config.get("on", [])
        if len(inputs) < 2 or not on:
            return (0, 1)
        first = on[0]
        in_first = first in set(self.column_names(inputs[0]))
        in_second = first in set(self.column_names(inputs[1]))
        if in_second and not in_first:
            return (1, 0)
        return (0, 1)

    def _op_passthrough(self, operation: Operation, inputs: list, context):
        return inputs[0] if inputs else self.from_columns({})


# ----------------------------------------------------------------------
# Local reference backend (pure Python rows)
# ----------------------------------------------------------------------


class LocalBackend(ETLBackend):
    """The dependency-free reference backend over plain Python rows."""

    name = "local"

    # -- frame boundary -------------------------------------------------

    def from_columns(self, columns: Mapping[str, list]) -> Frame:
        return Frame.from_columns(columns)

    def to_columns(self, frame: Frame) -> dict[str, list]:
        return frame.to_columns()

    def row_count(self, frame: Frame) -> int:
        return frame.row_count

    def column_names(self, frame: Frame) -> list[str]:
        return list(frame.columns)

    # -- extraction -----------------------------------------------------

    def _op_extract_table(self, operation, inputs, context) -> Frame:
        return self.from_columns(context.source_columns(operation))

    _op_extract_file = _op_extract_table

    def _op_extract_savepoint(self, operation, inputs, context) -> Frame:
        saved = context.load_savepoint(operation.config.get("savepoint", "savepoint"))
        return self.from_columns(saved or {})

    # -- row-level transformations --------------------------------------

    def _op_filter(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        text = operation.config.get("predicate", "")
        if not text:
            return frame
        predicate = CompiledPredicate.compile(text)
        params = context.params
        return frame.replace_rows([r for r in frame.rows if predicate(r, params)])

    def _op_project(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        keep = [c for c in operation.config.get("keep", []) if c in frame.columns]
        if not keep:
            return frame
        return Frame(columns=keep, rows=[{c: r.get(c) for c in keep} for r in frame.rows])

    def _op_derive(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        expressions = operation.config.get("expressions", {})
        if not expressions:
            return frame
        compiled = [(name, compile_expression(text)) for name, text in expressions.items()]
        params = context.params
        rows = []
        for row in frame.rows:
            env = dict(row)
            for name, node in compiled:
                env[name] = evaluate(node, env, params)
            rows.append(env)
        columns = list(frame.columns) + [n for n, _ in compiled if n not in frame.columns]
        return Frame(columns=columns, rows=rows)

    def _op_rename(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        renames = operation.config.get("renames", {})
        if not renames:
            return frame
        columns = [renames.get(c, c) for c in frame.columns]
        rows = [{renames.get(k, k): v for k, v in r.items()} for r in frame.rows]
        return Frame(columns=columns, rows=rows)

    def _op_convert(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        conversions = operation.config.get("conversions", {})
        if not conversions:
            return frame
        rows = [dict(r) for r in frame.rows]
        for column, target in conversions.items():
            if column not in frame.columns:
                continue
            caster = _make_caster(str(target))
            for row in rows:
                row[column] = caster(row.get(column))
        return frame.replace_rows(rows)

    def _op_surrogate_key(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        key_field = operation.config.get("key_field", "surrogate_key")
        rows = [dict(r, **{key_field: i + 1}) for i, r in enumerate(frame.rows)]
        columns = list(frame.columns)
        if key_field not in columns:
            columns.append(key_field)
        return Frame(columns=columns, rows=rows)

    def _op_lookup(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        if len(inputs) < 2:
            reference = operation.config.get("reference", "reference")
            flag = f"{reference}_matched"
            columns = list(frame.columns) + ([flag] if flag not in frame.columns else [])
            return Frame(columns=columns, rows=[dict(r, **{flag: True}) for r in frame.rows])
        probe_index, reference_index = self._orient(operation, inputs)
        probe, reference = inputs[probe_index], inputs[reference_index]
        pairs = _lookup_pairs(
            operation.config.get("on", []),
            context.input_operation(operation, reference_index),
            reference.columns,
        )
        return self._hash_join(probe, reference, pairs, how="left")

    def _op_slowly_changing_dim(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        if "scd_current" in frame.columns:
            return frame
        return Frame(
            columns=list(frame.columns) + ["scd_current"],
            rows=[dict(r, scd_current=True) for r in frame.rows],
        )

    def _op_aggregate(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        group_by = [c for c in operation.config.get("group_by", []) if c in frame.columns]
        aggregations = dict(operation.config.get("aggregations", {})) or {"row_count": "count"}
        groups: dict[tuple, list[dict]] = {}
        order: list[tuple] = []
        for row in frame.rows:
            key = tuple(normalize_value(row.get(c)) for c in group_by)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(row)
        out_rows = []
        for key in order:
            bucket = groups[key]
            out = {c: v for c, v in zip(group_by, key)}
            for column, function in aggregations.items():
                out[column] = _aggregate_bucket(bucket, column, str(function))
            out_rows.append(out)
        columns = group_by + [c for c in aggregations if c not in group_by]
        return Frame(columns=columns, rows=out_rows)

    def _op_sort(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        by = [c for c in operation.config.get("by", []) if c in frame.columns]
        if not by:
            return frame
        rows = sorted(
            frame.rows, key=lambda r: tuple(_sort_token(normalize_value(r.get(c))) for c in by)
        )
        return frame.replace_rows(rows)

    # -- binary / n-ary --------------------------------------------------

    def _op_join(self, operation, inputs, context) -> Frame:
        left_index, right_index = self._orient(operation, inputs)
        left, right = inputs[left_index], inputs[right_index]
        pairs = _join_pairs(operation.config.get("on", []), left.columns, right.columns)
        if not pairs:
            return left
        return self._hash_join(left, right, pairs, how="inner")

    def _op_union(self, operation, inputs, context) -> Frame:
        columns: list[str] = []
        for frame in inputs:
            columns.extend(c for c in frame.columns if c not in columns)
        rows = [{c: r.get(c) for c in columns} for frame in inputs for r in frame.rows]
        return Frame(columns=columns, rows=rows)

    _op_merge = _op_union

    def _op_diff(self, operation, inputs, context) -> Frame:
        left = inputs[0]
        if len(inputs) < 2:
            return left
        right = inputs[1]
        shared = [c for c in left.columns if c in set(right.columns)]
        seen = {tuple(normalize_value(r.get(c)) for c in shared) for r in right.rows}
        rows = [
            r for r in left.rows
            if tuple(normalize_value(r.get(c)) for c in shared) not in seen
        ]
        return left.replace_rows(rows)

    def _hash_join(
        self, left: Frame, right: Frame, pairs: list[tuple[str, str]], how: str
    ) -> Frame:
        right_keys = [p[1] for p in pairs]
        renames = _collision_renames(left.columns, right.columns, set(right_keys))
        table: dict[tuple, list[dict]] = {}
        for row in right.rows:
            key = tuple(normalize_value(row.get(c)) for c in right_keys)
            table.setdefault(key, []).append(row)
        right_out = [renames.get(c, c) for c in right.columns if c not in set(right_keys)]
        columns = list(left.columns) + [c for c in right_out if c not in set(left.columns)]
        rows: list[dict] = []
        for row in left.rows:
            key = tuple(normalize_value(row.get(p[0])) for p in pairs)
            matches = table.get(key)
            if matches:
                for match in matches:
                    merged = dict(row)
                    for name, value in match.items():
                        if name in right_keys:
                            continue
                        merged[renames.get(name, name)] = value
                    rows.append(merged)
            elif how == "left":
                merged = dict(row)
                for name in right_out:
                    merged.setdefault(name, None)
                rows.append(merged)
        return Frame(columns=columns, rows=rows)

    # -- routing ---------------------------------------------------------

    def _op_split(self, operation, inputs, context) -> list[Frame]:
        frame = inputs[0]
        fanout = max(1, context.fanout(operation))
        buckets: list[list[dict]] = [[] for _ in range(fanout)]
        for index, row in enumerate(frame.rows):
            buckets[index % fanout].append(row)
        return [frame.replace_rows(bucket) for bucket in buckets]

    _op_router = _op_split

    def _op_partition(self, operation, inputs, context) -> list[Frame]:
        frame = inputs[0]
        fanout = max(1, context.fanout(operation))
        key = operation.config.get("key", "")
        buckets: list[list[dict]] = [[] for _ in range(fanout)]
        for row in frame.rows:
            buckets[_partition_index(row.get(key), fanout)].append(row)
        return [frame.replace_rows(bucket) for bucket in buckets]

    def _op_replicate(self, operation, inputs, context) -> list[Frame]:
        frame = inputs[0]
        fanout = max(1, context.fanout(operation))
        return [frame.copy() for _ in range(fanout)]

    # -- data quality ----------------------------------------------------

    def _op_deduplicate(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        keys = [c for c in operation.config.get("keys", []) if c in frame.columns]
        if not keys:
            keys = list(frame.columns)
        seen: set[tuple] = set()
        rows = []
        for row in frame.rows:
            key = tuple(normalize_value(row.get(c)) for c in keys)
            if key in seen:
                continue
            seen.add(key)
            rows.append(row)
        return frame.replace_rows(rows)

    def _op_filter_nulls(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        columns = frame.columns
        rows = [r for r in frame.rows if all(r.get(c) is not None for c in columns)]
        return frame.replace_rows(rows)

    def _op_crosscheck(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        columns = frame.columns
        rows = [
            r for r in frame.rows
            if not any(datagen.is_error_value(r.get(c)) for c in columns)
        ]
        return frame.replace_rows(rows)

    _op_validate = _op_crosscheck

    def _op_cleanse(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        rows = [
            {k: datagen.repair_error_value(v) for k, v in row.items()} for row in frame.rows
        ]
        return frame.replace_rows(rows)

    # -- loading / control ----------------------------------------------

    def _op_load_table(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        context.record_output(operation, self.to_columns(frame))
        return frame

    _op_load_file = _op_load_table

    def _op_checkpoint(self, operation, inputs, context) -> Frame:
        frame = inputs[0]
        context.record_savepoint(operation, self.to_columns(frame))
        return frame


def _make_caster(target: str) -> Callable[[Any], Any]:
    """A tolerant cast for ``CONVERT`` targets like ``"decimal(12,2)"``."""
    base, _, argument = target.lower().partition("(")
    base = base.strip()
    scale = None
    if argument:
        parts = argument.rstrip(")").split(",")
        if len(parts) == 2:
            try:
                scale = int(parts[1])
            except ValueError:
                scale = None

    def cast(value: Any) -> Any:
        if value is None:
            return None
        try:
            if base in ("decimal", "numeric", "float", "double", "real", "number"):
                result = float(value)
                return round(result, scale) if scale is not None else result
            if base in ("int", "integer", "bigint", "smallint"):
                return int(float(value))
            if base in ("string", "varchar", "char", "text"):
                return str(value)
        except (TypeError, ValueError):
            return value
        return value

    return cast


def _aggregate_bucket(bucket: list[dict], column: str, function: str) -> Any:
    values = [normalize_value(r.get(column)) for r in bucket]
    numeric = [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
    function = function.lower()
    if function == "count":
        return len(bucket)
    if function == "sum":
        return sum(numeric) if numeric else None
    if function in ("avg", "mean"):
        return sum(numeric) / len(numeric) if numeric else None
    present = [v for v in values if v is not None]
    if function == "min":
        return min(present, key=_sort_token) if present else None
    if function == "max":
        return max(present, key=_sort_token) if present else None
    raise UnsupportedOperationError(f"unknown aggregation function {function!r}")
