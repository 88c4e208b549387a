"""Framework for Flow Component Patterns.

Central to the implementation is the notion of *application point* of a
FCP, which can be either a node (an ETL flow operation), an edge, or the
entire ETL flow graph (Section 2.2).  Each FCP is related to a particular
set of *applicability prerequisites* that have to be satisfied
conjunctively to determine a valid application point; apart from these
strict conditions, *heuristics* determine the fitness of the FCP for the
different parts of the flow (Section 3).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.etl.graph import ETLGraph, Edge
from repro.etl.operations import Operation
from repro.quality.framework import QualityCharacteristic


class ApplicationPointType(enum.Enum):
    """The kind of flow element a pattern attaches to."""

    NODE = "node"
    EDGE = "edge"
    GRAPH = "graph"


@dataclass(frozen=True)
class ApplicationPoint:
    """A concrete place on a flow where a pattern may be deployed.

    Attributes
    ----------
    point_type:
        Node, edge, or whole-graph application.
    node_id:
        The target operation (node applications only).
    edge:
        The ``(source, target)`` pair of the target transition (edge
        applications only).
    fitness:
        Heuristic fitness of deploying the pattern here, in ``[0, 1]``;
        used by heuristic deployment policies to rank candidate points.
    """

    point_type: ApplicationPointType
    node_id: str = ""
    edge: tuple[str, str] = ("", "")
    fitness: float = 0.5

    def describe(self) -> str:
        """Short human-readable description of the point."""
        if self.point_type is ApplicationPointType.NODE:
            return f"node {self.node_id}"
        if self.point_type is ApplicationPointType.EDGE:
            return f"edge {self.edge[0]}->{self.edge[1]}"
        return "entire flow"

    def key(self) -> tuple:
        """A hashable identity for deduplication (ignores fitness)."""
        return (self.point_type.value, self.node_id, self.edge)


@dataclass(frozen=True)
class Prerequisite:
    """One applicability prerequisite of a pattern.

    A prerequisite is a named predicate over ``(flow, point)``.  All
    prerequisites of a pattern must hold conjunctively for the point to be
    a valid application point.
    """

    name: str
    predicate: Callable[[ETLGraph, ApplicationPoint], bool]
    description: str = ""

    def check(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        """Whether the prerequisite holds at the given point."""
        return bool(self.predicate(flow, point))


@dataclass(frozen=True)
class PatternApplication:
    """Record of one pattern deployment on a flow (kept in planner results)."""

    pattern: str
    point: ApplicationPoint

    def describe(self) -> str:
        """Human-readable record, e.g. ``FilterNullValues @ edge a->b``."""
        return f"{self.pattern} @ {self.point.describe()}"


class FlowComponentPattern(abc.ABC):
    """Base class of every Flow Component Pattern.

    Subclasses declare their metadata (name, improved characteristics,
    application point type), their applicability prerequisites and their
    placement heuristic, and implement :meth:`apply`, which grafts the
    pattern onto a copy of the host flow and returns the new flow.
    """

    #: Unique pattern name (as listed in the palette, Fig. 6).
    name: str = ""
    #: Human-readable description of what the pattern adds to a flow.
    description: str = ""
    #: Quality characteristics the pattern is intended to improve.
    improves: tuple[QualityCharacteristic, ...] = ()
    #: The kind of application point the pattern attaches to.
    point_type: ApplicationPointType = ApplicationPointType.EDGE

    # ------------------------------------------------------------------
    # Prerequisites and heuristics
    # ------------------------------------------------------------------

    def prerequisites(self) -> Sequence[Prerequisite]:
        """The conjunctive applicability prerequisites of the pattern."""
        return ()

    def fitness(self, flow: ETLGraph, point: ApplicationPoint) -> float:
        """Heuristic fitness of the pattern at a valid point (``[0, 1]``).

        The default is a neutral 0.5; concrete patterns override this with
        the heuristics the paper describes (e.g. data cleaning close to the
        sources, checkpoints after the most expensive operations).
        """
        return 0.5

    def is_applicable_at(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        """Whether every prerequisite holds at ``point``."""
        if point.point_type is not self.point_type:
            return False
        return all(prereq.check(flow, point) for prereq in self.prerequisites())

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------

    def candidate_points(self, flow: ETLGraph) -> Iterable[ApplicationPoint]:
        """Raw candidate points of the pattern's type, before prerequisites."""
        if self.point_type is ApplicationPointType.NODE:
            for op in flow.operations():
                yield ApplicationPoint(ApplicationPointType.NODE, node_id=op.op_id)
        elif self.point_type is ApplicationPointType.EDGE:
            for edge in flow.edges():
                yield ApplicationPoint(
                    ApplicationPointType.EDGE, edge=(edge.source, edge.target)
                )
        else:
            yield ApplicationPoint(ApplicationPointType.GRAPH)

    def find_application_points(self, flow: ETLGraph) -> list[ApplicationPoint]:
        """All valid application points on ``flow``, with heuristic fitness.

        This guarantees the paper's claim that *all* potential application
        points on the ETL flow are checked for each FCP.
        """
        points: list[ApplicationPoint] = []
        for candidate in self.candidate_points(flow):
            if not self.is_applicable_at(flow, candidate):
                continue
            fitness = max(0.0, min(1.0, self.fitness(flow, candidate)))
            points.append(
                ApplicationPoint(
                    point_type=candidate.point_type,
                    node_id=candidate.node_id,
                    edge=candidate.edge,
                    fitness=fitness,
                )
            )
        return points

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def apply(self, flow: ETLGraph, point: ApplicationPoint) -> ETLGraph:
        """Deploy the pattern at ``point`` and return the new flow.

        Implementations must not mutate ``flow``; they work on a
        ``flow.copy()`` (the grafting helpers in :mod:`repro.etl.subflow`
        already do).  The copy shares every operation with the host, and
        operations are frozen values: a changed operation is installed
        with ``ETLGraph.update_operation`` (a new operation built with
        ``dataclasses.replace``), and annotations are set via
        ``ETLGraph.set_annotation``, so the application is captured in
        the flow's delta.

        Two further contract points the generator's prefix cache relies
        on:

        * the same host may be passed to ``apply`` many times (a cached
          prefix flow is extended into every sibling combination), so
          leaving the host untouched is load-bearing, not just hygiene;
        * given the same host state and point, ``apply`` must be
          deterministic -- no global counters or unseeded randomness --
          so a combination produces byte-identical flows whether its
          prefix was replayed or served from the cache (grafted
          operation identifiers already derive from the host alone, see
          :func:`repro.etl.subflow._unique_id`).
        """

    def apply_checked(self, flow: ETLGraph, point: ApplicationPoint) -> ETLGraph:
        """Validate the point against the prerequisites, then apply."""
        if not self.is_applicable_at(flow, point):
            raise ValueError(
                f"pattern {self.name!r} is not applicable at {point.describe()}"
            )
        return self.apply(flow, point)

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------

    def _memoized_subflow(self, key_obj: object, builder: Callable[[], ETLGraph]) -> ETLGraph:
        """Build a sub-flow template once per anchor object and reuse it.

        Patterns instantiate their sub-flow from the application point's
        schema (or operation); across the thousands of candidate flows of
        one planning run those anchors are the *same objects* (flow
        copies share schemas and operations), so the template -- and
        every schema object inside it -- is built once.  Grafting copies
        the template's operations into the host, so the cached instance
        is never mutated.  The memo pins the anchor, keeping its id
        stable for the lifetime of the entry, and is bounded: a flow
        rebuilt from scratch (say, decoded from the wire) brings fresh
        anchor objects, so without the bound the cache would grow with
        every such flow; once full it is flushed wholesale, templates
        being cheap to rebuild.
        """
        cache: dict[int, tuple[object, ETLGraph]] = getattr(self, "_subflow_cache", None)
        if cache is None:
            cache = self._subflow_cache = {}
        key = id(key_obj)
        hit = cache.get(key)
        if hit is not None and hit[0] is key_obj:
            return hit[1]
        built = builder()
        if len(cache) >= 256:
            cache.clear()
        cache[key] = (key_obj, built)
        return built

    def _edge_of(self, flow: ETLGraph, point: ApplicationPoint) -> Edge:
        """The host-flow edge targeted by an edge application point."""
        return flow.edge(*point.edge)

    def _node_of(self, flow: ETLGraph, point: ApplicationPoint) -> Operation:
        """The host-flow operation targeted by a node application point."""
        return flow.operation(point.node_id)

    def describe(self) -> dict[str, object]:
        """Metadata summary used by the palette table (Fig. 6) and reports."""
        return {
            "name": self.name,
            "description": self.description,
            "improves": [c.label for c in self.improves],
            "application_point": self.point_type.value,
            "prerequisites": [p.name for p in self.prerequisites()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
