"""Stage placement plans: which server runs which pipeline stages (§5.2).

The paper's cluster story places one alignment graph per compute server,
all fed from a manifest-server message queue.  A :class:`PlacementPlan`
generalizes that to the *whole* composed workload: every server is
assigned a contiguous group of pipeline stages, consecutive groups are
connected by named broker edges, and a group of replicable stages (the
align stage) may be replicated across servers (chunk-granularity
self-balancing, exactly like the paper's many-servers-one-queue mode).

Order-sensitive stages (sort's run grouping, dupmark's first-fragment
scan) are single-consumer, so their groups cannot be replicated; the
plan validates this statically, off :data:`repro.core.subgraphs.STAGES`,
instead of letting a run corrupt output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.subgraphs import STAGES, check_stages, replicable

#: The name of the chunk-name edge feeding the head stage group (the
#: generalized manifest server).
WORK_EDGE = "work"


class PlacementError(ValueError):
    """Raised for invalid stage placements."""


@dataclass(frozen=True)
class StagePlacement:
    """One server's assignment: a contiguous group of pipeline stages."""

    server: str
    stages: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.server:
            raise PlacementError("server name must be non-empty")
        try:
            check_stages(self.stages)
        except ValueError as exc:
            raise PlacementError(f"server {self.server!r}: {exc}") from exc

    @property
    def one_to_one(self) -> bool:
        """True when every stage maps each input chunk to one output
        chunk (no re-chunking), so deliveries can be acked on completion
        and redelivered if the server dies mid-chunk."""
        return all(STAGES[s].one_to_one for s in self.stages)


@dataclass(frozen=True)
class EdgeSpec:
    """One broker edge: a named queue between stage groups.

    ``kind`` is ``"names"`` for the chunk-name work edge and ``"items"``
    for stage-boundary edges carrying whole work items; ``producers`` is
    the number of producer slots the broker pre-declares (so consumers
    never race a late producer registration).
    """

    name: str
    kind: str
    producers: int
    consumer_stages: tuple[str, ...]


class PlacementPlan:
    """An ordered assignment of stage groups to named servers."""

    def __init__(self, placements: "list[StagePlacement]"):
        if not placements:
            raise PlacementError("a placement plan needs at least one server")
        names = [p.server for p in placements]
        if len(set(names)) != len(names):
            raise PlacementError(f"duplicate server names in {names}")
        # Collapse placements into ordered distinct stage groups; servers
        # sharing a group are replicas of it.
        groups: list[tuple[str, ...]] = []
        for p in placements:
            if p.stages not in groups:
                groups.append(p.stages)
        flat = [s for g in groups for s in g]
        if len(set(flat)) != len(flat):
            raise PlacementError(
                f"stage groups {groups} overlap; every stage must be "
                f"placed on exactly one group"
            )
        try:
            check_stages(flat)
        except ValueError as exc:
            raise PlacementError(f"stage groups {groups}: {exc}") from exc
        for g in groups:
            replicas = [p.server for p in placements if p.stages == g]
            if len(replicas) > 1 and not replicable(g):
                raise PlacementError(
                    f"stage group {g} is placed on {replicas}, but only "
                    f"replicable stages may be replicated: "
                    f"{[s for s in g if not STAGES[s].replicable]} are "
                    f"order-sensitive single consumers"
                )
        self.placements = list(placements)
        self.groups = groups

    # ------------------------------------------------------------- queries

    @property
    def stages(self) -> tuple[str, ...]:
        """Every placed stage, in pipeline order."""
        return tuple(s for g in self.groups for s in g)

    @property
    def servers(self) -> list[str]:
        return [p.server for p in self.placements]

    def servers_for(self, group: "tuple[str, ...]") -> list[str]:
        return [p.server for p in self.placements if p.stages == group]

    def placement_for(self, server: str) -> StagePlacement:
        for p in self.placements:
            if p.server == server:
                return p
        raise PlacementError(f"no server {server!r} in this plan")

    def group_index(self, stages: "tuple[str, ...]") -> int:
        return self.groups.index(tuple(stages))

    def ingress_edge(self, server: str) -> "str | None":
        """The items edge a server consumes, or None for head groups
        (which pull chunk *names* from the work edge instead)."""
        index = self.group_index(self.placement_for(server).stages)
        if index == 0:
            return None
        return self._boundary_name(index - 1)

    def egress_edge(self, server: str) -> "str | None":
        index = self.group_index(self.placement_for(server).stages)
        if index == len(self.groups) - 1:
            return None
        return self._boundary_name(index)

    def _boundary_name(self, upstream_index: int) -> str:
        return (f"{self.groups[upstream_index][-1]}->"
                f"{self.groups[upstream_index + 1][0]}")

    def edges(self) -> "list[EdgeSpec]":
        """Every broker edge this plan needs, work edge first."""
        specs = [
            EdgeSpec(
                name=WORK_EDGE,
                kind="names",
                producers=1,  # the coordinator publishing the manifest
                consumer_stages=self.groups[0],
            )
        ]
        for i in range(len(self.groups) - 1):
            specs.append(
                EdgeSpec(
                    name=self._boundary_name(i),
                    kind="items",
                    producers=len(self.servers_for(self.groups[i])),
                    consumer_stages=self.groups[i + 1],
                )
            )
        return specs

    # ------------------------------------------------------- constructors

    @classmethod
    def single(cls, stages: "tuple[str, ...] | list[str]",
               server: str = "server0") -> "PlacementPlan":
        """The degenerate plan: one server runs every stage."""
        return cls([StagePlacement(server, tuple(stages))])

    @classmethod
    def replicated_align(cls, num_servers: int) -> "PlacementPlan":
        """N data-parallel align servers (the paper's §5.2 cluster mode)."""
        if num_servers <= 0:
            raise PlacementError("need at least one server")
        return cls([
            StagePlacement(f"server{i}", ("align",))
            for i in range(num_servers)
        ])

    @classmethod
    def parse(cls, spec: str) -> "PlacementPlan":
        """Parse ``"A=align,sort;B=dupmark,varcall"`` CLI syntax."""
        placements = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            server, eq, stage_list = part.partition("=")
            if not eq:
                raise PlacementError(
                    f"bad placement {part!r}; expected server=stage,stage"
                )
            stages = tuple(
                s.strip() for s in stage_list.split(",") if s.strip()
            )
            placements.append(StagePlacement(server.strip(), stages))
        return cls(placements)

    def with_replica(self, server: str, like: str) -> "PlacementPlan":
        """A new plan with ``server`` added as a replica of ``like``'s
        stage group (live worker admission).

        The group must be replicable — the :class:`PlacementPlan`
        constructor re-validates, so only the align group passes —
        and ``server`` must not already be placed.
        """
        template = self.placement_for(like)
        if any(p.server == server for p in self.placements):
            raise PlacementError(
                f"server {server!r} is already in this plan"
            )
        return PlacementPlan(
            self.placements + [StagePlacement(server, template.stages)]
        )

    # -------------------------------------------------------------- wire

    def to_doc(self) -> dict:
        return {
            "placements": [
                {"server": p.server, "stages": list(p.stages)}
                for p in self.placements
            ]
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "PlacementPlan":
        return cls([
            StagePlacement(p["server"], tuple(p["stages"]))
            for p in doc.get("placements", [])
        ])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = "; ".join(
            f"{p.server}={','.join(p.stages)}" for p in self.placements
        )
        return f"<PlacementPlan {body}>"
