"""Arm-presence classification and path-continuity analysis.

An arm counts as visited when the magnitude of its spatial-projector weak
value exceeds a threshold.  The continuity check then asks whether the
visited arms, embedded in the physical arm-adjacency graph together with
the SOURCE and DETECTOR endpoints, form a single connected chain from
source to detector.  A visited island separated from the endpoints by
unvisited arms makes the trace discontinuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .evolution import DETECTOR, SOURCE, Scenario
from .weakmeas import WeakValueResult, weak_value_table

#: Default presence threshold: orders of magnitude above numerical zeros
#: (<= 1e-12) and below any physical weak-value magnitude in the bundled
#: scenarios (>= 1/(2*sqrt(2)) ~ 0.35).
DEFAULT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class PresenceMap:
    """The weak-value table with the threshold that decides presence.

    An arm is present iff the magnitude of its weak value strictly exceeds
    ``threshold``; ``present_arms`` is the one place that decides it.
    """

    threshold: float
    weak_values: tuple[WeakValueResult, ...]

    def present_arms(self) -> tuple[str, ...]:
        return tuple(r.arm for r in self.weak_values if abs(r.value) > self.threshold)

    def absent_arms(self) -> tuple[str, ...]:
        present = self.present_arms()
        return tuple(r.arm for r in self.weak_values if r.arm not in present)


@dataclass(frozen=True)
class TraceComponent:
    """Connected group of present arms, with endpoint reachability flags."""

    arms: tuple[str, ...]
    touches_source: bool
    touches_detector: bool


@dataclass(frozen=True)
class ContinuityVerdict:
    continuous: bool
    components: tuple[TraceComponent, ...]
    gap_arms: tuple[str, ...]


def presence_map(scenario: Scenario, threshold: float = DEFAULT_THRESHOLD) -> PresenceMap:
    """The scenario's weak-value table under the strict presence threshold.

    An arm is present iff ``abs(weak value) > threshold``.
    """
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
    return PresenceMap(threshold=threshold, weak_values=weak_value_table(scenario))


def continuity_check(
    presence: PresenceMap, adjacency: tuple[tuple[str, str], ...]
) -> ContinuityVerdict:
    """Connectivity of the present arms within the physical arm graph.

    The walk runs over present arms plus the SOURCE/DETECTOR sentinels; the
    trace is continuous iff one component touches both sentinels and
    contains every present arm.  Gap arms are the absent arms directly
    adjacent to some present arm.
    """
    covered = {node for edge in adjacency for node in edge}
    missing = [r.arm for r in presence.weak_values if r.arm not in covered]
    if missing:
        raise ValueError(f"adjacency does not cover arms {missing}")

    present = set(presence.present_arms())
    absent = set(presence.absent_arms())
    nodes = present | {SOURCE, DETECTOR}
    neighbors: dict[str, set[str]] = {node: set() for node in nodes}
    gaps: set[str] = set()
    for a, b in adjacency:
        if a in nodes and b in nodes:
            neighbors[a].add(b)
            neighbors[b].add(a)
        gaps |= {x for x, y in ((a, b), (b, a)) if x in absent and y in present}

    components = []
    seen: set[str] = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        component, frontier = set(), {start}
        while frontier:
            component |= frontier
            frontier = set().union(*(neighbors[node] for node in frontier)) - component
        seen |= component
        component_arms = tuple(sorted(component & present))
        if component_arms:
            components.append(
                TraceComponent(
                    arms=component_arms,
                    touches_source=SOURCE in component,
                    touches_detector=DETECTOR in component,
                )
            )

    continuous = any(
        c.touches_source and c.touches_detector and set(c.arms) == present
        for c in components
    ) and bool(present)
    return ContinuityVerdict(
        continuous=continuous,
        components=tuple(components),
        gap_arms=tuple(sorted(gaps)),
    )


def trace_verdict(scenario: Scenario, threshold: float = DEFAULT_THRESHOLD) -> ContinuityVerdict:
    """Presence classification and continuity check in one call."""
    return continuity_check(presence_map(scenario, threshold), scenario.adjacency)
