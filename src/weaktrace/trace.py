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
from collections import deque
from dataclasses import dataclass

from .evolution import DETECTOR, SOURCE, Scenario
from .weakmeas import weak_value_table

#: Default presence threshold: orders of magnitude above numerical zeros
#: (<= 1e-12) and below any physical weak-value magnitude in the bundled
#: scenarios (>= 1/(2*sqrt(2)) ~ 0.35).
DEFAULT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class PresenceEntry:
    arm: str
    boundary: int
    value: complex
    magnitude: float
    present: bool


@dataclass(frozen=True)
class PresenceMap:
    """Presence flags per canonical (arm, boundary) coupling point."""

    threshold: float
    entries: tuple[PresenceEntry, ...]

    def present_arms(self) -> tuple[str, ...]:
        return tuple(e.arm for e in self.entries if e.present)

    def absent_arms(self) -> tuple[str, ...]:
        return tuple(e.arm for e in self.entries if not e.present)


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
    """Classify each canonical arm as present iff |weak value| > threshold."""
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
    entries = []
    for result in weak_value_table(scenario):
        magnitude = abs(result.value)
        entries.append(
            PresenceEntry(
                arm=result.arm,
                boundary=result.boundary,
                value=result.value,
                magnitude=magnitude,
                present=magnitude > threshold,
            )
        )
    return PresenceMap(threshold=threshold, entries=tuple(entries))


def continuity_check(
    presence: PresenceMap, adjacency: tuple[tuple[str, str], ...]
) -> ContinuityVerdict:
    """Connectivity of the present arms within the physical arm graph.

    The walk runs over present arms plus the SOURCE/DETECTOR sentinels; the
    trace is continuous iff one component touches both sentinels and
    contains every present arm.  Gap arms are the absent arms directly
    adjacent to some present arm.
    """
    arms = [e.arm for e in presence.entries]
    covered = {node for edge in adjacency for node in edge}
    missing = [arm for arm in arms if arm not in covered]
    if missing:
        raise ValueError(f"adjacency does not cover arms {missing}")

    present = set(presence.present_arms())
    absent = set(presence.absent_arms())
    nodes = present | {SOURCE, DETECTOR}
    neighbors: dict[str, set[str]] = {node: set() for node in nodes}
    for a, b in adjacency:
        if a in nodes and b in nodes:
            neighbors[a].add(b)
            neighbors[b].add(a)

    components = []
    seen: set[str] = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        queue = deque([start])
        component = set()
        while queue:
            node = queue.popleft()
            if node in component:
                continue
            component.add(node)
            queue.extend(neighbors[node] - component)
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

    gap_arms = sorted(
        arm
        for arm in absent
        if any(
            (arm == a and b in present) or (arm == b and a in present)
            for a, b in adjacency
        )
    )
    return ContinuityVerdict(
        continuous=continuous,
        components=tuple(components),
        gap_arms=tuple(gap_arms),
    )


def trace_verdict(scenario: Scenario, threshold: float = DEFAULT_THRESHOLD) -> ContinuityVerdict:
    """Presence classification and continuity check in one call."""
    return continuity_check(presence_map(scenario, threshold), scenario.adjacency)
