import math
import re
from dataclasses import replace

import numpy as np
import pytest

from weaktrace.evolution import BoundaryError
from weaktrace.scendsl import parse_scenario, serialize_scenario
from weaktrace.trace import (
    ContinuityVerdict,
    PresenceMap,
    continuity_check,
    presence_map,
    trace_verdict,
)
from weaktrace.weakmeas import (
    DegeneratePostselectionError,
    arm_weak_value,
    weak_value_table,
)

from oracles import union_find_continuity


def relabel(text, mapping):
    """Rename arm labels in scenario text by their role in the grammar.

    Whole label tokens and the ``<mode>`` of every ``<amplitude>@<mode>[:<pol>]``
    term are renamed; keywords, SOURCE/DETECTOR, stage labels such as
    ``inner-split``, angles and amplitudes are left as they are.
    """
    labels = "|".join(map(re.escape, mapping))
    pattern = re.compile(rf"(?<![\w-])({labels})(?![\w-])")
    return pattern.sub(lambda match: mapping[match.group(1)], text)


class TestPresenceMap:
    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_builtin_presence_pattern(self, name, fig1, fig2):
        scenario = {"fig1": fig1, "fig2": fig2}[name]
        presence = presence_map(scenario, threshold=1e-9)
        assert set(presence.present_arms()) == {"A", "B", "C"}
        assert set(presence.absent_arms()) == {"D", "E"}

    def test_flags_match_magnitudes(self, fig1):
        table = weak_value_table(fig1)
        # The second threshold equals |w_B|, where only a strict comparison leaves B absent.
        for threshold in (1e-9, abs(table[2].value)):
            presence = presence_map(fig1, threshold)
            assert presence.weak_values == table
            present, absent = presence.present_arms(), presence.absent_arms()
            for result in presence.weak_values:
                assert (result.arm in present) == (abs(result.value) > presence.threshold)
                assert (result.arm in absent) != (result.arm in present)
        assert "B" in absent

    def test_single_path_scenario(self):
        text = (
            "modes A B C\npreselect 1@A\npostselect 1@A\n"
            "adjacency SOURCE A\nadjacency A DETECTOR\n"
            "adjacency SOURCE B\nadjacency B C\nadjacency C DETECTOR\n"
        )
        presence = presence_map(parse_scenario(text))
        assert presence.present_arms() == ("A",)
        assert set(presence.absent_arms()) == {"B", "C"}

    def test_threshold_monotonicity(self, fig1, fig2):
        for scenario in (fig1, fig2):
            previous = None
            for threshold in (1e-12, 1e-6, 1e-2, 0.4, 0.7, 1.5):
                present = set(presence_map(scenario, threshold).present_arms())
                if previous is not None:
                    assert present <= previous
                previous = present

    def test_negative_threshold_rejected(self, fig1):
        with pytest.raises(ValueError):
            presence_map(fig1, threshold=-1.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_nonfinite_threshold_rejected(self, fig1, threshold):
        with pytest.raises(ValueError):
            trace_verdict(fig1, threshold)


class TestContinuityCheck:
    @pytest.mark.parametrize("threshold", [1e-9, 1e-3, 0.1, 0.29])
    def test_builtins_discontinuous_across_thresholds(self, threshold, fig1, fig2):
        for scenario in (fig1, fig2):
            verdict = trace_verdict(scenario, threshold)
            assert not verdict.continuous
            assert verdict.gap_arms == ("D", "E")
            groups = sorted(component.arms for component in verdict.components)
            assert groups == [("A",), ("B", "C")]

    def test_builtin_component_endpoints(self, fig1):
        verdict = trace_verdict(fig1)
        by_arms = {component.arms: component for component in verdict.components}
        outer = by_arms[("A",)]
        island = by_arms[("B", "C")]
        assert outer.touches_source and outer.touches_detector
        assert not island.touches_source and not island.touches_detector

    def test_all_present_connected_graph_is_continuous(self):
        text = (
            "modes A B\npreselect 1/sqrt2@A + 1/sqrt2@B\n"
            "postselect 1/sqrt2@A + 1/sqrt2@B\n"
            "adjacency SOURCE A\nadjacency A B\nadjacency B DETECTOR\n"
            "adjacency A DETECTOR\nadjacency SOURCE B\n"
        )
        verdict = trace_verdict(parse_scenario(text))
        assert verdict.continuous
        assert verdict.gap_arms == ()

    def test_no_present_arms_is_discontinuous_with_empty_components(self, fig1):
        presence = presence_map(fig1, threshold=10.0)
        assert presence.present_arms() == ()
        verdict = continuity_check(presence, fig1.adjacency)
        assert verdict == ContinuityVerdict(continuous=False, components=(), gap_arms=())

    def test_adjacency_must_cover_arms(self, fig1):
        presence = presence_map(fig1)
        with pytest.raises(ValueError):
            continuity_check(presence, (("A", "B"),))

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    def test_every_presence_subset_matches_union_find(self, name, request):
        scenario = request.getfixturevalue(name)
        # Each record is the scenario's own with only its value replaced, so
        # a field added to the record does not touch this test.
        records = weak_value_table(scenario)
        arms = [r.arm for r in records]
        assert len(arms) == 5
        for mask in range(2 ** len(arms)):
            present = {arm for i, arm in enumerate(arms) if mask >> i & 1}
            table = tuple(replace(r, value=complex(r.arm in present)) for r in records)
            verdict = continuity_check(PresenceMap(0.5, table), scenario.adjacency)
            continuous, components, gaps = union_find_continuity(
                arms, present, scenario.adjacency
            )
            assert verdict.continuous == continuous, present
            assert {(c.arms, c.touches_source, c.touches_detector)
                    for c in verdict.components} == components, present
            assert len(verdict.components) == len(components), present
            assert verdict.gap_arms == gaps, present

    def test_verdict_invariant_under_relabeling(self, fig1, fig2):
        mapping = {"S": "s0", "A": "a0", "B": "b0", "C": "c0", "D": "d0", "E": "e0", "F": "f0"}
        for scenario in (fig1, fig2):
            relabeled = parse_scenario(relabel(serialize_scenario(scenario), mapping))
            assert relabeled.basis.path_modes == tuple(
                mapping[a] for a in scenario.basis.path_modes
            ), scenario.name
            original = trace_verdict(scenario)
            renamed = trace_verdict(relabeled)
            assert renamed.continuous == original.continuous, scenario.name
            assert tuple(mapping[a] for a in original.gap_arms) == renamed.gap_arms, scenario.name
            assert sorted(
                tuple(mapping[a] for a in component.arms) for component in original.components
            ) == sorted(component.arms for component in renamed.components), scenario.name


def test_degenerate_postselection_rejected():
    scenario = parse_scenario("modes A B\npreselect 1@A\npostselect 1@B\n")
    with pytest.raises(DegeneratePostselectionError):
        trace_verdict(scenario)


def _moved_d_slot(scenario, boundary):
    """``scenario`` built through the API with arm D's coupling slot at ``boundary``."""
    slots = [
        replace(slot, boundary=boundary) if slot.name == "D" else slot
        for slot in scenario.coupling_slots
    ]
    return replace(scenario, coupling_slots=slots)


@pytest.mark.parametrize("boundary", [-1, 9])
def test_slot_boundary_out_of_range_raises(fig1, boundary):
    """The table checks each slot's boundary: -1 would read the final row, 9 no row."""
    scenario = _moved_d_slot(fig1, boundary)
    for analysis in (weak_value_table, presence_map, trace_verdict):
        with pytest.raises(BoundaryError):
            analysis(scenario)


def test_bool_slot_boundary_reads_one_row(fig1):
    """``True`` is boundary 1, not a mask summing every boundary row."""
    (result,) = [r for r in weak_value_table(_moved_d_slot(fig1, True)) if r.arm == "D"]
    assert result == arm_weak_value(fig1, "D", 1)
    assert type(result.boundary) is int and result.boundary == 1
