"""Traced runs: spans around the calls into each layer, and the per-layer metrics.

The tracer replaces each public function listed in ``TRACED`` at every
``weaktrace`` module attribute that holds it, which is where callers look
it up at call time (``from .qstate import apply`` binds ``apply`` in the
importing module, so ``weaktrace.evolution.apply`` is wrapped as well as
``weaktrace.qstate.apply``).  Spans stay in memory as tuples and are
written out when the run ends; ``restore`` puts the originals back.
Nothing inside the program changes.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

import weaktrace.scendsl as scendsl
import weaktrace.trace as trace
import weaktrace.weakmeas as weakmeas

import scengen
from workloads import Oneshot, Request

#: Layer (module) -> public functions wrapped in a traced run.
TRACED = {
    "scendsl": ("parse_scenario", "validate", "serialize_scenario"),
    "optics": ("element_operator", "arm_projector"),
    "qstate": ("apply", "adjoint", "inner", "is_unitary_matrix"),
    "evolution": ("forward_state", "backward_state", "transition_amplitude",
                  "postselect_probability"),
    "weakmeas": ("weak_value", "arm_weak_value", "weak_value_table", "couple_pointers",
                 "postselect_and_readout", "weak_limit_sweep"),
    "trace": ("presence_map", "continuity_check", "trace_verdict"),
    "cli": ("execute",),
}

#: Per-layer metrics: name, unit, better, and the declared workload that
#: measures it (the layer -> metric -> workload map; ``repeat-queries``,
#: which is not declared, measures the qstate, evolution, weakmeas-values
#: and trace rows too).  Durations are medians over every
#: span of the function in the traced run; counts are per timed request.
PER_LAYER = [
    ("scendsl.parse_scenario.self_ms", "ms", "lower", "oneshot"),
    ("scendsl.parse_scenario.calls", "count", "lower", "oneshot"),
    ("scendsl.validate.ms", "ms", "lower", "oneshot"),
    ("scendsl.serialize_scenario.ms", "ms", "lower", "oneshot"),
    ("scendsl.rejects", "count", "higher", "oneshot"),
    ("optics.element_operator.calls", "count", "lower", "oneshot"),
    ("optics.element_operator.ms", "ms", "lower", "oneshot"),
    ("optics.arm_projector.calls", "count", "lower", "oneshot"),
    ("qstate.apply.calls", "count", "lower", "oneshot"),
    ("qstate.adjoint.calls", "count", "lower", "oneshot"),
    ("qstate.inner.calls", "count", "lower", "oneshot"),
    ("qstate.is_unitary_matrix.calls", "count", "lower", "oneshot"),
    ("qstate.is_unitary_matrix.ms", "ms", "lower", "oneshot"),
    ("evolution.forward_state.calls", "count", "lower", "oneshot"),
    ("evolution.backward_state.calls", "count", "lower", "oneshot"),
    ("evolution.transition_amplitude.calls", "count", "lower", "oneshot"),
    ("evolution.transition_amplitude.self_ms", "ms", "lower", "oneshot"),
    ("weakmeas.weak_value_table.ms", "ms", "lower", "oneshot"),
    ("weakmeas.weak_value.calls", "count", "lower", "oneshot"),
    ("weakmeas.couple_pointers.ms", "ms", "lower", "pointers"),
    ("weakmeas.postselect_and_readout.ms", "ms", "lower", "pointers"),
    ("weakmeas.weak_limit_sweep.ms", "ms", "lower", "pointers"),
    ("weakmeas.branches_raw", "count", "lower", "pointers"),
    ("weakmeas.branches_live", "count", "lower", "pointers"),
    ("weakmeas.branch_yield", "ratio", "higher", "pointers"),
    ("weakmeas.overlap_bytes_computed", "bytes", "lower", "pointers"),
    ("weakmeas.readout_ms.n4", "ms", "lower", "pointers"),
    ("weakmeas.readout_ms.n7", "ms", "lower", "pointers"),
    ("weakmeas.readout_ms.n10", "ms", "lower", "pointers"),
    ("trace.presence_map.ms", "ms", "lower", "oneshot"),
    ("trace.continuity_check.ms", "ms", "lower", "oneshot"),
    ("cli.execute.self_ms", "ms", "lower", "oneshot"),
    ("cli.import_ms", "ms", "lower", "oneshot"),
    ("cli.numpy_import_ms", "ms", "lower", "oneshot"),
    ("cli.cold_start_ms", "ms", "lower", "oneshot"),
    ("inputs.nonfinite_accepted", "count", "lower", "all"),
    ("trace.overhead_ratio", "ratio", "higher", "all"),
]


def _attrs(name: str, args, result):
    """Counts read from what a call returned (or was handed), never from inside it."""
    if name == "scendsl.parse_scenario":
        return sum(len(stage.elements) for stage in result.stages)
    if name == "weakmeas.couple_pointers":
        live = sum(1 for b in result.branches if b.system.amplitudes.any())
        return (len(result.specs), len(result.branches), live)
    if name == "weakmeas.postselect_and_readout":
        ensemble = args[0]
        return (len(ensemble.specs), len(ensemble.branches))
    return None


#: One span; start and end are perf_counter_ns, status is "ok" or the exception name.
Span = namedtuple("Span", "id parent request name start end status attrs")


class Tracer:
    """In-memory spans, kept as plain tuples in ``Span`` field order."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "weaktrace" or n.startswith("weaktrace.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"weaktrace.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, original):
        spans, stack, clock, ids = self.spans, self._stack, time.perf_counter_ns, self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            status, result = "ok", None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                status = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                attrs = _attrs(name, args, result) if status == "ok" else None
                spans.append((span_id, parent, self.request, name, start, end, status, attrs))

        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(Span._fields, span))) + "\n")


def per_layer(tracer: Tracer, requests: int, imports: dict, overhead_ratio: float,
              cold_start_ms: float, nonfinite_accepted: int) -> dict:
    """Every PER_LAYER metric from the spans of one traced run.

    ``requests`` is the number of timed workload requests, whose spans carry
    an int request id.  The last three arguments are measured outside the
    spans and passed through.  ``<fn>.calls`` counts calls per timed request;
    ``<fn>.ms`` and ``<fn>.self_ms`` are medians over every span of the
    function, the probe's included.  The rest are computed below.
    """
    spans = [Span(*s) for s in tracer.spans]
    child_ns: dict[int, int] = defaultdict(int)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start

    def median_ms(values) -> float:
        values = list(values)
        return statistics.median(values) / 1e6 if values else 0.0

    def timed(name: str) -> list[Span]:
        return [s for s in by_name[name] if isinstance(s.request, int)]

    # Element operators built inside successful parses, per parsed element.
    parses = {s.id: s.attrs for s in by_name["scendsl.parse_scenario"] if s.status == "ok"}
    parent_of = {s.id: s.parent for s in spans}

    def inside_parse(span: Span) -> bool:
        node = span.parent
        while node is not None and node not in parses:
            node = parent_of[node]
        return node is not None

    built = sum(map(inside_parse, by_name["optics.element_operator"]))
    elements = sum(parses.values())

    couples = [s for s in by_name["weakmeas.couple_pointers"] if s.attrs]
    raw_all, live_all = sum(s.attrs[1] for s in couples), sum(s.attrs[2] for s in couples)

    def readout_ms(n: int) -> float:
        """Median coupling plus median readout time with n pointers."""
        couple = median_ms(s.end - s.start for s in couples if s.attrs[0] == n)
        read = median_ms(s.end - s.start for s in by_name["weakmeas.postselect_and_readout"]
                         if s.attrs and s.attrs[0] == n)
        return couple + read

    computed = {
        "scendsl.rejects": sum(s.status == "ScenarioParseError"
                               for s in timed("scendsl.parse_scenario")) / requests,
        "optics.element_operator.calls": built / elements if elements else 0.0,
        "weakmeas.branches_raw": sum(s.attrs[1] for s in timed("weakmeas.couple_pointers")
                                     if s.attrs) / requests,
        "weakmeas.branches_live": sum(s.attrs[2] for s in timed("weakmeas.couple_pointers")
                                      if s.attrs) / requests,
        "weakmeas.branch_yield": live_all / raw_all if raw_all else 0.0,
        # The readout's pairwise tensors: float64 shift differences (B x B x N)
        # and complex128 cross weights (B x B).
        "weakmeas.overlap_bytes_computed": sum(
            8 * b * b * n + 16 * b * b
            for n, b in (s.attrs for s in timed("weakmeas.postselect_and_readout") if s.attrs)
        ) / requests,
        "weakmeas.readout_ms.n4": readout_ms(4),
        "weakmeas.readout_ms.n7": readout_ms(7),
        "weakmeas.readout_ms.n10": readout_ms(10),
        "cli.import_ms": imports["cli"],
        "cli.numpy_import_ms": imports["numpy"],
        "cli.cold_start_ms": cold_start_ms,
        "inputs.nonfinite_accepted": nonfinite_accepted,
        "trace.overhead_ratio": overhead_ratio,
    }
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        function, _, kind = name.rpartition(".")
        if name in computed:
            value = computed[name]
        elif kind == "calls":
            value = len(timed(function)) / requests
        elif kind == "ms":
            value = median_ms(s.end - s.start for s in by_name[function])
        else:  # self_ms
            value = median_ms(s.end - s.start - child_ns[s.id] for s in by_name[function])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def probe(tracer: Tracer) -> None:
    """One fixed pass through every layer on fig1 and fig2, traced as request "probe".

    It gives each duration metric a sample in every traced run, also for
    layers the workload itself never calls.  The 10-pointer coupling puts
    two pointers on each canonical slot of fig1.
    """
    tracer.request = "probe"
    fig1_text, fig2_text = scengen.fig1().text(), scengen.fig1(True).text()
    for argv, text in ((["weakvalues", "-"], fig1_text), (["trace", "-"], fig2_text),
                       (["validate", "-"], fig1_text),
                       (["sweep", "-", "--arm", "B", "--g", "0.5,0.1"], fig2_text)):
        Oneshot.call(Request("probe", 0, tuple(argv) + ("--format", "json"), text=text))
    fig1 = scendsl.parse_scenario(fig1_text, name="fig1")
    fig2 = scendsl.parse_scenario(fig2_text, name="fig2")
    weakmeas.weak_value_table(fig2)
    trace.trace_verdict(fig1)
    slots = fig1.canonical_slots() * 2
    for n in (4, 7, 10):
        specs = [weakmeas.PointerSpec(f"p{k}", arm, b, 0.3) for k, (arm, b) in enumerate(slots[:n])]
        ensemble = weakmeas.couple_pointers(fig1, specs)
        weakmeas.postselect_and_readout(ensemble, fig1.postselect)
    weakmeas.weak_limit_sweep(fig1, weakmeas.PointerSpec("sweep", "B", 2, 0.0), [0.5, 0.1, 0.01])
