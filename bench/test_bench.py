"""Self-tests of the benchmark: determinism, the checker, and traced runs.

Run from the root of a checkout:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import scengen  # noqa: E402
import spans  # noqa: E402
import weaktrace.qstate  # noqa: E402
import workloads  # noqa: E402

#: Requests per workload in these tests: one round of each.
COUNT = {"oneshot": 50, "repeat-queries": 72, "pointers": 20}


def digest(plan, count: int, tracer=None) -> str:
    loop = run.Loop(plan, tracer)
    loop.run_count(count)
    assert loop.wrong == 0, loop.reasons
    return loop.digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(COUNT))
def plan(request):
    return workloads.WORKLOADS[request.param](3)


def test_same_seed_same_inputs_and_digest(plan):
    again = type(plan)(3)
    n = COUNT[plan.name]
    assert [repr(plan.request(i)) for i in range(-5, n)] == [
        repr(again.request(i)) for i in range(-5, n)]
    assert digest(plan, n) == digest(again, n)


def test_other_seed_other_inputs(plan):
    other = type(plan)(4)
    n = COUNT[plan.name]
    assert [repr(plan.request(i)) for i in range(n)] != [repr(other.request(i)) for i in range(n)]


def test_traced_digest_matches_untraced(plan):
    original = weaktrace.qstate.apply
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = digest(plan, COUNT[plan.name], tracer)
    finally:
        tracer.restore()
    assert weaktrace.qstate.apply is original
    assert tracer.spans
    assert traced == digest(plan, COUNT[plan.name])


def first(plan, kind: str) -> workloads.Request:
    return next(r for r in map(plan.request, range(2000)) if r.kind == kind)


def test_checker_flags_planted_wrong_weak_value():
    plan = workloads.WORKLOADS["repeat-queries"](3)
    req = first(plan, "table")
    out = plan.call(req)
    assert plan.check(req, out) is None
    wrong = (dataclasses.replace(out[0], value=out[0].value + 1e-6),) + out[1:]
    assert plan.check(req, wrong) is not None

    plan = workloads.WORKLOADS["oneshot"](3)
    req = first(plan, "weakvalues")
    code, stdout, stderr = plan.call(req)
    assert plan.check(req, (code, stdout, stderr)) is None
    doc = json.loads(stdout)
    doc["weak_values"][-1]["re"] += 1e-6
    assert plan.check(req, (code, json.dumps(doc), stderr)) is not None


def test_checker_flags_planted_wrong_exit_code():
    plan = workloads.WORKLOADS["oneshot"](3)
    malformed = first(plan, "malformed")
    assert plan.check(malformed, plan.call(malformed)) is None
    assert plan.check(malformed, (0, "{}", "")) is not None
    good = first(plan, "validate")
    code, stdout, stderr = plan.call(good)
    assert code == 0 and plan.check(good, (code, stdout, stderr)) is None
    assert plan.check(good, (2, stdout, stderr)) is not None


def test_nonfinite_inputs_counted_until_rejected(monkeypatch):
    inputs = len(workloads.NONFINITE_ARGV) + len(workloads.NONFINITE_CALLS)
    assert 0 <= workloads.nonfinite_accepted() <= inputs

    def reject(*args, **kwargs):
        raise ValueError("non-finite")

    monkeypatch.setattr(workloads.cli, "execute", lambda argv: 2)
    monkeypatch.setattr(workloads.trace, "trace_verdict", reject)
    monkeypatch.setattr(workloads.weakmeas, "couple_pointers", reject)
    assert workloads.nonfinite_accepted() == 0
    monkeypatch.setattr(workloads.cli, "execute", lambda argv: 0)
    monkeypatch.setattr(workloads.trace, "trace_verdict", lambda *args: None)
    assert workloads.nonfinite_accepted() == len(workloads.NONFINITE_ARGV) + 1


def test_every_timed_request_succeeds(plan):
    loop = run.Loop(plan)
    loop.run_count(COUNT[plan.name])
    assert loop.failed == 0, loop.reasons


def test_reference_pins_and_sum_rule():
    oracle.check_pins(oracle.Reference(scengen.fig1()), oracle.Reference(scengen.fig1(True)))
    rng = random.Random(5)
    for k in range(1, 9):
        ref = oracle.Reference(scengen.chain(rng, k, k % 2 == 0, f"chain{k}"))
        assert abs(ref.amplitude) >= scengen.AMPLITUDE_FLOOR
        assert ref.sum_rule_residual() <= oracle.SUM_RULE_TOL


def test_pointer_reference_agrees_with_grid_quadrature():
    ref = oracle.Reference(scengen.fig1())
    for pointer in (("B", 2, 0.3, 1.0), ("A", 2, 1.0, 0.5), ("E", 3, 0.1, 2.0)):
        probability, (x,), (p,) = ref.readout([pointer])
        assert workloads._grid_ok(ref.grid_readout(pointer), probability, x, p)


def test_benchmark_json_declares_every_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["bench"]
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in declared["end_to_end"]} == set(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        entry[:3] for entry in spans.PER_LAYER]


def test_tail_keeps_ten_samples_beyond():
    percentile, value = run.tail(list(range(1, 201)))
    assert value == 190 / 1e6 and math.isclose(percentile, 95.0)
    assert run.tail(list(range(1, 3001)))[0] == 99.0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))
