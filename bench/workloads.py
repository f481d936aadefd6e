"""The three workloads: seeded inputs, the timed call and the check of each answer.

Each workload is a class built from a seed.  Building it is the set-up the
benchmark times: input generation, parsing where the workload parses up
front, and the reference states.  ``request(i)`` returns the i-th request
(negative ``i`` are warm-up requests), ``call`` is the only code inside
the timed region, and ``check`` compares an answer with the reference and
returns the reason it is wrong, or None.

A request fails when it raises unexpectedly, when its answer disagrees
with the reference, or when it is malformed text that the program does
not reject with exit code 2.  No request of a timed mix fails today.

Non-finite arguments are not in the timed mixes: the program accepts them
today (ROADMAP item 5), so each would be a failed request.
``nonfinite_accepted`` sends a fixed set of them apart and counts how many
the program accepts.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import weaktrace.cli as cli
import weaktrace.evolution as evolution
import weaktrace.scendsl as scendsl
import weaktrace.trace as trace
import weaktrace.weakmeas as weakmeas

import oracle
import scengen

# Requests come in rounds with a fixed mix, in a seeded order, and a run
# stops only after a whole round, so the mix, and with it the cost of a
# run, does not drift with the seed.

#: Descending pointer-strength schedule the sweeps draw from.
G_CHOICES = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01)

#: Tolerances: answers against the closed-form reference, and against grid quadrature.
TOL = 1e-8
GRID_TOL = 1e-7


@dataclass
class Request:
    kind: str
    scenario: int
    args: tuple = ()
    expect: object = None  # reference answer, computed in set-up or derived in check
    grid: object = None  # grid-quadrature reference for the sampled pointer requests
    text: str = ""  # scenario text sent on stdin (oneshot)

    @property
    def well_formed(self) -> bool:
        return self.kind != "malformed"


def _threshold(rng: random.Random, ref: oracle.Reference) -> float:
    """A presence threshold no reference weak-value magnitude sits close to."""
    magnitudes = [abs(v) for _, _, v in ref.table()]
    while True:
        t = math.exp(rng.uniform(math.log(0.02), math.log(0.95)))
        if all(abs(m - t) > 1e-6 for m in magnitudes):
            return t


def _schedule(rng: random.Random, length: int) -> list[float]:
    return sorted(rng.sample(G_CHOICES, length), reverse=True)


def _sweep_expect(ref: oracle.Reference, arm, boundary, sigma, gs):
    entries = []
    for g in gs:
        probability, (shift,), _ = ref.readout([(arm, boundary, g, sigma)])
        entries.append((g, shift, probability))
    return ref.weak_value(arm, boundary), ref.probability, entries


def _grid_ok(grid, probability, shift, momentum=None) -> bool:
    g_probability, g_shift, g_momentum = grid
    return (oracle.close(probability, g_probability, GRID_TOL)
            and oracle.close(shift, g_shift, GRID_TOL)
            and (momentum is None or oracle.close(momentum, g_momentum, GRID_TOL)))


def render(out) -> bytes:
    """Deterministic bytes of one answer, for the run digests."""
    if isinstance(out, BaseException):
        return f"{type(out).__name__}: {out}".encode()
    return repr(out).encode()


class Workload:
    name = ""
    round_size = 1  # requests per round; the timed loop only stops at a multiple
    warmup = 0
    trace_requests = 0
    render = staticmethod(render)

    def cold_start(self, directory: Path) -> tuple[list[str], Request]:
        """CLI arguments for the cold-start subprocess, and the request it answers."""
        raise NotImplementedError

    def check_cli(self, req: Request, code: int, stdout: str) -> str | None:
        """Check the answer of a CLI run of a well-formed request."""
        if code != 0:
            return f"exit {code}"
        try:
            return check_document(req, self.refs[req.scenario], json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"


# -- oneshot ----------------------------------------------------------------


class Oneshot(Workload):
    """Fresh scenario text through ``cli.execute`` on every request."""

    name = "oneshot"
    COMMANDS = ("weakvalues", "trace", "validate", "sweep")
    #: Chains per (loops, polarization): the same count for every k = 1..6,
    #: with polarization on and off, one per command.
    CHAINS = dict.fromkeys(((k, pol) for k in range(1, 7) for pol in (False, True)), len(COMMANDS))
    SCENARIOS = 2 + sum(CHAINS.values())
    MALFORMED = 6
    #: One round: every scenario once, each with one command, and MALFORMED
    #: malformed texts (about 11%).  Scenario i gets command (i + round) mod 4,
    #: so the four chains of each (loops, polarization) pair get the four
    #: commands once each in every round: every round has the same mix of
    #: costs, whatever the seed and wherever a run stops.
    round_size = SCENARIOS + MALFORMED
    warmup = round_size
    trace_requests = 4 * round_size

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.specs = [scengen.fig1(), scengen.fig1(True)] + [
            scengen.chain(rng, k, pol, f"chain{k}{'p' if pol else ''}-{n}")
            for (k, pol), count in self.CHAINS.items() for n in range(count)]
        self.refs = [oracle.Reference(spec) for spec in self.specs]
        oracle.check_pins(self.refs[0], self.refs[1])
        # Order of the requests in a round; slots past the scenarios are malformed.
        self.order = list(range(self.round_size))
        rng.shuffle(self.order)

    def request(self, i: int) -> Request:
        rng = random.Random(f"{self.seed}:{i}")
        r, slot = divmod(i, self.round_size)
        index = self.order[slot]
        if index < self.SCENARIOS:
            kind = self.COMMANDS[(index + r) % len(self.COMMANDS)]
        else:
            kind, index = "malformed", (self.MALFORMED * r + index) % self.SCENARIOS
        spec, ref = self.specs[index], self.refs[index]
        # Stage labels carry the request number, so no two texts are equal.
        text = spec.text(f"-r{i}")
        arm, boundary = rng.choice(spec.canonical_slots())
        if kind == "malformed":
            text = scengen.mutate(text, rng.choice(scengen.MUTATIONS))
            command = rng.choice(["weakvalues", "trace", "validate"])
            return Request("malformed", index, (command, "-", "--format", "json"), text=text)
        if kind == "weakvalues":
            argv = ["weakvalues", "-"]
            req = Request("weakvalues", index)
        elif kind == "trace":
            t = _threshold(rng, ref) if rng.random() < 0.8 else 1e-9
            argv = ["trace", "-"] + (["--threshold", repr(t)] if t != 1e-9 else [])
            req = Request("trace", index, expect=t)
        elif kind == "validate":
            argv = ["validate", "-"]
            req = Request("validate", index)
        else:
            sigma = rng.choice((0.5, 1.0, 2.0))
            if rng.random() < 0.3:
                boundary = rng.randint(0, len(spec.stages))
                argv_b = ["--boundary", str(boundary)]
            else:
                argv_b = []
            gs = _schedule(rng, rng.randint(2, 4))
            argv = ["sweep", "-", "--arm", arm, "--g", ",".join(map(repr, gs)),
                    "--sigma", repr(sigma)] + argv_b
            grid = ref.grid_readout((arm, boundary, gs[0], sigma)) if rng.random() < 0.5 else None
            req = Request("sweep", index, expect=(arm, boundary, sigma, gs), grid=grid)
        req.args = tuple(argv + ["--format", "json"])
        req.text = text
        return req

    @staticmethod
    def call(req: Request) -> tuple[int, str, str]:
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.text), io.StringIO(), io.StringIO()
        try:
            # Every run prints its warnings, as a fresh CLI process would;
            # the default filter shows each only once per process.
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                code = cli.execute(list(req.args))
            return code, sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved

    def check(self, req: Request, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {type(out).__name__}: {out}"
        code, stdout, stderr = out
        if req.kind == "malformed":
            ok = code == 2 and not stdout and stderr.startswith("error: line ")
            return None if ok else f"malformed text not rejected: exit {code}"
        return self.check_cli(req, code, stdout)

    def cold_start(self, directory: Path):
        path = directory / "cold-oneshot.txt"
        path.write_text(self.specs[-1].text())
        req = Request("weakvalues", len(self.specs) - 1)
        return ["weakvalues", str(path), "--format", "json"], req


def check_document(req: Request, ref: oracle.Reference, doc: dict) -> str | None:
    """Compare one ``--format json`` CLI document with the reference."""
    if req.kind == "weakvalues":
        rows = doc["weak_values"]
        want = ref.table()
        if [(r["arm"], r["boundary"]) for r in rows] != [(a, b) for a, b, _ in want]:
            return "weak-value slots differ"
        if not oracle.close(doc["postselection_probability"], ref.probability, TOL):
            return "post-selection probability differs"
        for r, (_, _, v) in zip(rows, want):
            if not oracle.close(complex(r["re"], r["im"]), v, TOL):
                return f"weak value of {r['arm']} differs: {r['re']}{r['im']:+}i vs {v}"
        return None
    if req.kind == "trace":
        present, gaps, continuous = ref.verdict(req.expect)
        got = doc["trace"]
        if (got["present"], got["gaps"], got["continuous"]) != (present, gaps, continuous):
            return f"trace verdict differs: {got} vs {(present, gaps, continuous)}"
        return None
    if req.kind == "validate":
        return None if doc["diagnostics"] == [] else "diagnostics reported for a valid scenario"
    if req.kind == "sweep":
        arm, boundary, sigma, gs = req.expect
        (sweep,) = doc["sweeps"]
        weak, p_zero, entries = _sweep_expect(ref, arm, boundary, sigma, gs)
        if (sweep["arm"], sweep["boundary"]) != (arm, boundary):
            return "sweep slot differs"
        if not (oracle.close(complex(sweep["weak_value_re"], sweep["weak_value_im"]), weak, TOL)
                and oracle.close(sweep["p_zero"], p_zero, TOL)):
            return "sweep weak value or P(0) differs"
        for got, (g, shift, probability) in zip(sweep["entries"], entries, strict=True):
            if got["g"] != g or not (oracle.close(got["shift"], shift, TOL) and oracle.close(
                    got["postselection_probability"], probability, TOL)):
                return f"sweep readout at g={g} differs"
        first = sweep["entries"][0]
        if req.grid is not None and not _grid_ok(req.grid, first["postselection_probability"],
                                                 first["shift"]):
            return "sweep readout differs from grid quadrature"
        return None
    raise ValueError(req.kind)


# -- repeat-queries ---------------------------------------------------------


class RepeatQueries(Workload):
    """Library queries on scenarios parsed once in set-up."""

    name = "repeat-queries"
    KINDS = ("table", "verdict", "arm", "probability")
    LOOPS = range(1, 9)
    #: One round: every kind of query on every scenario (fig1, fig2 and a chain
    #: per loop count and polarization).
    round_size = (2 + 2 * len(LOOPS)) * len(KINDS)
    warmup = round_size
    trace_requests = 3 * round_size
    ROUNDS = 24

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.specs = [scengen.fig1(), scengen.fig1(True)] + [
            scengen.chain(rng, k, pol, f"chain{k}{'p' if pol else ''}")
            for k in self.LOOPS for pol in (False, True)]
        self.refs = [oracle.Reference(spec) for spec in self.specs]
        oracle.check_pins(self.refs[0], self.refs[1])
        self.scenarios = [scendsl.parse_scenario(s.text(), name=s.name) for s in self.specs]
        self.pool = []
        for _ in range(self.ROUNDS):
            jobs = [(kind, index) for kind in self.KINDS for index in range(len(self.specs))]
            rng.shuffle(jobs)
            self.pool += [self._make(rng, kind, index) for kind, index in jobs]

    def _make(self, rng: random.Random, kind: str, index: int) -> Request:
        spec, ref = self.specs[index], self.refs[index]
        if kind == "table":
            return Request("table", index, expect=ref.table())
        if kind == "verdict":
            t = _threshold(rng, ref)
            return Request("verdict", index, (t,), expect=ref.verdict(t))
        if kind == "arm":
            arm, boundary = rng.choice(spec.modes), rng.randint(0, len(spec.stages))
            return Request("arm", index, (arm, boundary), expect=ref.weak_value(arm, boundary))
        return Request("probability", index, expect=ref.probability)

    def request(self, i: int) -> Request:
        return self.pool[i % len(self.pool)]

    def call(self, req: Request):
        scenario = self.scenarios[req.scenario]
        if req.kind == "table":
            return weakmeas.weak_value_table(scenario)
        if req.kind == "verdict":
            return trace.trace_verdict(scenario, *req.args)
        if req.kind == "arm":
            return weakmeas.arm_weak_value(scenario, *req.args)
        return evolution.postselect_probability(scenario)

    def check(self, req: Request, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {type(out).__name__}: {out}"
        if req.kind == "table":
            if [(r.arm, r.boundary) for r in out] != [(a, b) for a, b, _ in req.expect]:
                return "weak-value slots differ"
            bad = [r.arm for r, (_, _, v) in zip(out, req.expect) if not oracle.close(r.value, v, TOL)]
            return f"weak values of {bad} differ" if bad else None
        if req.kind == "verdict":
            present, gaps, continuous = req.expect
            got = sorted(a for c in out.components for a in c.arms)
            if (got, list(out.gap_arms), out.continuous) != (sorted(present), gaps, continuous):
                return "trace verdict differs"
            return None
        if req.kind == "arm":
            return None if oracle.close(out.value, req.expect, TOL) else "arm weak value differs"
        return None if oracle.close(out, req.expect, TOL) else "post-selection probability differs"

    def cold_start(self, directory: Path):
        index = len(self.specs) - 5
        path = directory / "cold-repeat-queries.txt"
        path.write_text(self.specs[index].text())
        # Without --threshold the CLI uses its default presence threshold, 1e-9.
        return ["trace", str(path), "--format", "json"], Request("trace", index, expect=1e-9)


# -- pointers ---------------------------------------------------------------


class Pointers(Workload):
    """Finite-strength pointer coupling and readout on scenarios parsed in set-up.

    Requests come in rounds of 20, shuffled: the two request kinds in equal
    shares, that is one coupling of N pointers for every N = 1..10 and ten
    weak-limit sweeps of 2 to 4 strengths.  Whole rounds keep the costly
    N = 10 share fixed from run to run.
    """

    name = "pointers"
    round_size = 20
    warmup = 20
    trace_requests = 40
    ROUNDS = 16

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.specs = [scengen.fig1(), scengen.fig1(True)] + [
            scengen.chain(rng, k, pol, f"chain{k}{'p' if pol else ''}")
            for k in range(1, 4) for pol in (False, True)]
        self.refs = [oracle.Reference(spec) for spec in self.specs]
        oracle.check_pins(self.refs[0], self.refs[1])
        self.scenarios = [scendsl.parse_scenario(s.text(), name=s.name) for s in self.specs]
        jobs = [("couple", n) for n in range(1, 11)] + [("sweep", 0)] * 10
        self.pool = []
        for r in range(self.ROUNDS):
            # Job j of round r runs on scenario (r + j) mod 8, so every job
            # meets every scenario once in 8 rounds: the seed cannot load the
            # costly jobs onto the larger scenarios.
            requests = [self._make(rng, kind, n, (r + j) % len(self.specs))
                        for j, (kind, n) in enumerate(jobs)]
            rng.shuffle(requests)
            self.pool += requests

    def _make(self, rng: random.Random, kind: str, n: int, index: int) -> Request:
        spec, ref = self.specs[index], self.refs[index]
        if kind == "sweep":
            arm, boundary = rng.choice(spec.canonical_slots())
            if rng.random() < 0.3:
                boundary = rng.randint(0, len(spec.stages))
            sigma, gs = rng.uniform(0.5, 2.0), _schedule(rng, rng.randint(2, 4))
            grid = ref.grid_readout((arm, boundary, gs[0], sigma)) if rng.random() < 0.5 else None
            return Request("sweep", index, (arm, boundary, sigma, gs),
                           expect=_sweep_expect(ref, arm, boundary, sigma, gs), grid=grid)
        while True:
            pointers = []
            for _ in range(n):
                boundary = rng.randint(0, len(spec.stages))
                populated = [a for a in spec.modes if np.any(ref.fwd[boundary][ref.arm_rows(a)] != 0)]
                arm = rng.choice(populated if rng.random() < 0.7 else spec.modes)
                pointers.append((arm, boundary, rng.uniform(0.05, 1.0), rng.uniform(0.5, 2.0)))
            expect = ref.readout(pointers)
            if expect[0] > 1e-4:
                break
        grid = ref.grid_readout(pointers[0]) if n == 1 and rng.random() < 0.5 else None
        return Request("couple", index, tuple(pointers), expect=expect, grid=grid)

    def request(self, i: int) -> Request:
        return self.pool[i % len(self.pool)]

    def call(self, req: Request):
        scenario = self.scenarios[req.scenario]
        if req.kind == "sweep":
            arm, boundary, sigma, gs = req.args
            spec = weakmeas.PointerSpec("sweep", arm, boundary, 0.0, sigma)
            return weakmeas.weak_limit_sweep(scenario, spec, gs)
        return couple_and_read(scenario, req.args)

    def check(self, req: Request, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {type(out).__name__}: {out}"
        if req.kind == "sweep":
            weak, p_zero, entries = req.expect
            if not (oracle.close(out.weak_value, weak, TOL) and oracle.close(out.p_zero, p_zero, TOL)):
                return "sweep weak value or P(0) differs"
            for got, (g, shift, probability) in zip(out.entries, entries, strict=True):
                if got.g != g or not (oracle.close(got.mean_position_shift, shift, TOL) and
                                      oracle.close(got.postselection_probability, probability, TOL)):
                    return f"sweep readout at g={g} differs"
            first = out.entries[0]
            if req.grid is not None and not _grid_ok(req.grid, first.postselection_probability,
                                                     first.mean_position_shift):
                return "sweep readout differs from grid quadrature"
            return None
        probability, xs, ps = req.expect
        if len(out) != len(xs):
            return "wrong number of readouts"
        for r, (arm, *_), x, p in zip(out, req.args, xs, ps):
            if r.arm != arm or not (oracle.close(r.postselection_probability, probability, TOL)
                                    and oracle.close(r.mean_position_shift, x, TOL)
                                    and oracle.close(r.mean_momentum_shift, p, TOL)):
                return f"readout of pointer on {arm} differs"
        if req.grid is not None and not _grid_ok(req.grid, out[0].postselection_probability,
                                                 out[0].mean_position_shift,
                                                 out[0].mean_momentum_shift):
            return "readout differs from grid quadrature"
        return None

    def cold_start(self, directory: Path):
        index = len(self.specs) - 3
        spec = self.specs[index]
        arm, boundary = spec.canonical_slots()[0]
        path = directory / "cold-pointers.txt"
        path.write_text(spec.text())
        gs = [1.0, 0.1, 0.01]
        req = Request("sweep", index, expect=(arm, boundary, 1.0, gs))
        return ["sweep", str(path), "--arm", arm, "--g", "1.0,0.1,0.01", "--format", "json"], req


def couple_and_read(scenario, pointers):
    """Couple one pointer per (arm, boundary, g, sigma) and read them all out."""
    with np.errstate(all="ignore"):
        specs = [weakmeas.PointerSpec(f"p{k}", *p) for k, p in enumerate(pointers)]
        ensemble = weakmeas.couple_pointers(scenario, specs)
        return weakmeas.postselect_and_readout(ensemble, scenario.postselect)


# -- non-finite arguments ---------------------------------------------------

#: CLI arguments the program should reject, each sent with fig1 on stdin.
NONFINITE_ARGV = (("trace", "-", "--threshold", "nan"),
                  ("sweep", "-", "--arm", "B", "--g", "inf"),
                  ("sweep", "-", "--arm", "B", "--g", "0.5", "--sigma", "inf"))
#: Library calls the program should reject with ValueError, on fig1.
NONFINITE_CALLS = (
    lambda fig1: trace.trace_verdict(fig1, math.nan),
    lambda fig1: couple_and_read(fig1, [("B", 2, math.inf, 1.0)]),
    lambda fig1: couple_and_read(fig1, [("B", 2, 0.5, math.inf)]),
)


def nonfinite_accepted() -> int:
    """How many of the non-finite inputs the program accepts instead of rejecting.

    A CLI run rejects with a non-zero exit code, a library call by raising
    ValueError.  Today every one is accepted, answering with NaN rows or
    with every arm absent.
    """
    text = scengen.fig1().text()
    accepted = 0
    for argv in NONFINITE_ARGV:
        code, _, _ = Oneshot.call(Request("nonfinite", 0, argv + ("--format", "json"), text=text))
        accepted += code == 0
    fig1 = scendsl.parse_scenario(text, name="fig1")
    for call in NONFINITE_CALLS:
        try:
            call(fig1)
        except ValueError:
            continue
        accepted += 1
    return accepted


WORKLOADS = {w.name: w for w in (Oneshot, RepeatQueries, Pointers)}
