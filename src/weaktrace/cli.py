"""Command-line front end: weak-value tables, trace verdicts, pointer sweeps.

Exit status: 0 on success, 1 on usage errors, 2 on scenario errors (missing
or malformed files, validation failures, degenerate post-selection).
Output is UTF-8 on stdout; ``--format json`` emits a schema-stable document
with floats printed at 15 significant digits so identical inputs produce
byte-identical output.  A sweep's fitted orders are numbers, or the string
``"exact"`` (every error below the numerical floor, an ``inf`` order) or
``"not fittable"`` (a single data point, a ``nan`` order), the words the
table prints.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from json.encoder import encode_basestring_ascii

from .evolution import postselect_probability
from .scendsl import (
    BUILTIN_TEXTS,
    ScenarioParseError,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
)
from .trace import DEFAULT_THRESHOLD, presence_map, continuity_check
from .weakmeas import PointerSpec, weak_limit_sweep, weak_value_table

ZERO_DISPLAY = 1e-12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _round15(x: float) -> float:
    """``x`` at 15 significant digits, 0 at or below ``ZERO_DISPLAY``; finite stays finite.

    The largest floats round up past the float range, so they take their
    15-digit neighbour toward zero instead of printing as ``inf``.
    """
    x = float(x)
    if abs(x) <= ZERO_DISPLAY:
        return 0.0
    rounded = float(format(x, ".15g"))
    if math.isinf(rounded) and math.isfinite(x):
        return math.copysign(1.79769313486231e308, x)
    return rounded


def format_complex(value: complex) -> str:
    """Render ``re+imi`` with exact-zero parts (below 1e-12) suppressed."""
    re_part, im_part = _round15(value.real), _round15(value.imag)
    if re_part == 0.0 and im_part == 0.0:
        return "0"
    re_text = format(re_part, "g")
    im_text = format(abs(im_part), "g") + "i"
    if im_part == 0.0:
        return re_text
    if re_part == 0.0:
        return ("-" if im_part < 0 else "") + im_text
    return f"{re_text}{'+' if im_part > 0 else '-'}{im_text}"


def _json_text(obj, newline: str = "\n") -> str:
    """``obj`` as ``json.dumps(..., indent=2)`` writes it, each float through ``_round15``.

    NaN and infinities are written as ``null``; ``newline`` is the line
    break plus the indent of ``obj``'s own line.  A plain recursive function,
    unlike the stdlib's indenting encoder, leaves no reference cycles.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return float.__repr__(_round15(obj))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


def _fitted_order(order: float) -> float | str:
    """A fitted order for JSON, which has no ``inf`` or ``nan`` to tell the two cases apart."""
    if math.isinf(order):
        return "exact"
    if math.isnan(order):
        return "not fittable"
    return order


def _load_scenario(arg: str):
    if arg == "-":
        return parse_scenario(sys.stdin.read(), name="<stdin>")
    if arg in BUILTIN_TEXTS:
        return builtin_scenario(arg)
    try:
        with open(arg, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise OSError(f"cannot read scenario file {arg!r}: {exc.strerror or exc}") from None
    return parse_scenario(text, name=arg)


def _cmd_weakvalues(ns, scenario, ident: dict) -> tuple[dict, list[str]]:
    probability = postselect_probability(scenario)
    table = weak_value_table(scenario)
    document = {
        "scenario": ident,
        "postselection_probability": probability,
        "weak_values": [
            {"arm": r.arm, "boundary": r.boundary, "re": r.value.real, "im": r.value.imag}
            for r in table
        ],
    }
    lines = [
        f"scenario {ident['name']} (sha256 {ident['sha256']})",
        f"postselection probability: {format(_round15(probability), 'g')}",
        f"{'arm':<5} {'boundary':>8}  weak value",
    ]
    for r in table:
        lines.append(f"{r.arm:<5} {r.boundary:>8}  {format_complex(r.value)}")
    return document, lines


def _cmd_trace(ns, scenario, ident: dict) -> tuple[dict, list[str]]:
    presence = presence_map(scenario, ns.threshold)
    verdict = continuity_check(presence, scenario.adjacency)
    document = {
        "scenario": ident,
        "trace": {
            "present": list(presence.present_arms()),
            "gaps": list(verdict.gap_arms),
            "continuous": verdict.continuous,
        },
    }
    word = "continuous" if verdict.continuous else "discontinuous"
    lines = [
        f"{word}; present: {','.join(presence.present_arms()) or '-'};"
        f" gaps: {','.join(verdict.gap_arms) or '-'}"
    ]
    return document, lines


def _cmd_sweep(ns, scenario, ident: dict) -> tuple[dict, list[str]]:
    boundary = ns.boundary
    if boundary is None:
        boundary = dict(scenario.canonical_slots()).get(ns.arm)
        if boundary is None:
            raise ValueError(f"arm {ns.arm!r} has no canonical coupling slot; pass --boundary")
    pointer = PointerSpec(name=ns.arm, arm=ns.arm, boundary=boundary, strength=0.0, width=ns.sigma)
    report = weak_limit_sweep(scenario, pointer, ns.g)
    document = {
        "scenario": ident,
        "sweeps": [
            {
                "arm": report.arm,
                "boundary": report.boundary,
                "sigma": report.width,
                "weak_value_re": report.weak_value.real,
                "weak_value_im": report.weak_value.imag,
                "p_zero": report.p_zero,
                "entries": [
                    {
                        "g": e.g,
                        "shift": e.mean_position_shift,
                        "shift_over_g": e.shift_over_g,
                        "deviation": e.deviation,
                        "postselection_probability": e.postselection_probability,
                        "disturbance": e.disturbance,
                    }
                    for e in report.entries
                ],
                "fitted_shift_order": _fitted_order(report.fitted_shift_order),
                "fitted_disturbance_order": _fitted_order(report.fitted_disturbance_order),
            }
        ],
    }
    lines = [
        f"scenario {ident['name']} (sha256 {ident['sha256']})",
        f"pointer on {report.arm} at boundary {report.boundary}, sigma "
        f"{format(_round15(report.width), 'g')}, weak value {format_complex(report.weak_value)}",
        f"{'g':>10} {'shift':>22} {'shift/g':>22} {'deviation':>12} {'P(g)':>22}",
    ]
    for e in report.entries:
        over = "-" if e.shift_over_g is None else format(_round15(e.shift_over_g), "g")
        dev = "-" if e.deviation is None else format(e.deviation, ".3e")
        lines.append(
            f"{format(_round15(e.g), 'g'):>10} {format(_round15(e.mean_position_shift), 'g'):>22}"
            f" {over:>22} {dev:>12} {format(_round15(e.postselection_probability), 'g'):>22}"
        )

    def order_text(order: float) -> str:
        if math.isinf(order):
            return "exact (errors below numerical floor)"
        if math.isnan(order):
            return "not fittable (single data point)"
        return format(order, ".3f")

    lines.append(f"fitted shift order: {order_text(report.fitted_shift_order)}")
    lines.append(f"fitted disturbance order: {order_text(report.fitted_disturbance_order)}")
    return document, lines


def _cmd_validate(ns, scenario, ident: dict) -> tuple[dict, list[str]]:
    document = {"scenario": ident, "diagnostics": []}
    return document, [f"ok: {ident['name']} (sha256 {ident['sha256']})"]


def _g_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed strength list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty strength list")
    for g in values:
        if 0.0 < g <= ZERO_DISPLAY:  # its row would print g as 0, like a g = 0 baseline
            raise argparse.ArgumentTypeError(
                f"strength {g!r} is at or below the display floor {ZERO_DISPLAY:g}"
            )
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each ``parse_args`` returns a fresh namespace."""
    parser = _Parser(prog="weaktrace", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "scenario", help="builtin name (fig1, fig2), a scenario file path, or '-' for stdin"
        )
        sub.add_argument("--format", choices=("table", "json"), default="table")
        sub.set_defaults(func=func)
        return sub

    add("weakvalues", _cmd_weakvalues, "weak values at every canonical coupling slot")

    sub = add("trace", _cmd_trace, "arm presence and path-continuity verdict")
    sub.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)

    sub = add("sweep", _cmd_sweep, "finite-strength pointer readouts over descending g")
    sub.add_argument("--arm", required=True)
    sub.add_argument("--g", required=True, type=_g_list, help="comma-separated strengths")
    sub.add_argument("--sigma", type=float, default=1.0)
    sub.add_argument("--boundary", type=int, default=None)

    sub = commands.add_parser("builtin", help="print a bundled scenario in the textual grammar")
    sub.add_argument("name")

    add("validate", _cmd_validate, "parse and check a scenario, reporting diagnostics")
    return parser


def execute(argv: list[str] | None = None) -> int:
    """Run one command; every scenario command is loaded, identified and printed here."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits 0 inside argparse
        return int(exc.code or 0)
    try:
        if ns.command == "builtin":
            sys.stdout.write(serialize_scenario(builtin_scenario(ns.name)))
            return 0
        scenario = _load_scenario(ns.scenario)
        digest = hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()
        ident = {"name": scenario.name or "<unnamed>", "sha256": digest[:12]}
        document, lines = ns.func(ns, scenario, ident)
        if ns.format == "json":
            lines = [_json_text(document)]
        print("\n".join(lines))
        return 0
    except (ScenarioParseError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
