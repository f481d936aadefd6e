"""Independent brute-force references used to freeze expected values.

The stage matrices here are written out column by column from the reference
interferometer's port assignments, without going through the package's
element machinery (``optics.apply_element``).  One pointer oracle integrates Gaussian
wavepackets on a dense grid instead of using closed-form overlaps; another
couples pointers longhand and sums the closed-form overlaps over every
branch, with no branch skipped; a third splits every row once per pointer
and keeps the rows that can carry amplitude, to compare row for row.  The
scenario-text references are the regex tokenizer and the ``Fraction``
angle formatter that ``scendsl`` replaced.  The readout kernel's reference
sums each L x L block on its own, and the JSON reference is the stdlib's
``json.dumps(..., indent=2)`` over rounded copies, both as ``weakmeas`` and
``cli`` did before they replaced them.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from weaktrace.cli import _round15
from weaktrace.scendsl import parse_angle

ARMS = ("S", "A", "B", "C", "D", "E", "F")

_C = 1.0 / np.sqrt(2.0)
_IS = 1j / np.sqrt(2.0)


def _columns_to_matrix(images: dict[str, dict[str, complex]]) -> np.ndarray:
    mat = np.zeros((7, 7), dtype=np.complex128)
    for src in ARMS:
        column = images.get(src, {src: 1.0})
        for dst, amp in column.items():
            mat[ARMS.index(dst), ARMS.index(src)] = amp
    return mat


def fig1_stage_matrices() -> list[np.ndarray]:
    """Stage unitaries of the three-path interferometer, written longhand."""
    split = _columns_to_matrix(
        {
            "S": {"D": _C, "A": _IS},
            "A": {"D": _IS, "A": _C},
            "D": {"S": 1.0},
        }
    )
    inner_split = _columns_to_matrix(
        {
            "D": {"C": _C, "B": _IS},
            "B": {"C": _IS, "B": _C},
            "C": {"D": 1.0},
        }
    )
    inner_merge = _columns_to_matrix(
        {
            "C": {"E": _C, "F": _IS},
            "B": {"E": _IS, "F": _C},
            "E": {"C": 1.0},
            "F": {"B": 1.0},
        }
    )
    return [split, inner_split, inner_merge]


def _pol_index(arm: str, pol: int) -> int:
    return ARMS.index(arm) * 2 + pol


def _pol_rotation(arm: str, angle: float) -> np.ndarray:
    mat = np.eye(14, dtype=np.complex128)
    c, s = np.cos(angle), np.sin(angle)
    h, v = _pol_index(arm, 0), _pol_index(arm, 1)
    mat[h, h] = c
    mat[h, v] = -s
    mat[v, h] = s
    mat[v, v] = c
    return mat


def fig2_stage_matrices() -> list[np.ndarray]:
    """Polarized variant: same splitters, wave plates inside the inner loop."""
    pol_identity = np.eye(2, dtype=np.complex128)
    split, inner_split, inner_merge = (
        np.kron(stage, pol_identity) for stage in fig1_stage_matrices()
    )
    inner_split = _pol_rotation("C", -np.pi / 4) @ _pol_rotation("B", np.pi / 4) @ inner_split
    return [split, inner_split, inner_merge]


def element_matrix(
    path_modes: tuple[str, ...],
    polarization: bool,
    kind: str,
    operands: tuple[str, ...],
    parameters: tuple[float, ...] = (),
) -> np.ndarray:
    """Dense matrix of one optical element, written from the ``ElementSpec`` docstring.

    Arm-major, polarization-minor order.  A beamsplitter is the 2x2 mixer
    ``[[c, i s], [i s, c]]`` on ``(out1, out2)`` after the label
    permutation that swaps each input arm with its output arm, both
    tensored with the polarization identity.  A waveplate is the H/V
    rotation ``[[c, -s], [s, c]]`` on its arm; a phaseshifter multiplies its
    arm by ``exp(i angle)`` and a mirror by ``i``.
    """
    n, p = len(path_modes), 2 if polarization else 1
    arm = {label: i for i, label in enumerate(path_modes)}
    if kind == "beamsplitter":
        in1, in2, out1, out2 = operands
        dest = {label: label for label in path_modes}
        for a, b in ((in1, out1), (in2, out2)):
            dest[a], dest[b] = b, a
        permutation = np.zeros((n, n))
        for label in path_modes:
            permutation[arm[dest[label]], arm[label]] = 1.0
        c, s = np.cos(parameters[0]), np.sin(parameters[0])
        mixer = np.eye(n, dtype=np.complex128)
        o1, o2 = arm[out1], arm[out2]
        mixer[o1, o1], mixer[o1, o2], mixer[o2, o1], mixer[o2, o2] = c, 1j * s, 1j * s, c
        return np.kron(mixer @ permutation, np.eye(p))
    mat = np.eye(n * p, dtype=np.complex128)
    rows = [arm[operands[0]] * p + pol for pol in range(p)]
    if kind == "waveplate":
        c, s = np.cos(parameters[0]), np.sin(parameters[0])
        h, v = rows
        mat[h, h], mat[h, v], mat[v, h], mat[v, v] = c, -s, s, c
    else:
        phase = np.exp(1j * parameters[0]) if kind == "phaseshifter" else 1j
        for row in rows:
            mat[row, row] = phase
    return mat


def fig1_states() -> tuple[np.ndarray, np.ndarray]:
    pre = np.zeros(7, dtype=np.complex128)
    pre[ARMS.index("S")] = 1.0
    post = np.zeros(7, dtype=np.complex128)
    post[ARMS.index("A")] = _C
    post[ARMS.index("E")] = 1j * _C
    return pre, post


def fig2_states() -> tuple[np.ndarray, np.ndarray]:
    pre = np.zeros(14, dtype=np.complex128)
    pre[_pol_index("S", 0)] = 1.0
    post = np.zeros(14, dtype=np.complex128)
    post[_pol_index("A", 0)] = _C
    post[_pol_index("E", 0)] = 1j * _C
    return pre, post


def evolve_forward(stages: list[np.ndarray], pre: np.ndarray, boundary: int) -> np.ndarray:
    state = pre.copy()
    for stage in stages[:boundary]:
        state = stage @ state
    return state


def evolve_backward(stages: list[np.ndarray], post: np.ndarray, boundary: int) -> np.ndarray:
    state = post.copy()
    for stage in reversed(stages[boundary:]):
        state = stage.conj().T @ state
    return state


def oracle_amplitude(
    stages: list[np.ndarray],
    pre: np.ndarray,
    post: np.ndarray,
    observable: np.ndarray | None = None,
    boundary: int | None = None,
) -> complex:
    boundary = len(stages) if boundary is None else boundary
    fwd = evolve_forward(stages, pre, boundary)
    if observable is not None:
        fwd = observable @ fwd
    bwd = evolve_backward(stages, post, boundary)
    return complex(np.vdot(bwd, fwd))


def grid_pointer_readout(
    weights: np.ndarray,
    shifts: np.ndarray,
    sigma: float,
    n_points: int = 4096,
    half_span: float = 12.0,
) -> tuple[float, float, float]:
    """Post-selected pointer statistics by quadrature on a position grid.

    The post-selected pointer wavefunction is a weighted sum of displaced
    Gaussians; probability and position mean come from the rectangle rule,
    the momentum mean from the Fourier spectrum, so no closed-form overlap
    formulas enter.
    """
    span = half_span * sigma
    x = -span + (2.0 * span / n_points) * np.arange(n_points)
    dx = x[1] - x[0]
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    psi = np.zeros(n_points, dtype=np.complex128)
    for w, s in zip(weights, shifts):
        psi += w * norm * np.exp(-((x - s) ** 2) / (4.0 * sigma**2))
    density = np.abs(psi) ** 2
    probability = float(density.sum() * dx)
    mean_x = float((x * density).sum() * dx / probability)
    k = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    spectrum = np.abs(np.fft.fft(psi)) ** 2
    mean_p = float((k * spectrum).sum() / spectrum.sum())
    return probability, mean_x, mean_p


def full_sum_pointer_readout(
    stages: list[np.ndarray],
    pre: np.ndarray,
    post: np.ndarray,
    pointers: list[tuple[str, int, float, float]],
    pol_dim: int = 1,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Post-selected pointer means from closed-form overlaps over every branch.

    ``pointers`` holds one ``(arm, boundary, g, sigma)`` per pointer, applied
    in boundary order.  Each coupling splits every branch into its arm
    component, shifted by ``g``, and the rest; the longhand stage matrices
    then evolve each branch on its own.  All 2**N branches, exactly vanishing
    ones included, enter the pairwise Gaussian overlap sums.  Returns the
    post-selection probability and each pointer's mean position and
    momentum shift.
    """
    dim = len(pre)
    systems, shifts = [pre.copy()], [np.zeros(len(pointers))]
    for boundary in range(len(stages) + 1):
        for k, (arm, at, g, _) in enumerate(pointers):
            if at != boundary:
                continue
            projector = np.zeros((dim, dim))
            for p in range(pol_dim):
                row = ARMS.index(arm) * pol_dim + p
                projector[row, row] = 1.0
            split_systems, split_shifts = [], []
            for system, shift in zip(systems, shifts):
                hit = projector @ system
                moved = shift.copy()
                moved[k] += g
                split_systems += [system - hit, hit]
                split_shifts += [shift, moved]
            systems, shifts = split_systems, split_shifts
        if boundary < len(stages):
            systems = [stages[boundary] @ system for system in systems]
    weights = np.array([np.vdot(post, system) for system in systems])
    shifts = np.array(shifts)
    log_overlap = np.zeros((len(systems), len(systems)))
    for k, (*_, sigma) in enumerate(pointers):
        log_overlap -= (shifts[:, None, k] - shifts[None, :, k]) ** 2 / (8.0 * sigma**2)
    cross = np.conj(weights)[:, None] * weights[None, :] * np.exp(log_overlap)
    probability = float(cross.sum().real)
    mean_x, mean_p = [], []
    for k, (*_, sigma) in enumerate(pointers):
        a, b = shifts[:, None, k], shifts[None, :, k]
        mean_x.append(float((cross * (a + b) / 2.0).sum().real) / probability)
        mean_p.append(float((cross * 1j * (a - b) / (4.0 * sigma**2)).sum().real) / probability)
    return probability, np.array(mean_x), np.array(mean_p)


def consistent_pointer_rows(
    stages: list[np.ndarray],
    pre: np.ndarray,
    pointers: list[tuple[str, int, float]],
    modes: tuple[str, ...],
    pol_dim: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """System rows and shifts of the longhand 2**N split that can carry amplitude.

    ``pointers`` holds one ``(arm, boundary, g)`` per pointer, on the path
    modes ``modes`` in basis order.  The one row starts as ``pre`` at
    boundary 0 and is multiplied by every stage, coupled or not.  At each
    boundary every coupling, in the given order, splits every row into the
    rest and its arm component, which carries the shift ``g``; each stage
    then multiplies the whole stack as one product.  A row is kept, in
    split order, when at each boundary its shifted pointers are none or all
    of one arm's pointers there.  Every other row projects onto two
    distinct arms, or onto an arm and its complement, and is exactly 0.
    """
    n, dim = len(pointers), len(pre)
    systems, hits = pre[None, :].copy(), np.zeros((1, n), dtype=bool)
    for boundary in range(len(stages) + 1):
        for k, (arm, at, _) in enumerate(pointers):
            if at != boundary:
                continue
            on_arm = np.zeros(dim)
            on_arm[modes.index(arm) * pol_dim : (modes.index(arm) + 1) * pol_dim] = 1.0
            hit = systems * on_arm
            systems = np.stack([systems - hit, hit], axis=1).reshape(-1, dim)
            hits = np.stack([hits, hits], axis=1).reshape(-1, n)
            hits[1::2, k] = True
        if boundary < len(stages):
            systems = systems @ stages[boundary].T
    keep = []
    for row in hits:
        consistent = True
        for boundary in range(len(stages) + 1):
            here = [k for k, (_, at, _) in enumerate(pointers) if at == boundary]
            fired = {k for k in here if row[k]}
            arms = {pointers[k][0] for k in fired}
            if fired and (len(arms) > 1 or fired != {k for k in here if pointers[k][0] in arms}):
                consistent = False
        keep.append(consistent)
    assert not systems[~np.array(keep)].any(), "a dropped row carries amplitude"
    shifts = np.where(hits, [g for *_, g in pointers], 0.0)
    return systems[keep], shifts[keep]


def basis_vector(basis, arm: str, pol: str | None = None) -> np.ndarray:
    """The basis ket ``|arm>`` (or ``|arm, pol>``) of a package basis, as amplitudes."""
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    amps[basis.index(arm, pol)] = 1.0
    return amps


def union_find_continuity(arms, present, adjacency) -> tuple[bool, set, tuple[str, ...]]:
    """Continuity verdict for a given set of present arms, by union-find.

    Returns ``(continuous, components, gaps)``.  Present arms and the two
    endpoints are joined along adjacency edges; each group holding an arm
    is one component ``(sorted arms, touches SOURCE, touches DETECTOR)``.
    The gaps are the sorted absent arms with an edge to a present arm.
    """
    nodes = set(present) | {"SOURCE", "DETECTOR"}
    parent = {node: node for node in nodes}

    def root(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for a, b in adjacency:
        if a in nodes and b in nodes:
            parent[root(a)] = root(b)
    groups: dict[str, set[str]] = {}
    for node in nodes:
        groups.setdefault(root(node), set()).add(node)
    components = set()
    for group in groups.values():
        members = tuple(sorted(group & set(present)))
        if members:
            components.add((members, "SOURCE" in group, "DETECTOR" in group))
    continuous = any(
        touches_source and touches_detector and set(members) == set(present)
        for members, touches_source, touches_detector in components
    )
    gaps = set()
    for a, b in adjacency:
        for x, y in ((a, b), (b, a)):
            if x in arms and x not in present and y in present:
                gaps.add(x)
    return continuous, components, tuple(sorted(gaps))


def tokenize_reference(text: str) -> list[tuple[int, int, str]]:
    """``(line, column, word)`` of every word, by one ``\\S+`` regex per line.

    Lines end at ``\\n`` only and a ``#`` comment runs to the end of its line.
    """
    tokens = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        content = raw.split("#", 1)[0]
        tokens += [(line_no, m.start() + 1, m.group(0)) for m in re.finditer(r"\S+", content)]
    return tokens


def format_angle_reference(value: float) -> str:
    """Canonical angle literal through ``Fraction.limit_denominator(96)``."""
    if value == 0.0:
        return "0"
    frac = Fraction(value / math.pi).limit_denominator(96)
    if frac != 0:
        sign = "-" if frac < 0 else ""
        k, n = abs(frac.numerator), frac.denominator
        token = f"{sign}{'' if k == 1 else k}pi{'' if n == 1 else f'/{n}'}"
        if parse_angle(token) == value:
            return token
    return repr(value)


def read_shift_sets_reference(
    weights: np.ndarray, shifts: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``weakmeas._read_shift_sets`` with each L x L block summed by its own ``np.add.reduce``."""
    sets, live, n = shifts.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        quarter = 4.0 * widths**2
        diff = shifts[:, :, None, :] - shifts[:, None, :, :]
        log_overlap = np.add.reduce(diff**2 / (-2.0 * quarter), axis=-1)
        cross = (np.conj(weights)[:, None] * weights[None, :] * np.exp(log_overlap))[:, None]
        per_pointer = shifts.transpose(0, 2, 1)[..., None]
        centers = (per_pointer + per_pointer.transpose(0, 1, 3, 2)) / 2.0
        momenta = 1j * diff.transpose(0, 3, 1, 2) / quarter[:, None, None]
        terms = np.concatenate((cross, cross * centers, cross * momenta), axis=1)
        blocks = terms.reshape(sets * (1 + 2 * n), live, live)
        sums = np.array([np.add.reduce(block, axis=None) for block in blocks]).real
        sums = sums.reshape(sets, 1 + 2 * n)
        probability = sums[:, 0]
        means = sums[:, 1:] / probability[:, None]
    return probability, means[:, :n], means[:, n:]


def _json_ready(obj):
    if isinstance(obj, float):
        return None if math.isnan(obj) or math.isinf(obj) else _round15(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def json_reference(document) -> str:
    """The CLI's JSON text: floats rounded to 15 digits, non-finite ones ``null``."""
    return json.dumps(_json_ready(document), indent=2)
