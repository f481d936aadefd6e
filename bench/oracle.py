"""Independent reference answers, computed from the generator's records.

Nothing here imports ``weaktrace``.  Stage matrices are written column by
column from each element's port assignment (in the style of the package's
test oracles), evolution is a plain dense product, the trace verdict is a
breadth-first search over the reference presence, and pointer readouts
are either a closed-form sum over the live branches or a quadrature of
the post-selected pointer wavefunction on a position grid.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from scengen import AMPLITUDES, ANGLES, Spec

#: Weak values of every arm at one boundary must sum to 1 within this.
SUM_RULE_TOL = 1e-9


class Reference:
    """Dense two-state evolution of one generated scenario."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.pols = ("H", "V") if spec.polarization else (None,)
        self.index = {(arm, pol): n for n, (arm, pol) in enumerate(
            (arm, pol) for arm in spec.modes for pol in self.pols)}
        self.dim = len(self.index)
        self.stages = [self._stage(elements) for _, elements in spec.stages]
        pre, post = self._state(spec.pre), self._state(spec.post)
        self.fwd = [pre]
        for u in self.stages:
            self.fwd.append(u @ self.fwd[-1])
        self.bwd = [post]
        for u in reversed(self.stages):
            self.bwd.insert(0, u.conj().T @ self.bwd[0])
        self.amplitude = complex(np.vdot(post, self.fwd[-1]))
        self.probability = abs(self.amplitude) ** 2
        self.post = post

    # -- construction ------------------------------------------------------

    def _state(self, terms) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.complex128)
        for amp, arm, pol in terms:
            vec[self.index[(arm, pol)]] += AMPLITUDES[amp]
        return vec

    def _columns(self, images: dict[str, dict[str, complex]]) -> np.ndarray:
        """Matrix whose arm column ``src`` is ``sum amp |dst>``, identity elsewhere."""
        mat = np.eye(self.dim, dtype=np.complex128)
        for src, image in images.items():
            for pol in self.pols:
                mat[:, self.index[(src, pol)]] = 0.0
                for dst, amp in image.items():
                    mat[self.index[(dst, pol)], self.index[(src, pol)]] = amp
        return mat

    def _stage(self, elements) -> np.ndarray:
        u = np.eye(self.dim, dtype=np.complex128)
        for e in elements:
            u = self._element(e) @ u
        return u

    def _element(self, e) -> np.ndarray:
        if e.kind == "beamsplitter":
            in1, in2, out1, out2 = e.arms
            t = ANGLES[e.angle]
            c, s = math.cos(t), 1j * math.sin(t)
            images = {in1: {out1: c, out2: s}, in2: {out1: s, out2: c}}
            # Labels the beams move onto hand their old content back.
            if out1 != in1:
                images[out1] = {in1: 1.0}
            if out2 != in2:
                images[out2] = {in2: 1.0}
            return self._columns(images)
        if e.kind == "phaseshifter":
            return self._columns({e.arms[0]: {e.arms[0]: complex(math.cos(ANGLES[e.angle]),
                                                                 math.sin(ANGLES[e.angle]))}})
        if e.kind == "mirror":
            return self._columns({e.arms[0]: {e.arms[0]: 1j}})
        if e.kind == "waveplate":
            t = ANGLES[e.angle]
            h, v = self.index[(e.arms[0], "H")], self.index[(e.arms[0], "V")]
            mat = np.eye(self.dim, dtype=np.complex128)
            mat[h, h], mat[h, v], mat[v, h], mat[v, v] = (
                math.cos(t), -math.sin(t), math.sin(t), math.cos(t))
            return mat
        raise ValueError(f"unknown element kind {e.kind!r}")

    # -- answers -----------------------------------------------------------

    def arm_rows(self, arm: str) -> list[int]:
        return [self.index[(arm, pol)] for pol in self.pols]

    def weak_value(self, arm: str, boundary: int) -> complex:
        rows = self.arm_rows(arm)
        fwd, bwd = self.fwd[boundary], self.bwd[boundary]
        return complex(np.vdot(bwd[rows], fwd[rows])) / complex(np.vdot(bwd, fwd))

    def table(self) -> list[tuple[str, int, complex]]:
        return [(arm, b, self.weak_value(arm, b)) for arm, b in self.spec.canonical_slots()]

    def sum_rule_residual(self) -> float:
        """Largest |sum over arms of the weak values - 1| over all boundaries."""
        return max(abs(sum(self.weak_value(arm, b) for arm in self.spec.modes) - 1.0)
                   for b in range(len(self.stages) + 1))

    def verdict(self, threshold: float) -> tuple[list[str], list[str], bool]:
        """(present arms, gap arms, continuous) by BFS from SOURCE over present arms."""
        table = self.table()
        present = [arm for arm, _, v in table if abs(v) > threshold]
        absent = [arm for arm, _, v in table if abs(v) <= threshold]
        nodes = set(present) | {"SOURCE", "DETECTOR"}
        edges = {n: set() for n in nodes}
        for a, b in self.spec.adjacency:
            if a in nodes and b in nodes:
                edges[a].add(b)
                edges[b].add(a)
        reached, queue = {"SOURCE"}, deque(["SOURCE"])
        while queue:
            for nxt in edges[queue.popleft()] - reached:
                reached.add(nxt)
                queue.append(nxt)
        continuous = bool(present) and "DETECTOR" in reached and set(present) <= reached
        touching = {x for a, b in self.spec.adjacency for x, y in ((a, b), (b, a)) if y in present}
        gaps = sorted(arm for arm in absent if arm in touching)
        return present, gaps, continuous

    def branches(self, pointers) -> tuple[np.ndarray, np.ndarray]:
        """Live branches after coupling ``pointers`` = [(arm, boundary, g, sigma)].

        Returns the post-selected branch weights and their shift vectors.
        Components below 1e-13 in norm are dropped, which moves a readout
        by far less than the checking tolerance; no merging is needed since
        distinct hit patterns carry distinct shifts when every g > 0.
        """
        n = len(pointers)
        live = {(): self.fwd[0]}
        for boundary in range(len(self.stages) + 1):
            for k in sorted(range(n), key=lambda k: pointers[k][1]):
                arm, b, _, _ = pointers[k]
                if b != boundary:
                    continue
                rows = self.arm_rows(arm)
                split = {}
                for pattern, vec in live.items():
                    hit = np.zeros_like(vec)
                    hit[rows] = vec[rows]
                    for bit, part in ((0, vec - hit), (1, hit)):
                        if np.linalg.norm(part) > 1e-13:
                            split[pattern + ((k, bit),)] = part
                live = split
            if boundary < len(self.stages):
                live = {p: self.stages[boundary] @ v for p, v in live.items()}
        weights = np.array([np.vdot(self.post, v) for v in live.values()], dtype=np.complex128)
        shifts = np.zeros((len(live), n))
        for row, pattern in enumerate(live):
            for k, bit in pattern:
                shifts[row, k] = bit * pointers[k][2]
        return weights, shifts

    def readout(self, pointers) -> tuple[float, list[float], list[float]]:
        """(probability, mean position shifts, mean momentum shifts), closed form."""
        weights, shifts = self.branches(pointers)
        sigmas = np.array([p[3] for p in pointers])
        diff = shifts[:, None, :] - shifts[None, :, :]
        cross = np.conj(weights)[:, None] * weights[None, :] * np.exp(
            -np.sum(diff**2 / (8.0 * sigmas**2), axis=-1))
        probability = float(np.sum(cross).real)
        xs = [float(np.sum(cross * (shifts[:, None, k] + shifts[None, :, k]) / 2).real) / probability
              for k in range(len(pointers))]
        ps = [float(np.sum(cross * 1j * diff[:, :, k] / (4 * sigmas[k] ** 2)).real) / probability
              for k in range(len(pointers))]
        return probability, xs, ps

    def grid_readout(self, pointer, n_points: int = 4096, half_span: float = 12.0):
        """Single-pointer (probability, mean x, mean p) by quadrature on a grid."""
        weights, shifts = self.branches([pointer])
        sigma = pointer[3]
        span = half_span * sigma + float(np.max(np.abs(shifts)))
        x = -span + (2.0 * span / n_points) * np.arange(n_points)
        dx = x[1] - x[0]
        psi = np.zeros(n_points, dtype=np.complex128)
        for w, s in zip(weights, shifts[:, 0]):
            psi += w * (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-((x - s) ** 2) / (4.0 * sigma**2))
        density = np.abs(psi) ** 2
        probability = float(density.sum() * dx)
        mean_x = float((x * density).sum() * dx / probability)
        k = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
        spectrum = np.abs(np.fft.fft(psi)) ** 2
        return probability, mean_x, float((k * spectrum).sum() / spectrum.sum())


def close(value: float | complex, reference: float | complex, tol: float = 1e-9) -> bool:
    """Agreement within ``tol`` relative to max(1, |reference|)."""
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def check_pins(fig1: Reference, fig2: Reference) -> None:
    """Raise unless the reference reproduces the paper's figures."""
    got = {arm: v for arm, _, v in fig1.table()}
    want = {"D": 0.0, "A": 1.0, "B": 0.5, "C": -0.5, "E": 0.0}
    if any(not close(got[arm], want[arm], 1e-12) for arm in want):
        raise AssertionError(f"fig1 reference weak values {got} differ from {want}")
    if fig1.verdict(1e-9) != (["A", "B", "C"], ["D", "E"], False):
        raise AssertionError(f"fig1 reference verdict {fig1.verdict(1e-9)}")
    got2 = {arm: v for arm, _, v in fig2.table()}
    quarter = 1.0 / (2.0 * math.sqrt(2.0))
    if not (close(got2["B"], quarter, 1e-12) and close(got2["C"], -quarter, 1e-12)):
        raise AssertionError(f"fig2 reference weak values B, C = {got2['B']}, {got2['C']}")
    for ref in (fig1, fig2):
        if ref.sum_rule_residual() > SUM_RULE_TOL:
            raise AssertionError(f"{ref.spec.name}: arm weak values do not sum to 1")
