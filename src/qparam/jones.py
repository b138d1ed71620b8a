"""Braid words, plat closures, the path-model braid representation at
t = e^{2πi/k}, and the exact Kauffman bracket of the plat closure by a
Temperley-Lieb transfer over noncrossing matchings of the strand ends.

Conventions (fixed project-wide and validated end-to-end):
  * A = e^{-iπ/(2k)}, the principal branch of t^{-1/4}.
  * Positive letter ⇒ positive crossing; writhe = sum of letter signs.
  * Bracket smoothing: a positive crossing resolves to the vertical
    (identity) smoothing with weight A and the cup-cap smoothing with
    weight A^{-1}; negative crossings swap the weights.
  * Generator image U_i = i·e^{3iπ/k}·(a·I − a^{-1}·E_i) with a = A and
    E_i the Temperley-Lieb path-model generator; the phase makes the
    plat amplitude match the bracket normalization exactly.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from math import cos, pi, sin, sqrt

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInputError, ResourceError
from .estimators import EstimateReport, sample_amplitude
from .linalg import json_int

# matching entries (matchings × strands) × (crossings left + 1) the bracket may face
BRACKET_ENTRY_LIMIT = 2**22
PATH_MODEL_DIM_LIMIT = 4096


def _check_level(k: int):
    if not (k == 5 or k >= 7):
        raise InvalidInputError(f"k must be 5 or at least 7, got {k}")


@dataclass(frozen=True)
class BraidWord:
    """Signed generator word; letter g crosses strands |g|-1 and |g| with
    sign(g) giving the crossing direction."""

    strands: int
    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        if self.strands <= 0 or self.strands % 2 != 0:
            raise InvalidInputError(
                f"strand count must be even and positive, got {self.strands}"
            )
        for g in self.word:
            if g == 0 or abs(g) >= self.strands:
                raise InvalidInputError(
                    f"letter {g} out of range for {self.strands} strands"
                )

    def to_json(self) -> dict:
        return {"strands": self.strands, "word": list(self.word)}

    @classmethod
    def from_json(cls, data: dict) -> "BraidWord":
        try:
            return cls(json_int(data["strands"], "strands"),
                       tuple(json_int(g, "braid letter") for g in data["word"]))
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed braid JSON: {exc}") from exc


def writhe(braid: BraidWord) -> int:
    """Signed crossing count; plat caps add no crossings."""
    return sum(1 if g > 0 else -1 for g in braid.word)


@dataclass(frozen=True)
class LinkDiagram:
    """Plat closure of a braid: ordered crossings plus caps on both ends."""

    strands: int
    crossings: tuple[tuple[int, int], ...]  # (position i, sign ±1)


def plat_closure(braid: BraidWord) -> LinkDiagram:
    """The plat-closed diagram: the braid's crossings between the caps."""
    return LinkDiagram(braid.strands,
                       tuple((abs(g), 1 if g > 0 else -1) for g in braid.word))


def _require_work(matchings: int, strands: int, crossings_left: int):
    if matchings * strands * (crossings_left + 1) > BRACKET_ENTRY_LIMIT:
        raise ResourceError(
            f"bracket transfer holds {matchings} matchings of {strands} strand "
            f"ends, {crossings_left} crossings left: over {BRACKET_ENTRY_LIMIT}"
        )


def _closed_loops(partner: tuple[int, ...]) -> int:
    """Loops formed when the right caps (j, j ^ 1) close a matching."""
    seen, loops = bytearray(len(partner)), 0
    for start in range(len(partner)):
        if not seen[start]:
            loops += 1
            j = start
            while not seen[j]:
                seen[j] = seen[partner[j]] = 1
                j = partner[j] ^ 1
    return loops


def kauffman_bracket(diagram: LinkDiagram, a_value: complex) -> complex:
    """Bracket of the plat closure, with a single loop normalized to 1.

    A Temperley-Lieb transfer: ``partner[j]`` is the end joined to strand end
    j by the crossings read so far, starting from the left caps. A crossing
    (i, sign) keeps each matching with weight A^sign and joins ends i-1 and i
    with weight A^-sign, closing a loop (factor δ) if they were partners.
    At most min(2^c, Catalan(strands/2)) matchings are held, none dropped; past
    ``BRACKET_ENTRY_LIMIT`` entries × (crossings left + 1), work it would surely
    do, checked before the first matching and after each crossing, or for a
    value beyond the float range, it raises ``ResourceError``.
    """
    strands = diagram.strands
    _require_work(1, strands, len(diagram.crossings))
    a = complex(a_value)
    delta = -(a**2) - a ** (-2)
    states = {tuple(j ^ 1 for j in range(strands)): 1.0 + 0.0j}
    for done, (i, sign) in enumerate(diagram.crossings, 1):
        keep, join = (a, 1 / a) if sign > 0 else (1 / a, a)
        out = {}
        for partner, coeff in states.items():
            out[partner] = out.get(partner, 0.0) + keep * coeff
            p, q = partner[i - 1], partner[i]
            if p == i:
                joined, coeff = partner, coeff * delta
            else:
                new = list(partner)
                new[p], new[q], new[i - 1], new[i] = q, p, i, i - 1
                joined = tuple(new)
            out[joined] = out.get(joined, 0.0) + join * coeff
        states = out
        _require_work(len(states), strands, len(diagram.crossings) - done)
    try:  # the right caps close each matching into loops
        total = sum(c * delta ** (_closed_loops(m) - 1) for m, c in states.items())
    except OverflowError:
        total = cmath.inf
    if not cmath.isfinite(total):
        raise ResourceError("bracket value is beyond the float range")
    return total


def jones_exact(braid: BraidWord, k: int) -> complex:
    """V(t) at t = e^{2πi/k} from the bracket and the writhe correction."""
    _check_level(k)
    a = np.exp(-1j * pi / (2 * k))
    w = writhe(braid)
    return complex((-a) ** (-3 * w) * kauffman_bracket(plat_closure(braid), a))


@dataclass(frozen=True)
class PathModel:
    """Walks of length `strands` on {1..k-1} starting at 1, steps ±1.

    The walks are extended one step at a time, and no step lowers their
    number, so a model with more than ``PATH_MODEL_DIM_LIMIT`` walks is
    refused with ``ResourceError`` as soon as one step exceeds it.
    """

    strands: int
    k: int
    basis: tuple[tuple[int, ...], ...] = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        _check_level(self.k)
        if self.strands <= 0 or self.strands % 2 != 0:
            raise InvalidInputError(
                f"strand count must be even and positive, got {self.strands}"
            )
        walks = [(1,)]
        for _ in range(self.strands):
            walks = [w + (w[-1] + step,) for w in walks for step in (1, -1)
                     if 1 <= w[-1] + step <= self.k - 1]
            if len(walks) > PATH_MODEL_DIM_LIMIT:
                raise ResourceError(
                    f"path model on {self.strands} strands at k={self.k} has "
                    f"more than {PATH_MODEL_DIM_LIMIT} walks"
                )
        object.__setattr__(self, "basis", tuple(walks))
        object.__setattr__(self, "dim", len(walks))

    def index(self, walk: tuple[int, ...]) -> int:
        return self.basis.index(walk)

    def cap_walk(self) -> tuple[int, ...]:
        """The alternating walk (1,2,1,2,...,1) matching the plat caps."""
        return tuple((2 if j % 2 == 1 else 1) for j in range(self.strands + 1))


def _generator_unitary(model: PathModel, i: int) -> sp.csr_matrix:
    """U_i = i·e^{3iπ/k}·(a·I − a^{-1}·E_i) with E_i the Temperley-Lieb
    generator on the path basis, which has at most two nonzeros per row."""
    k = model.k
    index = {p: j for j, p in enumerate(model.basis)}
    rows, cols, vals = [], [], []
    for p in model.basis:
        before, at, after = p[i - 1], p[i], p[i + 1]
        if before != after:
            continue
        for new in (before - 1, before + 1):
            if 1 <= new <= k - 1:
                q = p[:i] + (new,) + p[i + 1:]
                col = index.get(q)
                if col is not None:
                    rows.append(col)
                    cols.append(index[p])
                    vals.append(sqrt(sin(pi * at / k) * sin(pi * new / k))
                                / sin(pi * before / k))
    e = sp.csr_matrix((vals, (rows, cols)), shape=(model.dim, model.dim))
    a = np.exp(-1j * pi / (2 * k))
    gamma = 1j * np.exp(3j * pi / k)
    return gamma * (a * sp.identity(model.dim, format="csr") - (1 / a) * e)


def _apply_braid(model: PathModel, word: tuple[int, ...], block: np.ndarray):
    """ρ(b)·block: the letters' generator images applied from the last letter."""
    cache: dict[int, sp.csr_matrix] = {}
    for g in reversed(word):
        i = abs(g)
        if i not in cache:
            cache[i] = _generator_unitary(model, i)
        gen = cache[i] if g > 0 else cache[i].conj().T
        block = gen @ block
    return block


def ajl_braid_unitary(braid: BraidWord, k: int) -> np.ndarray:
    """ρ(b): the product of generator images on the path basis."""
    model = PathModel(braid.strands, k)
    return _apply_braid(model, braid.word, np.eye(model.dim, dtype=complex))


def plat_amplitude(braid: BraidWord, k: int) -> complex:
    """q(b) = (-1)^{n-1}·⟨cap|ρ(b)|cap⟩ for a 2n-strand braid, from ρ(b)
    applied to the cap vector alone."""
    model = PathModel(braid.strands, k)
    cap = model.index(model.cap_walk())
    vector = np.zeros(model.dim, dtype=complex)
    vector[cap] = 1.0
    n = braid.strands // 2
    return complex((-1) ** (n - 1) * _apply_braid(model, braid.word, vector)[cap])


def jones_from_amplitude(amplitude: complex, w: int, n: int, k: int) -> complex:
    """Invert the plat rescaling: V = q·e^{-3iπ(k+1)w/(2k)}·(2cos π/k)^{n-1}."""
    phase = np.exp(-3j * pi * (k + 1) * w / (2 * k))
    return complex(amplitude * phase * (2 * cos(pi / k)) ** (n - 1))


def jones_via_path_model(braid: BraidWord, k: int) -> complex:
    """Exact pipeline value: plat amplitude rescaled to the Jones value."""
    return jones_from_amplitude(
        plat_amplitude(braid, k), writhe(braid), braid.strands // 2, k
    )


def estimate_jones(
    braid: BraidWord, k: int, tau: float, delta: float, seed: int
) -> EstimateReport:
    """Sampled Jones value with additive bound τ·√2·(2cos π/k)^{n-1}.

    The plat amplitude is estimated by emulated Hadamard tests on ρ(b) with
    the cap walk as the input state; the estimate is then rescaled like the
    exact pipeline.
    """
    n = braid.strands // 2
    base = sample_amplitude(plat_amplitude(braid, k), tau, delta, seed)
    return replace(
        base, value=jones_from_amplitude(base.value, writhe(braid), n, k),
        bound=tau * sqrt(2.0) * (2 * cos(pi / k)) ** (n - 1),
    )
