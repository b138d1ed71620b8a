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

from .errors import InvalidInputError, ResourceError, require_within
from .estimators import EstimateReport, sample_amplitude
from .linalg import json_int
from .weightenum import INDEX_BITS

# matching entries (matchings × strands) × (crossings left + 1) the bracket may face
BRACKET_ENTRY_LIMIT = 2**22
# path-model entry steps: (walks × (1 + block columns) + PATH_LETTER_ENTRIES)
# × (letters + 1); the identity block stays under 4096² entries
PATH_MODEL_WORK_LIMIT = 2**24
# a letter's fixed cost, counted in entries
PATH_LETTER_ENTRIES = 256
# largest level: 3π(k + 1)·writhe stays a finite float for every word the
# limits above admit (float(10^400) overflows; 10^300 is accepted)
LEVEL_LIMIT = 2**1000


def _check_level(k: int):
    if not (k == 5 or k >= 7):
        raise InvalidInputError(f"k must be 5 or at least 7, got {k}")
    if k > LEVEL_LIMIT:
        raise InvalidInputError("k must be at most 2^1000")


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
    strands, crossings = diagram.strands, len(diagram.crossings)
    require_within(strands * (crossings + 1), BRACKET_ENTRY_LIMIT,
                   "bracket entry steps")
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
        require_within(len(states) * strands * (crossings - done + 1),
                       BRACKET_ENTRY_LIMIT, "bracket entry steps")
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
    """Walks of `strands` steps ±1 on {1..k-1} from height 1. A walk is its
    step mask (bit j set: step j+1 goes up); ``basis`` holds the masks as an
    increasing int64 array, built one step at a time.

    With ``closed``, only the walks that end at height 1 are kept: the
    sector of the plat caps, which no generator leaves. A prefix that can no
    longer return (height − 1 > steps left) is dropped at the step that makes
    it, so no step holds more walks than the last.

    The model is sized for ``letters`` generator images applied to one column
    (closed) or to the identity block (full). It holds walks × (1 + columns)
    entries, the masks being one column; past ``PATH_MODEL_WORK_LIMIT`` entry
    steps, (entries + ``PATH_LETTER_ENTRIES``) × (letters + 1), it raises
    ``ResourceError``, checked before each step (the first holds one walk
    and one column). More than ``INDEX_BITS`` steps are refused up front.
    """

    strands: int
    k: int
    closed: bool = False
    letters: int = 0
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    dim: int = field(init=False)

    def __post_init__(self):
        _check_level(self.k)
        if self.strands <= 0 or self.strands % 2 != 0:
            raise InvalidInputError(
                f"strand count must be even and positive, got {self.strands}"
            )
        require_within(self.strands, INDEX_BITS, "strands")
        steps = self.letters + 1
        top = min(self.k - 1, self.strands + 1)
        masks = np.zeros(1, dtype=np.int64)
        heights = np.ones(1, dtype=np.int8)
        for j in range(self.strands):
            up, down = heights < top, heights > 1
            if self.closed:
                left = self.strands - j - 1
                up &= heights <= left
                down &= heights - 2 <= left
            walks = int(np.count_nonzero(up)) + int(np.count_nonzero(down))
            columns = 1 if self.closed else walks
            require_within((walks * (1 + columns) + PATH_LETTER_ENTRIES) * steps,
                           PATH_MODEL_WORK_LIMIT, "path-model entry steps")
            # the new bit is above every old one, so the order is kept
            masks = np.concatenate([masks[down], masks[up] | (1 << j)])
            heights = np.concatenate([heights[down] - 1, heights[up] + 1])
        object.__setattr__(self, "basis", masks)
        object.__setattr__(self, "dim", len(masks))

    def index(self, walk: int) -> int:
        """Position of a step mask in ``basis``; ValueError if it is absent."""
        pos = int(np.searchsorted(self.basis, walk))
        if pos == self.dim or self.basis[pos] != walk:
            raise ValueError(f"walk {walk:#x} is not in the path model")
        return pos

    def cap_walk(self) -> int:
        """Step mask of the walk 1,2,1,2,...,1 matching the plat caps: every
        odd step goes up."""
        return int("01" * (self.strands // 2), 2)


# set bits of each byte value
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _generator(model: PathModel, i: int):
    """The Temperley-Lieb generator E_i on the basis, as the rows it touches
    (walks whose steps i and i+1 differ, so heights i-1 and i+1 agree), each
    row's partner (those two steps swapped, the row itself if that leaves
    {1..k-1}), and E_i's real diagonal and partner entries on those rows."""
    basis, k = model.basis, model.k
    low = (basis >> (i - 1)) & 1
    rows = np.flatnonzero(low != ((basis >> i) & 1))
    masks = basis[rows]
    # height i-1 is 1 + ups − downs over the first i-1 steps
    prefix = masks & ((1 << (i - 1)) - 1)
    ups = _BYTE_BITS[prefix.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int64)
    before = 2 + 2 * ups - i
    at = before + 2 * low[rows] - 1
    target = masks ^ (3 << (i - 1))
    partner = np.minimum(np.searchsorted(basis, target), model.dim - 1)
    found = basis[partner] == target
    sines = np.array([sin(pi * h / k) for h in range(min(k, model.strands + 2) + 1)])

    def entry(new):
        return np.sqrt(sines[at] * sines[new]) / sines[before]

    diag = entry(at)
    off = np.where(found, entry(2 * before - at), 0.0)
    return rows, np.where(found, partner, rows), diag, off


def _apply_braid(model: PathModel, word: tuple[int, ...], block: np.ndarray):
    """ρ(b)·block, in place: the letters' generator images applied from the
    last letter. U_i = γ(a·I − a^{-1}·E_i), and U_i^† has the conjugate
    scalars, since E_i is real symmetric."""
    a = np.exp(-1j * pi / (2 * model.k))
    gamma = 1j * np.exp(3j * pi / model.k)
    scalars = {True: (gamma * a, gamma / a),
               False: (np.conj(gamma * a), np.conj(gamma / a))}
    column = (-1,) + (1,) * (block.ndim - 1)  # row coefficients broadcast
    tables = {}
    for g in reversed(word):
        i = abs(g)
        if i not in tables:
            rows, partner, diag, off = _generator(model, i)
            tables[i] = rows, partner, diag.reshape(column), off.reshape(column)
        rows, partner, diag, off = tables[i]
        scale, mix = scalars[g > 0]
        ev = diag * block[rows]  # E_i·block on the touched rows, zero elsewhere
        ev += off * block[partner]
        block *= scale
        block[rows] -= mix * ev
    return block


def ajl_braid_unitary(braid: BraidWord, k: int) -> np.ndarray:
    """ρ(b): the product of generator images on the full path basis."""
    model = PathModel(braid.strands, k, letters=len(braid.word))
    return _apply_braid(model, braid.word, np.eye(model.dim, dtype=complex))


def plat_amplitude(braid: BraidWord, k: int) -> complex:
    """q(b) = (-1)^{n-1}·⟨cap|ρ(b)|cap⟩ for a 2n-strand braid, from ρ(b)
    applied to the cap vector alone, over the walks that end at height 1."""
    model = PathModel(braid.strands, k, closed=True, letters=len(braid.word))
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
