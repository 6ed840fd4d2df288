"""Abstract domains for the kernel verifier (:mod:`repro.analysis.absint`).

Two cooperating domains, joined pointwise in :class:`AbsVal`:

* :class:`Interval` — classic integer intervals ``[lo, hi]`` with
  ``±inf`` endpoints, the numeric workhorse (loop counters, launch-dim
  ranges, constant folding).  Widening jumps an unstable bound straight
  to infinity so loop fixpoints terminate.
* :class:`Affine` — symbolic affine forms ``Σ cᵢ·atomᵢ + c`` over a
  small atom vocabulary (``tid.x``/``bid.x``/``gidx.x`` thread and
  block indices, ``host:n`` launch-site sizes, ``param:n`` scalar
  parameters no launch binds, ``ext:p:k`` array extents, ``it:<line>``
  loop iterators).  Affine equality is what lets
  a bounds guard ``if i < out.size:`` *prove* the access ``x[i]`` safe
  when ``x`` and ``out`` share an extent: the guard constraint and the
  access requirement differ by a constant.

Branch knowledge is carried as a set of affine **constraints**, each an
:class:`Affine` ``f`` asserting ``f ≤ 0`` on the current path;
:func:`entails_le_zero` answers "is ``g ≤ 0`` provable?" by a constant
difference against a positive multiple of any known fact.

Taint is a four-point lattice (:data:`T_NONE` < :data:`T_BLOCK` <
:data:`T_THREAD` < :data:`T_GLOBAL`) *derived from the affine atoms*
whenever a form is known — ``i - cuda.threadIdx.x`` with
``i = cuda.grid(1)`` cancels to a block-only form, something a
syntactic taint walk can never see.
"""

from __future__ import annotations

from dataclasses import dataclass

T_NONE = 0      # uniform across the block (constants, blockDim, sizes)
T_BLOCK = 1     # varies per block only (blockIdx)
T_THREAD = 2    # varies within a warp (threadIdx)
T_GLOBAL = 3    # varies across the whole grid (cuda.grid, bI*bD+tI)

INF = float("inf")
NEG_INF = float("-inf")

__all__ = [
    "INF",
    "NEG_INF",
    "Interval",
    "Affine",
    "AbsVal",
    "atom_taint",
    "affine_taint",
    "entails_le_zero",
    "T_NONE",
    "T_BLOCK",
    "T_THREAD",
    "T_GLOBAL",
]


def _add(a, b):
    if a in (INF, NEG_INF) or b in (INF, NEG_INF):
        if a == INF or b == INF:
            if a == NEG_INF or b == NEG_INF:
                return 0  # unreachable combination; keep total
            return INF
        return NEG_INF
    return a + b


def _mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a in (INF, NEG_INF) or b in (INF, NEG_INF):
        return INF if (a > 0) == (b > 0) else NEG_INF
    return a * b


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; ``±inf`` endpoints."""

    lo: float = NEG_INF
    hi: float = INF

    @classmethod
    def const(cls, v: int) -> "Interval":
        return cls(v, v)

    @classmethod
    def top(cls) -> "Interval":
        return cls(NEG_INF, INF)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi and self.lo not in (INF, NEG_INF)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_add(self.lo, other.lo), _add(self.hi, other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_add(self.lo, -other.hi), _add(self.hi, -other.lo))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        prods = [_mul(a, b) for a in (self.lo, self.hi)
                 for b in (other.lo, other.hi)]
        return Interval(min(prods), max(prods))

    def floordiv_const(self, c: int) -> "Interval":
        """``self // c`` for a positive constant divisor."""
        if c <= 0:
            return Interval.top()
        lo = self.lo if self.lo in (INF, NEG_INF) else self.lo // c
        hi = self.hi if self.hi in (INF, NEG_INF) else self.hi // c
        return Interval(lo, hi)

    def mod_const(self, c: int) -> "Interval":
        """``self % c`` for a positive constant divisor."""
        if c <= 0:
            return Interval.top()
        if self.lo >= 0:
            hi = min(self.hi, c - 1)
            return Interval(0, hi if hi >= 0 else c - 1)
        return Interval(-(c - 1), c - 1)

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, newer: "Interval") -> "Interval":
        """Standard interval widening: an unstable bound goes to ∞."""
        lo = self.lo if newer.lo >= self.lo else NEG_INF
        hi = self.hi if newer.hi <= self.hi else INF
        return Interval(lo, hi)


@dataclass(frozen=True)
class Affine:
    """``Σ coeff·atom + const`` with integer coefficients.

    ``coeffs`` is a tuple of ``(atom, coeff)`` pairs sorted by atom (so
    equal forms compare and hash equal); zero coefficients are dropped
    at construction.
    """

    coeffs: tuple = ()
    const: int = 0

    @classmethod
    def make(cls, coeffs: dict, const: int = 0) -> "Affine":
        items = tuple(sorted((a, c) for a, c in coeffs.items() if c))
        return cls(coeffs=items, const=const)

    @classmethod
    def constant(cls, v: int) -> "Affine":
        return cls(coeffs=(), const=v)

    @classmethod
    def atom(cls, name: str, coeff: int = 1) -> "Affine":
        return cls.make({name: coeff})

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def atoms(self) -> tuple:
        return tuple(a for a, _ in self.coeffs)

    def __add__(self, other: "Affine") -> "Affine":
        out = self.as_dict()
        for a, c in other.coeffs:
            out[a] = out.get(a, 0) + c
        return Affine.make(out, self.const + other.const)

    def __sub__(self, other: "Affine") -> "Affine":
        return self + (-other)

    def __neg__(self) -> "Affine":
        return Affine.make({a: -c for a, c in self.coeffs}, -self.const)

    def scale(self, k: int) -> "Affine":
        if k == 0:
            return Affine.constant(0)
        return Affine.make({a: c * k for a, c in self.coeffs},
                           self.const * k)

    def exact_floordiv(self, k: int) -> "Affine | None":
        """``self // k`` only when every term divides exactly (so the
        result is still affine); otherwise ``None``."""
        if k <= 0:
            return None
        if any(c % k for _, c in self.coeffs) or self.const % k:
            return None
        return Affine.make({a: c // k for a, c in self.coeffs},
                           self.const // k)

    def render(self) -> str:
        parts = []
        for a, c in self.coeffs:
            parts.append(a if c == 1 else f"{c}*{a}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def atom_taint(atom: str) -> int:
    """Inherent taint of one symbolic atom."""
    if atom.startswith("tid."):
        return T_THREAD
    if atom.startswith("bid."):
        return T_BLOCK
    if atom.startswith("gidx."):
        return T_GLOBAL
    return T_NONE


def affine_taint(form: Affine) -> int:
    """Taint derived from the surviving atoms of an affine form —
    cancelled terms genuinely drop out (``i - tid.x`` is block-only)."""
    kinds = {atom_taint(a) for a in form.atoms()}
    kinds.discard(T_NONE)
    if not kinds:
        return T_NONE
    if T_GLOBAL in kinds or (T_THREAD in kinds and T_BLOCK in kinds):
        return T_GLOBAL
    return max(kinds)


def entails_le_zero(g: Affine, constraints, interval_of=None) -> bool:
    """Is ``g ≤ 0`` provable from the path constraints (each ``f ≤ 0``)
    or from atom ranges (``interval_of`` maps an :class:`Affine` to its
    :class:`Interval`)?

    A constraint ``f`` proves it when ``g − k·f`` is a constant ``≤ 0``
    for the positive integer ``k`` that cancels ``g``'s first atom:
    ``k·f ≤ 0`` follows from ``f ≤ 0``, so ``i ≤ n − 1`` proves
    ``2i ≤ 2n − 1`` whatever ``n`` is."""
    if g.is_const:
        return g.const <= 0
    if interval_of is not None and interval_of(g).hi <= 0:
        return True
    atom, coeff = g.coeffs[0]
    for f in constraints:
        fc = next((c for a, c in f.coeffs if a == atom), 0)
        if not fc or coeff % fc or coeff // fc <= 0:
            continue
        d = g - f.scale(coeff // fc)
        if d.is_const and d.const <= 0:
            return True
    return False


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: optional affine form, interval, taint.

    The affine form is the precise view (``None`` = unknown shape); the
    interval is always a sound numeric over-approximation; the taint is
    at least :func:`affine_taint` of the form when one is known.
    """

    affine: Affine | None = None
    interval: Interval = Interval(NEG_INF, INF)
    taint: int = T_GLOBAL

    @classmethod
    def const(cls, v: int) -> "AbsVal":
        return cls(Affine.constant(v), Interval.const(v), T_NONE)

    @classmethod
    def top(cls, taint: int = T_GLOBAL) -> "AbsVal":
        return cls(None, Interval.top(), taint)

    def join(self, other: "AbsVal") -> "AbsVal":
        affine = self.affine if (self.affine is not None
                                 and self.affine == other.affine) else None
        return AbsVal(affine, self.interval.join(other.interval),
                      max(self.taint, other.taint))

    def widen(self, newer: "AbsVal") -> "AbsVal":
        affine = self.affine if (self.affine is not None
                                 and self.affine == newer.affine) else None
        return AbsVal(affine, self.interval.widen(newer.interval),
                      max(self.taint, newer.taint))
