"""Exact integer polynomials and the f -> h -> gamma transforms.

Everything here is integer arithmetic; there is no floating point in any
code path.  The dimension parameter ``d`` is always passed explicitly: a
complex does not know the dimension it is meant to have, the caller does.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterable, Mapping, NamedTuple

from .complexes import FlagComplex

__all__ = [
    "IntPolynomial",
    "FHGammaReport",
    "f_poly",
    "f_from_counts",
    "h_from_f",
    "is_symmetric",
    "gamma_from_h",
    "gamma_of",
    "report_from_f",
]


class IntPolynomial:
    """Finite integer coefficient sequence, index = degree, trailing zeros stripped."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._c) - 1

    def coeff(self, i: int) -> int:
        return self._c[i] if 0 <= i < len(self._c) else 0

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by t**k."""
        return IntPolynomial((0,) * k + self._c)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self._c), len(other._c))
        return IntPolynomial(self.coeff(i) + other.coeff(i) for i in range(n))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self._c), len(other._c))
        return IntPolynomial(self.coeff(i) - other.coeff(i) for i in range(n))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * x for x in self._c)
        out = [0] * (len(self._c) + len(other._c))
        for i, a in enumerate(self._c):
            for j, b in enumerate(other._c):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self):
        return f"IntPolynomial({list(self._c)})"

    def to_list(self) -> list[int]:
        return list(self._c)

    @staticmethod
    def binomial_power(m: int) -> "IntPolynomial":
        """(1 + t)**m."""
        return IntPolynomial(comb(m, i) for i in range(m + 1))


def f_from_counts(counts: Mapping[int, int]) -> IntPolynomial:
    """f-polynomial from a map size -> number of cliques/faces of that size."""
    top = max(counts, default=0)
    return IntPolynomial(counts.get(i, 0) for i in range(top + 1))


def f_poly(c: FlagComplex, d: int) -> IntPolynomial:
    """Face-count polynomial of a flag complex; coefficient i counts the (i-1)-faces."""
    counts = c.clique_count_by_size()
    top = max(counts)
    if top > d:
        raise ValueError(f"found a clique of {top} vertices but d={d}")
    return f_from_counts(counts)


def h_from_f(f: IntPolynomial, d: int) -> IntPolynomial:
    """Binomial transform h_j = sum_i (-1)^(j-i) C(d-i, j-i) f_i, exact."""
    if f.degree > d:
        raise ValueError(f"f has degree {f.degree} > d={d}")
    fs = f.coeffs
    return IntPolynomial(sum(map(int.__mul__, row, fs)) for row in _h_rows(d))


@cache
def _h_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds (-1)^(j-i) C(d-i, j-i) for i = 0 .. j, the weights of h_j; built once per d."""
    return tuple(
        tuple((-1) ** (j - i) * comb(d - i, j - i) for i in range(j + 1)) for j in range(d + 1)
    )


def is_symmetric(h: IntPolynomial, d: int) -> bool:
    """Palindromicity h_i == h_{d-i}; absent coefficients read as zero."""
    return all(h.coeff(i) == h.coeff(d - i) for i in range(d + 1))


def gamma_from_h(h: IntPolynomial, d: int) -> IntPolynomial:
    """Coefficients of h in the basis t^i (1+t)^(d-2i), by descending elimination.

    Defined only for symmetric h.  A non-zero residue after floor(d/2)+1
    elimination steps can only mean an upstream bug and raises.
    """
    if not is_symmetric(h, d):
        raise ValueError(f"h={h.to_list()} is not symmetric for d={d}; gamma is undefined")
    residue = list(h.coeffs) + [0] * (d + 1 - len(h.coeffs))
    gamma = []
    for i, row in enumerate(_gamma_basis(d)):
        gi = residue[i]
        gamma.append(gi)
        if gi:
            for r, c in enumerate(row, i):
                residue[r] -= gi * c
    if any(residue):
        raise RuntimeError(
            f"internal inconsistency: residue {IntPolynomial(residue).to_list()} after gamma extraction"
        )
    return IntPolynomial(gamma)


@cache
def _gamma_basis(d: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the coefficients of (1+t)^(d-2i), i = 0 .. floor(d/2); built once per d."""
    return tuple(IntPolynomial.binomial_power(d - 2 * i).coeffs for i in range(d // 2 + 1))


class FHGammaReport(NamedTuple):
    """f, h and gamma of one complex at an explicitly chosen dimension.

    As a NamedTuple it is also ``==`` to a plain tuple of the same field values.
    """

    f: IntPolynomial
    h: IntPolynomial
    gamma: IntPolynomial
    d: int
    symmetric: bool

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "f": self.f.to_list(),
            "h": self.h.to_list(),
            "gamma": self.gamma.to_list(),
            "symmetric": self.symmetric,
        }


def report_from_f(f: IntPolynomial, d: int) -> FHGammaReport:
    h = h_from_f(f, d)
    return FHGammaReport(f=f, h=h, gamma=gamma_from_h(h, d), d=d, symmetric=True)


def gamma_of(c: FlagComplex, d: int) -> FHGammaReport:
    """Chain f -> h -> gamma for a flag complex of intended dimension d-1."""
    return report_from_f(f_poly(c, d), d)

