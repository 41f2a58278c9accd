"""Exact polynomial arithmetic and the f -> h -> gamma transforms."""

from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammacomplex import (
    IntPolynomial,
    cross_polytope,
    f_poly,
    gamma_from_h,
    gamma_of,
    h_from_f,
    is_symmetric,
)
from gammacomplex.checks import increment_identity_failures
from gammacomplex.complexes import FlagComplex
from helpers import h_by_expansion, sequence_from_edges


def gamma_by_elimination(h, d):
    """The descending elimination that rebuilt (1+t)**(d-2i) on every call, kept as the oracle."""
    residue = h
    gamma = []
    for i in range(d // 2 + 1):
        gi = residue.coeff(i)
        gamma.append(gi)
        residue = residue - (gi * IntPolynomial.binomial_power(d - 2 * i).shift(i))
    assert not residue
    return IntPolynomial(gamma)


def h_by_signed_binomials(f, d):
    """The transform that recomputed every signed binomial on each call, kept as the oracle."""
    if f.degree > d:
        raise ValueError(f"f has degree {f.degree} > d={d}")
    return IntPolynomial(
        sum((-1) ** (j - i) * comb(d - i, j - i) * f.coeff(i) for i in range(j + 1))
        for j in range(d + 1)
    )


class TestIntPolynomial:
    def test_trailing_zeros_are_stripped(self):
        assert IntPolynomial([1, 2, 0, 0]) == IntPolynomial([1, 2])
        assert IntPolynomial([0, 0]).degree == -1
        assert not IntPolynomial([])

    def test_arithmetic(self):
        p = IntPolynomial([1, 1])
        assert (p * p).to_list() == [1, 2, 1]
        assert (p - p).to_list() == []
        assert (p + IntPolynomial([0, 0, 3])).to_list() == [1, 1, 3]
        assert (2 * p).to_list() == [2, 2]
        assert p.shift(2).to_list() == [0, 0, 1, 1]

    def test_binomial_power(self):
        assert IntPolynomial.binomial_power(4).to_list() == [1, 4, 6, 4, 1]
        assert IntPolynomial.binomial_power(0).to_list() == [1]


class TestHFromF:
    def test_four_cycle(self):
        assert h_from_f(IntPolynomial([1, 4, 4]), 2).to_list() == [1, 2, 1]

    def test_five_cycle(self):
        assert h_from_f(IntPolynomial([1, 5, 5]), 2).to_list() == [1, 3, 1]

    def test_point_complex(self):
        assert h_from_f(IntPolynomial([1]), 0).to_list() == [1]

    def test_degree_overflow_rejected(self):
        with pytest.raises(ValueError):
            h_from_f(IntPolynomial([1, 3, 3, 1]), 2)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=5), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_expansion_oracle(self, coeffs, extra):
        f = IntPolynomial(coeffs)
        d = max(f.degree, 0) + extra
        assert h_from_f(f, d) == h_by_expansion(f, d)

    @given(st.lists(st.integers(-10**6, 10**6), max_size=16), st.integers(0, 16))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_signed_binomials(self, coeffs, d):
        f = IntPolynomial(coeffs)
        if f.degree > d:
            with pytest.raises(ValueError, match=f"f has degree {f.degree} > d={d}"):
                h_from_f(f, d)
            return
        assert h_from_f(f, d) == h_by_signed_binomials(f, d)
        # a second call at the same d reads the rows built by the first
        assert h_from_f(f, d) == h_by_signed_binomials(f, d)


class TestSymmetry:
    @pytest.mark.parametrize(
        "h, d, expected",
        [
            ([1, 2, 1], 2, True),
            ([1, 3, 1], 2, True),
            ([1, 2, 3], 2, False),
            ([1], 0, True),
            ([1, 0], 1, False),
        ],
    )
    def test_cases(self, h, d, expected):
        assert is_symmetric(IntPolynomial(h), d) is expected


class TestGammaFromH:
    def test_square(self):
        assert gamma_from_h(IntPolynomial([1, 2, 1]), 2).to_list() == [1]

    def test_pentagon(self):
        assert gamma_from_h(IntPolynomial([1, 3, 1]), 2).to_list() == [1, 1]

    def test_hexagon(self):
        assert gamma_from_h(IntPolynomial([1, 4, 1]), 2).to_list() == [1, 2]

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            gamma_from_h(IntPolynomial([1, 2, 3]), 2)

    def test_residue_above_d_is_an_internal_error(self):
        # symmetric for d=1, but t**2 lies outside the basis
        with pytest.raises(RuntimeError, match=r"residue \[0, 0, 5\]"):
            gamma_from_h(IntPolynomial([0, 0, 5]), 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_elimination_on_random_symmetric_h(self, seed):
        rng = Random(seed)
        d = rng.randint(0, 14)
        half = [rng.randint(-10**6, 10**6) for _ in range(d // 2 + 1)]
        h = IntPolynomial(half[min(i, d - i)] for i in range(d + 1))
        assert gamma_from_h(h, d) == gamma_by_elimination(h, d)
        # a second call at the same d reads the basis built by the first
        assert gamma_from_h(h, d) == gamma_by_elimination(h, d)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_from_constructed_h(self, gamma, odd):
        d = 2 * (len(gamma) - 1) + (1 if odd else 0)
        h = IntPolynomial()
        for i, gi in enumerate(gamma):
            h = h + gi * IntPolynomial.binomial_power(d - 2 * i).shift(i)
        if not h:
            return
        recovered = gamma_from_h(h, d)
        assert recovered == IntPolynomial(gamma)
        rebuilt = IntPolynomial()
        for i in range(recovered.degree + 1):
            rebuilt = rebuilt + recovered.coeff(i) * IntPolynomial.binomial_power(d - 2 * i).shift(i)
        assert rebuilt == h


class TestGammaOf:
    def test_cross_polytopes_have_gamma_one(self):
        for d in range(1, 7):
            report = gamma_of(cross_polytope(d), d)
            assert report.gamma.to_list() == [1]
            assert report.symmetric

    def test_five_cycle(self):
        c = FlagComplex(range(5), [(i, (i + 1) % 5) for i in range(5)])
        report = gamma_of(c, 2)
        assert report.f.to_list() == [1, 5, 5]
        assert report.gamma.to_list() == [1, 1]

    def test_worked_example_final_complex(self):
        seq = sequence_from_edges(4, [(0, 2), (4, 6), (0, 9)])
        assert gamma_of(seq.final, 4).gamma.to_list() == [1, 3, 1]

    def test_empty_complex(self):
        from gammacomplex import f_poly

        assert f_poly(FlagComplex(), 0).to_list() == [1]
        assert gamma_of(FlagComplex(), 0).gamma.to_list() == [1]

    def test_single_triangle_fails_symmetry(self):
        triangle = FlagComplex(range(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            gamma_of(triangle, 3)

    def test_report_json_shape(self):
        report = gamma_of(cross_polytope(2), 2)
        assert report.to_json_obj() == {
            "d": 2,
            "f": [1, 4, 4],
            "h": [1, 2, 1],
            "gamma": [1],
            "symmetric": True,
        }


class TestGammaIncrement:
    def test_every_edge_of_sigma3(self):
        c = cross_polytope(4)
        for edge in c.edges():
            assert increment_identity_failures(sequence_from_edges(4, [edge])) == []

    def test_worked_example_steps(self):
        seq = sequence_from_edges(4, [(0, 2), (4, 6), (0, 9)])
        from gammacomplex import link

        # step 2 subdivides an edge whose link is a 5-cycle, step 3 a 4-cycle
        assert gamma_of(link(seq.prefix(1).final, (4, 6)), 2).gamma.to_list() == [1, 1]
        assert gamma_of(link(seq.prefix(2).final, (0, 9)), 2).gamma.to_list() == [1]
        assert increment_identity_failures(seq) == []

    def test_four_cycle_increment(self):
        assert increment_identity_failures(sequence_from_edges(2, [(0, 2)])) == []


class TestIncrementLinearity:
    """The linearity lemma behind the --deep increment verdict, on the expansion oracle.

    An edge subdivision adds t(1+t)F to f, F = f(lk ab); the lemma says
    h_d(t(1+t)F) = t h_{d-2}(F) and gamma_d(t h) = t gamma_{d-2}(h), so
    the gamma increment is t gamma(lk ab) wherever gamma(lk ab) exists.
    """

    @given(st.integers(2, 10), st.lists(st.integers(-50, 50), max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_h_of_the_increment_is_the_shifted_link_h(self, d, coeffs):
        link_f = IntPolynomial(coeffs[: d - 1])
        increment = link_f.shift(1) + link_f.shift(2)
        assert h_by_expansion(increment, d) == h_by_expansion(link_f, d - 2).shift(1)
        assert h_from_f(increment, d) == h_from_f(link_f, d - 2).shift(1)

    @given(st.integers(2, 10), st.lists(st.integers(-50, 50), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_the_gamma_increment_is_the_shifted_link_gamma(self, d, coeffs):
        # the link's gamma is arbitrary; its h, and the f with that h at
        # d - 2 (f = sum_j h_j t^j (1+t)^(d-2-j)), are built from it
        link_gamma = IntPolynomial(coeffs[: (d - 2) // 2 + 1])
        link_h = IntPolynomial()
        for i, g in enumerate(link_gamma.coeffs):
            link_h = link_h + (g * IntPolynomial.binomial_power(d - 2 - 2 * i)).shift(i)
        link_f = IntPolynomial()
        for j, h in enumerate(link_h.coeffs):
            link_f = link_f + (h * IntPolynomial.binomial_power(d - 2 - j)).shift(j)
        assert h_by_expansion(link_f, d - 2) == link_h
        assert gamma_from_h(link_h.shift(1), d) == link_gamma.shift(1)
        # from the cross polytope, f = (1+2t)^d and h = (1+t)^d
        start = IntPolynomial(comb(d, i) * 2**i for i in range(d + 1))
        after = start + link_f.shift(1) + link_f.shift(2)
        increment = gamma_from_h(h_by_expansion(after, d), d) - gamma_from_h(h_by_expansion(start, d), d)
        assert increment == link_gamma.shift(1)

    def test_an_asymmetric_or_over_degree_link_has_no_gamma_after_the_step(self):
        # at d=4, lost {ab, abc} gives F = 1 + t, and h_2(F) = 1 - t
        start = IntPolynomial(comb(4, i) * 2**i for i in range(5))
        link_f = IntPolynomial([1, 1])
        assert h_by_expansion(link_f, 2) == IntPolynomial([1, -1])
        assert not is_symmetric(h_by_expansion(start + link_f.shift(1) + link_f.shift(2), 4), 4)
        # a lost clique of 7 vertices gives F = t^5, past degree d - 2 = 2
        link_f = IntPolynomial([1]).shift(5)
        with pytest.raises(ValueError, match="degree 7 > d=4"):
            h_from_f(start + link_f.shift(1) + link_f.shift(2), 4)


class TestSphereSymmetry:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_subdivision_results_have_symmetric_h(self, seed):
        # palindromicity is checked, not assumed, on generated complexes
        from gammacomplex import random_sequence

        d = 2 + seed % 5
        seq = random_sequence(d, seed % 9, seed)
        h = h_from_f(f_poly(seq.final, d), d)
        assert is_symmetric(h, d)
