import math
from fractions import Fraction

import pytest

from trifree.bounds import (
    INF,
    EBound,
    conjectured_lower,
    default_table,
    formula_floor,
    general_value,
    lower_bound_basic,
    lower_bound_global,
    lower_bound_steep,
    lower_bound_steeper,
)


class TestLinearForms:
    def test_basic_values(self):
        assert lower_bound_basic(35, 10) == 80
        assert lower_bound_basic(13, 4) == 26
        assert lower_bound_basic(1, 1) == 0

    def test_basic_is_steepest_form_past_3k(self):
        for k in range(1, 14):
            for n in range(3 * k, 3 * k + 30):
                assert lower_bound_basic(n, k) == 6 * n - 13 * k

    def test_rational_forms(self):
        assert lower_bound_steep(39, 10) == 117
        assert lower_bound_steep(39, 10) == Fraction(117)
        assert lower_bound_steeper(43, 11) == 134
        assert lower_bound_global(10, 4) == Fraction(28, 5)
        assert math.ceil(lower_bound_global(10, 4)) == 6
        assert isinstance(lower_bound_steep(5, 3), Fraction)
        assert isinstance(lower_bound_global(5, 3), Fraction)

    def test_conjectured(self):
        assert conjectured_lower(35, 10) == 85
        assert conjectured_lower(13, 4) == 26
        assert conjectured_lower(3, 4) == -54  # callers clamp; kept raw here


class TestRamseyIntervals:
    def test_known_points(self):
        ramsey_range = default_table().ramsey_range
        assert ramsey_range(2) == (3, 3)
        assert ramsey_range(3) == (6, 6)
        assert ramsey_range(4) == (9, 9)
        assert ramsey_range(5) == (14, 14)
        assert ramsey_range(6) == (18, 18)
        assert ramsey_range(9) == (36, 36)
        assert ramsey_range(10) == (40, 42)
        assert ramsey_range(11) == (44, None)

    def test_monotone_tail(self):
        assert default_table().ramsey_range(14) == (44, None)
        assert default_table().ramsey_range(50) == (44, None)

    def test_domain(self):
        with pytest.raises(ValueError):
            default_table().ramsey_range(1)


class TestFormulaFloor:
    def test_spot_values(self):
        assert formula_floor(4, 13) == 26
        assert formula_floor(6, 22) == 58
        assert formula_floor(9, 40) == 132
        assert formula_floor(2, 6) == 11  # vacuous (no graph there) but well defined
        assert formula_floor(5, 0) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            formula_floor(0, 5)
        with pytest.raises(ValueError):
            formula_floor(3, -1)


class TestGeneralValue:
    def test_exact_window(self):
        # deep inside the known region the basic form is exact
        b = general_value(4, 12)
        assert (b.status, b.lower, b.upper) == ("exact", 20, 20)
        # the quarter-integer boundary n = 13k/4 is exact as well
        b = general_value(4, 13)
        assert (b.status, b.lower) == ("exact", 26)

    def test_plus_one_window(self):
        b = general_value(9, 29)
        assert (b.status, b.lower) == ("exact", 58)
        assert lower_bound_basic(29, 9) == 57

    def test_plus_two_window(self):
        b = general_value(10, 33)
        assert (b.status, b.lower) == ("exact", 70)
        assert lower_bound_basic(33, 10) == 68

    def test_plus_three_window(self):
        assert general_value(5, 17).lower == 40
        assert general_value(5, 17).status == "exact"
        assert general_value(5, 16).lower == 32

    def test_past_window_k_small(self):
        b = general_value(8, 28)
        assert (b.status, b.lower, b.upper) == ("range", 68, None)
        assert b.provenance == ("formula",)

    def test_past_window_global_form_takes_over(self):
        b = general_value(9, 40)
        assert b.lower == 132  # ceil(6.8n - 15.6k) beats the local step here
        assert b.status == "open-above"
        assert b.provenance == ("formula", "ramsey")

    def test_past_window_k_large_claims_only_nonexactness(self):
        b = general_value(13, 44)
        assert b.lower == 97  # max(f1 + 1, ceil of the global form)
        assert b.status == "open-above"

    def test_infinite(self):
        b = general_value(4, 14)
        assert b.status == "infinite"
        assert b.lower == INF and b.upper == INF
        assert b.provenance == ("ramsey",)
        assert general_value(8, 36).status == "infinite"

    def test_open_above(self):
        b = general_value(9, 41)
        assert b.status == "open-above"
        assert b.upper == INF

    def test_ramsey_override(self):
        assert general_value(4, 13, ramsey=(13, 13)).status == "infinite"
        b = general_value(4, 13, ramsey=(12, None))
        assert (b.status, b.lower) == ("open-above", 26)

    def test_domain(self):
        with pytest.raises(ValueError):
            general_value(0, 5)
        with pytest.raises(ValueError):
            general_value(3, 0)

    def test_exactness_region_property(self):
        # everywhere below both the window edge and the Ramsey floor the
        # status must come out exact
        for k in range(1, 13):
            l = k + 1
            lo, _ = default_table().ramsey_range(l)
            for n in range(1, 44):
                if 4 * n <= 13 * k + 6 and n < lo:
                    assert general_value(k, n).status == "exact", (k, n)


class TestEBound:
    def test_display(self):
        assert EBound(60, 60, "exact").display() == "60"
        assert EBound(107, 108, "range").display() == "107–108"
        assert EBound(128, 132, "range", ("preliminary-upper",)).display() == "128–(132)"
        assert EBound(161, INF, "open-above").display() == "161–∞"
        assert EBound(INF, INF, "infinite").display() == "∞"
        assert EBound(151, None, "range").display() == "151–?"

    def test_validation(self):
        with pytest.raises(ValueError):
            EBound(5, 5, "mystery")
        with pytest.raises(ValueError):
            EBound(5, 5, "exact", ("folklore",))
        with pytest.raises(ValueError):
            EBound(5, 5, "exact", ("sporadic-table", "formula"))  # out of order
        with pytest.raises(ValueError):
            EBound(5, INF, "infinite")
        with pytest.raises(ValueError):
            EBound(5, 6, "exact")
        with pytest.raises(ValueError):
            EBound(5, 6, "open-above")
        with pytest.raises(ValueError):
            EBound(6, 5, "range")
        with pytest.raises(ValueError):
            EBound(-1, 5, "range")
        with pytest.raises(ValueError):
            EBound(1.5, 5, "range")

    def test_frozen(self):
        b = EBound(5, 5, "exact")
        with pytest.raises(Exception):
            b.lower = 6
