"""Tests for Theory and interpretation helpers."""

import pytest

from repro.logic import (
    Theory,
    all_interpretations,
    hamming_distance,
    interp,
    land,
    max_subset,
    min_subset,
    parse,
    restrict,
    symmetric_difference,
    var,
)
from repro.logic.interpretation import (
    format_interpretation,
    min_cardinality,
    subsets,
)


class TestTheory:
    def test_deduplicates(self):
        t = Theory([var("a"), var("a"), var("b")])
        assert len(t) == 2

    def test_set_equality_ignores_order(self):
        assert Theory([var("a"), var("b")]) == Theory([var("b"), var("a")])

    def test_syntax_sensitivity(self):
        # The paper's example: T1 = {a, b} and T2 = {a, a -> b} are logically
        # equivalent but different *theories*.
        t1 = Theory.parse_many("a", "b")
        t2 = Theory.parse_many("a", "a -> b")
        assert t1 != t2
        from repro.sat import equivalent

        assert equivalent(t1.conjunction(), t2.conjunction())

    def test_conjunction_and_vars(self):
        t = Theory.parse_many("a", "b | c")
        assert t.conjunction() == land(parse("a"), parse("b | c"))
        assert t.variables() == frozenset("abc")

    def test_conjunction_is_built_once(self):
        t = Theory.parse_many("a", "b | c")
        assert t.conjunction() is t.conjunction()

    def test_size_sums_members(self):
        t = Theory.parse_many("a & a", "b")
        assert t.size() == 3

    def test_union_intersection_without(self):
        t1 = Theory.parse_many("a", "b")
        t2 = Theory.parse_many("b", "c")
        assert t1.union(t2) == Theory.parse_many("a", "b", "c")
        assert t1.intersection(t2) == Theory.parse_many("b")
        assert t1.without(t2) == Theory.parse_many("a")

    def test_subsets_largest_first(self):
        t = Theory.parse_many("a", "b")
        sizes = [len(s) for s in t.subsets()]
        assert sizes == [2, 1, 1, 0]

    def test_coerce(self):
        assert Theory.coerce("a") == Theory.parse_many("a")
        assert Theory.coerce(parse("a & b")) == Theory([parse("a & b")])
        t = Theory.parse_many("a")
        assert Theory.coerce(t) is t

    def test_empty_theory_conjunction_is_valid(self):
        assert Theory([]).conjunction().evaluate(set())


class TestInterpretations:
    def test_all_interpretations_count(self):
        assert len(list(all_interpretations(["a", "b", "c"]))) == 8

    def test_all_interpretations_distinct(self):
        models = list(all_interpretations(["a", "b"]))
        assert len(set(models)) == 4

    def test_symmetric_difference_paper_table1(self):
        # Table 1 of the paper: M1 = {a,b,c,d}, N2 = {c} -> difference {a,b,d}.
        m1 = interp("abcd")
        n2 = interp("c")
        assert symmetric_difference(m1, n2) == frozenset("abd")

    def test_hamming_distance_paper_table2(self):
        m2 = interp("abc")
        n1 = interp("ab")
        assert hamming_distance(m2, n1) == 1
        assert hamming_distance(interp("abcd"), interp()) == 4

    def test_min_subset(self):
        family = [frozenset("ab"), frozenset("a"), frozenset("bc")]
        assert set(min_subset(family)) == {frozenset("a"), frozenset("bc")}

    def test_max_subset(self):
        family = [frozenset("ab"), frozenset("a"), frozenset("bc")]
        assert set(max_subset(family)) == {frozenset("ab"), frozenset("bc")}

    def test_min_subset_keeps_duplicates_once(self):
        family = [frozenset("a"), frozenset("a")]
        assert min_subset(family) == [frozenset("a")]

    def test_min_cardinality(self):
        assert min_cardinality([frozenset("ab"), frozenset("c")]) == 1
        with pytest.raises(ValueError):
            min_cardinality([])

    def test_restrict(self):
        assert restrict({"a", "b", "c"}, {"b", "c", "d"}) == frozenset("bc")

    def test_subsets_smallest_first(self):
        out = list(subsets(["a", "b"]))
        assert out[0] == frozenset()
        assert set(out) == {
            frozenset(),
            frozenset("a"),
            frozenset("b"),
            frozenset("ab"),
        }

    def test_format(self):
        assert format_interpretation({"b", "a"}) == "{a, b}"
