"""Tests for the SAT substrate: solver, enumeration, formula interface."""

import contextlib
import io
import json
import os
import subprocess
import sys

from hypothesis import example, given, settings, strategies as st

import repro
from repro.hardness import clause_family
from repro.logic import (
    FALSE,
    TRUE,
    And,
    BitAlphabet,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Xor,
    all_interpretations,
    bitmodels,
    land,
    lnot,
    lor,
    parse,
    shards,
    var,
)
from repro.sat import (
    CnfInstance,
    Solver,
    bit_models,
    count_models,
    entails,
    enumerate_models,
    equivalent,
    is_satisfiable,
    is_valid,
    models,
    query_equivalent,
    read_dimacs,
    satisfies,
    write_dimacs,
)
from repro.sat.interface import _Encoding


class TestSolverCore:
    def test_trivial_sat(self):
        inst = CnfInstance()
        v = inst.new_var()
        inst.add_clause([v])
        assert Solver(inst).solve()

    def test_trivial_unsat(self):
        inst = CnfInstance()
        v = inst.new_var()
        inst.add_clause([v])
        inst.add_clause([-v])
        assert not Solver(inst).solve()

    def test_empty_clause_unsat(self):
        inst = CnfInstance()
        inst.add_clause([])
        assert not Solver(inst).solve()

    def test_no_clauses_sat(self):
        inst = CnfInstance(3)
        assert Solver(inst).solve()

    def test_unit_propagation_chain(self):
        inst = CnfInstance(4)
        inst.add_clause([1])
        inst.add_clause([-1, 2])
        inst.add_clause([-2, 3])
        inst.add_clause([-3, 4])
        solver = Solver(inst)
        assert solver.solve()
        assert set(solver.model()) == {1, 2, 3, 4}

    def test_pigeonhole_2_into_1_unsat(self):
        # Two pigeons, one hole.
        inst = CnfInstance(2)
        inst.add_clause([1])
        inst.add_clause([2])
        inst.add_clause([-1, -2])
        assert not Solver(inst).solve()

    def test_pigeonhole_3_into_2_unsat(self):
        # p_{i,j}: pigeon i in hole j. vars: 1..6 as (i-1)*2 + j.
        inst = CnfInstance(6)

        def v(i, j):
            return (i - 1) * 2 + j

        for i in (1, 2, 3):
            inst.add_clause([v(i, 1), v(i, 2)])
        for j in (1, 2):
            for i1 in (1, 2, 3):
                for i2 in range(i1 + 1, 4):
                    inst.add_clause([-v(i1, j), -v(i2, j)])
        assert not Solver(inst).solve()

    def test_assumptions(self):
        inst = CnfInstance(2)
        inst.add_clause([1, 2])
        solver = Solver(inst)
        assert solver.solve(assumptions=[-1])
        assert 2 in solver.model()
        assert solver.solve(assumptions=[-1, -2]) is False
        # Solver usable again after failed assumptions.
        assert solver.solve()

    def test_incremental_blocking(self):
        inst = CnfInstance(2)
        inst.add_clause([1, 2])
        solver = Solver(inst)
        found = 0
        while solver.solve():
            found += 1
            solver.add_clause([-lit for lit in solver.model()])
        assert found == 3  # models over 2 vars satisfying x1 | x2

    def test_tautological_clause_ignored(self):
        inst = CnfInstance(1)
        inst.add_clause([1, -1])
        solver = Solver(inst)
        assert solver.solve()


class TestSolverAgainstBruteForce:
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=5).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, clauses):
        inst = CnfInstance(5)
        for clause in clauses:
            inst.add_clause(clause)
        expected = any(
            all(
                any(
                    (lit > 0) == bool(mask >> (abs(lit) - 1) & 1)
                    for lit in clause
                )
                for clause in clauses
            )
            for mask in range(32)
        )
        assert Solver(inst).solve() == expected


class TestEnumeration:
    def test_enumerates_all(self):
        inst = CnfInstance(2)
        inst.add_clause([1, 2])
        found = set(enumerate_models(inst))
        assert found == {(1, -2), (-1, 2), (1, 2)}

    def test_projection_collapses(self):
        inst = CnfInstance(2)
        inst.add_clause([1, 2])
        found = set(enumerate_models(inst, projection=[1]))
        assert found == {(1,), (-1,)}

    def test_limit(self):
        inst = CnfInstance(3)
        found = list(enumerate_models(inst, limit=3))
        assert len(found) == 3

    def test_unsat_enumerates_nothing(self):
        inst = CnfInstance(1)
        inst.add_clause([1])
        inst.add_clause([-1])
        assert list(enumerate_models(inst)) == []


class TestFormulaInterface:
    def test_satisfiable(self):
        assert is_satisfiable(parse("a & (b | ~a)"))
        assert not is_satisfiable(parse("a & ~a"))
        assert not is_satisfiable(FALSE)
        assert is_satisfiable(TRUE)

    def test_valid(self):
        assert is_valid(parse("a | ~a"))
        assert not is_valid(parse("a"))

    def test_entails(self):
        assert entails(parse("a & b"), parse("a"))
        assert not entails(parse("a | b"), parse("a"))
        assert entails(FALSE, parse("a"))
        assert entails(parse("a"), TRUE)

    def test_equivalent(self):
        assert equivalent(parse("a -> b"), parse("~a | b"))
        assert not equivalent(parse("a"), parse("b"))

    def test_models_default_alphabet(self):
        found = set(models(parse("a & (b | c)")))
        assert found == {
            frozenset("ab"),
            frozenset("ac"),
            frozenset("abc"),
        }

    def test_models_with_wider_alphabet(self):
        found = set(models(parse("a"), alphabet=["a", "b"]))
        assert found == {frozenset("a"), frozenset("ab")}

    def test_models_match_brute_force_on_complex_formula(self):
        f = parse("(a ^ b) -> (c <-> a) & ~(b & c)")
        alphabet = sorted(f.variables())
        expected = {
            frozenset(m)
            for m in all_interpretations(alphabet)
            if f.evaluate(m)
        }
        assert set(models(f)) == expected

    def test_count_models(self):
        assert count_models(parse("a | b")) == 3
        assert count_models(parse("a & ~a")) == 0
        assert count_models(TRUE, alphabet=["a", "b"]) == 4

    def test_query_equivalent_new_letters(self):
        # b <-> a introduces letter b but projected on {a} both match.
        assert query_equivalent(parse("a"), parse("a & (b <-> a)"), alphabet=["a"])
        assert not query_equivalent(parse("a"), parse("~a"), alphabet=["a"])

    def test_satisfies(self):
        assert satisfies({"a"}, parse("a | b"))
        assert not satisfies(set(), parse("a"))

    @given(
        st.lists(
            st.sampled_from(["a", "b", "c", "~a", "~b", "~c"]),
            min_size=1,
            max_size=3,
        ).map(lambda lits: parse(" | ".join(lits)))
    )
    @settings(max_examples=50, deadline=None)
    def test_sat_matches_truth_table(self, f):
        expected = any(
            f.evaluate(m) for m in all_interpretations(sorted(f.variables()))
        )
        assert is_satisfiable(f) == expected


@contextlib.contextmanager
def sat_tier_only():
    """Route every projected query past the dense tiers onto the solver."""
    saved = (bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS)
    bitmodels._TABLE_MAX_LETTERS = 0
    shards.SHARD_MAX_LETTERS = 0
    try:
        yield
    finally:
        bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS = saved


_ENCODER_LETTERS = ["a", "b", "c", "d", "e", "f"]
_atoms = st.sampled_from(_ENCODER_LETTERS).map(Var)
_literals = _atoms | _atoms.map(Not)
#: Clauses, including the empty Or and duplicate or complementary literals.
_clauses = st.lists(_literals, max_size=4).map(Or)
_cubes = st.lists(_literals, min_size=1, max_size=3).map(And)
_compound = st.recursive(
    _literals | st.just(TRUE) | st.just(FALSE),
    lambda kids: st.tuples(kids, kids).map(lambda p: Iff(*p))
    | st.tuples(kids, kids).map(lambda p: Xor(*p))
    | st.tuples(kids, kids).map(lambda p: Implies(*p))
    | st.lists(kids, max_size=3).map(And)
    | st.lists(kids, max_size=3).map(Or)
    | kids.map(Not),
    max_leaves=8,
)
#: Raw (unflattened) conjunctions of clauses, cubes and compound parts.
_encoder_formulas = st.recursive(
    st.one_of(_clauses, _clauses, _cubes, _compound),
    lambda kids: st.lists(kids, max_size=4).map(And),
    max_leaves=8,
)
#: Projections may drop formula letters and add letters it never mentions.
_projections = st.lists(
    st.sampled_from(_ENCODER_LETTERS + ["g", "h"]), unique=True, max_size=8
)


def _projected_truth(formula, names):
    """Models of ``formula`` projected onto ``names``, by truth table."""
    keep = frozenset(names)
    letters = sorted(formula.variables() | keep)
    return {
        model & keep
        for model in all_interpretations(letters)
        if formula.evaluate(model)
    }


class TestClausalEncoding:
    @given(
        formula=_encoder_formulas,
        names=_projections,
        limit=st.integers(min_value=0, max_value=4),
    )
    # Inner gates of every kind under an asserted Or.
    @example(formula=parse("(a & (b | c)) | d"), names=["a", "c", "d"], limit=2)
    @example(formula=parse("(a <-> (b | ~c)) & (e | f)"), names=["a", "b"], limit=0)
    @settings(max_examples=300, deadline=None)
    def test_sat_tier_matches_truth_table(self, formula, names, limit):
        expected = _projected_truth(formula, names)
        alphabet = BitAlphabet.coerce(names)
        with sat_tier_only():
            masks = list(bit_models(formula, alphabet).iter_masks())
            listed = list(models(formula, names))
            limited = list(models(formula, names, limit=limit or None))
            count = count_models(formula, names)
            capped = count_models(formula, names, limit=limit)
        assert sorted(masks) == sorted(set(masks))
        assert {alphabet.set_of(mask) for mask in masks} == expected
        assert len(listed) == len(expected) and set(listed) == expected
        assert len(set(limited)) == len(limited)
        assert set(limited) <= expected
        assert len(limited) == (
            min(limit, len(expected)) if limit else len(expected)
        )
        assert count == len(expected)
        assert capped == min(limit, len(expected))
        assert is_satisfiable(formula) == bool(expected)

    def test_clauses_skip_gates_and_sort_by_name(self):
        encoding = _Encoding()
        encoding.add_formula(land(lor(var("c"), lnot(var("a")), var("b")), var("d")))
        assert encoding.instance.clauses == [[-1, 2, 3], [4]]
        assert encoding.name_of == {1: "a", 2: "b", 3: "c", 4: "d"}
        assert (encoding.clausal, encoding.gates) == (2, 0)

    def test_non_clausal_rest_is_one_sided(self):
        encoding = _Encoding()
        encoding.add_formula(parse("(a & b) | (c & d)"))
        a, b = encoding.var("a"), encoding.var("b")
        c, d = encoding.var("c"), encoding.var("d")
        first, second = 3, 6  # gates follow their children's letters
        assert encoding.instance.clauses == [
            [-first, a], [-first, b], [-second, c], [-second, d],
            [first, second],
        ]
        assert (encoding.clausal, encoding.gates) == (0, 2)

    def test_clause_family_theory_encodes_without_gates(self):
        workload = clause_family.build(32, 64, 64, seed=7)
        encoding = _Encoding()
        encoding.add_formula(workload.t_formula)
        assert encoding.instance.num_vars == 32
        assert len(encoding.instance.clauses) == workload.clause_counts[0]
        assert encoding.clausal == workload.clause_counts[0]
        assert encoding.gates == 0

    def test_clause_lists_do_not_depend_on_hash_seed(self):
        script = (
            "import json\n"
            "from repro.hardness import clause_family\n"
            "from repro.logic import land, parse\n"
            "from repro.sat.interface import _Encoding\n"
            "wl = clause_family.build(10, 8, 8, seed=4)\n"
            "enc = _Encoding()\n"
            "enc.add_formula(land(wl.t_formula,"
            " parse('(v000 <-> s00) | ~(v001 & z)')))\n"
            "enc.add_formula_unasserted(wl.p_formula)\n"
            "print(json.dumps([enc.instance.clauses,"
            " sorted(enc.index_of.items())]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert outputs[0] == outputs[1]
        clauses, letters = json.loads(outputs[0])
        assert clauses and letters


class TestDimacs:
    def test_round_trip(self):
        inst = CnfInstance(3)
        inst.add_clause([1, -2])
        inst.add_clause([2, 3])
        buffer = io.StringIO()
        write_dimacs(inst, buffer, comment="test")
        buffer.seek(0)
        parsed = read_dimacs(buffer)
        assert parsed.num_vars == 3
        assert parsed.clauses == [[1, -2], [2, 3]]

    def test_read_multiline_clause(self):
        text = "p cnf 3 1\n1 2\n3 0\n"
        parsed = read_dimacs(io.StringIO(text))
        assert parsed.clauses == [[1, 2, 3]]
