"""Tests for repro.core.expressions."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import (
    And,
    Not,
    Operand,
    Or,
    Xnor,
    Xor,
    and_all,
    evaluate,
    operand_names,
    operand_shape,
    or_all,
    rename_operands,
    to_nnf,
)

A, B, C, D = Operand("A"), Operand("B"), Operand("C"), Operand("D")


def env(seed=0, n=64, names="ABCD"):
    rng = np.random.default_rng(seed)
    return {name: rng.integers(0, 2, n, dtype=np.uint8) for name in names}


# Random expression generator for property tests.
def expressions(names="ABCD", max_depth=4):
    leaves = st.sampled_from([Operand(n) for n in names])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Xor(*t)),
            children.map(Not),
        )

    return st.recursive(leaves, extend, max_leaves=max_depth * 2)


class TestConstruction:
    def test_operand_requires_name(self):
        with pytest.raises(ValueError):
            Operand("")

    def test_nary_requires_two_terms(self):
        with pytest.raises(ValueError):
            And(A)
        with pytest.raises(ValueError):
            Or(B)

    def test_nary_flattens(self):
        assert And(And(A, B), C).terms == (A, B, C)
        assert Or(A, Or(B, C)).terms == (A, B, C)

    def test_operator_sugar(self):
        assert (A & B) == And(A, B)
        assert (A | B) == Or(A, B)
        assert (A ^ B) == Xor(A, B)
        assert ~A == Not(A)

    def test_equality_and_hash(self):
        assert And(A, B) == And(A, B)
        assert And(A, B) != And(B, A)  # order preserved
        assert len({And(A, B), And(A, B), Or(A, B)}) == 2

    def test_repr_round(self):
        assert repr(And(A, Not(B))) == "(A & ~B)"


class TestEvaluate:
    def test_operand(self):
        e = env(1)
        np.testing.assert_array_equal(evaluate(A, e), e["A"])

    def test_missing_operand(self):
        with pytest.raises(KeyError, match="not bound"):
            evaluate(Operand("Z"), env())

    def test_equation_4(self):
        """The paper's operational example (Figure 16)."""
        e = env(2)
        expr = And(
            Or(Operand("A"), And(A, B, C, D)),  # stand-in structure
            Or(A, C),
            Or(B, D),
        )
        result = evaluate(expr, e)
        expected = (
            (e["A"] | (e["A"] & e["B"] & e["C"] & e["D"]))
            & (e["A"] | e["C"])
            & (e["B"] | e["D"])
        )
        np.testing.assert_array_equal(result, expected)

    def test_xnor(self):
        e = env(3)
        np.testing.assert_array_equal(
            evaluate(Xnor(A, B), e), 1 - (e["A"] ^ e["B"])
        )

    @settings(max_examples=50)
    @given(expr=expressions(), seed=st.integers(0, 100))
    def test_results_are_binary(self, expr, seed):
        result = evaluate(expr, env(seed))
        assert set(np.unique(result)).issubset({0, 1})


class TestOperandNames:
    def test_collects_all(self):
        expr = And(Or(A, Not(B)), Xor(C, D))
        assert operand_names(expr) == frozenset("ABCD")

    @given(expr=expressions())
    def test_subset_of_alphabet(self, expr):
        assert operand_names(expr) <= frozenset("ABCD")


class TestNnf:
    def _nots_only_on_leaves(self, expr) -> bool:
        if isinstance(expr, Operand):
            return True
        if isinstance(expr, Not):
            return isinstance(expr.expr, (Operand, Xor))
        if isinstance(expr, (And, Or)):
            return all(self._nots_only_on_leaves(t) for t in expr.terms)
        if isinstance(expr, Xor):
            return self._nots_only_on_leaves(expr.left) and (
                self._nots_only_on_leaves(expr.right)
            )
        return False

    def test_de_morgan_and(self):
        assert to_nnf(Not(And(A, B))) == Or(Not(A), Not(B))

    def test_de_morgan_or(self):
        """Equation 3: NOT(A + B + C) = NOT A . NOT B . NOT C."""
        assert to_nnf(Not(Or(A, B, C))) == And(Not(A), Not(B), Not(C))

    def test_double_negation(self):
        assert to_nnf(Not(Not(A))) == A

    @settings(max_examples=80)
    @given(expr=expressions(), seed=st.integers(0, 50))
    def test_nnf_preserves_semantics(self, expr, seed):
        e = env(seed)
        np.testing.assert_array_equal(
            evaluate(expr, e), evaluate(to_nnf(expr), e)
        )

    @settings(max_examples=80)
    @given(expr=expressions())
    def test_nnf_shape(self, expr):
        assert self._nots_only_on_leaves(to_nnf(expr))


class TestHelpers:
    def test_and_all_single(self):
        assert and_all([A]) == A
        assert and_all([A, B, C]) == And(A, B, C)
        with pytest.raises(ValueError):
            and_all([])

    def test_or_all_single(self):
        assert or_all([A]) == A
        assert or_all([A, B]) == Or(A, B)
        with pytest.raises(ValueError):
            or_all([])


class TestShapeAndHash:
    def test_shape_replaces_operands_by_first_appearance_slots(self):
        expr = Or(And(C, A), Not(C), Xor(B, A))
        shape, names = operand_shape(expr)
        assert names == ["C", "A", "B"]
        assert shape == ("|", ("&", 0, 1), ("~", 0), ("^", 2, 1))
        renamed = rename_operands(expr, {"C": "D", "A": "C", "B": "A"})
        assert operand_shape(renamed) == (shape, ["D", "C", "A"])
        assert operand_shape(And(A, B))[0] != operand_shape(Or(A, B))[0]
        assert operand_shape(And(A, A))[0] != operand_shape(And(A, B))[0]

    def test_memoized_hash_stays_out_of_pickles(self):
        """Hash seeds differ per process: an ``And`` / ``Or`` pickled
        after hashing must hash afresh where it is unpickled."""
        build = (
            "import pickle, sys\n"
            "from repro.core.expressions import And, Operand, Or\n"
            "e = And(Operand('a'), Or(Operand('b'), Operand('c')))\n"
        )
        dump = build + "hash(e); sys.stdout.buffer.write(pickle.dumps(e))"
        load = build + (
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "assert {e: 1}[loaded] == 1 and {loaded: 1}[e] == 1\n"
            "assert {e.terms[1]: 1}[loaded.terms[1]] == 1\n"
            "print(hash('a'))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"

        def run(code, seed, data=b""):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            return subprocess.run(
                [sys.executable, "-c", code],
                input=data,
                env=env,
                capture_output=True,
                check=True,
            ).stdout

        pickled = run(dump, "1")
        # The two loads run under different seeds, both find it.
        assert run(load, "2", pickled) != run(load, "1", pickled)
        assert vars(pickle.loads(pickled))["_hash"] is None
