"""Tests for the CNF representation and the DPLL solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SATError
from repro.sat import (
    CNF,
    DPLLSolver,
    negate,
    solve_cnf,
    variable_of,
)


class TestCNF:
    def test_literal_helpers(self):
        assert negate(3) == -3
        assert negate(-3) == 3
        assert variable_of(-7) == 7
        with pytest.raises(SATError):
            negate(0)
        with pytest.raises(SATError):
            variable_of(0)

    def test_add_clause_tracks_variables(self):
        formula = CNF()
        formula.add_clause([1, -2])
        formula.add_clause([3])
        assert formula.num_variables == 3
        assert formula.num_clauses == 2

    def test_duplicate_literals_removed(self):
        formula = CNF()
        formula.add_clause([1, 1, -2])
        assert formula.clauses[0] == (1, -2)

    def test_tautology_dropped(self):
        formula = CNF()
        formula.add_clause([1, -1, 2])
        assert formula.num_clauses == 0

    def test_empty_clause_rejected_by_default(self):
        formula = CNF()
        with pytest.raises(SATError):
            formula.add_clause([])
        formula.add_clause([], allow_empty=True)
        assert formula.num_clauses == 1

    def test_invalid_literal(self):
        with pytest.raises(SATError):
            CNF().add_clause([0])

    def test_new_variable(self):
        formula = CNF(num_variables=2)
        assert formula.new_variable() == 3

    def test_exactly_one(self):
        formula = CNF()
        formula.add_exactly_one([1, 2, 3])
        # 1 at-least-one clause + 3 pairwise at-most-one clauses
        assert formula.num_clauses == 4

    def test_exactly_one_empty(self):
        with pytest.raises(SATError):
            CNF().add_exactly_one([])

    def test_evaluate(self):
        formula = CNF(clauses=[[1, 2], [-1, 2]])
        assert formula.evaluate({1: True, 2: True})
        assert formula.evaluate({1: False, 2: True})
        assert not formula.evaluate({1: True, 2: False})

    def test_evaluate_requires_assignment(self):
        formula = CNF(clauses=[[1, 2]])
        with pytest.raises(SATError):
            formula.evaluate({1: False})

    def test_variables_and_copy(self):
        formula = CNF(clauses=[[1, -3]])
        assert formula.variables() == {1, 3}
        clone = formula.copy()
        clone.add_clause([2])
        assert formula.num_clauses == 1


class TestDPLL:
    def test_trivially_sat(self):
        result = solve_cnf(CNF(clauses=[[1], [2]]))
        assert result.is_sat
        assert result.assignment[1] and result.assignment[2]

    def test_trivially_unsat(self):
        result = solve_cnf(CNF(clauses=[[1], [-1]]))
        assert result.is_unsat

    def test_empty_formula_sat(self):
        assert solve_cnf(CNF(num_variables=3)).is_sat

    def test_requires_backtracking(self):
        # Deciding x1=True propagates a conflict via (-x1 or x3) and (-x1 or -x3),
        # so the solver must flip its first decision to find the x1=False model.
        formula = CNF(clauses=[[1, 2], [-1, 3], [-1, -3]])
        result = solve_cnf(formula)
        assert result.is_sat
        assert result.assignment[1] is False
        assert result.assignment[2] is True

    def test_unsat_after_exhausting_both_branches(self):
        formula = CNF(clauses=[[1, 2], [1, -2], [-1, 3], [-1, -3]])
        result = solve_cnf(formula)
        assert result.is_unsat

    def test_pigeonhole_unsat(self):
        """3 pigeons in 2 holes is unsatisfiable (forces real search)."""
        formula = CNF()
        holes = 2
        pigeons = 3
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[(p, h)] = formula.new_variable()
        for p in range(pigeons):
            formula.add_clause([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    formula.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert solve_cnf(formula).is_unsat

    def test_assumptions(self):
        formula = CNF(clauses=[[1, 2]])
        sat_under = solve_cnf(formula, assumptions=[-1])
        assert sat_under.is_sat and sat_under.assignment[2]
        unsat_under = solve_cnf(CNF(clauses=[[1]]), assumptions=[-1])
        assert unsat_under.is_unsat

    def test_decision_limit_returns_unknown(self):
        # A hard-ish random-like instance with a tiny decision budget.
        formula = CNF()
        for clause in ([1, 2, 3], [-1, -2, 3], [1, -2, -3], [-1, 2, -3], [1, 2, -3], [-1, -2, -3]):
            formula.add_clause(clause)
        solver = DPLLSolver(formula, max_decisions=1)
        result = solver.solve()
        assert result.is_unknown or result.is_sat  # tiny instances may finish within one decision

    def test_invalid_decision_limit(self):
        with pytest.raises(SATError):
            DPLLSolver(CNF(), max_decisions=0)

    def test_statistics_populated(self):
        result = solve_cnf(CNF(clauses=[[1, 2], [-1, 2], [1, -2], [-1, -2, 3]]))
        assert result.is_sat
        assert result.propagations >= 0
        assert result.decisions >= 1

    @given(
        num_vars=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_3sat_model_validity(self, num_vars, seed):
        """Any SAT answer must come with a model that actually satisfies the formula."""
        import numpy as np

        rng = np.random.default_rng(seed)
        formula = CNF(num_variables=num_vars)
        num_clauses = int(3 * num_vars)
        for _ in range(num_clauses):
            variables = rng.choice(np.arange(1, num_vars + 1), size=3, replace=False)
            signs = rng.choice([-1, 1], size=3)
            formula.add_clause([int(v * s) for v, s in zip(variables, signs)])
        result = solve_cnf(formula)
        if result.is_sat:
            assert formula.evaluate(result.assignment)
