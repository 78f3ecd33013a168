package bdd

import "fmt"

// Test-side constructors and evaluators: the tests build formulas from
// single variables and check them against truth tables, which production
// code, building cubes and prefixes only, never needs.

// Var returns the BDD for the single variable v (true when bit v is 1).
func (s *Store) Var(v int) (Ref, error) {
	if v < 0 || v >= s.nvars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", v, s.nvars)
	}
	return s.mk(int32(v), False, True), nil
}

// NVar returns the BDD for the negation of variable v.
func (s *Store) NVar(v int) (Ref, error) {
	if v < 0 || v >= s.nvars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", v, s.nvars)
	}
	return s.mk(int32(v), True, False), nil
}

// Not returns the complement of a.
func (s *Store) Not(a Ref) Ref {
	// XOR with true: cheap and reuses the operation cache.
	return s.apply(opXor, a, True)
}

// Xor returns a ⊕ b.
func (s *Store) Xor(a, b Ref) Ref { return s.apply(opXor, a, b) }

// Eval evaluates the function at the given assignment. assignment must have
// at least s.nvars entries; assignment[v] is the value of variable v.
func (s *Store) Eval(a Ref, assignment []bool) (bool, error) {
	if len(assignment) < s.nvars {
		return false, fmt.Errorf("bdd: assignment has %d entries, need %d", len(assignment), s.nvars)
	}
	for a != False && a != True {
		n := s.nodes[a]
		if assignment[n.level] {
			a = n.hi
		} else {
			a = n.lo
		}
	}
	return a == True, nil
}
