package headerspace

import "fmt"

// Atoms is the quadratic reference the incremental classifier is tested
// against: it refines the whole partition against every predicate in
// turn. The atom inside a predicate comes before the one outside it at
// every step, which is the documented class order, and puts the residual
// atom no predicate covers last.
func (s *Space) Atoms(preds []Predicate) ([]Predicate, error) {
	atoms := []Predicate{s.True()}
	for i, p := range preds {
		if p.sp != s {
			return nil, fmt.Errorf("headerspace: predicate %d from a different Space", i)
		}
		next := make([]Predicate, 0, len(atoms)*2)
		for _, a := range atoms {
			in := a.And(p)
			out := a.Diff(p)
			if !in.IsFalse() {
				next = append(next, in)
			}
			if !out.IsFalse() {
				next = append(next, out)
			}
		}
		atoms = next
	}
	return atoms, nil
}
