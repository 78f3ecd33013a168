package lp

import "math"

// This file is the revised simplex's state: the sparse column store the
// model is loaded into, and the quantities a tableau would hold densely
// (a column or a row of B⁻¹A, the duals, the reduced costs, the basic
// values), each computed from the store and the basis factor on demand.
// The pivot rules that consume them are in simplex.go, the factor in lu.go.

// sparse is a compressed sparse matrix: the entries of column (or row) k
// are idx/val[ptr[k]:ptr[k+1]].
type sparse struct {
	ptr []int32
	idx []int32
	val []float64
}

// revised is the bounded-variable revised-simplex working state:
// minimize c·x subject to Ax + Σs = b, lo ≤ x ≤ hi, with one slack per row
// (bounds [0,∞) for inequalities, [0,0] for equalities). A is stored
// once, sparse, and never modified; the basis lives in the factor (LU plus
// eta file); the basic values xB and the reduced-cost row are maintained
// incrementally, exactly as a tableau would maintain them.
// What a tableau keeps as B⁻¹A is computed on demand instead: one column
// (the entering one, into col) and one row (the pivot row, into alpha)
// per pivot.
type revised struct {
	m, n int // rows, structural+slack columns
	nv   int // structural columns

	// valid marks an optimal basis a ReSolve may warm-start from.
	valid bool
	// degenerate is the solve's current run of degenerate primal pivots,
	// and bland marks that it reached blandRun: the solve prices by
	// Bland's rule from then on (optimize).
	degenerate int
	bland      bool

	cols  sparse    // A by column, all n columns
	rows  sparse    // A by row over the structural columns: the model's own store
	slack []float64 // row i's slack coefficient, ±1: A's entry at column nv+i
	rhs   []float64 // b
	lu    factor    // the basis B

	basis []int32   // basic column per basis position
	xB    []float64 // value of the basic variable per position
	// stale marks xB out of date because a nonbasic resting value moved
	// (setVarBounds); the next ReSolve recomputes it.
	stale bool

	lo, hi  []float64 // per-column bounds
	atUpper []bool    // nonbasic column rests at hi (else at lo)
	inBasis []bool    // basic-column marks

	c []float64 // costs
	// cd are a cold dual run's costs: c, with 0 for a negative cost on a
	// column with no upper bound. load fills it only when the model has
	// such a column and leaves it empty otherwise, when c is those costs
	// (dualCosts).
	cd  []float64
	red []float64 // maintained reduced-cost row

	col      []float64 // B⁻¹A_j of the entering column, by basis position
	alpha    []float64 // row r of B⁻¹A over the nonbasic columns
	alphaIdx []int32   // the columns alpha may be nonzero at
	seen     []bool    // membership in alphaIdx
	work     []float64 // m-vector scratch, all zero between uses
	rho      []float64 // m-vector: a row of B⁻¹, or c_B·B⁻¹
}

// resize returns s with length n and every element zeroed, reusing the
// backing array when it is large enough. It is for the arrays sized by
// the model's dimensions, its rows, columns and nonzeros, which never
// change over a Solver's life: a new array is made at exactly n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeDoubling is resize for the arrays the factor sizes by the basis's
// nonzeros (B by row, U by position), which creep a little at every
// refactor of a long solve: a new array gets as much headroom again, so a
// solve reallocates them O(log) times, as append does the L, U and eta
// arrays.
func resizeDoubling[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 2*n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reserve returns s emptied, with room for at least n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// load converts the model for a cold start from the slack basis: every
// slack basic at its row's residual, within its bounds or not, and every
// structural column nonbasic at the bound its cost favours, the upper one
// for a negative cost when it is finite, the lower one otherwise. The
// slack basis is then dual feasible for the costs cd, which price a
// negative cost on a column with no upper bound at 0 (dualCosts), and
// primal feasibility is the dual simplex's job. The model's own row store
// is the solver's row store, read in place; the slacks are kept beside it
// (slack) and the column store is its transpose plus the slack unit
// columns. It reports whether the starting basis factorized (it is
// diagonal, so only a broken invariant can say no).
func (t *revised) load(m *Model) bool {
	nv, nrows := len(m.vars), len(m.cons)
	n := nv + nrows
	t.nv, t.m, t.n = nv, nrows, n
	nnz := m.rows.ptr[nrows]
	t.rows = sparse{ptr: m.rows.ptr[:nrows+1], idx: m.rows.idx[:nnz], val: m.rows.val[:nnz]}
	rs := &t.rows

	t.lo, t.hi = resize(t.lo, n), resize(t.hi, n)
	t.c, t.red = resize(t.c, n), resize(t.red, n)
	t.atUpper, t.inBasis = resize(t.atUpper, n), resize(t.inBasis, n)
	t.alpha, t.seen = resize(t.alpha, n), resize(t.seen, n)
	t.rhs, t.xB, t.work = resize(t.rhs, nrows), resize(t.xB, nrows), resize(t.work, nrows)
	t.basis, t.slack = resize(t.basis, nrows), resize(t.slack, nrows)
	t.col, t.rho = resize(t.col, nrows), resize(t.rho, nrows)
	t.cd = t.cd[:0]
	for j, v := range m.vars {
		t.c[j], t.lo[j], t.hi[j] = v.obj, v.lo, v.hi
		if v.obj < 0 && !math.IsInf(v.hi, 1) {
			t.atUpper[j] = true
		}
	}
	for j, v := range m.vars {
		if v.obj < 0 && math.IsInf(v.hi, 1) {
			if len(t.cd) == 0 {
				t.cd = resize(t.cd, n)
				copy(t.cd, t.c)
			}
			t.cd[j] = 0
		}
	}

	// Column store: the structural columns by counting sort over the rows,
	// then one signed unit column per slack.
	cs := &t.cols
	cs.ptr = resize(cs.ptr, n+1)
	cs.idx, cs.val = resize(cs.idx, int(nnz)+nrows), resize(cs.val, int(nnz)+nrows)
	for _, j := range rs.idx {
		cs.ptr[j+1]++
	}
	for j := 0; j < nv; j++ {
		cs.ptr[j+1] += cs.ptr[j]
	}
	// Fill cursors: alphaIdx is idle during a load, and made here at the
	// most priceRow lists, the n−m = nv nonbasic columns.
	next := resize(t.alphaIdx, nv)
	copy(next, cs.ptr[:nv])
	for i := 0; i < nrows; i++ {
		for e := rs.ptr[i]; e < rs.ptr[i+1]; e++ {
			j := rs.idx[e]
			cs.idx[next[j]], cs.val[next[j]] = int32(i), rs.val[e]
			next[j]++
		}
	}
	t.alphaIdx = next[:0]

	ce := cs.ptr[nv]
	for i, con := range m.cons {
		// The row's residual at the starting point is its slack's value.
		resid := con.rhs
		for e := rs.ptr[i]; e < rs.ptr[i+1]; e++ {
			resid -= rs.val[e] * t.value(int(rs.idx[e]))
		}
		t.rhs[i] = con.rhs
		slack := nv + i
		sign := 1.0
		t.hi[slack] = math.Inf(1)
		switch con.sense {
		case GE:
			sign = -1
		case EQ:
			t.hi[slack] = 0
		}
		cs.idx[ce], cs.val[ce] = int32(i), sign
		ce++
		cs.ptr[slack+1] = ce
		t.slack[i] = sign
		t.basis[i] = int32(slack)
		t.inBasis[slack] = true
		t.xB[i] = sign * resid
	}
	t.stale = false
	return t.lu.refactor(&t.cols, t.basis)
}

// dualCosts are the costs a cold dual run prices: cd when load filled it,
// else c, which are then the same.
func (t *revised) dualCosts() []float64 {
	if len(t.cd) > 0 {
		return t.cd
	}
	return t.c
}

// value returns the resting value of a nonbasic column.
func (t *revised) value(j int) float64 {
	if t.atUpper[j] {
		return t.hi[j]
	}
	return t.lo[j]
}

// ftran computes B⁻¹A_j into t.col.
func (t *revised) ftran(j int) {
	w := t.work
	for e := t.cols.ptr[j]; e < t.cols.ptr[j+1]; e++ {
		w[t.cols.idx[e]] = t.cols.val[e]
	}
	t.lu.ftran(w, t.col)
}

// priceRow computes row r of B⁻¹A over the nonbasic columns into
// t.alpha and lists the columns it touched in t.alphaIdx: ρ = B⁻ᵀe_r, then
// α_j = ρ·A_j accumulated row-wise, so only the rows ρ is nonzero on are
// read. Basic columns are skipped (their entries are 0, or 1 at r).
func (t *revised) priceRow(r int) {
	for _, j := range t.alphaIdx {
		t.alpha[j], t.seen[j] = 0, false
	}
	idx := t.alphaIdx[:0]
	t.work[r] = 1
	t.lu.btran(t.work, t.rho)
	for i, ri := range t.rho {
		if ri == 0 {
			continue
		}
		for e := t.rows.ptr[i]; e < t.rows.ptr[i+1]; e++ {
			j := t.rows.idx[e]
			if t.inBasis[j] {
				continue
			}
			if !t.seen[j] {
				t.seen[j] = true
				idx = append(idx, j)
			}
			t.alpha[j] += ri * t.rows.val[e]
		}
		// The row's slack, read last as if the row store held it.
		if j := int32(t.nv + i); !t.inBasis[j] {
			if !t.seen[j] {
				t.seen[j] = true
				idx = append(idx, j)
			}
			t.alpha[j] += ri * t.slack[i]
		}
	}
	t.alphaIdx = idx
}

// rowDuals computes y = c_B·B⁻¹ for the cost vector c into t.rho.
func (t *revised) rowDuals(c []float64) []float64 {
	for k, bj := range t.basis {
		t.work[k] = c[bj]
	}
	t.lu.btran(t.work, t.rho)
	return t.rho
}

// refreshRed recomputes the reduced-cost row r_j = c_j − c_B·B⁻¹A_j from
// the factorization for the given cost vector.
func (t *revised) refreshRed(c []float64) {
	y := t.rowDuals(c)
	cs := &t.cols
	for j := 0; j < t.n; j++ {
		r := c[j]
		for e := cs.ptr[j]; e < cs.ptr[j+1]; e++ {
			r -= y[cs.idx[e]] * cs.val[e]
		}
		t.red[j] = r
	}
	for _, bj := range t.basis {
		t.red[bj] = 0 // exact
	}
}

// recomputeXB rebuilds the basic values from the nonbasic resting values,
// x_B = B⁻¹(b − N·x_N).
func (t *revised) recomputeXB() {
	w := t.work
	copy(w, t.rhs)
	cs := &t.cols
	for j := 0; j < t.n; j++ {
		if t.inBasis[j] {
			continue
		}
		v := t.value(j)
		if v == 0 {
			continue
		}
		for e := cs.ptr[j]; e < cs.ptr[j+1]; e++ {
			w[cs.idx[e]] -= cs.val[e] * v
		}
	}
	t.lu.ftran(w, t.xB)
	t.stale = false
}

// refactorDue rebuilds the factorization from the current basis once the
// eta file has reached its fixed length, and reports false when the basis
// no longer factorizes (the caller gives the solve up). Nothing a pivot
// rule reads changes: xB and the reduced-cost row carry over as they are.
func (t *revised) refactorDue() bool {
	return t.lu.etas() < refactorEvery || t.lu.refactor(&t.cols, t.basis)
}
