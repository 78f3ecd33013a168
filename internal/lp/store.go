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
// (bounds [0,∞) for inequalities, [0,0] for equalities) and artificial
// columns only for rows whose slack-basis start violates the slack bounds.
// A is stored once, sparse, and never modified; the basis lives in the
// factor (LU plus eta file); the basic values xB and the reduced-cost row
// are maintained incrementally, exactly as a tableau would maintain them.
// What a tableau keeps as B⁻¹A is computed on demand instead: one column
// (the entering one, into col) and one row (the pivot row, into alpha)
// per pivot.
type revised struct {
	m, n int // rows, structural+slack+artificial columns
	nv   int // structural columns
	nart int // artificial columns (always the trailing ones)

	// valid marks an optimal basis a ReSolve may warm-start from.
	valid bool

	cols sparse    // A by column, all n columns
	rows sparse    // A by row over the real (non-artificial) columns
	rhs  []float64 // b
	lu   factor    // the basis B

	basis []int32   // basic column per basis position
	xB    []float64 // value of the basic variable per position
	// stale marks xB out of date because a nonbasic resting value moved
	// (setVarBounds); the next ReSolve recomputes it.
	stale bool

	lo, hi  []float64 // per-column bounds
	atUpper []bool    // nonbasic column rests at hi (else at lo)
	inBasis []bool    // basic-column marks

	c   []float64 // phase-2 costs
	art []float64 // phase-1 costs (1 on artificials)
	red []float64 // maintained reduced-cost row

	col      []float64 // B⁻¹A_j of the entering column, by basis position
	alpha    []float64 // row r of B⁻¹A over the nonbasic real columns
	alphaIdx []int32   // the columns alpha may be nonzero at
	seen     []bool    // membership in alphaIdx
	work     []float64 // m-vector scratch, all zero between uses
	rho      []float64 // m-vector: a row of B⁻¹, or c_B·B⁻¹
}

// resize returns s with length n and every element zeroed, reusing the
// backing array when it is large enough. A new array gets a quarter of
// headroom: the sizes asked for creep (the basis gains nonzeros from one
// refactor to the next, a cold start may need a few more artificials than
// the last), and creeping must not mean reallocating every time.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	s = s[:n]
	clear(s)
	return s
}

// needsArtificial reports whether a row's slack cannot hold the residual
// of the all-at-lower-bound start: LE wants resid ≥ 0, GE wants resid ≤ 0,
// EQ wants resid = 0.
func needsArtificial(sense Sense, resid float64) bool {
	switch sense {
	case LE:
		return resid < -eps
	case GE:
		return resid > eps
	default:
		return math.Abs(resid) > eps
	}
}

// load converts the model for a cold start. Structural variables start
// nonbasic at their lower bound; each row's slack absorbs the residual
// when it can, otherwise the row gets an artificial and joins phase 1.
// It reports whether the starting basis factorized (it is diagonal, so
// only a broken invariant can say no).
func (t *revised) load(m *Model) bool {
	nv, nrows := len(m.vars), len(m.cons)
	t.nv, t.m = nv, nrows

	// Residual of each row at the starting point, and the matrix sizes.
	resid := resize(t.work, nrows)
	t.nart = 0
	nnz := 0
	for i, con := range m.cons {
		r := con.rhs
		for _, term := range con.terms {
			r -= term.Coef * m.vars[term.Var].lo
		}
		resid[i] = r
		if needsArtificial(con.sense, r) {
			t.nart++
		}
		nnz += len(con.terms)
	}
	n := nv + nrows + t.nart
	t.n = n

	t.lo, t.hi = resize(t.lo, n), resize(t.hi, n)
	t.c, t.art, t.red = resize(t.c, n), resize(t.art, n), resize(t.red, n)
	t.atUpper, t.inBasis = resize(t.atUpper, n), resize(t.inBasis, n)
	t.alpha, t.seen = resize(t.alpha, n), resize(t.seen, n)
	t.rhs, t.xB = resize(t.rhs, nrows), resize(t.xB, nrows)
	t.basis = resize(t.basis, nrows)
	t.col, t.rho = resize(t.col, nrows), resize(t.rho, nrows)
	for j, v := range m.vars {
		t.c[j], t.lo[j], t.hi[j] = v.obj, v.lo, v.hi
	}

	// Column store: the structural columns by counting sort over the rows,
	// then one signed unit column per slack and per artificial.
	cs := &t.cols
	cs.ptr = resize(cs.ptr, n+1)
	cs.idx, cs.val = resize(cs.idx, nnz+nrows+t.nart), resize(cs.val, nnz+nrows+t.nart)
	for _, con := range m.cons {
		for _, term := range con.terms {
			cs.ptr[term.Var+1]++
		}
	}
	for j := 0; j < nv; j++ {
		cs.ptr[j+1] += cs.ptr[j]
	}
	next := resize(t.alphaIdx, nv) // fill cursors; alphaIdx is idle during a load
	copy(next, cs.ptr[:nv])
	for i, con := range m.cons {
		for _, term := range con.terms {
			e := next[term.Var]
			cs.idx[e], cs.val[e] = int32(i), term.Coef
			next[term.Var]++
		}
	}
	t.alphaIdx = next[:0]

	// Row store over the real columns: the model's terms plus the slack.
	rs := &t.rows
	rs.ptr = resize(rs.ptr, nrows+1)
	rs.idx, rs.val = resize(rs.idx, nnz+nrows), resize(rs.val, nnz+nrows)

	artCol := nv + nrows
	ce, re := cs.ptr[nv], int32(0)
	for i, con := range m.cons {
		t.rhs[i] = con.rhs
		for _, term := range con.terms {
			rs.idx[re], rs.val[re] = int32(term.Var), term.Coef
			re++
		}
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
		rs.idx[re], rs.val[re] = int32(slack), sign
		re++
		rs.ptr[i+1] = re
		if !needsArtificial(con.sense, resid[i]) {
			sval := sign * resid[i]
			if sval < 0 {
				sval = 0 // eps-level residual noise
			}
			t.basis[i] = int32(slack)
			t.xB[i] = sval
		} else {
			t.basis[i] = int32(artCol)
			t.xB[i] = math.Abs(resid[i])
			artCol++
		}
	}
	// The artificial columns trail the slacks in row order: ±e_i, signed so
	// the artificial starts at |resid| ≥ 0.
	for i, bj := range t.basis {
		t.inBasis[bj] = true
		if int(bj) < nv+nrows {
			continue
		}
		tau := 1.0
		if resid[i] < 0 {
			tau = -1
		}
		cs.idx[ce], cs.val[ce] = int32(i), tau
		ce++
		cs.ptr[bj+1] = ce
		t.hi[bj] = math.Inf(1)
		t.art[bj] = 1
	}
	t.work = resize(resid, nrows)
	t.stale = false
	return t.lu.refactor(&t.cols, t.basis)
}

// realCols is the number of non-artificial columns.
func (t *revised) realCols() int { return t.n - t.nart }

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

// priceRow computes row r of B⁻¹A over the nonbasic real columns into
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
