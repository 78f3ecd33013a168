package lp

import "math"

const (
	// refactorEvery is the fixed length of the eta file: after this many
	// basis changes the next pivot first rebuilds the LU from the basis
	// columns, which bounds both the cost of a solve with the factor and
	// the rounding error the product form accumulates.
	refactorEvery = 64
	// singTol is the smallest pivot magnitude the factorization accepts; a
	// basis that offers nothing larger in some column is reported singular.
	singTol = 1e-11
	// pivotThreshold is the share of its column's largest entry a bump
	// pivot must reach (threshold partial pivoting): sparsity picks the
	// pivot, this keeps the choice numerically safe.
	pivotThreshold = 0.1
)

// factor is the basis B as a sparse LU plus an eta file of the pivots made
// since. The LU is a sequence of m elimination steps; step k pivots on row
// pivRow[k] and basis position pivPos[k] and records
//
//   - L_k: the multipliers l_i = a_i/pivot of the rows i still active below
//     the pivot, and
//   - U_k: the pivot row's entries u_q in the positions q still active,
//
// so B x = b is a forward pass over the L_k in step order and a back
// substitution over the U_k in reverse, and Bᵀy = c is the transpose of
// both. U is kept in both orientations, so that either solve pushes each
// computed entry forward and skips the (many) zero ones. Steps come in three runs: column singletons (L_k empty, no
// arithmetic), then row singletons (U_k empty), then Markowitz elimination
// on whatever is left — the bump, the only part that can fill in. A slack
// basis is all singletons; the placement LP's bumps are a few dozen
// columns.
//
// After a pivot the basis is B·F, F the identity but for one column (the
// entering column expressed in the old basis); the eta file is the list of
// those columns, applied after the LU in ftran and before it in btran.
// Every array is an arena owned by the factor and reused across refactors,
// so steady-state pivots and refactors allocate nothing.
type factor struct {
	m int

	pivRow, pivPos []int32
	pivVal         []float64
	l, u           sparse  // by step; l.idx holds rows, u.idx basis positions
	uByPos         sparse  // U by basis position; idx holds rows
	lSteps         []int32 // the steps whose L_k is non-empty, ascending

	etaPos []int32   // basis position each eta replaces
	etaPiv []float64 // its pivot entry
	eta    sparse    // the rest of each eta column, by position

	// Scratch of refactor.
	rowDone, posDone []bool
	rowCnt, colCnt   []int32
	byRow            sparse  // B row-wise: idx holds basis positions
	queue            []int32 // singleton worklist

	// Scratch of eliminateBump, which documents the layout.
	bumpPos         []int32 // bump column → basis position
	colHead, colLen []int32
	colDone         []bool
	cRow, cNext     []int32
	cVal            []float64
	rowHead         []int32
	rCol, rNext     []int32
	slot            []int32 // row → its node in the column being updated
}

// etas is the current length of the eta file.
func (f *factor) etas() int { return len(f.etaPos) }

// refactor rebuilds the LU from the basis columns and empties the eta
// file. It reports false when the basis is singular to working precision;
// the factor is then unusable until the next successful refactor.
func (f *factor) refactor(a *sparse, basis []int32) bool {
	m := len(basis)
	f.m = m
	f.pivRow, f.pivPos, f.pivVal = f.pivRow[:0], f.pivPos[:0], f.pivVal[:0]
	f.l.ptr, f.l.idx, f.l.val = append(f.l.ptr[:0], 0), f.l.idx[:0], f.l.val[:0]
	f.u.ptr, f.u.idx, f.u.val = append(f.u.ptr[:0], 0), f.u.idx[:0], f.u.val[:0]
	f.lSteps = f.lSteps[:0]
	f.etaPos, f.etaPiv = f.etaPos[:0], f.etaPiv[:0]
	f.eta.ptr, f.eta.idx, f.eta.val = append(f.eta.ptr[:0], 0), f.eta.idx[:0], f.eta.val[:0]
	f.rowDone, f.posDone = resize(f.rowDone, m), resize(f.posDone, m)
	f.rowCnt, f.colCnt = resize(f.rowCnt, m), resize(f.colCnt, m)

	// B row-wise, by counting sort, with the row and column counts.
	br := &f.byRow
	br.ptr = resize(br.ptr, m+1)
	nnz := 0
	for q, j := range basis {
		f.colCnt[q] = a.ptr[j+1] - a.ptr[j]
		nnz += int(f.colCnt[q])
		for e := a.ptr[j]; e < a.ptr[j+1]; e++ {
			br.ptr[a.idx[e]+1]++
		}
	}
	for i := 0; i < m; i++ {
		f.rowCnt[i] = br.ptr[i+1]
		br.ptr[i+1] += br.ptr[i]
	}
	br.idx, br.val = resize(br.idx, nnz), resize(br.val, nnz)
	next := resize(f.queue, m)
	copy(next, br.ptr[:m])
	for q, j := range basis {
		for e := a.ptr[j]; e < a.ptr[j+1]; e++ {
			i := a.idx[e]
			br.idx[next[i]], br.val[next[i]] = int32(q), a.val[e]
			next[i]++
		}
	}

	// Column singletons: a column with one active entry pivots there with
	// nothing to eliminate; its row leaves, which may expose more.
	queue := next[:0]
	for q := 0; q < m; q++ {
		if f.colCnt[q] == 1 {
			queue = append(queue, int32(q))
		}
	}
	for head := 0; head < len(queue); head++ {
		q := queue[head]
		if f.posDone[q] || f.colCnt[q] != 1 {
			continue
		}
		j := basis[q]
		p, pv := int32(-1), 0.0
		for e := a.ptr[j]; e < a.ptr[j+1]; e++ {
			if !f.rowDone[a.idx[e]] {
				p, pv = a.idx[e], a.val[e]
				break
			}
		}
		if p < 0 || math.Abs(pv) < singTol {
			return false
		}
		for e := br.ptr[p]; e < br.ptr[p+1]; e++ {
			q2 := br.idx[e]
			if q2 == q || f.posDone[q2] {
				continue
			}
			f.u.idx, f.u.val = append(f.u.idx, q2), append(f.u.val, br.val[e])
			if f.colCnt[q2]--; f.colCnt[q2] == 1 {
				queue = append(queue, q2)
			}
		}
		f.step(p, q, pv)
	}

	// Row singletons: a row with one active entry pivots there; the rest of
	// that column becomes multipliers and no other column changes.
	queue = queue[:0]
	for i := 0; i < m; i++ {
		if !f.rowDone[i] && f.rowCnt[i] == 1 {
			queue = append(queue, int32(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		if f.rowDone[p] || f.rowCnt[p] != 1 {
			continue
		}
		q, pv := int32(-1), 0.0
		for e := br.ptr[p]; e < br.ptr[p+1]; e++ {
			if !f.posDone[br.idx[e]] {
				q, pv = br.idx[e], br.val[e]
				break
			}
		}
		if q < 0 || math.Abs(pv) < singTol {
			return false
		}
		j := basis[q]
		for e := a.ptr[j]; e < a.ptr[j+1]; e++ {
			i := a.idx[e]
			if i == p || f.rowDone[i] {
				continue
			}
			f.l.idx, f.l.val = append(f.l.idx, i), append(f.l.val, a.val[e]/pv)
			if f.rowCnt[i]--; f.rowCnt[i] == 1 {
				queue = append(queue, i)
			}
		}
		f.step(p, q, pv)
	}
	f.queue = queue[:0]
	if len(f.pivRow) < m && !f.eliminateBump(a, basis) {
		return false
	}

	// U again by column, for ftran: counting sort of the U_k by position.
	uc := &f.uByPos
	uc.ptr = resize(uc.ptr, m+1)
	uc.idx, uc.val = resize(uc.idx, len(f.u.idx)), resize(uc.val, len(f.u.idx))
	for _, q := range f.u.idx {
		uc.ptr[q+1]++
	}
	for q := 0; q < m; q++ {
		uc.ptr[q+1] += uc.ptr[q]
	}
	next = resize(f.queue, m)
	copy(next, uc.ptr[:m])
	for k, p := range f.pivRow {
		for e := f.u.ptr[k]; e < f.u.ptr[k+1]; e++ {
			q := f.u.idx[e]
			uc.idx[next[q]], uc.val[next[q]] = p, f.u.val[e]
			next[q]++
		}
	}
	f.queue = next[:0]
	return true
}

// step closes elimination step (p, q): whatever was appended to l and u
// since the previous step is this step's L_k and U_k.
func (f *factor) step(p, q int32, pv float64) {
	f.rowDone[p], f.posDone[q] = true, true
	f.pivRow, f.pivPos, f.pivVal = append(f.pivRow, p), append(f.pivPos, q), append(f.pivVal, pv)
	if int(f.l.ptr[len(f.l.ptr)-1]) < len(f.l.idx) {
		f.lSteps = append(f.lSteps, int32(len(f.pivRow)-1))
	}
	f.l.ptr = append(f.l.ptr, int32(len(f.l.idx)))
	f.u.ptr = append(f.u.ptr, int32(len(f.u.idx)))
}

// eliminateBump finishes the factorization on the rows and positions the
// singleton passes left: right-looking Gaussian elimination on sparse
// columns. Each step pivots on a row or column that has become a singleton
// if there is one (no fill), otherwise in the active column with the fewest
// entries on its entry in the row with the fewest — Markowitz's (r−1)(c−1)
// searched over one column — and always on an entry within pivotThreshold
// of its column's largest.
//
// The active submatrix lives in two node arenas: column b's entries are the
// list colHead[b] → cNext, row i's pattern (the bump columns that may hold
// it) the list rowHead[i] → rNext. Links are node index + 1, 0 ends a
// list. Fill-in appends nodes; nothing is freed until the next refactor.
func (f *factor) eliminateBump(a *sparse, basis []int32) bool {
	m := f.m
	f.slot, f.rowHead = resize(f.slot, m), resize(f.rowHead, m)
	f.bumpPos, f.colHead, f.colLen, f.colDone = f.bumpPos[:0], f.colHead[:0], f.colLen[:0], f.colDone[:0]
	f.cRow, f.cVal, f.cNext = f.cRow[:0], f.cVal[:0], f.cNext[:0]
	f.rCol, f.rNext = f.rCol[:0], f.rNext[:0]
	clear(f.rowCnt)
	for q := 0; q < m; q++ {
		if f.posDone[q] {
			continue
		}
		b := int32(len(f.bumpPos))
		f.bumpPos, f.colHead = append(f.bumpPos, int32(q)), append(f.colHead, 0)
		f.colLen, f.colDone = append(f.colLen, 0), append(f.colDone, false)
		for j, e := basis[q], a.ptr[basis[q]]; e < a.ptr[j+1]; e++ {
			if i := a.idx[e]; !f.rowDone[i] {
				f.addEntry(b, i, a.val[e])
			}
		}
	}
	nb := len(f.bumpPos)
	// Rows (as i) and columns (as ^c) whose count has dropped to 1: a pivot
	// there costs no fill, so they go first.
	singles := f.queue[:0]
	first := 0 // every bump column before it is done

	for done := 0; done < nb; done++ {
		b, p, pv := int32(-1), int32(-1), 0.0
		for len(singles) > 0 && b < 0 {
			i := singles[len(singles)-1]
			singles = singles[:len(singles)-1]
			if i < 0 {
				if c := ^i; !f.colDone[c] && f.colLen[c] == 1 {
					b = c
				}
				continue
			}
			if f.rowDone[i] || f.rowCnt[i] != 1 {
				continue
			}
			for rn := f.rowHead[i]; rn != 0; rn = f.rNext[rn-1] {
				if c := f.rCol[rn-1]; !f.colDone[c] {
					// The one active column holding row i: usable if its
					// entry there is large enough for its column.
					cmax, v := 0.0, 0.0
					for nd := f.colHead[c]; nd != 0; nd = f.cNext[nd-1] {
						cmax = max(cmax, math.Abs(f.cVal[nd-1]))
						if f.cRow[nd-1] == i {
							v = f.cVal[nd-1]
						}
					}
					if cmax >= singTol && math.Abs(v) >= pivotThreshold*cmax {
						b, p, pv = c, i, v
					}
					break
				}
			}
		}
		if b < 0 {
			for f.colDone[first] {
				first++
			}
			b = int32(first)
			for c := first + 1; c < nb; c++ {
				if !f.colDone[c] && f.colLen[c] < f.colLen[b] {
					b = int32(c)
				}
			}
		}
		if p < 0 {
			cmax := 0.0
			for nd := f.colHead[b]; nd != 0; nd = f.cNext[nd-1] {
				cmax = max(cmax, math.Abs(f.cVal[nd-1]))
			}
			if cmax < singTol {
				return false
			}
			for nd := f.colHead[b]; nd != 0; nd = f.cNext[nd-1] {
				i, v := f.cRow[nd-1], f.cVal[nd-1]
				if math.Abs(v) >= pivotThreshold*cmax && (p < 0 || f.rowCnt[i] < f.rowCnt[p]) {
					p, pv = i, v
				}
			}
		}

		// L_k: the pivot column below the pivot, scaled.
		lStart := len(f.l.idx)
		for nd := f.colHead[b]; nd != 0; nd = f.cNext[nd-1] {
			i := f.cRow[nd-1]
			if i == p {
				continue
			}
			f.l.idx, f.l.val = append(f.l.idx, i), append(f.l.val, f.cVal[nd-1]/pv)
			if f.rowCnt[i]--; f.rowCnt[i] == 1 {
				singles = append(singles, i)
			}
		}
		lIdx, lVal := f.l.idx[lStart:], f.l.val[lStart:]
		f.colDone[b] = true

		// Every other active column with an entry u in the pivot row gives
		// it up to U_k and takes −u·L_k, filling in where it had no entry.
		for rn := f.rowHead[p]; rn != 0; rn = f.rNext[rn-1] {
			c := f.rCol[rn-1]
			if f.colDone[c] {
				continue
			}
			u := 0.0
			for link := &f.colHead[c]; *link != 0; {
				nd := *link
				if i := f.cRow[nd-1]; i != p {
					f.slot[i] = nd
					link = &f.cNext[nd-1]
					continue
				}
				u = f.cVal[nd-1]
				*link = f.cNext[nd-1] // row p leaves the column
				f.colLen[c]--
			}
			f.u.idx, f.u.val = append(f.u.idx, f.bumpPos[c]), append(f.u.val, u)
			for e, i := range lIdx {
				if nd := f.slot[i]; nd != 0 {
					f.cVal[nd-1] -= u * lVal[e]
				} else {
					f.addEntry(c, i, -u*lVal[e])
				}
			}
			for nd := f.colHead[c]; nd != 0; nd = f.cNext[nd-1] {
				f.slot[f.cRow[nd-1]] = 0
			}
			if f.colLen[c] == 1 {
				singles = append(singles, ^c)
			}
		}
		f.step(p, f.bumpPos[b], pv)
	}
	f.queue = singles[:0]
	return true
}

// addEntry puts a new entry (row i, value v) at the head of bump column
// b's list and b at the head of row i's pattern.
func (f *factor) addEntry(b, i int32, v float64) {
	f.cRow, f.cVal, f.cNext = append(f.cRow, i), append(f.cVal, v), append(f.cNext, f.colHead[b])
	f.colHead[b] = int32(len(f.cRow))
	f.colLen[b]++
	f.rCol, f.rNext = append(f.rCol, b), append(f.rNext, f.rowHead[i])
	f.rowHead[i] = int32(len(f.rCol))
	f.rowCnt[i]++
}

// ftran solves B·x = b through the LU and the eta file. b is indexed by
// row and is left all zero; x is indexed by basis position.
func (f *factor) ftran(b, x []float64) {
	for _, k := range f.lSteps {
		t := b[f.pivRow[k]]
		if t == 0 {
			continue
		}
		for e := f.l.ptr[k]; e < f.l.ptr[k+1]; e++ {
			b[f.l.idx[e]] -= f.l.val[e] * t
		}
	}
	for k := f.m - 1; k >= 0; k-- {
		p, q := f.pivRow[k], f.pivPos[k]
		t := b[p]
		if t == 0 {
			x[q] = 0
			continue
		}
		b[p] = 0
		t /= f.pivVal[k]
		x[q] = t
		for e := f.uByPos.ptr[q]; e < f.uByPos.ptr[q+1]; e++ {
			b[f.uByPos.idx[e]] -= f.uByPos.val[e] * t
		}
	}
	for k, r := range f.etaPos {
		t := x[r]
		if t == 0 {
			continue
		}
		t /= f.etaPiv[k]
		x[r] = t
		for e := f.eta.ptr[k]; e < f.eta.ptr[k+1]; e++ {
			x[f.eta.idx[e]] -= f.eta.val[e] * t
		}
	}
}

// btran solves Bᵀ·y = c through the eta file and the LU. c is indexed by
// basis position and is left all zero; y is indexed by row.
func (f *factor) btran(c, y []float64) {
	for k := len(f.etaPos) - 1; k >= 0; k-- {
		r := f.etaPos[k]
		t := c[r]
		for e := f.eta.ptr[k]; e < f.eta.ptr[k+1]; e++ {
			t -= f.eta.val[e] * c[f.eta.idx[e]]
		}
		c[r] = t / f.etaPiv[k]
	}
	for k := 0; k < f.m; k++ {
		q := f.pivPos[k]
		t := c[q]
		if t == 0 {
			y[f.pivRow[k]] = 0
			continue
		}
		t /= f.pivVal[k]
		c[q] = 0
		y[f.pivRow[k]] = t
		for e := f.u.ptr[k]; e < f.u.ptr[k+1]; e++ {
			c[f.u.idx[e]] -= f.u.val[e] * t
		}
	}
	for s := len(f.lSteps) - 1; s >= 0; s-- {
		k := f.lSteps[s]
		t := y[f.pivRow[k]]
		for e := f.l.ptr[k]; e < f.l.ptr[k+1]; e++ {
			t -= f.l.val[e] * y[f.l.idx[e]]
		}
		y[f.pivRow[k]] = t
	}
}

// pushEta records that the column d = B⁻¹A_j has replaced basis position r.
func (f *factor) pushEta(r int, d []float64) {
	f.etaPos, f.etaPiv = append(f.etaPos, int32(r)), append(f.etaPiv, d[r])
	for i, v := range d {
		if i != r && (v >= dropTol || v <= -dropTol) {
			f.eta.idx, f.eta.val = append(f.eta.idx, int32(i)), append(f.eta.val, v)
		}
	}
	f.eta.ptr = append(f.eta.ptr, int32(len(f.eta.idx)))
}
