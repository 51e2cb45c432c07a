package lp

import (
	"errors"
	"math"
)

// The test-only reference solver: a dense two-phase tableau simplex with
// a Bland fallback. It solves min cᵀx over x ≥ 0 with every constraint as
// an explicit row (slack, surplus and artificial columns in one
// m × (n+slacks+artificials) tableau), so it shares no machinery with the
// production solver.

// refProblem is a problem in the reference's form: x ≥ 0 and rows only.
type refProblem struct {
	numVars int
	obj     []float64
	rows    []row
}

const refEps = 1e-9

// ReferenceSolve solves p with the dense reference. Bounds are rewritten
// into the reference's form: a variable with a finite lower bound l is
// shifted to x = l + y (y ≥ 0, plus the row y ≤ u−l when u is finite),
// one with only an upper bound u is reflected to x = u − y, and a free one
// is split as x = y⁺ − y⁻. Crossed bounds become a row y ≤ u−l < 0, so
// the reference judges them with its own phase-1 tolerance. The returned X
// and Obj are in p's variables.
func ReferenceSolve(p *Problem) (*Solution, error) {
	n := p.numVars
	type mapping struct {
		off      float64
		pos, neg int // reference columns with coefficient +1 / −1 (−1: none)
	}
	maps := make([]mapping, n)
	cols := 0
	q := &refProblem{}
	var boxRows []row
	for j := 0; j < n; j++ {
		lo, hi := p.lo[j], p.hi[j]
		switch {
		case !math.IsInf(lo, -1):
			maps[j] = mapping{off: lo, pos: cols, neg: -1}
			if !math.IsInf(hi, 1) {
				boxRows = append(boxRows, row{terms: []Term{{cols, 1}}, sense: LE, rhs: hi - lo})
			}
			cols++
		case !math.IsInf(hi, 1):
			maps[j] = mapping{off: hi, pos: -1, neg: cols}
			cols++
		default:
			maps[j] = mapping{pos: cols, neg: cols + 1}
			cols += 2
		}
	}
	q.numVars = cols
	q.obj = make([]float64, cols)
	for j, c := range p.obj {
		if maps[j].pos >= 0 {
			q.obj[maps[j].pos] += c
		}
		if maps[j].neg >= 0 {
			q.obj[maps[j].neg] -= c
		}
	}
	for _, r := range p.rows {
		nr := row{sense: r.sense, rhs: r.rhs}
		for _, t := range r.terms {
			m := maps[t.Var]
			nr.rhs -= t.Coeff * m.off
			if m.pos >= 0 {
				nr.terms = append(nr.terms, Term{m.pos, t.Coeff})
			}
			if m.neg >= 0 {
				nr.terms = append(nr.terms, Term{m.neg, -t.Coeff})
			}
		}
		q.rows = append(q.rows, nr)
	}
	q.rows = append(q.rows, boxRows...)
	sol, pivots, err := refDense(q)
	if err != nil || sol.Status != Optimal {
		return sol, err
	}
	x := make([]float64, n)
	var obj float64
	for j := range x {
		m := maps[j]
		x[j] = m.off
		if m.pos >= 0 {
			x[j] += sol.X[m.pos]
		}
		if m.neg >= 0 {
			x[j] -= sol.X[m.neg]
		}
		obj += p.obj[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Obj: obj, Pivots: pivots}, nil
}

// refDense is the dense two-phase refSimplex on x ≥ 0; it also reports the
// pivot count.
func refDense(p *refProblem) (*Solution, int, error) {
	m := len(p.rows)
	n := p.numVars

	// Column layout: [0,n) structural, then one slack/surplus per
	// inequality row, then one artificial per row that needs one.
	numSlack := 0
	for _, r := range p.rows {
		if r.sense != EQ {
			numSlack++
		}
	}
	// Count artificials after rhs normalization: a row needs an artificial
	// unless it is an inequality whose slack can start basic (b ≥ 0 after
	// normalization and sense LE).
	type rowInfo struct {
		flip     bool // multiply row by -1 so rhs ≥ 0
		sense    Sense
		slackCol int // -1 if none
		artCol   int // -1 if none
	}
	info := make([]rowInfo, m)
	col := n
	for i, r := range p.rows {
		ri := rowInfo{sense: r.sense, slackCol: -1, artCol: -1}
		rhs := r.rhs
		if rhs < 0 {
			ri.flip = true
			rhs = -rhs
			switch r.sense {
			case LE:
				ri.sense = GE
			case GE:
				ri.sense = LE
			}
		}
		if ri.sense != EQ {
			ri.slackCol = col
			col++
		}
		info[i] = ri
	}
	numArt := 0
	for i := range info {
		// LE with b ≥ 0: slack is the initial basic variable. GE and EQ
		// need an artificial.
		if info[i].sense != LE {
			info[i].artCol = col
			col++
			numArt++
		}
	}
	totalCols := col
	_ = numSlack

	// Dense tableau: m rows × (totalCols + 1); last column is rhs.
	width := totalCols + 1
	tab := make([]float64, m*width)
	basis := make([]int, m)
	for i, r := range p.rows {
		ri := info[i]
		sign := 1.0
		rhs := r.rhs
		if ri.flip {
			sign = -1
			rhs = -rhs
		}
		rowSlice := tab[i*width : (i+1)*width]
		for _, t := range r.terms {
			rowSlice[t.Var] += sign * t.Coeff
		}
		if ri.slackCol >= 0 {
			if ri.sense == LE {
				rowSlice[ri.slackCol] = 1
			} else {
				rowSlice[ri.slackCol] = -1 // surplus
			}
		}
		if ri.artCol >= 0 {
			rowSlice[ri.artCol] = 1
			basis[i] = ri.artCol
		} else {
			basis[i] = ri.slackCol
		}
		rowSlice[totalCols] = rhs
	}

	isArt := make([]bool, totalCols)
	for i := range info {
		if info[i].artCol >= 0 {
			isArt[info[i].artCol] = true
		}
	}

	s := &refSimplex{
		tab:    tab,
		m:      m,
		width:  width,
		nCols:  totalCols,
		basis:  basis,
		banned: isArt,
	}

	if numArt > 0 {
		// Phase 1: minimize the sum of artificials.
		cost := make([]float64, totalCols)
		for j := range cost {
			if isArt[j] {
				cost[j] = 1
			}
		}
		s.initCostRow(cost)
		status, err := s.iterate(false)
		if err != nil {
			return nil, s.pivots, err
		}
		if status == Unbounded {
			// Phase-1 objective is bounded below by 0; cannot happen.
			return nil, s.pivots, errors.New("lp: internal: phase-1 unbounded")
		}
		if s.objValue() > 1e-7 {
			return &Solution{Status: Infeasible}, s.pivots, nil
		}
		// Pivot basic artificials (at value 0) out of the basis when a
		// non-artificial pivot exists; otherwise the row is redundant and
		// the artificial stays at zero.
		for i := 0; i < m; i++ {
			if !isArt[s.basis[i]] {
				continue
			}
			rowSlice := s.tab[i*s.width : (i+1)*s.width]
			for j := 0; j < totalCols; j++ {
				if !isArt[j] && math.Abs(rowSlice[j]) > refEps {
					s.pivot(i, j)
					break
				}
			}
		}
	}

	// Phase 2: original objective (artificial columns stay banned).
	cost := make([]float64, totalCols)
	copy(cost, p.obj)
	s.initCostRow(cost)
	status, err := s.iterate(true)
	if err != nil {
		return nil, s.pivots, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded}, s.pivots, nil
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if b := s.basis[i]; b < n {
			x[b] = s.tab[i*s.width+totalCols]
		}
	}
	var obj float64
	for j := 0; j < n; j++ {
		obj += p.obj[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Obj: obj}, s.pivots, nil
}

// refSimplex is the working state of a tableau solve.
type refSimplex struct {
	tab    []float64 // m × width, last column is rhs
	m      int
	width  int
	nCols  int
	basis  []int
	banned []bool // columns that may not enter (artificials in phase 2)
	pivots int    // pivots performed across both phases (telemetry)

	costRow []float64 // reduced costs, length nCols+1 (last = -objective)
}

// initCostRow sets up reduced costs for the given cost vector by
// subtracting the rows of the current basic variables.
func (s *refSimplex) initCostRow(cost []float64) {
	cr := make([]float64, s.nCols+1)
	copy(cr, cost)
	for i := 0; i < s.m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		rowSlice := s.tab[i*s.width : (i+1)*s.width]
		for j := 0; j <= s.nCols; j++ {
			cr[j] -= cb * rowSlice[j]
		}
	}
	s.costRow = cr
}

// objValue returns the current objective value.
func (s *refSimplex) objValue() float64 { return -s.costRow[s.nCols] }

// iterate runs refSimplex pivots until optimality, unboundedness, or the
// iteration limit. banArtificials keeps artificial columns from entering.
func (s *refSimplex) iterate(banArtificials bool) (Status, error) {
	maxIter := 200 * (s.m + s.nCols + 10)
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		enter := -1
		if iter < blandAfter {
			// Dantzig: most negative reduced cost.
			best := -refEps
			for j := 0; j < s.nCols; j++ {
				if banArtificials && s.banned[j] {
					continue
				}
				if s.costRow[j] < best {
					best = s.costRow[j]
					enter = j
				}
			}
		} else {
			// Bland: first negative reduced cost (anti-cycling).
			for j := 0; j < s.nCols; j++ {
				if banArtificials && s.banned[j] {
					continue
				}
				if s.costRow[j] < -refEps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < s.m; i++ {
			a := s.tab[i*s.width+enter]
			if a > refEps {
				ratio := s.tab[i*s.width+s.nCols] / a
				if ratio < bestRatio-refEps ||
					(ratio < bestRatio+refEps && leave >= 0 && s.basis[i] < s.basis[leave]) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		s.pivot(leave, enter)
	}
	return Optimal, ErrIterLimit
}

// pivot performs a Gauss-Jordan pivot on (row, col) and updates the basis
// and cost row.
func (s *refSimplex) pivot(row, col int) {
	s.pivots++
	w := s.width
	pr := s.tab[row*w : (row+1)*w]
	pv := pr[col]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // fight rounding
	for i := 0; i < s.m; i++ {
		if i == row {
			continue
		}
		ri := s.tab[i*w : (i+1)*w]
		f := ri[col]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
	if s.costRow != nil {
		f := s.costRow[col]
		if f != 0 {
			for j := 0; j <= s.nCols; j++ {
				s.costRow[j] -= f * pr[j]
			}
			s.costRow[col] = 0
		}
	}
	s.basis[row] = col
}
