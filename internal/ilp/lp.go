// Package ilp implements the integer linear program of Appendix D for
// MinSum Retrieval, together with the dense two-phase simplex solver and
// the branch-and-bound search it runs on. The paper computes its OPT
// curves with Gurobi; this package is the stdlib-only substitution, used
// on the same scale the paper could afford ("ILP takes too long to finish
// on all graphs except datasharing").
package ilp

import "math"

// Rel is a linear-constraint relation.
type Rel uint8

// Constraint relations.
const (
	LE Rel = iota
	GE
	EQ
)

// LP is a linear program: minimize cᵀx subject to rows and x ≥ 0.
type LP struct {
	NumVars int
	C       []float64
	rows    []lpRow
}

type lpRow struct {
	coef map[int]float64
	rel  Rel
	b    float64
}

// NewLP allocates a program over n non-negative variables.
func NewLP(n int) *LP {
	return &LP{NumVars: n, C: make([]float64, n)}
}

// AddRow appends a constraint Σ coef·x REL b.
func (l *LP) AddRow(coef map[int]float64, rel Rel, b float64) {
	c := make(map[int]float64, len(coef))
	for k, v := range coef {
		c[k] = v
	}
	l.rows = append(l.rows, lpRow{coef: c, rel: rel, b: b})
}

// Status is a solver outcome.
type Status uint8

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

const (
	lpEps     = 1e-7
	dantzigIt = 20000 // Dantzig iterations before switching to Bland
	maxIt     = 200000
)

// Solve runs the two-phase dense simplex. On Optimal it returns the
// variable assignment and objective.
func (l *LP) Solve() ([]float64, float64, Status) {
	m := len(l.rows)
	// Column layout: [0,n) structural, [n, n+m) slack/surplus (one per
	// row, zero-width for EQ), then artificials as needed.
	n := l.NumVars
	nTotal := n + m
	type rowSpec struct {
		art int // artificial column or -1
	}
	specs := make([]rowSpec, m)
	nArt := 0
	// Normalize b ≥ 0 and decide artificial needs.
	norm := make([]lpRow, m)
	for i, r := range l.rows {
		nr := lpRow{coef: map[int]float64{}, rel: r.rel, b: r.b}
		for k, v := range r.coef {
			nr.coef[k] = v
		}
		if nr.b < 0 {
			for k := range nr.coef {
				nr.coef[k] = -nr.coef[k]
			}
			nr.b = -nr.b
			switch nr.rel {
			case LE:
				nr.rel = GE
			case GE:
				nr.rel = LE
			}
		}
		norm[i] = nr
		if nr.rel != LE {
			specs[i].art = nTotal + nArt
			nArt++
		} else {
			specs[i].art = -1
		}
	}
	cols := nTotal + nArt
	// Build tableau: m rows × (cols + 1 rhs).
	t := make([][]float64, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		t[i] = make([]float64, cols+1)
		for k, v := range norm[i].coef {
			t[i][k] = v
		}
		switch norm[i].rel {
		case LE:
			t[i][n+i] = 1
			basis[i] = n + i
		case GE:
			t[i][n+i] = -1
			t[i][specs[i].art] = 1
			basis[i] = specs[i].art
		case EQ:
			t[i][specs[i].art] = 1
			basis[i] = specs[i].art
		}
		t[i][cols] = norm[i].b
	}

	pivot := func(obj []float64, allowed func(j int) bool) Status {
		for it := 0; it < maxIt; it++ {
			// Pick entering column.
			enter := -1
			if it < dantzigIt {
				best := -lpEps
				for j := 0; j < cols; j++ {
					if allowed != nil && !allowed(j) {
						continue
					}
					if obj[j] < best {
						best = obj[j]
						enter = j
					}
				}
			} else {
				for j := 0; j < cols; j++ { // Bland
					if allowed != nil && !allowed(j) {
						continue
					}
					if obj[j] < -lpEps {
						enter = j
						break
					}
				}
			}
			if enter < 0 {
				return Optimal
			}
			// Ratio test (Bland tie-break on basis index).
			leave := -1
			var bestRatio float64
			for i := 0; i < m; i++ {
				if t[i][enter] > lpEps {
					ratio := t[i][cols] / t[i][enter]
					if leave < 0 || ratio < bestRatio-lpEps ||
						(math.Abs(ratio-bestRatio) <= lpEps && basis[i] < basis[leave]) {
						leave = i
						bestRatio = ratio
					}
				}
			}
			if leave < 0 {
				return Unbounded
			}
			// Pivot on (leave, enter).
			pv := t[leave][enter]
			for j := 0; j <= cols; j++ {
				t[leave][j] /= pv
			}
			for i := 0; i < m; i++ {
				if i != leave && math.Abs(t[i][enter]) > 1e-12 {
					f := t[i][enter]
					for j := 0; j <= cols; j++ {
						t[i][j] -= f * t[leave][j]
					}
				}
			}
			f := obj[enter]
			if math.Abs(f) > 1e-12 {
				for j := 0; j <= cols; j++ {
					obj[j] -= f * t[leave][j]
				}
			}
			basis[leave] = enter
		}
		return IterLimit
	}

	reducedCosts := func(c []float64) []float64 {
		obj := make([]float64, cols+1)
		copy(obj, c)
		for i := 0; i < m; i++ {
			f := obj[basis[i]]
			if math.Abs(f) > 1e-12 {
				for j := 0; j <= cols; j++ {
					obj[j] -= f * t[i][j]
				}
			}
		}
		return obj
	}

	// Phase 1.
	if nArt > 0 {
		c1 := make([]float64, cols+1)
		for j := nTotal; j < cols; j++ {
			c1[j] = 1
		}
		obj := reducedCosts(c1)
		st := pivot(obj, nil)
		if st == IterLimit {
			return nil, 0, IterLimit
		}
		if st == Unbounded || -obj[cols] > 1e-5 {
			return nil, 0, Infeasible
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] >= nTotal {
				for j := 0; j < nTotal; j++ {
					if math.Abs(t[i][j]) > lpEps {
						pv := t[i][j]
						for k := 0; k <= cols; k++ {
							t[i][k] /= pv
						}
						for r := 0; r < m; r++ {
							if r != i && math.Abs(t[r][j]) > 1e-12 {
								f := t[r][j]
								for k := 0; k <= cols; k++ {
									t[r][k] -= f * t[i][k]
								}
							}
						}
						basis[i] = j
						break
					}
				}
			}
		}
	}

	// Phase 2: forbid artificial columns.
	c2 := make([]float64, cols+1)
	copy(c2, l.C)
	obj := reducedCosts(c2)
	st := pivot(obj, func(j int) bool { return j < nTotal })
	if st != Optimal {
		return nil, 0, st
	}
	x := make([]float64, l.NumVars)
	for i := 0; i < m; i++ {
		if basis[i] < l.NumVars {
			x[basis[i]] = t[i][cols]
		}
	}
	var val float64
	for j := 0; j < l.NumVars; j++ {
		val += l.C[j] * x[j]
	}
	return x, val, Optimal
}
