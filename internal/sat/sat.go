// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: two-watched-literal propagation, 1-UIP conflict analysis with
// clause learning, VSIDS branching, phase saving and Luby restarts.
//
// Nothing in the repository calls it: internal/solver plans every
// schedule by branch and bound, and the SAT-enumeration optimizer that
// used this package is deleted. ROADMAP item 1 schedules the package's
// deletion.
//
// Literal convention follows DIMACS: variables are positive integers
// starting at 1; a negative integer is the negated literal.
package sat

import (
	"errors"
	"fmt"
)

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String returns the verdict name.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// ErrBadLiteral reports a literal referencing an undeclared variable.
var ErrBadLiteral = errors.New("sat: literal references undeclared variable")

// internal literal encoding: lit = 2*var + sign, sign 1 = negated.
type lit uint32

func mkLit(v int, neg bool) lit {
	l := lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

func fromDimacs(x int) lit {
	if x > 0 {
		return mkLit(x, false)
	}
	return mkLit(-x, true)
}

func (l lit) v() int     { return int(l >> 1) }
func (l lit) neg() lit   { return l ^ 1 }
func (l lit) sign() bool { return l&1 == 1 }
func (l lit) dimacs() int {
	if l.sign() {
		return -l.v()
	}
	return l.v()
}

type clause struct {
	lits     []lit
	learnt   bool
	deleted  bool
	activity float64
}

// value of a variable on the trail.
type assign int8

const (
	unassigned assign = iota
	isTrue
	isFalse
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars   int
	clauses []*clause
	learnts []*clause
	watches [][]*clause // watches[lit]: clauses watching lit

	assigns  []assign
	level    []int
	reason   []*clause
	trail    []lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	claInc   float64
	polarity []bool // saved phases
	order    *varHeap

	propagations, conflicts, decisions uint64

	ok bool // false once a top-level contradiction is added
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order = &varHeap{s: s}
	s.NewVar() // reserve var 0 (unused; DIMACS vars start at 1)
	return s
}

// NewVar allocates a fresh variable and returns its (positive) index.
func (s *Solver) NewVar() int {
	s.nVars++
	v := s.nVars - 1
	s.assigns = append(s.assigns, unassigned)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false (negated)
	s.watches = append(s.watches, nil, nil)
	if v > 0 {
		s.order.push(v)
	}
	return v
}

// NumVars returns the number of declared variables (excluding the reserved
// variable 0).
func (s *Solver) NumVars() int { return s.nVars - 1 }

// NumClauses returns the number of problem clauses added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Stats reports cumulative search statistics.
func (s *Solver) Stats() (propagations, conflicts, decisions uint64) {
	return s.propagations, s.conflicts, s.decisions
}

// AddClause adds a clause of DIMACS literals. It returns ErrBadLiteral for
// out-of-range variables. Adding the empty clause (or a clause falsified at
// level 0) makes the instance permanently UNSAT.
func (s *Solver) AddClause(dimacs ...int) error {
	for _, x := range dimacs {
		if x == 0 {
			return fmt.Errorf("sat: zero literal")
		}
		if v := abs(x); v <= 0 || v >= s.nVars {
			return fmt.Errorf("%w: %d", ErrBadLiteral, x)
		}
	}
	if !s.ok {
		return nil
	}
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	var lits []lit
	seen := map[lit]bool{}
	for _, x := range dimacs {
		l := fromDimacs(x)
		if seen[l.neg()] {
			return nil // tautology
		}
		if seen[l] {
			continue
		}
		// Drop literals already false at level 0; satisfied clause is a no-op.
		switch s.litValue(l) {
		case isTrue:
			return nil
		case isFalse:
			continue
		}
		seen[l] = true
		lits = append(lits, l)
	}
	switch len(lits) {
	case 0:
		s.ok = false
		return nil
	case 1:
		if !s.enqueue(lits[0], nil) {
			s.ok = false
			return nil
		}
		if s.propagate() != nil {
			s.ok = false
		}
		return nil
	}
	c := &clause{lits: lits}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return nil
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].neg()] = append(s.watches[c.lits[0].neg()], c)
	s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], c)
}

func (s *Solver) litValue(l lit) assign {
	a := s.assigns[l.v()]
	if a == unassigned {
		return unassigned
	}
	if l.sign() {
		if a == isTrue {
			return isFalse
		}
		return isTrue
	}
	return a
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l lit, from *clause) bool {
	switch s.litValue(l) {
	case isTrue:
		return true
	case isFalse:
		return false
	}
	v := l.v()
	if l.sign() {
		s.assigns[v] = isFalse
	} else {
		s.assigns[v] = isTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		s.watches[p] = ws[:0:0] // will rebuild
		var keep []*clause
		var confl *clause
		for wi, c := range ws {
			if confl != nil {
				keep = append(keep, ws[wi:]...)
				break
			}
			if c.deleted {
				continue // reduceDB removed it; drop the watch lazily
			}
			// Ensure the falsified watcher is lits[1].
			if c.lits[0] == p.neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == isTrue {
				keep = append(keep, c)
				continue
			}
			// Look for a new watch.
			found := false
			for i := 2; i < len(c.lits); i++ {
				if s.litValue(c.lits[i]) != isFalse {
					c.lits[1], c.lits[i] = c.lits[i], c.lits[1]
					s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			keep = append(keep, c)
			if !s.enqueue(c.lits[0], c) {
				confl = c
				s.qhead = len(s.trail)
			}
		}
		s.watches[p] = append(s.watches[p], keep...)
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.v()
		s.polarity[v] = l.sign() // phase saving
		s.assigns[v] = unassigned
		s.reason[v] = nil
		s.level[v] = -1
		if !s.order.inHeap(v) {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// analyze performs 1-UIP conflict analysis and returns the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]lit, int) {
	learnt := []lit{0} // placeholder for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p lit
	idx := len(s.trail) - 1
	first := true

	for {
		if confl.learnt {
			s.bumpClause(confl)
		}
		var start int
		if first {
			start = 0
		} else {
			start = 1
		}
		for _, q := range confl.lits[start:] {
			v := q.v()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next trail literal to resolve on.
		for !seen[s.trail[idx].v()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.v()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.v()]
		first = false
	}
	learnt[0] = p.neg()

	// Backtrack level: highest level among the other literals.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].v()] > s.level[learnt[maxI].v()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].v()]
	}
	return learnt, btLevel
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, l := range s.learnts {
			l.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// maxLearnts is the learnt-clause budget before the database is reduced.
const maxLearnts = 4000

// reduceDB removes the lower-activity half of the learnt clauses (keeping
// binary clauses and clauses currently acting as implication reasons),
// bounding memory on long searches. Deleted clauses are dropped lazily
// from the watch lists by propagate.
func (s *Solver) reduceDB() {
	inUse := make(map[*clause]bool)
	for _, l := range s.trail {
		if r := s.reason[l.v()]; r != nil {
			inUse[r] = true
		}
	}
	sorted := append([]*clause(nil), s.learnts...)
	// Insertion sort by activity ascending (the slice is rebuilt rarely).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].activity < sorted[j-1].activity; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	limit := len(sorted) / 2
	removed := 0
	for _, c := range sorted {
		if removed >= limit {
			break
		}
		if len(c.lits) <= 2 || inUse[c] {
			continue
		}
		c.deleted = true
		removed++
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !c.deleted {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
}

// NumLearnts reports the live learnt-clause count.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i uint64) uint64 {
	for k := uint64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<k {
			continue
		}
		return luby(i - (1 << (k - 1)) + 1)
	}
}

// Solve searches for a satisfying assignment under the given DIMACS
// assumption literals. It returns Sat or Unsat (Unknown is never returned:
// the search is complete).
func (s *Solver) Solve(assumptions ...int) Status {
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	// Apply assumptions as pseudo-decisions.
	for _, x := range assumptions {
		l := fromDimacs(x)
		if l.v() <= 0 || l.v() >= s.nVars {
			return Unsat
		}
		switch s.litValue(l) {
		case isTrue:
			continue
		case isFalse:
			s.cancelUntil(0)
			return Unsat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, nil)
		if s.propagate() != nil {
			s.cancelUntil(0)
			return Unsat
		}
	}
	baseLevel := s.decisionLevel()

	restart := uint64(1)
	conflictBudget := 64 * luby(restart)
	conflictsHere := uint64(0)

	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflictsHere++
			if s.decisionLevel() == baseLevel {
				s.cancelUntil(0)
				if baseLevel == 0 {
					s.ok = false
				}
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			if btLevel < baseLevel {
				btLevel = baseLevel
			}
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					s.cancelUntil(0)
					return Unsat
				}
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			continue
		}
		if conflictsHere >= conflictBudget {
			// Luby restart; reduce the learnt database when it outgrows
			// its budget.
			conflictsHere = 0
			restart++
			conflictBudget = 64 * luby(restart)
			s.cancelUntil(baseLevel)
			if len(s.learnts) > maxLearnts {
				s.reduceDB()
			}
			continue
		}
		// Pick a branching variable.
		v := s.pickBranchVar()
		if v == 0 {
			return Sat // all assigned
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(mkLit(v, s.polarity[v]), nil)
	}
}

func (s *Solver) pickBranchVar() int {
	for s.order.len() > 0 {
		v := s.order.pop()
		if s.assigns[v] == unassigned {
			return v
		}
	}
	return 0
}

// Value returns the assignment of variable v after a Sat verdict.
func (s *Solver) Value(v int) bool {
	if v <= 0 || v >= s.nVars {
		return false
	}
	return s.assigns[v] == isTrue
}

// Model returns the full assignment as a map from variable to value.
func (s *Solver) Model() map[int]bool {
	m := make(map[int]bool, s.nVars-1)
	for v := 1; v < s.nVars; v++ {
		m[v] = s.assigns[v] == isTrue
	}
	return m
}
