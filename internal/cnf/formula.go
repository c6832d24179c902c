package cnf

import "fmt"

// Formula is a CNF formula: a conjunction of clauses over variables
// 1..NumVars. The zero Formula is an empty formula ready to use.
type Formula struct {
	numVars Var
	Clauses []Clause
}

// NewFormula returns an empty formula with n variables pre-declared.
func NewFormula(n int) *Formula { return &Formula{numVars: Var(n)} }

// NumVars returns the number of declared variables.
func (f *Formula) NumVars() int { return int(f.numVars) }

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// NewVar declares and returns a fresh variable.
func (f *Formula) NewVar() Var {
	f.numVars++
	return f.numVars
}

// NewVars declares n fresh variables and returns them in order.
func (f *Formula) NewVars(n int) []Var {
	out := make([]Var, n)
	for i := range out {
		out[i] = f.NewVar()
	}
	return out
}

// EnsureVars raises the declared variable count to at least n.
func (f *Formula) EnsureVars(n int) {
	if Var(n) > f.numVars {
		f.numVars = Var(n)
	}
}

// Add appends a clause built from the given literals. The literals are
// copied. Variable declarations are extended as needed.
func (f *Formula) Add(lits ...Lit) {
	c := make(Clause, len(lits))
	copy(c, lits)
	f.AddClause(c)
}

// AddClause appends c (without copying). Variable declarations are
// extended as needed.
func (f *Formula) AddClause(c Clause) {
	if m := c.MaxVar(); m > f.numVars {
		f.numVars = m
	}
	f.Clauses = append(f.Clauses, c)
}

// AddUnit appends the unit clause {l}.
func (f *Formula) AddUnit(l Lit) { f.Add(l) }

// Eval returns the status of the whole formula under a: Satisfied when
// every clause is satisfied, Falsified when some clause is falsified, and
// Unresolved otherwise.
func (f *Formula) Eval(a Assignment) Status {
	allSat := true
	for _, c := range f.Clauses {
		switch c.StatusUnder(a) {
		case StatusFalsified:
			return StatusFalsified
		case StatusUnresolved:
			allSat = false
		}
	}
	if allSat {
		return StatusSatisfied
	}
	return StatusUnresolved
}

// Clone returns a deep copy of f.
func (f *Formula) Clone() *Formula {
	out := &Formula{numVars: f.numVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		out.Clauses[i] = c.Clone()
	}
	return out
}

// NumLiterals returns the total number of literal occurrences, a common
// size measure for encodings.
func (f *Formula) NumLiterals() int {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	return n
}

// SizeBytes estimates the memory footprint of the clause database in
// bytes (4 bytes per literal plus slice headers). It is the size measure
// used by the formula-growth experiments (E2).
func (f *Formula) SizeBytes() int { return SizeBytes(len(f.Clauses), f.NumLiterals()) }

// SizeBytes is Formula.SizeBytes for a clause database known only by its
// clause and literal counts.
func SizeBytes(clauses, literals int) int {
	const sliceHeader = 24
	return literals*4 + clauses*sliceHeader
}

// String renders a compact summary, not the full clause list.
func (f *Formula) String() string {
	return fmt.Sprintf("cnf{vars:%d clauses:%d lits:%d}", f.numVars, len(f.Clauses), f.NumLiterals())
}
