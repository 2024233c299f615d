package trace

import "fmt"

// PhaseWalker streams a program's phases in order, switching to the next
// phase every perPhase instructions and staying in the last one once it
// is reached: a whole-program run in miniature, whose phase changes a
// runtime controller can detect.
type PhaseWalker struct {
	program  string
	gen      *Generator
	perPhase int
	n        int // instructions taken from the current phase
	phase    int
}

// NewPhaseWalker returns the walk over program's phases, perPhase
// instructions each (perPhase > 0).
func NewPhaseWalker(program string, perPhase int) (*PhaseWalker, error) {
	if perPhase <= 0 {
		return nil, fmt.Errorf("trace: phase length %d must be positive", perPhase)
	}
	g, err := NewGenerator(program, 0)
	if err != nil {
		return nil, err
	}
	return &PhaseWalker{program: program, gen: g, perPhase: perPhase}, nil
}

// Next returns the next instruction of the walk.
func (w *PhaseWalker) Next() Inst {
	if w.n == w.perPhase && w.phase < PhasesPerProgram-1 {
		w.phase++
		w.n = 0
		// Cannot fail: the program was checked by NewPhaseWalker and the
		// phase is in range.
		w.gen, _ = NewGenerator(w.program, w.phase)
	}
	w.n++
	return w.gen.Next()
}
