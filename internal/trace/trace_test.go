package trace

import (
	"testing"
	"testing/quick"
)

func TestBenchmarkSuiteComplete(t *testing.T) {
	names := Benchmarks()
	if len(names) != 26 {
		t.Fatalf("suite has %d benchmarks, want 26 (SPEC CPU 2000)", len(names))
	}
	// The canonical SPEC 2000 suite.
	want := []string{
		"ammp", "applu", "apsi", "art", "bzip2", "crafty", "eon", "equake",
		"facerec", "fma3d", "galgel", "gap", "gcc", "gzip", "lucas", "mcf",
		"mesa", "mgrid", "parser", "perlbmk", "sixtrack", "swim", "twolf",
		"vortex", "vpr", "wupwise",
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("benchmark[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestUnknownProgramRejected(t *testing.T) {
	if _, err := NewGenerator("notabenchmark", 0); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if _, err := NewGenerator("mcf", -1); err == nil {
		t.Fatal("expected error for negative phase")
	}
	if _, err := NewGenerator("mcf", PhasesPerProgram); err == nil {
		t.Fatal("expected error for out-of-range phase")
	}
	if IsBenchmark("notabenchmark") {
		t.Fatal("IsBenchmark accepted garbage")
	}
	if !IsBenchmark("gzip") {
		t.Fatal("IsBenchmark rejected gzip")
	}
}

func TestDeterminism(t *testing.T) {
	g1, err := NewGenerator("gcc", 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator("gcc", 3)
	for i := 0; i < 20000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestPhasesDiffer(t *testing.T) {
	// Different phases of the same program must produce different streams.
	g0, _ := NewGenerator("mcf", 0)
	g1, _ := NewGenerator("mcf", 1)
	same := 0
	for i := 0; i < 5000; i++ {
		if g0.Next() == g1.Next() {
			same++
		}
	}
	if same > 4500 {
		t.Fatalf("phases 0 and 1 of mcf nearly identical: %d/5000 equal instructions", same)
	}
}

func TestProgramsDiffer(t *testing.T) {
	ga, _ := NewGenerator("swim", 0)
	gb, _ := NewGenerator("parser", 0)
	same := 0
	for i := 0; i < 5000; i++ {
		if ga.Next() == gb.Next() {
			same++
		}
	}
	if same > 2500 {
		t.Fatalf("swim and parser streams nearly identical: %d/5000", same)
	}
}

func TestInstructionWellFormed(t *testing.T) {
	for _, name := range Benchmarks() {
		g, err := NewGenerator(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		branches, mems := 0, 0
		for i := 0; i < 20000; i++ {
			in := g.Next()
			if in.Op >= NumOpClasses {
				t.Fatalf("%s: bad op class %d", name, in.Op)
			}
			if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
				t.Fatalf("%s: register out of range: %+v", name, in)
			}
			switch in.Op {
			case Branch:
				branches++
				if in.Dst != -1 {
					t.Fatalf("%s: branch with destination: %+v", name, in)
				}
			case Load:
				mems++
				if in.Dst < 0 {
					t.Fatalf("%s: load without destination: %+v", name, in)
				}
				if in.Addr == 0 {
					t.Fatalf("%s: load without address: %+v", name, in)
				}
			case Store:
				mems++
				if in.Dst != -1 {
					t.Fatalf("%s: store with destination: %+v", name, in)
				}
			}
		}
		if branches == 0 {
			t.Errorf("%s: no branches in 20k instructions", name)
		}
		if mems == 0 {
			t.Errorf("%s: no memory ops in 20k instructions", name)
		}
		// Typical branch density: 5-25% of instructions.
		if frac := float64(branches) / 20000; frac < 0.03 || frac > 0.35 {
			t.Errorf("%s: branch fraction %.3f outside [0.03, 0.35]", name, frac)
		}
	}
}

func TestOpClassHelpers(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() || Branch.IsMem() || IntALU.IsMem() {
		t.Error("IsMem misclassifies")
	}
	if !FpALU.IsFp() || !FpMul.IsFp() || Load.IsFp() {
		t.Error("IsFp misclassifies")
	}
	if Load.String() != "Load" || Branch.String() != "Branch" {
		t.Error("op names wrong")
	}
	if OpClass(200).String() != "OpClass(200)" {
		t.Error("out-of-range op name wrong")
	}
}

func TestIntervalLength(t *testing.T) {
	g, _ := NewGenerator("gzip", 0)
	iv := g.Interval(1234)
	if len(iv) != 1234 {
		t.Fatalf("Interval(1234) returned %d instructions", len(iv))
	}
}

func TestPersonalitiesExpressed(t *testing.T) {
	// mcf must be far more memory-intensive per instruction than crafty,
	// and swim must be far more FP-heavy than gzip.
	memFrac := func(name string) float64 {
		g, _ := NewGenerator(name, 0)
		m := 0
		const n = 30000
		for i := 0; i < n; i++ {
			if g.Next().Op.IsMem() {
				m++
			}
		}
		return float64(m) / n
	}
	fpFrac := func(name string) float64 {
		g, _ := NewGenerator(name, 0)
		m := 0
		const n = 30000
		for i := 0; i < n; i++ {
			if g.Next().Op.IsFp() {
				m++
			}
		}
		return float64(m) / n
	}
	if mcf, crafty := memFrac("mcf"), memFrac("crafty"); mcf <= crafty {
		t.Errorf("mcf mem fraction %.3f not above crafty %.3f", mcf, crafty)
	}
	if swim, gzip := fpFrac("swim"), fpFrac("gzip"); swim <= gzip+0.2 {
		t.Errorf("swim fp fraction %.3f not well above gzip %.3f", swim, gzip)
	}
}

func TestGeneratorAccessors(t *testing.T) {
	g, _ := NewGenerator("art", 7)
	if g.Program() != "art" || g.Phase() != 7 {
		t.Fatalf("accessors wrong: %s %d", g.Program(), g.Phase())
	}
}

// Property: for any benchmark and phase, the stream restarts identically
// after recreating the generator (pure function of program+phase).
func TestQuickStreamPurity(t *testing.T) {
	names := Benchmarks()
	f := func(pick uint8, phase uint8) bool {
		name := names[int(pick)%len(names)]
		ph := int(phase) % PhasesPerProgram
		a, err := NewGenerator(name, ph)
		if err != nil {
			return false
		}
		b, _ := NewGenerator(name, ph)
		for i := 0; i < 500; i++ {
			if a.Next() != b.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureBasics(t *testing.T) {
	g, _ := NewGenerator("swim", 0)
	s := Measure(g.Interval(20000))
	if s.Insts != 20000 {
		t.Fatalf("insts %d", s.Insts)
	}
	sum := 0.0
	for _, m := range s.Mix {
		if m < 0 {
			t.Fatalf("negative mix %v", s.Mix)
		}
		sum += m
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("mix sums to %v", sum)
	}
	if s.FpFrac < 0.3 {
		t.Errorf("swim fp fraction %.2f too low", s.FpFrac)
	}
	if s.MemFrac <= 0 || s.BranchDensity <= 0 || s.TakenFrac <= 0 {
		t.Errorf("degenerate stats: %+v", s)
	}
	if s.DataFootprintKB <= 0 || s.CodeFootprintKB <= 0 || s.DistinctBlocks == 0 {
		t.Errorf("footprints empty: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty render")
	}
	if z := Measure(nil); z.Insts != 0 {
		t.Error("empty measure nonzero")
	}
}

func TestMeasureSeparatesFootprints(t *testing.T) {
	// mcf's data footprint per instruction must exceed eon's, and gcc's
	// code footprint must exceed lucas's.
	fp := func(name string) (data, code float64) {
		g, _ := NewGenerator(name, 0)
		s := Measure(g.Interval(30000))
		return s.DataFootprintKB, s.CodeFootprintKB
	}
	mcfD, _ := fp("mcf")
	eonD, _ := fp("eon")
	if mcfD <= eonD {
		t.Errorf("mcf data footprint %.0fKB not above eon %.0fKB", mcfD, eonD)
	}
	_, gccC := fp("gcc")
	_, lucasC := fp("lucas")
	if gccC <= lucasC {
		t.Errorf("gcc code footprint %.0fKB not above lucas %.0fKB", gccC, lucasC)
	}
}

func TestPhaseWalkerSwitchesEveryPerPhase(t *testing.T) {
	// The walk is phase 0's stream for exactly perPhase instructions, then
	// phase 1's from its start, and so on; the last phase runs on.
	const perPhase = 7
	w, err := NewPhaseWalker("gzip", perPhase)
	if err != nil {
		t.Fatal(err)
	}
	for ph := 0; ph < PhasesPerProgram; ph++ {
		g, err := NewGenerator("gzip", ph)
		if err != nil {
			t.Fatal(err)
		}
		n := perPhase
		if ph == PhasesPerProgram-1 {
			n = 3 * perPhase
		}
		for i := 0; i < n; i++ {
			if got, want := w.Next(), g.Next(); got != want {
				t.Fatalf("phase %d instruction %d: walk gave %+v, phase stream %+v", ph, i, got, want)
			}
		}
	}
	if _, err := NewPhaseWalker("gzip", 0); err == nil {
		t.Error("zero phase length accepted")
	}
	if _, err := NewPhaseWalker("notabenchmark", 10); err == nil {
		t.Error("unknown program accepted")
	}
}
