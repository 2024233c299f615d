// Package trace generates the synthetic workloads that stand in for SPEC
// CPU 2000. Each of the paper's 26 benchmarks is modelled as a small set of
// kernels — loop nests with a characteristic operation mix, dependency
// structure (ILP), data working set and access pattern, code footprint and
// branch behaviour — and each of the 10 phases per benchmark is a mixture
// over those kernels with phase-specific scaling. The generator emits a
// deterministic instruction stream (seeded per program and phase), so the
// same phase can be replayed identically under every hardware
// configuration.
//
// Control flow is structured as real loop nests are: each kernel owns a
// set of basic blocks at stable addresses; a block's terminating branch
// loops back on itself for LoopPeriod iterations, then exits to the next
// (or, occasionally, a distant) block. Stable branch PCs make the stream
// learnable by a BTB and gshare to exactly the degree the kernel's
// Predictability dictates.
//
// See DESIGN.md §3 for why this substitution preserves the behaviour the
// paper's evaluation exercises: diverse, phase-varying resource demands.
package trace

import (
	"fmt"
	"math/rand/v2"
)

// OpClass is the class of an instruction, determining which functional
// unit executes it and its base latency.
type OpClass uint8

// Instruction classes.
const (
	IntALU OpClass = iota // single-cycle integer op
	IntMul                // integer multiply/divide
	FpALU                 // FP add/sub/convert
	FpMul                 // FP multiply/divide/sqrt
	Load                  // memory read
	Store                 // memory write
	Branch                // conditional branch (block terminator)
	NumOpClasses
)

var opNames = [NumOpClasses]string{"IntALU", "IntMul", "FpALU", "FpMul", "Load", "Store", "Branch"}

// String returns the class name.
func (c OpClass) String() string {
	if c >= NumOpClasses {
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
	return opNames[c]
}

// IsMem reports whether the class accesses data memory.
func (c OpClass) IsMem() bool { return c == Load || c == Store }

// IsFp reports whether the class executes on FP units and uses FP
// registers.
func (c OpClass) IsFp() bool { return c == FpALU || c == FpMul }

// Register file banks. Registers 0..31 are integer, 32..63 floating point;
// -1 means "no register".
const (
	NumIntRegs = 32
	NumFpRegs  = 32
	NumRegs    = NumIntRegs + NumFpRegs
)

// Inst is one dynamic instruction in a trace.
type Inst struct {
	PC     uint32 // instruction address (byte)
	Addr   uint32 // effective address for Load/Store
	Target uint32 // branch target for Branch
	BB     uint32 // basic block identifier (for basic-block vectors)
	Op     OpClass
	Dst    int8 // destination register or -1
	Src1   int8 // first source register or -1
	Src2   int8 // second source register or -1
	Taken  bool // actual branch outcome
}

// AccessPattern selects how a kernel generates data addresses.
type AccessPattern uint8

// Access patterns.
const (
	PatternStride AccessPattern = iota // unit/short-stride streaming
	PatternRandom                      // uniform within the working set
	PatternChase                       // dependent pointer chasing
	PatternMixed                       // alternating stride and random
)

// Kernel describes one loop nest's behaviour.
type Kernel struct {
	Name string
	// Mix holds relative weights for IntALU..Store (Branch is generated
	// as the block terminator, not drawn from the mix).
	Mix [int(Store) + 1]float64
	// BlockLen is the mean basic-block body length in instructions.
	BlockLen int
	// DepDist is the mean backward distance (in instructions) of register
	// dependencies: larger means more ILP.
	DepDist float64
	// WSKB is the data working-set size in KB.
	WSKB int
	// Pattern selects the address generator; Stride is the byte stride
	// for PatternStride/PatternMixed.
	Pattern AccessPattern
	Stride  int
	// CodeKB is the instruction footprint in KB.
	CodeKB int
	// TakenBias is the probability that a loop-back branch actually stays
	// in the loop when the pattern says so (loop irregularity).
	TakenBias float64
	// Predictability is the fraction of branch outcomes that follow the
	// learnable loop pattern (the rest are random coin flips).
	Predictability float64
	// LoopPeriod is the trip count of the modelled loop: a loop branch
	// exits once every LoopPeriod executions.
	LoopPeriod int
}

// blockSlot is the address space reserved per basic block; block bodies
// are shorter than the slot so blocks never overlap.
func (k *Kernel) blockSlot() uint32 { return uint32(k.BlockLen+4) * 4 }

// numBlocks returns how many basic blocks the kernel's code footprint
// holds.
func (k *Kernel) numBlocks() uint32 {
	n := uint32(k.CodeKB) * 1024 / k.blockSlot()
	if n == 0 {
		n = 1
	}
	return n
}

// kernelState is the mutable per-kernel control/address state inside a
// generator.
type kernelState struct {
	cursor     uint32 // streaming cursor for stride pattern
	windowBase uint32 // sliding-window base for the mixed pattern
	chasePtr   uint32 // current pointer for chase pattern
	chaseReg   int8   // register holding the last chase-loaded pointer

	blockIdx  uint32 // current basic block within the kernel
	bodyLeft  int    // body instructions remaining in the current block
	bodyPos   uint32 // next instruction offset within the block
	loopCount int    // iterations of the current loop branch

	codeBase uint32 // base address of the kernel's code region
	dataBase uint32 // base address of the kernel's data region
	bbBase   uint32 // first basic-block id of this kernel
}

// Generator produces the deterministic instruction stream for one phase of
// one program. It is not safe for concurrent use; create one per goroutine.
type Generator struct {
	program string
	phase   int
	spec    phaseSpec
	// pcg is the stream's one random source. The hot Float64 draws read
	// it directly (float64 below); the rare integer draws go through rng,
	// which wraps the same PCG, so both consume one sequence in order.
	pcg    *rand.PCG
	rng    *rand.Rand
	states []kernelState

	kernel     int       // current kernel index
	burstLeft  int       // instructions left in the current kernel burst
	mixTotals  []float64 // per-kernel Mix weight sums, hoisted out of drawOp
	srcStop    []uint64  // per-kernel pickSrc threshold on a 53-bit draw
	recentDst  [32]int8  // ring of recent destination registers
	recentHead int
	emitted    uint64
}

// phaseSpec is the resolved description of one phase: kernel weights plus
// phase-level scaling applied to the program's kernels.
type phaseSpec struct {
	kernels []Kernel
	weights []float64 // same length as kernels, sums to 1
	burst   int       // mean kernel burst length in instructions
}

// NewGenerator returns the generator for the given program and phase
// (phase in [0, PhasesPerProgram)). The stream is a pure function of
// (program, phase).
func NewGenerator(program string, phase int) (*Generator, error) {
	spec, err := resolvePhase(program, phase)
	if err != nil {
		return nil, err
	}
	pcg := rand.NewPCG(hashString(program), uint64(phase)*0x9e3779b97f4a7c15+1)
	g := &Generator{
		program: program,
		phase:   phase,
		spec:    spec,
		pcg:     pcg,
		rng:     rand.New(pcg),
	}
	g.states = make([]kernelState, len(spec.kernels))
	// Hoist the mix-weight totals out of the per-instruction draw. The
	// summation order matches the original in-loop accumulation, so the
	// totals (and every drawn op) are bit-identical.
	g.mixTotals = make([]float64, len(spec.kernels))
	g.srcStop = make([]uint64, len(spec.kernels))
	for i := range spec.kernels {
		total := 0.0
		for _, w := range spec.kernels[i].Mix {
			total += w
		}
		g.mixTotals[i] = total
		// pickSrc's geometric step continues while a draw u/2^53 exceeds
		// p = 1/DepDist. Both sides scale exactly by 2^53 and u is an
		// integer, so the test is u > floor(p·2^53): the same comparison
		// in integers. resolvePhase keeps DepDist ≥ 1.2, so p < 1.
		g.srcStop[i] = uint64(1.0 / spec.kernels[i].DepDist * (1 << 53))
	}
	var code uint32 = 0x0040_0000
	var data uint32 = 0x1000_0000
	var bb uint32
	for i, k := range spec.kernels {
		g.states[i] = kernelState{
			codeBase: code,
			dataBase: data,
			chasePtr: data,
			chaseReg: -1,
			bbBase:   bb,
		}
		g.states[i].bodyLeft = g.bodyLen(&spec.kernels[i], 0)
		code += uint32(k.CodeKB)*1024 + 4096
		data += uint32(k.WSKB)*1024 + 4096
		bb += k.numBlocks()
	}
	for i := range g.recentDst {
		g.recentDst[i] = int8(i % NumIntRegs)
	}
	g.pickKernel()
	return g, nil
}

// Program returns the program name this generator was built for.
func (g *Generator) Program() string { return g.program }

// Phase returns the phase index this generator was built for.
func (g *Generator) Phase() int { return g.phase }

// bodyLen returns the fixed body length of block i of kernel k.
func (g *Generator) bodyLen(k *Kernel, i uint32) int {
	// Deterministic per-block variation of +-1 around BlockLen.
	h := (uint64(i)*2654435761 + 12345) >> 7
	return k.BlockLen - 1 + int(h%3)
}

// blockStart returns the first instruction address of block i.
func (g *Generator) blockStart(k *Kernel, st *kernelState, i uint32) uint32 {
	return st.codeBase + i*k.blockSlot()
}

// float64 returns rand.Rand.Float64 of the stream's PCG, by the same
// formula, without the call through the rand.Source interface.
func (g *Generator) float64() float64 { return float64(g.pcg.Uint64()<<11>>11) / (1 << 53) }

// Next returns the next instruction in the stream.
func (g *Generator) Next() Inst {
	if g.burstLeft <= 0 {
		g.pickKernel()
	}
	k := &g.spec.kernels[g.kernel]
	st := &g.states[g.kernel]

	if st.bodyLeft <= 0 {
		return g.emitBranch(k, st)
	}
	st.bodyLeft--
	g.burstLeft--
	g.emitted++
	op := g.drawOp(k)
	in := Inst{
		PC:   g.blockStart(k, st, st.blockIdx) + st.bodyPos,
		BB:   st.bbBase + st.blockIdx,
		Op:   op,
		Dst:  -1,
		Src1: -1,
		Src2: -1,
	}
	st.bodyPos += 4

	switch op {
	case Load:
		in.Addr = g.dataAddr(k, st)
		in.Dst = g.pickDst(k)
		if k.Pattern == PatternChase && st.chaseReg >= 0 {
			in.Src1 = st.chaseReg // serialised dependent load
		} else {
			in.Src1 = g.pickSrc()
		}
		if k.Pattern == PatternChase {
			st.chaseReg = in.Dst
		}
	case Store:
		in.Addr = g.dataAddr(k, st)
		in.Src1 = g.pickSrc() // data
		in.Src2 = g.pickSrc() // address base
	default:
		in.Dst = g.pickDst(k)
		in.Src1 = g.pickSrc()
		if g.float64() < 0.72 {
			in.Src2 = g.pickSrc()
		}
	}
	if in.Dst >= 0 {
		g.recentDst[g.recentHead&31] = in.Dst
		g.recentHead++
	}
	return in
}

// emitBranch produces the block-terminating branch and decides the next
// block. Branch PCs are stable per block, so predictors can learn them.
func (g *Generator) emitBranch(k *Kernel, st *kernelState) Inst {
	g.burstLeft--
	g.emitted++
	blockStart := g.blockStart(k, st, st.blockIdx)
	in := Inst{
		PC:   blockStart + st.bodyPos,
		BB:   st.bbBase + st.blockIdx,
		Op:   Branch,
		Dst:  -1,
		Src1: g.pickSrc(),
		Src2: -1,
	}

	st.loopCount++
	nextBlock := st.blockIdx
	patterned := g.float64() < k.Predictability
	stay := st.loopCount%k.LoopPeriod != 0
	if patterned && stay && g.float64() > k.TakenBias {
		stay = false // irregular early exit
	}
	if !patterned {
		stay = g.float64() < 0.5 // genuinely data-dependent branch
	}
	if stay {
		in.Taken = true
		in.Target = blockStart // loop back to the top of this block
	} else {
		st.loopCount = 0
		// Exit the loop. Usually fall through to the next block; a
		// deterministic subset of blocks instead jump to a distant block
		// (call/return-like control transfer).
		n := k.numBlocks()
		if st.blockIdx%7 == 3 {
			in.Taken = true
			nextBlock = (st.blockIdx*2654435761 + 97) % n
			in.Target = g.blockStart(k, st, nextBlock)
		} else {
			in.Taken = false
			nextBlock = (st.blockIdx + 1) % n
		}
	}
	if nextBlock != st.blockIdx || !stay {
		st.blockIdx = nextBlock
	}
	st.bodyLeft = g.bodyLen(k, st.blockIdx)
	st.bodyPos = 0
	return in
}

// drawOp samples a non-branch op class from the kernel mix.
func (g *Generator) drawOp(k *Kernel) OpClass {
	x := g.float64() * g.mixTotals[g.kernel]
	for c, w := range k.Mix {
		if x < w {
			return OpClass(c)
		}
		x -= w
	}
	return IntALU
}

// pickDst chooses a destination register in the bank matching the kernel's
// dominant datatype.
func (g *Generator) pickDst(k *Kernel) int8 {
	fp := k.Mix[FpALU]+k.Mix[FpMul] > k.Mix[IntALU]+k.Mix[IntMul]
	if fp && g.float64() < 0.8 {
		return int8(NumIntRegs + g.rng.IntN(NumFpRegs))
	}
	return int8(g.rng.IntN(NumIntRegs))
}

// pickSrc chooses a source register: usually a recently written register at
// a geometric backward distance controlled by DepDist (small distance =
// long dependency chains = low ILP).
func (g *Generator) pickSrc() int8 {
	if g.recentHead == 0 {
		return int8(g.rng.IntN(NumIntRegs))
	}
	// Geometric distance with mean DepDist, capped by ring size: the
	// step continues while the draw exceeds 1/DepDist (see srcStop).
	stop := g.srcStop[g.kernel]
	d := 1
	for d < 32 && g.pcg.Uint64()<<11>>11 > stop {
		d++
	}
	if d > g.recentHead {
		d = g.recentHead
	}
	return g.recentDst[(g.recentHead-d)&31]
}

// dataAddr produces the next data address for the kernel.
func (g *Generator) dataAddr(k *Kernel, st *kernelState) uint32 {
	ws := uint32(k.WSKB) * 1024
	if ws == 0 {
		ws = 1024
	}
	switch k.Pattern {
	case PatternStride:
		st.cursor += uint32(k.Stride)
		if st.cursor >= ws {
			st.cursor %= ws
		}
		return st.dataBase + st.cursor
	case PatternRandom:
		return st.dataBase + g.skewedOffset(ws)
	case PatternChase:
		// Deterministic scramble within the working set: the next pointer
		// is a hash of the current one, as in a shuffled linked list.
		st.chasePtr = st.chasePtr*2654435761 + 12345
		return st.dataBase + (st.chasePtr%ws)&^7
	default: // PatternMixed
		if g.float64() < 0.5 {
			// Strided walk over a sliding window (a compressor's dictionary,
			// a solver's current tile) that drifts slowly through the
			// working set.
			window := ws/6 + 256
			if window > ws {
				window = ws
			}
			st.cursor += uint32(k.Stride)
			if st.cursor >= window {
				st.cursor = 0
				st.windowBase = (st.windowBase + window/2) % ws
			}
			return st.dataBase + (st.windowBase+st.cursor)%ws
		}
		return st.dataBase + g.skewedOffset(ws)
	}
}

// skewedOffset draws a working-set offset with realistic 80/20 locality:
// the bulk of accesses fall in a hot eighth of the working set, a cold
// tail anywhere.
// The hot region scales with the working set, preserving the capacity
// signal the cache counters rely on.
func (g *Generator) skewedOffset(ws uint32) uint32 {
	span := ws
	if g.float64() < 0.93 {
		span = ws/8 + 256
		if span > ws {
			span = ws
		}
	}
	return uint32(g.rng.Uint64N(uint64(span))) &^ 7
}

// pickKernel starts a new kernel burst according to the phase mixture.
func (g *Generator) pickKernel() {
	x := g.float64()
	g.kernel = len(g.spec.weights) - 1
	for i, w := range g.spec.weights {
		if x < w {
			g.kernel = i
			break
		}
		x -= w
	}
	g.burstLeft = g.spec.burst/2 + g.rng.IntN(g.spec.burst)
}

// Interval generates the next n instructions as a slice.
func (g *Generator) Interval(n int) []Inst {
	out := make([]Inst, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// hashString is a 64-bit FNV-1a hash used to seed per-program generators.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
