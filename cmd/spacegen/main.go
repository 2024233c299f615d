// Command spacegen runs the paper's three-stage design-space search
// (Section V-C: uniform sample, local neighbourhood, one-at-a-time sweep)
// for one program phase and prints the best configurations found — the
// training-data generation step of the pipeline, exposed as a tool.
//
// Usage:
//
//	spacegen [-program gzip] [-phase 0] [-interval 8000] [-uniform 200]
//	         [-local 50] [-top 10] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spacegen: ")
	var (
		program  = flag.String("program", "gzip", "benchmark name")
		phase    = flag.Int("phase", 0, "phase index")
		interval = flag.Int("interval", 8000, "instructions per simulation")
		uniform  = flag.Int("uniform", 200, "uniform random samples (stage 1)")
		local    = flag.Int("local", 50, "local neighbour samples (stage 2)")
		top      = flag.Int("top", 10, "configurations to print")
		seed     = flag.Uint64("seed", 1, "sampling seed")
	)
	flag.Parse()

	g, err := trace.NewGenerator(*program, *phase)
	if err != nil {
		log.Fatal(err)
	}
	insts := g.Interval(*interval)
	warm := *interval / 2

	type scored struct {
		cfg arch.Config
		res *cpu.Result
	}
	var all []scored
	evaluated := map[arch.Config]bool{}
	eval := func(cfg arch.Config) *cpu.Result {
		if evaluated[cfg] {
			return nil
		}
		evaluated[cfg] = true
		res, err := cpu.RunOnce(cfg, insts, cpu.Options{WarmupInsts: warm})
		if err != nil {
			log.Fatal(err)
		}
		all = append(all, scored{cfg, res})
		return res
	}

	start := time.Now()
	rng := rand.New(rand.NewPCG(*seed, 42))
	log.Printf("stage 1: %d uniform samples", *uniform)
	eval(arch.Baseline())
	for i := 0; i < *uniform; i++ {
		eval(arch.Random(rng))
	}
	best := func() scored {
		b := all[0]
		for _, s := range all {
			if s.res.Efficiency > b.res.Efficiency {
				b = s
			}
		}
		return b
	}
	log.Printf("stage 2: %d local neighbours of the incumbent", *local)
	for i := 0; i < *local; i++ {
		eval(arch.Neighbor(best().cfg, rng))
	}
	log.Printf("stage 3: one-at-a-time sweep of the incumbent")
	for _, cfg := range arch.SweepAll(best().cfg) {
		eval(cfg)
	}
	log.Printf("%d simulations in %v", len(all), time.Since(start).Round(time.Millisecond))

	sort.Slice(all, func(i, j int) bool { return all[i].res.Efficiency > all[j].res.Efficiency })
	fmt.Printf("phase %s/%d: top %d configurations by ips^3/Watt\n", *program, *phase, *top)
	for i := 0; i < *top && i < len(all); i++ {
		s := all[i]
		fmt.Printf("%2d. eff=%.3e ipc=%.2f W=%.1f  %v\n",
			i+1, s.res.Efficiency, s.res.IPC, s.res.Watts, s.cfg)
	}
	fmt.Printf("\nbaseline (paper Table III): ")
	for _, s := range all {
		if s.cfg == arch.Baseline() {
			fmt.Printf("eff=%.3e ipc=%.2f W=%.1f\n", s.res.Efficiency, s.res.IPC, s.res.Watts)
			break
		}
	}
}
