// Package fabric shards a dataset build across workers that share nothing
// but result-store directories — the "any fleet, minutes" half of the
// reproduction's scaling story.
//
// The unit of distribution is a contiguous window of the build's phase
// list (experiment.Scale.PhaseIDs order). That shape is forced by the
// search protocol: one seeded rng stream feeds the shared uniform sample
// and then every per-phase search in sequence, and the stage-2 neighbour
// draws depend on each phase's incumbent — so phase k's random draws
// depend on the *results* of phases 0..k-1. Splitting the stream would
// change what gets simulated and break the byte-identity contract with
// the plain sequential build. Instead, a shard worker runs the standard
// sequential protocol over phases [0, Hi): the prefix [0, Lo) replays
// warm from a store seeded with its predecessors' records (store hits are
// indistinguishable from fresh simulations to the protocol, per the store
// contract), so the worker pays fresh simulation only for its own window
// [Lo, Hi). Summed over shards, the fleet pays exactly the sequential
// build's search simulations — no unit simulated twice, none skipped.
//
// After the shards finish, their partial stores are merged into one
// canonical registry (store.Merge: CRC + SimVersion checked, identical
// duplicates collapsed, divergent ones fatal) and a normal full build
// runs warm against it, replaying byte-identically to the single-process
// sequential build: same Dataset.Digest, same manifest deterministic
// section, zero fresh search simulations.
//
// Every work unit a shard ultimately simulates is a (program, phase,
// config, interval) tuple; the config axis is discovered adaptively by
// stages 2 and 3, which is why specs name phase windows rather than
// enumerating tuples. Specs are self-validating: they embed a fingerprint
// of the resolved Scale, the shard count and store.SimVersion, so a
// worker handed a spec cut for a different configuration refuses to run.
package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
)

// specVersion prefixes the spec wire form; bump when the encoding or the
// digest recipe changes.
const specVersion = "v1"

// ShardSpec names one shard of an n-way fabric build: the phase window
// [Lo, Hi) of the resolved scale's PhaseIDs list, plus a digest binding
// the spec to the exact configuration it was cut for.
type ShardSpec struct {
	Index  int // this shard's position, in [0, Shards)
	Shards int // total shards in the partition
	Lo, Hi int // phase window [Lo, Hi)

	// ScaleDigest fingerprints (resolved Scale, Shards, store.SimVersion).
	// Validate recomputes it, so a spec cannot silently run against a
	// different scale, seed or simulator version than it was cut for.
	ScaleDigest string
}

// Phases returns the number of phases in the shard's own window.
func (s ShardSpec) Phases() int { return s.Hi - s.Lo }

// String renders the spec in its wire form, "v1:INDEX/SHARDS:LO-HI:DIGEST"
// — what report -fabric logs and report -fabric-worker accepts.
func (s ShardSpec) String() string {
	return fmt.Sprintf("%s:%d/%d:%d-%d:%s", specVersion, s.Index, s.Shards, s.Lo, s.Hi, s.ScaleDigest)
}

// Parse decodes a spec from its wire form.
func Parse(text string) (ShardSpec, error) {
	var s ShardSpec
	bad := func(why string) (ShardSpec, error) {
		return s, fmt.Errorf("fabric: bad shard spec %q: %s", text, why)
	}
	parts := strings.Split(text, ":")
	if len(parts) != 4 {
		return bad("want v1:INDEX/SHARDS:LO-HI:DIGEST")
	}
	if parts[0] != specVersion {
		return bad("unknown spec version " + parts[0])
	}
	idx, n, ok := cutInts(parts[1], "/")
	if !ok || n < 1 || idx < 0 || idx >= n {
		return bad("bad INDEX/SHARDS")
	}
	lo, hi, ok := cutInts(parts[2], "-")
	if !ok || lo < 0 || hi <= lo {
		return bad("bad LO-HI window")
	}
	if len(parts[3]) != digestLen {
		return bad("bad digest")
	}
	s = ShardSpec{Index: idx, Shards: n, Lo: lo, Hi: hi, ScaleDigest: parts[3]}
	return s, nil
}

// cutInts splits "a<sep>b" into two ints.
func cutInts(text, sep string) (a, b int, ok bool) {
	as, bs, found := strings.Cut(text, sep)
	if !found {
		return 0, 0, false
	}
	a, errA := strconv.Atoi(as)
	b, errB := strconv.Atoi(bs)
	return a, b, errA == nil && errB == nil
}

// Validate checks that the spec was cut for exactly this scale (and this
// binary's store.SimVersion) and that its window fits the phase list.
func (s ShardSpec) Validate(sc experiment.Scale) error {
	if want := ScaleDigest(sc, s.Shards); s.ScaleDigest != want {
		return fmt.Errorf("fabric: shard spec %s was cut for a different configuration (spec digest %s, this scale/simulator is %s) — regenerate specs with report -fabric or fabric.Partition", s, s.ScaleDigest, want)
	}
	if total := len(sc.PhaseIDs()); s.Hi > total {
		return fmt.Errorf("fabric: shard spec %s window exceeds the scale's %d phases", s, total)
	}
	return nil
}

// Partition splits sc's phase list into n contiguous shard windows of
// near-equal size (the first total%n shards get one extra phase). The
// split is a pure function of (resolved scale, n) — any driver and any
// worker compute the same specs. n is clamped to [1, total phases].
func Partition(sc experiment.Scale, n int) []ShardSpec {
	sc = sc.Resolved()
	total := len(sc.PhaseIDs())
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	digest := ScaleDigest(sc, n)
	specs := make([]ShardSpec, n)
	base, rem := total/n, total%n
	lo := 0
	for k := range specs {
		size := base
		if k < rem {
			size++
		}
		specs[k] = ShardSpec{Index: k, Shards: n, Lo: lo, Hi: lo + size, ScaleDigest: digest}
		lo += size
	}
	return specs
}

const digestLen = 16

// ScaleDigest fingerprints the exact configuration a shard set belongs
// to: every resolved Scale field in a fixed canonical order, the shard
// count, and store.SimVersion. Two parties agree on the digest iff they
// would simulate the same work units under the same physics.
func ScaleDigest(sc experiment.Scale, n int) string {
	sc = sc.Resolved()
	h := sha256.New()
	io.WriteString(h, "repro.fabric.spec\x00")
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(store.SimVersion))
	u64(uint64(n))
	u64(uint64(len(sc.Programs)))
	for _, p := range sc.Programs {
		u64(uint64(len(p)))
		io.WriteString(h, p)
	}
	u64(uint64(sc.PhasesPerProgram))
	u64(uint64(sc.IntervalInsts))
	u64(uint64(sc.WarmupInsts))
	u64(uint64(sc.UniformSamples))
	u64(uint64(sc.LocalSamples))
	u64(uint64(len(sc.SweepParams)))
	for _, p := range sc.SweepParams {
		u64(uint64(p))
	}
	u64(math.Float64bits(sc.GoodThreshold))
	u64(uint64(sc.SampledSets))
	u64(sc.Seed)
	return hex.EncodeToString(h.Sum(nil))[:digestLen]
}

// ShardResult summarises one executed shard.
type ShardResult struct {
	Spec            ShardSpec
	Dir             string      // the shard's private store directory
	FreshSearchSims uint64      // exact search simulations this shard paid
	Store           store.Stats // the shard store's final counters
}

// RunShard validates the spec, opens the shard's private store at dir and
// runs the sequential search protocol through the end of the shard's
// window (experiment.WithSearchLimit). With the prefix seeded into the
// store (AdoptSegment), the shard pays fresh simulation only for its own
// window; cold, it recomputes the prefix — correct either way, the seed
// is purely an optimisation.
func RunShard(ctx context.Context, sc experiment.Scale, spec ShardSpec, dir string) (ShardResult, error) {
	res := ShardResult{Spec: spec, Dir: dir}
	sc = sc.Resolved()
	if err := spec.Validate(sc); err != nil {
		return res, err
	}
	sp := obs.DefaultTracer().Start(fmt.Sprintf("fabric.shard %d/%d", spec.Index, spec.Shards)).
		SetArg("lo", strconv.Itoa(spec.Lo)).
		SetArg("hi", strconv.Itoa(spec.Hi))
	defer sp.Finish()
	st, err := store.Open(dir)
	if err != nil {
		return res, err
	}
	before := experiment.SearchSimCount()
	if _, err := experiment.Build(ctx, sc, experiment.WithStore(st), experiment.WithSearchLimit(spec.Hi)); err != nil {
		st.Close()
		return res, fmt.Errorf("fabric: shard %d/%d: %w", spec.Index, spec.Shards, err)
	}
	res.FreshSearchSims = experiment.SearchSimCount() - before
	res.Store = st.Stats()
	obsShards.Inc()
	obsShardSearchSims.Add(res.FreshSearchSims)
	return res, st.Close()
}

// DriveResult summarises a Drive call.
type DriveResult struct {
	Specs           []ShardSpec
	Shards          []ShardResult
	FreshSearchSims uint64 // total across shards == the sequential build's
	Merge           store.MergeStats
}

// Drive executes an n-shard fabric build and merges the results into
// dstDir — the single-host, in-process-sequential form of the fabric (a
// fleet would run `report -fabric-worker <spec>` per shard on separate
// hosts and `storectl merge` afterwards; the protocol is identical, the
// parties share nothing but store directories). Shard k runs in
// dstDir/fabric/shard-NNN, seeded with the head logs of shards 0..k-1 —
// and dstDir's own head, if it exists — adopted as sealed segments so the
// prefix replays warm. Afterwards store.Merge folds every shard store
// (plus dstDir's prior records) into dstDir, ready for the warm final
// build.
func Drive(ctx context.Context, sc experiment.Scale, n int, dstDir string) (*DriveResult, error) {
	sc = sc.Resolved()
	specs := Partition(sc, n)
	dr := &DriveResult{Specs: specs}
	sp := obs.DefaultTracer().Start("fabric.drive").
		SetArg("shards", strconv.Itoa(len(specs)))
	defer sp.Finish()

	var seeds []string
	if head := store.HeadLog(dstDir); fileExists(head) {
		seeds = append(seeds, head)
	}
	dirs := make([]string, 0, len(specs))
	for k, spec := range specs {
		dir := filepath.Join(dstDir, "fabric", fmt.Sprintf("shard-%03d", k))
		for _, seed := range seeds {
			if _, err := store.AdoptSegment(dir, seed); err != nil {
				return dr, err
			}
		}
		res, err := RunShard(ctx, sc, spec, dir)
		if err != nil {
			return dr, err
		}
		dr.Shards = append(dr.Shards, res)
		dr.FreshSearchSims += res.FreshSearchSims
		seeds = append(seeds, store.HeadLog(dir))
		dirs = append(dirs, dir)
	}
	ms, err := store.Merge(dstDir, dirs...)
	if err != nil {
		return dr, err
	}
	dr.Merge = ms
	obsDrives.Inc()
	return dr, nil
}

// fileExists reports whether path names an existing file.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
