// Warmup checkpointing: amortise the warmup prefix of simulations by
// snapshotting the warm micro-architectural state (cpu.Sim.Snapshot)
// the first time a given warmup executes and restoring it on every later
// simulation with the same warmup key — in-memory within one build,
// through the store's snapshot sidecar across runs.
//
// This is an amortisation, never an approximation: a restored warmup
// must produce the byte-identical Result a re-executed warmup would
// (internal/cpu's golden sweep proves the equivalence; the tests here
// prove the build-level identities). With the option off, ds.ckpt is nil
// and every code path is byte-identical to a build without this file.
package experiment

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/store"
	"repro/internal/trace"
)

// WithWarmupCheckpoints makes the build snapshot the state each distinct
// warmup prefix produces and restore it instead of re-executing the
// prefix: in-memory within the build, and — with a store attached —
// persisted to the store's snapshot sidecar (snapshots.log) so later
// runs skip the warmup too. Results are bit-for-bit unchanged; only
// repro_warmup_insts / repro_warmup_restores and wall-clock move. The
// profiling pass benefits most: its runs are never result-cached, so a
// warm replay re-pays every profiling warmup unless it restores here.
func WithWarmupCheckpoints() Option {
	return func(o *buildOptions) { o.warmCkpt = true }
}

// ckptState is the per-build snapshot cache. It is only ever touched
// from sequential sections of the build (classification and ordered
// side-effect loops) — never from worker goroutines — which both keeps
// it lock-free and makes the snapshot sidecar's write order (and so its
// bytes) identical for any GOMAXPROCS.
type ckptState struct {
	cache map[store.Key][]byte
}

// ckptKey reports whether checkpointing applies to this simulation and,
// if so, its snapshot key. Profiling runs participate: Run executes its
// warmup prefix with collection off, so the warm state — and therefore
// the snapshot — is independent of opts.Collect and opts.SampledSets.
func (ds *Dataset) ckptKey(id PhaseID, cfg arch.Config, insts []trace.Inst, opts cpu.Options) (store.Key, bool) {
	if ds.ckpt == nil || opts.WarmupInsts <= 0 {
		return store.Key{}, false
	}
	return store.SnapshotKey(id.Program, id.Phase, cfg, len(insts), opts.WarmupInsts), true
}

// ckptFetch returns the known snapshot for key, consulting the build's
// cache and then the store sidecar, or nil when the warmup has to run.
// Sequential sections only.
func (ds *Dataset) ckptFetch(key store.Key) []byte {
	if snap, ok := ds.ckpt.cache[key]; ok {
		return snap
	}
	if ds.store != nil {
		if snap, ok := ds.store.GetSnapshot(key); ok {
			ds.ckpt.cache[key] = snap
			return snap
		}
	}
	return nil
}

// ckptCommit records a freshly captured snapshot in the build cache and,
// with a store attached, the snapshot sidecar. Sequential sections only —
// commit order is the deterministic cfgs/phase order of the surrounding
// loop, so the sidecar comes out byte-identical for any GOMAXPROCS. A nil
// capture (checkpointing off, or a restored warmup) is a no-op.
func (ds *Dataset) ckptCommit(key store.Key, captured []byte) error {
	if captured == nil {
		return nil
	}
	ds.ckpt.cache[key] = captured
	if ds.store != nil {
		if err := ds.store.PutSnapshot(key, captured); err != nil {
			return fmt.Errorf("experiment: persisting warmup snapshot: %w", err)
		}
	}
	return nil
}

// ckptExec runs one simulation with its warmup prefix either restored
// from snap or executed and captured. Pure — safe from worker
// goroutines. Returns the captured snapshot when this call executed the
// warmup itself (nil when it restored); persisting it is the caller's
// job via ckptCommit at a deterministically sequenced point.
//
// A restore failure is an error, not a fallback: the key pins the full
// configuration and SimVersion, and the store CRC-checks every read, so
// an incompatible snapshot here means a real contract violation that
// must surface, not be papered over by silently re-warming.
func ckptExec(cfg arch.Config, insts []trace.Inst, opts cpu.Options, snap []byte) (*cpu.Result, []byte, error) {
	sim, err := cpu.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	src := cpu.NewSliceSource(insts)
	var captured []byte
	if snap != nil {
		if err := sim.Restore(snap); err != nil {
			return nil, nil, fmt.Errorf("experiment: restoring warmup snapshot: %w", err)
		}
		src.Skip(opts.WarmupInsts)
	} else {
		if err := sim.Warmup(src, opts.WarmupInsts, opts); err != nil {
			return nil, nil, err
		}
		captured = sim.Snapshot()
	}
	meas := opts
	meas.WarmupInsts = 0
	meas.FlushCaches = false // the warmup prefix consumed any flush
	res, err := sim.Run(src, len(insts), meas)
	if err != nil {
		return nil, nil, err
	}
	return res, captured, nil
}
