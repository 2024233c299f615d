package experiment

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/internal/cpu"
	"repro/internal/store"
)

// ckptScale is a reduced build for the checkpoint identity tests: large
// enough to exercise every stage (shared batch, local refinement,
// profiling), small enough to build several times in one test run.
func ckptScale() Scale {
	sc := TestScale()
	sc.Programs = []string{"mcf", "crafty"}
	sc.PhasesPerProgram = 1
	sc.UniformSamples = 6
	sc.LocalSamples = 2
	return sc
}

// buildLogs builds at ckptScale with a store and returns the dataset, the
// result log's bytes, the snapshot sidecar's bytes (nil when absent) and
// the build's span-tree digest.
func buildLogs(t *testing.T, opts ...Option) (*Dataset, []byte, []byte, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, tree := tracedBuild(t, ckptScale(), append([]Option{WithStore(st)}, opts...)...)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := os.ReadFile(store.HeadLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(store.SnapLog(dir))
	if os.IsNotExist(err) {
		snap = nil
	} else if err != nil {
		t.Fatal(err)
	}
	return ds, res, snap, tree
}

// TestWarmupCheckpointsIdentity is the amortisation-never-approximation
// contract at the build level: a checkpointed build must produce the
// byte-identical dataset, result log and search-simulation count as the
// plain build — only warmup execution is allowed to move — and with the
// option off no snapshot sidecar may even exist.
func TestWarmupCheckpointsIdentity(t *testing.T) {
	sims0 := SearchSimCount()
	plain, plainRes, plainSnap, _ := buildLogs(t)
	plainSims := SearchSimCount() - sims0

	sims0 = SearchSimCount()
	ck, ckRes, ckSnap, _ := buildLogs(t, WithWarmupCheckpoints())
	ckSims := SearchSimCount() - sims0

	if plainSnap != nil {
		t.Error("checkpoint-off build wrote a snapshot sidecar")
	}
	if len(ckSnap) == 0 {
		t.Error("checkpointed build wrote no snapshot sidecar")
	}
	if got, want := ck.Digest(), plain.Digest(); got != want {
		t.Errorf("dataset digest: checkpointed %s, plain %s", got, want)
	}
	if !bytes.Equal(ckRes, plainRes) {
		t.Errorf("results.log differs: plain %d bytes, checkpointed %d bytes", len(plainRes), len(ckRes))
	}
	if ckSims != plainSims {
		t.Errorf("searchSims: checkpointed %d, plain %d", ckSims, plainSims)
	}
}

// TestWarmupCheckpointsWorkersIdentity extends the fan-out contract to
// the snapshot sidecar: any GOMAXPROCS must produce byte-identical
// results.log AND snapshots.log — snapshot commits stay serialised in
// the sequential build's order — and the same span tree.
func TestWarmupCheckpointsWorkersIdentity(t *testing.T) {
	withProcs(t, 1)
	seq, seqRes, seqSnap, seqTree := buildLogs(t, WithWarmupCheckpoints())
	withProcs(t, 4)
	par, parRes, parSnap, parTree := buildLogs(t, WithWarmupCheckpoints())
	if got, want := par.Digest(), seq.Digest(); got != want {
		t.Errorf("dataset digest: GOMAXPROCS=4 %s, GOMAXPROCS=1 %s", got, want)
	}
	if !bytes.Equal(seqRes, parRes) {
		t.Errorf("results.log differs: GOMAXPROCS=1 %d bytes, GOMAXPROCS=4 %d bytes", len(seqRes), len(parRes))
	}
	if !bytes.Equal(seqSnap, parSnap) {
		t.Errorf("snapshots.log differs: GOMAXPROCS=1 %d bytes, GOMAXPROCS=4 %d bytes", len(seqSnap), len(parSnap))
	}
	if parTree != seqTree {
		t.Errorf("span tree digest: GOMAXPROCS=4 %s, GOMAXPROCS=1 %s", parTree, seqTree)
	}
	if len(seqSnap) == 0 {
		t.Error("checkpointed builds wrote no snapshots")
	}
}

// TestWarmupCheckpointsWarmReplay is the payoff: a second build against
// the same store must restore every warmup it needs (profiling included)
// instead of re-executing it, cutting executed warmup instructions by far
// more than 2x while reproducing the byte-identical dataset.
func TestWarmupCheckpointsWarmReplay(t *testing.T) {
	dir := t.TempDir()
	build := func() (*Dataset, uint64, uint64) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		w0, r0 := cpu.WarmupInstructions(), cpu.WarmupRestores()
		ds, err := Build(context.Background(), ckptScale(), WithStore(st), WithWarmupCheckpoints())
		if err != nil {
			t.Fatal(err)
		}
		return ds, cpu.WarmupInstructions() - w0, cpu.WarmupRestores() - r0
	}
	cold, coldWarm, coldRestores := build()
	warm, warmWarm, warmRestores := build()

	if got, want := warm.Digest(), cold.Digest(); got != want {
		t.Errorf("warm replay digest %s, cold build %s", got, want)
	}
	if coldWarm == 0 {
		t.Fatal("cold build executed no warmup instructions")
	}
	if coldRestores != 0 {
		t.Errorf("cold build restored %d warmups from an empty store", coldRestores)
	}
	if warmRestores == 0 {
		t.Error("warm replay restored no warmups")
	}
	// The warm replay answers measurement runs from the result store and
	// profiling warmups from the snapshot sidecar, so executed warmup
	// instructions collapse — >=2x is the acceptance floor, the expected
	// value is zero.
	if warmWarm*2 > coldWarm {
		t.Errorf("warm replay executed %d warmup insts vs %d cold — less than a 2x cut", warmWarm, coldWarm)
	}
}

// TestWarmupCheckpointsSnapshotOnlyReplay exercises the pure-amortisation
// replay the benchmark measures: a store holding only the snapshot
// sidecar (no results) forces every measurement to re-simulate, but every
// warmup restores — the build digest must still match and the executed
// warmup instructions must collapse.
func TestWarmupCheckpointsSnapshotOnlyReplay(t *testing.T) {
	seed := t.TempDir()
	st, err := store.Open(seed)
	if err != nil {
		t.Fatal(err)
	}
	w0 := cpu.WarmupInstructions()
	cold, err := Build(context.Background(), ckptScale(), WithStore(st), WithWarmupCheckpoints())
	if err != nil {
		t.Fatal(err)
	}
	coldWarm := cpu.WarmupInstructions() - w0
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store directory seeded with the sidecar alone.
	snapOnly := t.TempDir()
	snap, err := os.ReadFile(store.SnapLog(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.SnapLog(snapOnly), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(snapOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	w0 = cpu.WarmupInstructions()
	replay, err := Build(context.Background(), ckptScale(), WithStore(st2), WithWarmupCheckpoints())
	if err != nil {
		t.Fatal(err)
	}
	replayWarm := cpu.WarmupInstructions() - w0

	if got, want := replay.Digest(), cold.Digest(); got != want {
		t.Errorf("snapshot-only replay digest %s, cold build %s", got, want)
	}
	if replayWarm*2 > coldWarm {
		t.Errorf("snapshot-only replay executed %d warmup insts vs %d cold", replayWarm, coldWarm)
	}
}
