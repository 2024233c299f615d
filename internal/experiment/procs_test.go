package experiment

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/store"
)

// TestBuildProcsDeterminism is the acceptance contract for the build's
// simulation fan-out: a build at GOMAXPROCS=4 must be indistinguishable
// from one at GOMAXPROCS=1 — same bests, same sample-space partition,
// same memoised result values, same features, same span tree — and, with
// a store attached, must append the byte-identical results.log.
func TestBuildProcsDeterminism(t *testing.T) {
	// Build private references rather than using the shared testDataset:
	// other tests in the package promote extra configs into the shared
	// dataset's sample space, which would leak into the comparison.
	withProcs(t, 1)
	seq, seqTree := tracedBuild(t, TestScale())
	withProcs(t, 4)
	par, parTree := tracedBuild(t, TestScale())

	if parTree != seqTree {
		t.Errorf("span tree digest: GOMAXPROCS=4 %s, GOMAXPROCS=1 %s", parTree, seqTree)
	}

	if par.BestStatic != seq.BestStatic {
		t.Errorf("BestStatic: GOMAXPROCS=4 %v, GOMAXPROCS=1 %v", par.BestStatic, seq.BestStatic)
	}
	if par.SimCount() != seq.SimCount() {
		t.Errorf("SimCount: GOMAXPROCS=4 %d, GOMAXPROCS=1 %d", par.SimCount(), seq.SimCount())
	}
	for _, id := range seq.Phases {
		if par.Best[id] != seq.Best[id] {
			t.Errorf("%s Best: GOMAXPROCS=4 %v, GOMAXPROCS=1 %v", id, par.Best[id], seq.Best[id])
		}
		if !reflect.DeepEqual(par.SampleSpace(id), seq.SampleSpace(id)) {
			t.Errorf("%s sample space differs between GOMAXPROCS=4 and 1", id)
		}
		if !reflect.DeepEqual(par.Good[id], seq.Good[id]) {
			t.Errorf("%s good set differs between GOMAXPROCS=4 and 1", id)
		}
		if !reflect.DeepEqual(par.FeaturesAdv[id], seq.FeaturesAdv[id]) {
			t.Errorf("%s advanced features differ between GOMAXPROCS=4 and 1", id)
		}
		if !reflect.DeepEqual(par.FeaturesBasic[id], seq.FeaturesBasic[id]) {
			t.Errorf("%s basic features differ between GOMAXPROCS=4 and 1", id)
		}
		// Every memoised result value must match bit for bit.
		for _, cfg := range seq.SampleSpace(id) {
			rs, err := seq.Result(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := par.Result(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rs, rp) {
				t.Errorf("%s %v: result differs between GOMAXPROCS=4 and 1", id, cfg)
			}
		}
	}
}

// TestBuildProcsStoreLog asserts the stronger store property: the
// append-only results.log written by a cold build at GOMAXPROCS=4 is
// byte-identical to the one written at GOMAXPROCS=1 — store writes stay
// serialised in the sequential build's order.
func TestBuildProcsStoreLog(t *testing.T) {
	logBytes := func(procs int) []byte {
		withProcs(t, procs)
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(context.Background(), TestScale(), WithStore(st)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "results.log"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := logBytes(1)
	par := logBytes(4)
	if !bytes.Equal(seq, par) {
		t.Errorf("results.log differs: GOMAXPROCS=1 %d bytes, GOMAXPROCS=4 %d bytes", len(seq), len(par))
	}
}
