package experiment

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// The build golden pins the dataset build bit for bit: Dataset.Digest(),
// the SHA-256 of the results.log a cold build appends to a fresh store
// and the build's span-tree digest, at TestScale and at a sweep-bearing
// variant of it (TestScale runs no stage-3 sweep). The pins were recorded
// from the fully sequential build; the build's simulation fan-out must
// reproduce them at any GOMAXPROCS. Regenerate only with
// REPRO_UPDATE_GOLDEN=1 — a change here is a change to the search or the
// simulator, never an optimisation.

const buildGoldenPath = "testdata/build_golden.txt"

// withProcs sets GOMAXPROCS to n until the test ends. Calls stack: the
// cleanups restore in reverse order, so the test leaves GOMAXPROCS as it
// found it.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// tracedBuild runs Build with the process tracer recording and returns
// the dataset with the TreeDigest of the build's span tree.
func tracedBuild(t *testing.T, sc Scale, opts ...Option) (*Dataset, string) {
	t.Helper()
	tr := obs.DefaultTracer()
	tr.Reset()
	tr.Enable()
	defer tr.Reset()
	defer tr.Disable()
	ds, err := Build(context.Background(), sc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ds, tr.TreeDigest()
}

// sweepScale is TestScale plus a two-parameter stage-3 sweep on fewer
// programs, so the golden covers the sweep batches too.
func sweepScale() Scale {
	sc := TestScale()
	sc.Programs = []string{"mcf", "gzip"}
	sc.SweepParams = DefaultScale().SweepParams[:2]
	return sc
}

// buildGoldenDigests builds each pinned scale cold against a fresh store
// and returns its digests in file order.
func buildGoldenDigests(t *testing.T) ([]string, map[string]string) {
	t.Helper()
	var order []string
	digests := map[string]string{}
	for _, c := range []struct {
		name string
		sc   Scale
	}{{"testscale", TestScale()}, {"sweep", sweepScale()}} {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ds, tree := tracedBuild(t, c.sc, WithStore(st))
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(store.HeadLog(dir))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(log)
		order = append(order, c.name+".dataset", c.name+".results-log", c.name+".span-tree")
		digests[c.name+".dataset"] = ds.Digest()
		digests[c.name+".results-log"] = hex.EncodeToString(sum[:])
		digests[c.name+".span-tree"] = tree
	}
	return order, digests
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden missing (regenerate with REPRO_UPDATE_GOLDEN=1): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestBuildGolden(t *testing.T) {
	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		withProcs(t, 1)
		order, digests := buildGoldenDigests(t)
		var sb strings.Builder
		sb.WriteString("# Dataset.Digest(), results.log SHA-256 and span-tree digest of cold builds against a fresh store.\n")
		sb.WriteString("# Regenerate with REPRO_UPDATE_GOLDEN=1 go test ./internal/experiment -run TestBuildGolden\n")
		sb.WriteString("# A change here is a change to the search or the simulator: declare it in the same commit.\n")
		for _, name := range order {
			fmt.Fprintf(&sb, "%s %s\n", name, digests[name])
		}
		if err := os.MkdirAll(filepath.Dir(buildGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(buildGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(order), buildGoldenPath)
		return
	}

	want := readGolden(t, buildGoldenPath)
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		order, digests := buildGoldenDigests(t)
		if len(want) != len(order) {
			t.Errorf("golden file has %d digests, suite computes %d", len(want), len(order))
		}
		for _, name := range order {
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: no golden digest recorded", name)
				continue
			}
			if got := digests[name]; got != w {
				t.Errorf("GOMAXPROCS=%d %s: digest %s != golden %s — the build's output changed",
					procs, name, got, w)
			}
		}
	}
}
