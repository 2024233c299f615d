package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
)

// The training golden pins soft-max training bit for bit: SHA-256 over
// the TrainAll weights (math.Float64bits, little-endian, parameter order)
// and over the LOOCV predictions (ds.Phases order) for both counter sets,
// at TestScale. Training optimisations (deduplicated scoring, parallel
// per-parameter fits) must keep every digest unchanged; a change that
// moves a bit is a model change, not an optimisation, and must be
// declared as one when the file is regenerated with REPRO_UPDATE_GOLDEN=1.

const trainingGoldenPath = "testdata/training_golden.txt"

// trainingDigests computes the four pinned digests in file order.
func trainingDigests(t *testing.T) ([]string, map[string]string) {
	t.Helper()
	ds := testDataset(t)
	var order []string
	digests := map[string]string{}
	add := func(name string, buf []byte) {
		sum := sha256.Sum256(buf)
		order = append(order, name)
		digests[name] = hex.EncodeToString(sum[:])
	}
	for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
		p, err := ds.TrainAll(set)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for param := arch.Param(0); param < arch.NumParams; param++ {
			for _, w := range p.Models[param].W {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
			}
		}
		add("trainall-"+set.String(), buf)
	}
	for _, set := range []counters.Set{counters.Basic, counters.Advanced} {
		ev, err := ds.EvaluateModel(set)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, id := range ds.Phases {
			cfg, ok := ev.Predicted[id]
			if !ok {
				t.Fatalf("%s: LOOCV has no prediction for %s", set, id)
			}
			for param := arch.Param(0); param < arch.NumParams; param++ {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(cfg[param])))
			}
		}
		add("loocv-"+set.String(), buf)
	}
	return order, digests
}

func TestTrainingGolden(t *testing.T) {
	order, digests := trainingDigests(t)

	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		sb.WriteString("# SHA-256 digests of TestScale soft-max training output: TrainAll weights and LOOCV predictions.\n")
		sb.WriteString("# Regenerate with REPRO_UPDATE_GOLDEN=1 go test ./internal/experiment -run TestTrainingGolden\n")
		sb.WriteString("# A change here is a model change, not an optimisation: declare it in the same commit.\n")
		for _, name := range order {
			fmt.Fprintf(&sb, "%s %s\n", name, digests[name])
		}
		if err := os.MkdirAll(filepath.Dir(trainingGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainingGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(order), trainingGoldenPath)
		return
	}

	f, err := os.Open(trainingGoldenPath)
	if err != nil {
		t.Fatalf("training golden missing (run REPRO_UPDATE_GOLDEN=1 go test -run TestTrainingGolden): %v", err)
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
			t.Errorf("%s: digest %s != golden %s — training output changed; "+
				"an optimisation must keep it bit-identical", name, got, w)
		}
	}
}
