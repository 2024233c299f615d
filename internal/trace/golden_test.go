package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The stream golden pins every generator's output bit for bit: SHA-256
// over a canonical encoding of the first streamGoldenInsts instructions of
// every program × phase. Generator optimisations must keep every digest;
// a change to the streams is a workload change that moves every
// simulation and REQUIRES bumping store.SimVersion alongside regenerating
// the file with REPRO_UPDATE_GOLDEN=1.

const (
	streamGoldenPath  = "testdata/stream_golden.txt"
	streamGoldenInsts = 50_000
)

// streamDigest hashes the first n instructions of one generator.
func streamDigest(t testing.TB, program string, phase, n int) string {
	g, err := NewGenerator(program, phase)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	buf := make([]byte, 0, 17*1024)
	for i := 0; i < n; i++ {
		in := g.Next()
		buf = binary.LittleEndian.AppendUint32(buf, in.PC)
		buf = binary.LittleEndian.AppendUint32(buf, in.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, in.Target)
		buf = binary.LittleEndian.AppendUint32(buf, in.BB)
		taken := byte(0)
		if in.Taken {
			taken = 1
		}
		buf = append(buf, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), taken)
		if len(buf) > cap(buf)-21 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

func TestStreamGolden(t *testing.T) {
	var order []string
	got := map[string]string{}
	for _, p := range Benchmarks() {
		for ph := 0; ph < PhasesPerProgram; ph++ {
			name := fmt.Sprintf("%s/%d", p, ph)
			order = append(order, name)
			got[name] = streamDigest(t, p, ph, streamGoldenInsts)
		}
	}

	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		fmt.Fprintf(&sb, "# SHA-256 of the first %d instructions of every program/phase generator stream.\n", streamGoldenInsts)
		sb.WriteString("# Regenerate with REPRO_UPDATE_GOLDEN=1 go test ./internal/trace -run TestStreamGolden\n")
		sb.WriteString("# A change here changes every simulation: bump store.SimVersion in the same commit.\n")
		for _, name := range order {
			fmt.Fprintf(&sb, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(streamGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(order), streamGoldenPath)
		return
	}

	f, err := os.Open(streamGoldenPath)
	if err != nil {
		t.Fatalf("stream golden missing (regenerate with REPRO_UPDATE_GOLDEN=1): %v", err)
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
		t.Errorf("golden file has %d digests, want %d", len(want), len(order))
	}
	for _, name := range order {
		if got[name] != want[name] {
			t.Errorf("%s: stream digest %s, golden %s", name, got[name], want[name])
		}
	}
}
