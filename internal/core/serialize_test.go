package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/counters"
)

func TestSaveWritesVersionedHeader(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < 5 || !bytes.Equal(b[:4], wireMagic[:]) {
		t.Fatalf("saved predictor does not start with magic %q: % x", wireMagic, b[:min(8, len(b))])
	}
	if b[4] != wireVersion {
		t.Errorf("format version byte = %d, want %d", b[4], wireVersion)
	}
	// The same bytes without the header (a bare gob payload, the format
	// before the header existed) are not a predictor file.
	_, err := LoadPredictor(bytes.NewReader(b[5:]))
	if err == nil || !strings.Contains(err.Error(), "not a predictor file") {
		t.Fatalf("headerless predictor: err = %v, want a \"not a predictor file\" refusal", err)
	}
}

func TestLoadPredictorRejectsFutureVersion(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = wireVersion + 9
	_, err := LoadPredictor(bytes.NewReader(b))
	if err == nil {
		t.Fatal("future format version accepted")
	}
}

func TestLoadPredictorRejectsShortFile(t *testing.T) {
	for _, b := range [][]byte{nil, {'A'}, {'A', 'D', 'P'}, append(wireMagic[:], wireVersion)} {
		if _, err := LoadPredictor(bytes.NewReader(b)); err == nil {
			t.Errorf("short file % x accepted", b)
		}
	}
}

func TestValidateCatchesShapeMismatches(t *testing.T) {
	pred := trainToyPredictor(t, counters.Basic)
	if err := pred.Validate(); err != nil {
		t.Fatalf("trained predictor invalid: %v", err)
	}

	wrongSet := *pred
	wrongSet.Set = counters.Advanced // basic-dimension models under the advanced set
	if err := wrongSet.Validate(); err == nil {
		t.Error("set/dimension mismatch not caught")
	}

	var missing Predictor
	missing.Set = counters.Basic
	if err := missing.Validate(); err == nil {
		t.Error("missing models not caught")
	}
}

func TestLoadPredictorRejectsForeignShape(t *testing.T) {
	// A structurally consistent wire payload whose class counts do not
	// match the design space must be rejected at load time.
	var wire predictorWire
	d := counters.Dim(counters.Basic)
	for i := 0; i < int(arch.NumParams); i++ {
		k := arch.DomainSize(arch.Param(i)) + 1
		wire.Dims = append(wire.Dims, d)
		wire.Ks = append(wire.Ks, k)
		wire.Floats = append(wire.Floats, make([]float64, d*k))
	}
	var buf bytes.Buffer
	buf.Write(append(wireMagic[:], wireVersion))
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictor(&buf); err == nil {
		t.Fatal("foreign-shape predictor accepted")
	}
}
