package core

import (
	"bytes"
	"encoding/gob"
	"math"
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

	// A non-finite weight has the right shape but poisons every score:
	// Validate and LoadPredictor (through Validate) must refuse it and
	// name the parameter.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := &pred.Models[arch.IQSize].W[3]
		orig := *w
		*w = bad
		err := pred.Validate()
		if err == nil || !strings.Contains(err.Error(), arch.IQSize.String()) {
			t.Errorf("weight %v: Validate err = %v, want a refusal naming %s", bad, err, arch.IQSize)
		}
		var buf bytes.Buffer
		if err := pred.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPredictor(&buf); err == nil {
			t.Errorf("weight %v: LoadPredictor accepted a non-finite weight", bad)
		}
		*w = orig
	}
	if err := pred.Validate(); err != nil {
		t.Fatalf("restored predictor invalid: %v", err)
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

// FuzzLoadPredictor feeds arbitrary bytes to the predictor decoder. It must
// never panic, and whatever it accepts must be a valid predictor that
// survives a Save/LoadPredictor/Save round trip byte for byte.
func FuzzLoadPredictor(f *testing.F) {
	var buf bytes.Buffer
	if err := trainToyPredictor(f, counters.Basic).Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	f.Add(saved[:3]) // truncated header
	wrongVersion := bytes.Clone(saved)
	wrongVersion[len(wireMagic)] = wireVersion + 1
	f.Add(wrongVersion)

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := LoadPredictor(bytes.NewReader(b))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("LoadPredictor returned an invalid predictor: %v", err)
		}
		var first, second bytes.Buffer
		if err := p.Save(&first); err != nil {
			t.Fatalf("saving a loaded predictor: %v", err)
		}
		q, err := LoadPredictor(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved predictor: %v", err)
		}
		if err := q.Save(&second); err != nil {
			t.Fatalf("saving a reloaded predictor: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save/LoadPredictor/Save round trip changed the bytes")
		}
	})
}
