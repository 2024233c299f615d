package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/softmax"
)

// testPredictor returns a shape-valid predictor with deterministic
// distinct weights; the cache format does not care whether it was trained.
func testPredictor(t *testing.T) *core.Predictor {
	t.Helper()
	pred := &core.Predictor{Set: counters.Basic}
	for p := arch.Param(0); p < arch.NumParams; p++ {
		m, err := softmax.NewModel(counters.Dim(counters.Basic), arch.DomainSize(p), 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.W {
			m.W[i] = float64(int(p)*1000 + i)
		}
		pred.Models[p] = m
	}
	return pred
}

func TestModelCacheRoundTripsBestStatic(t *testing.T) {
	pred := testPredictor(t)
	best := arch.MinConfig().With(arch.L2CacheKB, arch.Domain(arch.L2CacheKB)[2])
	if best == arch.Baseline() {
		t.Fatal("test config must differ from the baseline it used to fall back to")
	}
	var buf bytes.Buffer
	if err := writeModelCache(&buf, pred, best); err != nil {
		t.Fatal(err)
	}
	got, gotBest, err := readModelCache(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotBest != best {
		t.Errorf("best static = %v, want %v", gotBest, best)
	}
	if got.Set != pred.Set {
		t.Errorf("counter set = %v, want %v", got.Set, pred.Set)
	}
	for p := range pred.Models {
		if !slices.Equal(got.Models[p].W, pred.Models[p].W) {
			t.Fatalf("model %d weights changed in the round trip", p)
		}
	}
}

func TestModelCacheRejectsBarePredictor(t *testing.T) {
	// What adaptsim wrote before the header existed: core's wire format
	// alone, with no best static configuration.
	var buf bytes.Buffer
	if err := testPredictor(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, _, err := readModelCache(&buf)
	if err == nil || !strings.Contains(err.Error(), "not an adaptsim model cache") {
		t.Fatalf("bare predictor file: err = %v, want a refusal", err)
	}
}

func TestModelCacheRejectsDamagedHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := writeModelCache(&buf, testPredictor(t), arch.Baseline()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	short := good[:modelCacheHeader-1]
	version := bytes.Clone(good)
	version[len(modelCacheMagic)]++
	illegal := bytes.Clone(good)
	illegal[len(modelCacheMagic)+1] = 0xff // first parameter out of its domain
	for name, b := range map[string][]byte{"short": short, "version": version, "illegal value": illegal} {
		if _, _, err := readModelCache(bytes.NewReader(b)); err == nil {
			t.Errorf("%s header accepted", name)
		}
	}
}
