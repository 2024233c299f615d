package main

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/core"
)

// A -model-cache file holds what a training run produced and a cached
// rerun must reuse: the training dataset's best static configuration (the
// controller's start point and the static reference) followed by the
// predictor in core's own wire format. Layout: the magic, one version
// byte, NumParams little-endian uint32 parameter values, then the bytes
// core.Predictor.Save writes.
const (
	modelCacheMagic   = "ASIM"
	modelCacheVersion = 1
	modelCacheHeader  = len(modelCacheMagic) + 1 + 4*int(arch.NumParams)
)

// writeModelCache writes pred and the best static configuration to w.
func writeModelCache(w io.Writer, pred *core.Predictor, bestStatic arch.Config) error {
	hdr := make([]byte, 0, modelCacheHeader)
	hdr = append(hdr, modelCacheMagic...)
	hdr = append(hdr, modelCacheVersion)
	for _, v := range bestStatic {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(v))
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("writing model cache header: %w", err)
	}
	return pred.Save(w)
}

// readModelCache reads a file written by writeModelCache. A file without
// the header (a bare predictor from an older adaptsim) is refused: it
// lacks the best static configuration, and falling back to the baseline
// would make a cached rerun print different numbers than the training run.
func readModelCache(r io.Reader) (*core.Predictor, arch.Config, error) {
	var cfg arch.Config
	hdr := make([]byte, modelCacheHeader)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, cfg, fmt.Errorf("reading model cache header: %w", err)
	}
	if string(hdr[:len(modelCacheMagic)]) != modelCacheMagic {
		return nil, cfg, fmt.Errorf("not an adaptsim model cache (missing %q header; it carries no best static configuration)", modelCacheMagic)
	}
	if v := hdr[len(modelCacheMagic)]; v != modelCacheVersion {
		return nil, cfg, fmt.Errorf("model cache format version %d not supported (want %d)", v, modelCacheVersion)
	}
	vals := hdr[len(modelCacheMagic)+1:]
	for p := range cfg {
		cfg[p] = int(binary.LittleEndian.Uint32(vals[4*p:]))
	}
	if err := cfg.Check(); err != nil {
		return nil, cfg, fmt.Errorf("model cache best static configuration: %w", err)
	}
	pred, err := core.LoadPredictor(r)
	if err != nil {
		return nil, cfg, err
	}
	return pred, cfg, nil
}
