package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pinned holds each workload's output digests at seed 0 (pipeline: every
// seed, since its inputs do not depend on the seed), taken from the
// program at the commit that defined this benchmark. A change that moves
// one of them changed what the program computes, not how fast: that is a
// model or physics change and must re-pin here on purpose.
//
// pipeline "tables" is the sha256 of the rendered tables and figures,
// byte-identical to the stdout of
// `report -skip-slow -programs applu,crafty,gcc,gzip,mcf,mgrid,parser,swim -phases 2`;
// "dataset" is Dataset.Digest(). controller "records" covers every
// monitoring interval's cycles, energy and configuration plus the
// best-static replay of each program. serve "decisions" covers the
// engine's decision for every vector of the request pool.
var pinned = map[string]map[string]string{
	"pipeline": {
		"tables":  "a7d9dbcec6e1f3f0ba942ca8f5b9821b6120276bfb1c5221ca9eb73e78876c67",
		"dataset": "64d856753331cc376a11d3cc6747ebb900c34653417f58ce48fc18fba2243052",
	},
	"controller": {
		"records": "c5c18cafbf84ab07d845002e3abb655539ed8443cfacf3a3baa92778d71deb9a",
	},
	"serve": {
		"decisions": "c1a856f6f3d4803b9e6bd2f8db29cda6b06466b3f01229fc220651676ec9b97b",
	},
}

// digestCheck checks a workload's output digests: every pass of a run
// must reproduce the first pass's, seed 0 must reproduce the pins, and
// every run of a seed on the same source must reproduce the first such
// run's, which is recorded under .bench_build/digests.
type digestCheck struct {
	env   *runEnv
	first map[string]string
}

func newDigestCheck(env *runEnv) *digestCheck { return &digestCheck{env: env} }

func (c *digestCheck) check(rep *report, got map[string]string) {
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if c.first == nil {
		c.first = got
		if c.env.seed == 0 || c.env.workload == "pipeline" {
			for _, k := range keys {
				rep.check(got[k] == pinned[c.env.workload][k],
					fmt.Sprintf("%s digest %s = %s, pinned %s", c.env.workload, k, got[k], pinned[c.env.workload][k]))
			}
		}
		prev, err := c.recorded(got)
		if err != nil {
			rep.note("digest record unavailable: " + err.Error())
		}
		for _, k := range keys {
			if prev != nil {
				rep.check(prev[k] == got[k], fmt.Sprintf("%s digest %s = %s, an earlier run of seed %d gave %s",
					c.env.workload, k, got[k], c.env.seed, prev[k]))
			}
			rep.note(fmt.Sprintf("digest %s %s", k, got[k]))
		}
		return
	}
	for _, k := range keys {
		rep.check(got[k] == c.first[k], fmt.Sprintf("%s digest %s = %s, the run's first pass gave %s",
			c.env.workload, k, got[k], c.first[k]))
	}
}

// recorded returns the digests an earlier run of this workload and seed
// recorded for the same source, recording got when there is none.
func (c *digestCheck) recorded(got map[string]string) (map[string]string, error) {
	fp, err := sourceFingerprint()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(scratchRoot, "digests", fp)
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", c.env.workload, c.env.seed))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]string
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", path, err)
		}
		return prev, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(got)
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, "tmp-")
	if err != nil {
		return nil, err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	return nil, os.Rename(tmp.Name(), path)
}

// sourceFingerprint hashes the program and benchmark sources, so digest
// records never outlive the code that produced them.
func sourceFingerprint() (string, error) {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("fingerprinting the source: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
