package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// leftoverSidecar is the name of the warmup-snapshot log that stores
// written by older binaries may still hold. The store no longer knows the
// file: it must be neither read nor rewritten.
const leftoverSidecar = "snapshots.log"

// writeLeftoverSidecar drops an old-format sidecar into dir: the "RSNP"
// magic, the framing version, three CRC-framed records and a torn tail.
// The torn tail is there so that any code that still scanned the file
// would report (or truncate) it. It returns the bytes written.
func writeLeftoverSidecar(t *testing.T, dir string) []byte {
	t.Helper()
	b := []byte("RSNP")
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	for i := 0; i < 3; i++ {
		k := fakeKey(100 + i)
		payload := append(k[:], bytes.Repeat([]byte{byte(i + 1)}, 64)...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		b = append(b, payload...)
	}
	b = append(b, 0xff, 0xff, 0xff) // torn record header
	path := filepath.Join(dir, leftoverSidecar)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Back-date it so a rewrite would show in the modification time.
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	return b
}

// requireLeftoverUntouched fails unless dir's sidecar still holds want
// with the back-dated modification time writeLeftoverSidecar gave it.
func requireLeftoverUntouched(t *testing.T, dir string, want []byte) {
	t.Helper()
	path := filepath.Join(dir, leftoverSidecar)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("leftover sidecar: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("leftover sidecar rewritten: %d bytes, want %d", len(got), len(want))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(fi.ModTime()) < 30*time.Minute {
		t.Fatalf("leftover sidecar modified at %v", fi.ModTime())
	}
}

// exerciseStore runs Open, Put (with one superseding write), Get,
// Compact and a reopen on dir, and returns the final results.log bytes.
func exerciseStore(t *testing.T, dir string) []byte {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(fakeKey(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(fakeKey(0), fakeResult(9)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(fakeKey(0)); !ok || got.Cycles != fakeResult(9).Cycles {
		t.Fatalf("Get after supersede: ok=%v", ok)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Dropped != 0 || st.Records != 4 {
		t.Fatalf("stats = %+v, want 4 records and nothing dropped", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Dropped != 0 || st.Records != 4 || st.Compactions != 0 {
		t.Fatalf("reopen stats = %+v, want 4 clean records", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(HeadLog(dir))
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestLeftoverSnapshotSidecarIgnored(t *testing.T) {
	plain := t.TempDir()
	want := exerciseStore(t, plain)

	dir := t.TempDir()
	side := writeLeftoverSidecar(t, dir)
	if got := exerciseStore(t, dir); !bytes.Equal(got, want) {
		t.Fatal("results.log differs from a store without the leftover sidecar")
	}
	requireLeftoverUntouched(t, dir, side)

	c, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ok() || c.Live != 4 || c.Dropped != 0 {
		t.Fatalf("CheckDir = %+v, want ok with 4 live records", c)
	}
	requireLeftoverUntouched(t, dir, side)
}

func TestMergeIgnoresLeftoverSnapshotSidecar(t *testing.T) {
	merged := func(withLeftover bool) []byte {
		src := buildDir(t, []int{0, 1, 2}, []int{0, 1, 2})
		dst := buildDir(t, []int{2, 3}, []int{2, 3})
		var srcSide, dstSide []byte
		if withLeftover {
			srcSide = writeLeftoverSidecar(t, src)
			dstSide = writeLeftoverSidecar(t, dst)
		}
		ms, err := Merge(dst, src)
		if err != nil {
			t.Fatal(err)
		}
		if ms.Records != 4 || ms.Added != 2 || ms.Dedup != 1 || ms.Dropped != 0 {
			t.Fatalf("merge stats = %+v, want 4 records, 2 added, 1 dedup, 0 dropped", ms)
		}
		if withLeftover {
			requireLeftoverUntouched(t, src, srcSide)
			requireLeftoverUntouched(t, dst, dstSide)
		}
		log, err := os.ReadFile(HeadLog(dst))
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	if !bytes.Equal(merged(true), merged(false)) {
		t.Fatal("merged results.log differs when the inputs hold a leftover sidecar")
	}
}
