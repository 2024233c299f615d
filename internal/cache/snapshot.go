// Canonical byte encoding of warm cache state for the warmup-checkpoint
// machinery (cpu.Sim.Snapshot/Restore). The encoding covers exactly what
// survives warmup into measurement — tags and LRU ages — never the
// statistics counters, which the simulator resets after warmup anyway.
// Layout is fixed little-endian so the same state always produces the
// same bytes (content-addressed storage depends on this).
package cache

import (
	"encoding/binary"
	"fmt"
)

// SnapshotSize returns the exact encoded size of this cache's snapshot.
func (c *Cache) SnapshotSize() int {
	lines := int(c.sets * c.ways)
	return 12 + 8*lines + lines
}

// AppendSnapshot appends the canonical encoding of the cache's warm state
// (geometry header, tags, LRU ages) to buf and returns the extended slice.
// Statistics are deliberately excluded.
func (c *Cache) AppendSnapshot(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, c.sets)
	buf = binary.LittleEndian.AppendUint32(buf, c.ways)
	buf = binary.LittleEndian.AppendUint32(buf, c.lineShift)
	// Tags keep their 8-byte encoding: an empty line is all ones.
	for _, tag := range c.tags {
		t := uint64(tag)
		if tag == invalidTag {
			t = ^uint64(0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, t)
	}
	buf = append(buf, c.lru...)
	return buf
}

// RestoreSnapshot overwrites the cache's tags and LRU ages from the
// encoding at the front of buf and returns the remainder. The snapshot's
// geometry must match the cache's exactly — a snapshot is only valid for
// the configuration it was taken under. Statistics are left untouched.
func (c *Cache) RestoreSnapshot(buf []byte) ([]byte, error) {
	if len(buf) < 12 {
		return nil, fmt.Errorf("cache: snapshot truncated (header)")
	}
	sets := binary.LittleEndian.Uint32(buf[0:])
	ways := binary.LittleEndian.Uint32(buf[4:])
	shift := binary.LittleEndian.Uint32(buf[8:])
	if sets != c.sets || ways != c.ways || shift != c.lineShift {
		return nil, fmt.Errorf("cache: snapshot geometry %d/%d/%d does not match cache %d/%d/%d",
			sets, ways, shift, c.sets, c.ways, c.lineShift)
	}
	buf = buf[12:]
	lines := int(c.sets * c.ways)
	if len(buf) < 8*lines+lines {
		return nil, fmt.Errorf("cache: snapshot truncated (%d bytes for %d lines)", len(buf), lines)
	}
	for i := 0; i < lines; i++ {
		t := binary.LittleEndian.Uint64(buf[8*i:])
		switch {
		case t == ^uint64(0):
			c.tags[i] = invalidTag
		case t >= uint64(invalidTag):
			return nil, fmt.Errorf("cache: snapshot tag %#x out of range", t)
		default:
			c.tags[i] = uint32(t)
		}
	}
	buf = buf[8*lines:]
	copy(c.lru, buf[:lines])
	return buf[lines:], nil
}
