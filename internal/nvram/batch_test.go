package nvram

import (
	"testing"

	"twolm/internal/lfsr"
	"twolm/internal/mem"
)

// batchAddrs builds a deterministic address stream mixing sequential
// runs (which exercise the read memo and the write combining buffer)
// with LFSR-random jumps (which exercise misses and ring eviction).
func batchAddrs(t *testing.T, span uint64) []uint64 {
	t.Helper()
	lines := span / mem.Line
	addrs := make([]uint64, 0, 2*lines)
	err := lfsr.Sequence(lines/4, 0x7E57, func(idx uint64) {
		base := idx * 4 * mem.Line
		// A short ascending run at each random base.
		for k := uint64(0); k < 4; k++ {
			addrs = append(addrs, base+k*mem.Line)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	err = lfsr.Sequence(lines, 0xA5A5, func(idx uint64) {
		addrs = append(addrs, idx*mem.Line)
	})
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// moduleCounters snapshots every interface and media counter.
func moduleCounters(m *Module) [4]uint64 {
	return [4]uint64{m.TotalReads(), m.TotalWrites(), m.TotalMediaReads(), m.TotalMediaWrites()}
}

// TestModuleBatchMatchesPerCall proves Module.ReadBatch and
// Module.WriteBatch are byte-identical to per-call Read/Write in slice
// order, including the per-DIMM media counters behind the totals.
func TestModuleBatchMatchesPerCall(t *testing.T) {
	const dimms = 6
	const span = 8 * mem.MiB
	serial, err := New(dimms, span)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := New(dimms, span)
	if err != nil {
		t.Fatal(err)
	}
	addrs := batchAddrs(t, span)
	// Interleave read and write phases in odd-sized chunks so both the
	// read memo and the combining buffer carry state across batch edges.
	const chunk = 353
	for off := 0; off < len(addrs); off += chunk {
		end := off + chunk
		if end > len(addrs) {
			end = len(addrs)
		}
		part := addrs[off:end]
		if (off/chunk)%2 == 0 {
			for _, a := range part {
				serial.Read(a)
			}
			batched.ReadBatch(part)
		} else {
			for _, a := range part {
				serial.Write(a)
			}
			batched.WriteBatch(part)
		}
	}
	if a, b := moduleCounters(serial), moduleCounters(batched); a != b {
		t.Errorf("module counters diverge: per-call %v, batched %v", a, b)
	}
	for i := 0; i < dimms; i++ {
		sd, bd := serial.DIMMAt(i), batched.DIMMAt(i)
		if sd.Reads != bd.Reads || sd.Writes != bd.Writes ||
			sd.MediaReads != bd.MediaReads || sd.MediaWrites != bd.MediaWrites {
			t.Errorf("DIMM %d diverges: per-call {%d %d %d %d}, batched {%d %d %d %d}",
				i, sd.Reads, sd.Writes, sd.MediaReads, sd.MediaWrites,
				bd.Reads, bd.Writes, bd.MediaReads, bd.MediaWrites)
		}
	}
}

// TestBatchReadsWritesCommute is the unit-level form of the dispatch
// commutation argument: because the read path and the write path of a
// DIMM touch disjoint state, regrouping an interleaved read/write
// stream into a read batch and a write batch (each preserving its own
// internal order) leaves every counter byte-identical.
func TestBatchReadsWritesCommute(t *testing.T) {
	const span = 4 * mem.MiB
	addrs := batchAddrs(t, span)
	for _, dimms := range []int{1, 3, 6} {
		serial, err := New(dimms, span)
		if err != nil {
			t.Fatal(err)
		}
		var reads, writes []uint64
		for i, a := range addrs {
			if i%3 == 0 {
				serial.Write(a)
				writes = append(writes, a)
			} else {
				serial.Read(a)
				reads = append(reads, a)
			}
		}
		// Both regroupings: writes before reads is the opposite of every
		// interleaving above that put a read first.
		for _, writesFirst := range []bool{true, false} {
			split, err := New(dimms, span)
			if err != nil {
				t.Fatal(err)
			}
			if writesFirst {
				split.WriteBatch(writes)
				split.ReadBatch(reads)
			} else {
				split.ReadBatch(reads)
				split.WriteBatch(writes)
			}
			if a, b := moduleCounters(serial), moduleCounters(split); a != b {
				t.Errorf("dimms=%d writesFirst=%v: direction split changed counters: interleaved %v, split %v",
					dimms, writesFirst, a, b)
			}
			for i := 0; i < dimms; i++ {
				if sd, bd := *serial.DIMMAt(i), *split.DIMMAt(i); sd.Reads != bd.Reads || sd.Writes != bd.Writes ||
					sd.MediaReads != bd.MediaReads || sd.MediaWrites != bd.MediaWrites {
					t.Errorf("dimms=%d writesFirst=%v: DIMM %d diverges", dimms, writesFirst, i)
				}
			}
		}
	}
}
