package imc

import (
	"testing"

	"twolm/internal/lfsr"
	"twolm/internal/mem"
)

// scatterPolicies is the acceptance matrix of the batched dispatch:
// every policy ablation crossed with direct-mapped (the branchless
// dispatchHW loop for the hardware policy, the serial path through
// line otherwise) and 4-way associativity (the serial path).
func scatterPolicies() map[string]Policy {
	base := map[string]Policy{}
	hw := HardwarePolicy()
	base["hardware"] = hw
	noWA := hw
	noWA.WriteAllocate = false
	base["no-write-allocate"] = noWA
	noRA := hw
	noRA.ReadAllocate = false
	base["no-read-allocate"] = noRA
	noDDO := hw
	noDDO.DisableDDO = true
	base["ddo-off"] = noDDO

	out := map[string]Policy{}
	for name, p := range base {
		p1 := p
		p1.Ways = 1
		out[name+"-w1"] = p1
		p4 := p
		p4.Ways = 4
		out[name+"-w4"] = p4
	}
	return out
}

// scatterStream generates a deterministic LFSR-random request stream
// over span lines: every line touched once per pass, alternating reads
// and writes on the index parity, for two passes (the second pass runs
// against the dirtied state the first left behind, so hits, clean
// misses, dirty victims, and DDO writebacks all occur).
func scatterStream(t *testing.T, spanLines uint64) []Req {
	t.Helper()
	reqs := make([]Req, 0, 2*spanLines)
	for pass := 0; pass < 2; pass++ {
		err := lfsr.Sequence(spanLines, 0xBEEF+uint32(pass), func(idx uint64) {
			addr := idx * mem.Line
			if (idx+uint64(pass))&1 == 0 {
				reqs = append(reqs, ReadReq(addr))
			} else {
				reqs = append(reqs, WriteReq(addr))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return reqs
}

// replaySerial dispatches reqs through the per-line entry points in
// slice order — the reference semantics LLCScatter must reproduce.
func replaySerial(c *Controller, reqs []Req) {
	for _, r := range reqs {
		if uint64(r)&1 == 0 {
			c.LLCRead(uint64(r))
		} else {
			c.LLCWrite(uint64(r) &^ 1)
		}
	}
}

// TestScatterMatchesPerLine is the tentpole legality proof: over the
// same mixed LFSR-random request stream — split into odd-sized batches
// that straddle the dispatch chunk size — LLCScatter produces
// byte-identical imc.Counters, per-channel CAS counts, and NVRAM
// interface and media counters to per-line dispatch in request order,
// for every policy ablation at Ways 1 and 4.
func TestScatterMatchesPerLine(t *testing.T) {
	for name, policy := range scatterPolicies() {
		t.Run(name, func(t *testing.T) {
			perLine, batched := newRangePair(t, policy)
			spanLines := uint64(2*perLine.DRAM.Capacity()) / mem.Line
			reqs := scatterStream(t, spanLines)
			// 1337 is odd and not a divisor or multiple of dispatchChunk,
			// so batches end mid-chunk and chunks straddle batch edges.
			const batch = 1337
			for off := 0; off < len(reqs); off += batch {
				end := off + batch
				if end > len(reqs) {
					end = len(reqs)
				}
				replaySerial(perLine, reqs[off:end])
				batched.LLCScatter(reqs[off:end])
			}
			assertSameTraffic(t, name, perLine, batched)
		})
	}
}

// TestScatterWrappersMatchPerLine pins the address-slice wrappers:
// LLCReadScatter and LLCWriteScatter are byte-identical to per-line
// LLCRead/LLCWrite in slice order.
func TestScatterWrappersMatchPerLine(t *testing.T) {
	for name, policy := range scatterPolicies() {
		t.Run(name, func(t *testing.T) {
			perLine, batched := newRangePair(t, policy)
			spanLines := uint64(2*perLine.DRAM.Capacity()) / mem.Line
			addrs := make([]uint64, 0, spanLines)
			err := lfsr.Sequence(spanLines, 0xACE1, func(idx uint64) {
				addrs = append(addrs, idx*mem.Line)
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range addrs {
				perLine.LLCRead(a)
			}
			batched.LLCReadScatter(addrs)
			for _, a := range addrs {
				perLine.LLCWrite(a)
			}
			batched.LLCWriteScatter(addrs)
			assertSameTraffic(t, name, perLine, batched)
		})
	}
}

// TestScatterChunkBoundaries sweeps batch lengths around the dispatch
// chunk size (empty, single, one off either side of one and two full
// chunks), where cursor and chunk-slicing bugs would live.
func TestScatterChunkBoundaries(t *testing.T) {
	sizes := []int{0, 1, 2, dispatchChunk - 1, dispatchChunk,
		dispatchChunk + 1, 2*dispatchChunk - 1, 2 * dispatchChunk, 2*dispatchChunk + 3}
	perLine, batched := newRangePair(t, HardwarePolicy())
	spanLines := uint64(2*perLine.DRAM.Capacity()) / mem.Line
	stream := scatterStream(t, spanLines)
	off := 0
	for _, n := range sizes {
		if off+n > len(stream) {
			t.Fatalf("stream too short: need %d have %d", off+n, len(stream))
		}
		reqs := stream[off : off+n]
		off += n
		replaySerial(perLine, reqs)
		batched.LLCScatter(reqs)
	}
	assertSameTraffic(t, "chunk-boundaries", perLine, batched)
}

// TestScatterEmptyBatch pins that an empty batch is a no-op.
func TestScatterEmptyBatch(t *testing.T) {
	perLine, batched := newRangePair(t, HardwarePolicy())
	batched.LLCScatter(nil)
	batched.LLCReadScatter(nil)
	batched.LLCWriteScatter(nil)
	assertSameTraffic(t, "empty", perLine, batched)
}
