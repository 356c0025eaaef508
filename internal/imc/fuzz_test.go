package imc

import (
	"testing"

	"twolm/internal/dram"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// fuzzGeometry is the controller configuration a fuzz input selects.
type fuzzGeometry struct {
	policy    Policy
	channels  int
	dimms     int
	cacheSets uint64 // sets per way
}

// decodeFuzzGeometry reads the policy and geometry from the first two
// input bytes:
//
//	b0: bit 0 no read-allocate, bit 1 no write-allocate, bit 2 DDO off,
//	    bits 3-4 ways {1, 2, 4, 1}
//	b1: bits 0-1 channels {1, 2, 3, 6}, bits 2-3 DIMMs {1, 2, 3, 6},
//	    bits 4-5 sets {24, 48, 96, 192}
func decodeFuzzGeometry(b0, b1 byte) fuzzGeometry {
	counts := [4]int{1, 2, 3, 6}
	p := HardwarePolicy()
	p.ReadAllocate = b0&1 == 0
	p.WriteAllocate = b0&2 == 0
	p.DisableDDO = b0&4 != 0
	p.Ways = [4]int{1, 2, 4, 1}[b0>>3&3]
	return fuzzGeometry{
		policy:    p,
		channels:  counts[b1&3],
		dimms:     counts[b1>>2&3],
		cacheSets: [4]uint64{24, 48, 96, 192}[b1>>4&3],
	}
}

func (g fuzzGeometry) build(t *testing.T) *Controller {
	t.Helper()
	capacity := g.cacheSets * uint64(g.policy.Ways) * mem.Line
	d, err := dram.New(g.channels, capacity)
	if err != nil {
		t.Fatal(err)
	}
	n, err := nvram.New(g.dimms, 64*capacity)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(d, n, WithPolicy(g.policy))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fuzzRand is a xorshift generator expanding two input bytes into a
// scatter batch.
type fuzzRand uint64

func (r *fuzzRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = fuzzRand(x)
	return x
}

// FuzzDispatchMatchesPerLine pins every accelerator — dispatchHW, the
// probe wraps and the closed-form remainders — against per-line
// dispatch through line. An input selects a policy and geometry
// (decodeFuzzGeometry) and then a program of 4-byte operations
// {kind, a, n, x}: kind mod 6 picks LLCRead, LLCWrite, LLCReadRange,
// LLCWriteRange, LLCWritebackReadRange or LLCScatter; a and x pick the
// start line within four cache capacities, n the length, and x the
// writeback lag or the scatter stream. The batched controller runs the
// program through those entry points while a twin replays it line by
// line through LLCRead/LLCWrite; counters, per-channel CAS, every
// DIMM's interface and media counters and every tag word must match,
// and each side's demand clock must equal its counters' demand.
func FuzzDispatchMatchesPerLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := decodeFuzzGeometry(data[0], data[1])
		batched, perLine := g.build(t), g.build(t)
		lines := 4 * batched.Cache.Lines()
		prog := data[2:]
		if len(prog) > 4*64 {
			prog = prog[:4*64]
		}
		var reqs []Req
		for i := 0; i+4 <= len(prog); i += 4 {
			kind, a, n, x := prog[i], prog[i+1], uint64(prog[i+2]), prog[i+3]
			base := (uint64(a)<<8 | uint64(x)) % lines * mem.Line
			// Ranges may start inside a line, as the range entry points
			// allow.
			off := uint64(kind>>4) * 4
			switch kind % 6 {
			case 0:
				batched.LLCRead(base + off)
				perLine.LLCRead(base + off)
			case 1:
				batched.LLCWrite(base + off)
				perLine.LLCWrite(base + off)
			case 2:
				batched.LLCReadRange(base+off, 3*n)
				for k := uint64(0); k < 3*n; k++ {
					perLine.LLCRead(base + off + k*mem.Line)
				}
			case 3:
				batched.LLCWriteRange(base+off, 3*n)
				for k := uint64(0); k < 3*n; k++ {
					perLine.LLCWrite(base + off + k*mem.Line)
				}
			case 4:
				// Lags 0 and >= sets exercise the fallback.
				waddr := (uint64(a) % lines) * mem.Line
				raddr := waddr + uint64(x)%(batched.sets+2)*mem.Line
				batched.LLCWritebackReadRange(waddr, raddr, 3*n)
				for k := uint64(0); k < 3*n; k++ {
					perLine.LLCWrite(waddr + k*mem.Line)
					perLine.LLCRead(raddr + k*mem.Line)
				}
			case 5:
				// Batches up to 1275 requests straddle dispatch chunks.
				rng := fuzzRand(uint64(a)<<8 | uint64(x) | 1<<20)
				reqs = reqs[:0]
				for k := uint64(0); k < 5*n; k++ {
					v := rng.next()
					addr := (v >> 1) % lines * mem.Line
					if v&1 == 0 {
						reqs = append(reqs, ReadReq(addr))
						perLine.LLCRead(addr)
					} else {
						reqs = append(reqs, WriteReq(addr))
						perLine.LLCWrite(addr)
					}
				}
				batched.LLCScatter(reqs)
			}
		}
		assertSameTraffic(t, "fuzz", perLine, batched)
		assertDemandClock(t, "fuzz per-line", perLine)
		assertDemandClock(t, "fuzz batched", batched)
		for i := 0; i < g.dimms; i++ {
			if a, b := *perLine.NVRAM.DIMMAt(i), *batched.NVRAM.DIMMAt(i); a.Reads != b.Reads ||
				a.Writes != b.Writes || a.MediaReads != b.MediaReads || a.MediaWrites != b.MediaWrites {
				t.Errorf("DIMM %d diverges: per-line %+v, batched %+v", i, a, b)
			}
		}
		for h := uint64(0); h < batched.Cache.Lines(); h++ {
			if a, b := perLine.Cache.Entry(h), batched.Cache.Entry(h); a != b {
				t.Fatalf("tag word %d diverges: per-line %#x, batched %#x", h, a, b)
			}
		}
	})
}
