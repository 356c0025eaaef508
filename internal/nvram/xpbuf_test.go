package nvram

import (
	"math/rand"
	"testing"

	"twolm/internal/mem"
)

// refXPBuffer is the straight-line reference model of the combining
// window: a grow-then-round-robin slice scanned linearly, exactly as
// the DIMM implemented it before the last-hit short circuit and fixed
// ring. The differential test below proves the optimized DIMM counts
// media writes identically on every stream shape.
type refXPBuffer struct {
	buf  []uint64
	next int
}

// write returns true when the block merges into a pending media write.
func (r *refXPBuffer) write(block uint64) (merged bool) {
	for _, b := range r.buf {
		if b == block {
			return true
		}
	}
	if len(r.buf) < xpBufferEntries {
		r.buf = append(r.buf, block)
		return false
	}
	r.buf[r.next] = block
	r.next = (r.next + 1) % len(r.buf)
	return false
}

// TestXPBufferMatchesReference drives sequential, random, strided, and
// ping-pong write streams through the DIMM and the reference model and
// demands identical media write counts at every step.
func TestXPBufferMatchesReference(t *testing.T) {
	streams := map[string]func(i int, rng *rand.Rand) uint64{
		"sequential": func(i int, _ *rand.Rand) uint64 { return uint64(i) * mem.Line },
		"random":     func(_ int, rng *rand.Rand) uint64 { return uint64(rng.Intn(1<<16)) * mem.Line },
		"strided":    func(i int, _ *rand.Rand) uint64 { return uint64(i) * 3 * MediaBlock },
		"ping-pong": func(i int, _ *rand.Rand) uint64 {
			// Alternates between two far-apart blocks, defeating the
			// last-hit short circuit on every other write.
			return uint64(i&1) * 64 * MediaBlock
		},
		"thrash": func(i int, _ *rand.Rand) uint64 {
			// Cycles through more blocks than the buffer holds, forcing
			// round-robin replacement of every slot.
			return uint64(i%(2*xpBufferEntries)) * MediaBlock
		},
	}
	for name, gen := range streams {
		t.Run(name, func(t *testing.T) {
			d := newDIMM()
			var ref refXPBuffer
			var refMedia uint64
			rng := rand.New(rand.NewSource(13))
			for i := 0; i < 100000; i++ {
				addr := gen(i, rng)
				d.Write(addr)
				if !ref.write(addr / MediaBlock) {
					refMedia++
				}
				if d.MediaWrites != refMedia {
					t.Fatalf("%s: after write %d (addr %#x): media writes %d, reference %d",
						name, i, addr, d.MediaWrites, refMedia)
				}
			}
			if d.Writes != 100000 {
				t.Fatalf("%s: interface writes = %d", name, d.Writes)
			}
		})
	}
}
