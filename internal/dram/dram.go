// Package dram models the DDR4 DRAM side of the platform: a set of
// channels per socket, each counting column-access strobes (CAS) for
// reads and writes exactly like the uncore IMC counters the paper
// samples.
//
// In 2LM mode the DRAM DIMMs hold the direct-mapped cache; the tags live
// in the ECC bits, so a tag is fetched for free with every data read and
// written for free with every data write. A *standalone* tag check still
// costs a full CAS read — that asymmetry is the root of the 2LM access
// amplification and is accounted for by the IMC model, which calls into
// this package once per actual DRAM transaction.
package dram

import (
	"fmt"

	"twolm/internal/fastdiv"
	"twolm/internal/mem"
)

// Channel is a single DDR4 channel with CAS event counters. Counters
// are in line (64 B) units.
type Channel struct {
	CASReads  uint64
	CASWrites uint64
}

// Module is one socket's worth of DRAM: n interleaved channels.
type Module struct {
	channels []Channel
	chDiv    fastdiv.Divisor
	capacity uint64
}

// New returns a DRAM module with the given channel count and total
// capacity in bytes.
func New(channels int, capacity uint64) (*Module, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("dram: channel count %d must be positive", channels)
	}
	if capacity == 0 || capacity%mem.Line != 0 {
		return nil, fmt.Errorf("dram: capacity %d must be a positive multiple of %d", capacity, mem.Line)
	}
	return &Module{
		channels: make([]Channel, channels),
		chDiv:    fastdiv.New(uint64(channels)),
		capacity: capacity,
	}, nil
}

// Channels returns the number of channels.
func (m *Module) Channels() int { return len(m.channels) }

// Capacity returns the module capacity in bytes.
func (m *Module) Capacity() uint64 { return m.capacity }

// channel maps a line address onto its interleaved channel. Cascade
// Lake has six channels — not a power of two — so the interleave mod
// uses a precomputed reciprocal instead of a divide instruction.
func (m *Module) channel(addr uint64) *Channel {
	return &m.channels[m.chDiv.Mod(addr>>mem.LineShift)]
}

// Read records one 64 B CAS read at addr.
func (m *Module) Read(addr uint64) { m.channel(addr).CASReads++ }

// Write records one 64 B CAS write at addr.
func (m *Module) Write(addr uint64) { m.channel(addr).CASWrites++ }

// ChannelIndex returns the interleave index of addr's line, for callers
// walking consecutive lines that advance the index incrementally (the
// index of line+1 is index+1 mod Channels).
func (m *Module) ChannelIndex(addr uint64) int {
	return int(m.chDiv.Mod(addr >> mem.LineShift))
}

// ChannelAt returns channel i for counter bumps paired with
// ChannelIndex.
func (m *Module) ChannelAt(i int) *Channel { return &m.channels[i] }

// rangeCounts distributes n consecutive lines starting at addr over the
// interleaved channels arithmetically: the lines congruent to channel
// (first+k) mod channels number n/channels, plus one for the first
// n%channels offsets. Byte-identical to calling channel() n times.
func (m *Module) rangeCounts(addr, n uint64, bump func(c *Channel, cnt uint64)) {
	ch := uint64(len(m.channels))
	first := m.chDiv.Mod(addr >> mem.LineShift)
	base, rem := m.chDiv.DivMod(n)
	for k := uint64(0); k < ch; k++ {
		cnt := base
		if k < rem {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		c := first + k
		if c >= ch {
			c -= ch
		}
		bump(&m.channels[c], cnt)
	}
}

// bumpReads and bumpWrites are the rangeCounts callbacks. They are
// package-level functions, not closures, so passing them allocates
// nothing on the //alloc:free range paths.
func bumpReads(c *Channel, cnt uint64)  { c.CASReads += cnt }
func bumpWrites(c *Channel, cnt uint64) { c.CASWrites += cnt }

// ReadRange records n consecutive 64 B CAS reads starting at the line
// containing addr, without walking the lines one by one.
func (m *Module) ReadRange(addr, n uint64) {
	m.rangeCounts(addr, n, bumpReads)
}

// WriteRange records n consecutive 64 B CAS writes starting at the
// line containing addr, without walking the lines one by one.
func (m *Module) WriteRange(addr, n uint64) {
	m.rangeCounts(addr, n, bumpWrites)
}

// TotalReads returns the CAS read count summed over channels (lines).
func (m *Module) TotalReads() uint64 {
	var n uint64
	for i := range m.channels {
		n += m.channels[i].CASReads
	}
	return n
}

// TotalWrites returns the CAS write count summed over channels (lines).
func (m *Module) TotalWrites() uint64 {
	var n uint64
	for i := range m.channels {
		n += m.channels[i].CASWrites
	}
	return n
}

// ChannelCounters returns a copy of the per-channel counters, for
// balance checks and reporting.
func (m *Module) ChannelCounters() []Channel {
	out := make([]Channel, len(m.channels))
	copy(out, m.channels)
	return out
}

// Reset zeroes all counters.
func (m *Module) Reset() {
	for i := range m.channels {
		m.channels[i] = Channel{}
	}
}
