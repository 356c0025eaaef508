package core

import (
	"twolm/internal/cache"
	"twolm/internal/dram"
	"twolm/internal/imc"
	"twolm/internal/mem"
	"twolm/internal/nvram"
)

// memory is what the System calls on the memory system behind its
// on-chip LLC. *imc.Controller is the 2LM memory (DRAM caching NVRAM);
// *flatMemory is the 1LM one (two directly addressed pools). The LLC
// front end, the Range forms and the Batch filter are shared, so the
// modes differ only in what sits behind this seam.
type memory interface {
	LLCRead(addr uint64) cache.LookupResult
	LLCWrite(addr uint64) (cache.LookupResult, bool)
	LLCReadRange(addr, n uint64)
	LLCWriteRange(addr, n uint64)
	LLCWritebackReadRange(waddr, raddr, n uint64)
	LLCScatter(reqs []imc.Req)
	Counters() imc.Counters
	ResetCounters()
}

// flatMemory is the 1LM (app-direct) memory: DRAM and NVRAM addressed
// directly, with no tag machinery, so every LLC request is one device
// access. The address space is a DRAM region followed by an NVRAM
// region (platform.AddressSpace), so a run of lines splits into at most
// a DRAM prefix and an NVRAM suffix. There is no tag check: the
// LLCRead/LLCWrite results are always a Hit without DDO.
type flatMemory struct {
	dram     *dram.Module
	nvram    *nvram.Module
	boundary uint64 // first NVRAM address
	// With no controller in 1LM, flatMemory itself accumulates the
	// per-pool traffic; the marker declares this to the ctrmut analyzer
	// as the one sanctioned counter-accumulation site outside imc.
	ctr imc.Counters //ctrmut:accumulator 1LM demand counters, read back via Counters()
}

// LLCRead reads addr's line from its pool.
func (m *flatMemory) LLCRead(addr uint64) cache.LookupResult {
	m.ctr.LLCRead++
	if addr < m.boundary {
		m.ctr.DRAMRead++
		m.dram.Read(addr)
	} else {
		m.ctr.NVRAMRead++
		m.nvram.Read(addr)
	}
	return cache.Hit
}

// LLCWrite writes addr's line to its pool.
func (m *flatMemory) LLCWrite(addr uint64) (cache.LookupResult, bool) {
	m.ctr.LLCWrite++
	if addr < m.boundary {
		m.ctr.DRAMWrite++
		m.dram.Write(addr)
	} else {
		m.ctr.NVRAMWrite++
		m.nvram.Write(addr)
	}
	return cache.Hit, false
}

// LLCReadRange reads n consecutive lines from addr.
func (m *flatMemory) LLCReadRange(addr, n uint64) {
	m.ctr.LLCRead += n
	m.readRun(addr, n)
}

// LLCWriteRange writes n consecutive lines from addr.
func (m *flatMemory) LLCWriteRange(addr, n uint64) {
	m.ctr.LLCWrite += n
	m.writeRun(addr, n)
}

// LLCWritebackReadRange writes n lines from waddr and reads n lines
// from raddr. Without a cache between them the two streams share no
// state but the devices, whose read and write paths are disjoint, so
// issuing all writes before all reads equals the per-line interleave.
func (m *flatMemory) LLCWritebackReadRange(waddr, raddr, n uint64) {
	m.LLCWriteRange(waddr, n)
	m.LLCReadRange(raddr, n)
}

// LLCScatter services packed requests in slice order.
func (m *flatMemory) LLCScatter(reqs []imc.Req) {
	for _, r := range reqs {
		if r.Write() {
			m.LLCWrite(r.Addr())
		} else {
			m.LLCRead(r.Addr())
		}
	}
}

// Counters returns the cumulative 1LM counters.
func (m *flatMemory) Counters() imc.Counters { return m.ctr }

// ResetCounters zeroes the counters and the device counters.
func (m *flatMemory) ResetCounters() {
	m.ctr = imc.Counters{}
	m.dram.Reset()
	m.nvram.Reset()
}

// dramLines returns how many of the n lines from addr lie in DRAM.
func (m *flatMemory) dramLines(addr, n uint64) uint64 {
	if addr >= m.boundary {
		return 0
	}
	if addr+n*mem.Line <= m.boundary {
		return n
	}
	return (m.boundary - addr + mem.Line - 1) / mem.Line
}

// readRun reads n consecutive lines from addr on the devices, counting
// device traffic but no demand, and returns how many were NVRAM lines.
func (m *flatMemory) readRun(addr, n uint64) (nv uint64) {
	dn := m.dramLines(addr, n)
	if dn > 0 {
		m.ctr.DRAMRead += dn
		m.dram.ReadRange(addr, dn)
	}
	if nv = n - dn; nv > 0 {
		m.ctr.NVRAMRead += nv
		m.nvram.ReadLineRun(addr+dn*mem.Line, nv)
	}
	return nv
}

// writeRun is readRun for writes.
func (m *flatMemory) writeRun(addr, n uint64) (nv uint64) {
	dn := m.dramLines(addr, n)
	if dn > 0 {
		m.ctr.DRAMWrite += dn
		m.dram.WriteRange(addr, dn)
	}
	if nv = n - dn; nv > 0 {
		m.ctr.NVRAMWrite += nv
		m.nvram.WriteLineRun(addr+dn*mem.Line, nv)
	}
	return nv
}
