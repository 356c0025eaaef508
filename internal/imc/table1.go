// The single reference of the controller's decision logic: Figure 3 as
// one function (decide), Table I as one array (rows), and one per-line
// step (line) that every non-accelerated path runs. The controller
// counts outcomes, not counters; Counters derives every field from the
// outcome histogram and the rows.
//
// The accelerators — dispatchHW (scatter.go), the three probe wraps
// and the closed-form remainders (seqfold.go) — keep their own
// branch-free or folded forms for speed, count into the same histogram,
// and are pinned against line by the differential tests and
// FuzzDispatchMatchesPerLine.

package imc

import (
	"twolm/internal/cache"
	"twolm/internal/mem"
)

// outcome is one column of Table I, plus the ablation-only columns.
// Every outcome is one demand line. The three write columns from
// writeHit on mirror the three read columns in order; decide relies on
// it.
type outcome uint8

const (
	readHit        outcome = iota // LLC read, tag hit
	readMissClean                 // LLC read, miss over a clean or invalid victim
	readMissDirty                 // LLC read, miss over a dirty victim
	writeHit                      // LLC write, tag hit without LLC ownership
	writeMissClean                // LLC write, miss over a clean or invalid victim
	writeMissDirty                // LLC write, miss over a dirty victim
	writeDDO                      // LLC write forwarded by the Dirty Data Optimization
	readBypass                    // no-read-allocate miss: forwarded from NVRAM uncached
	writeAround                   // no-write-allocate miss: written straight to NVRAM
	nOutcomes
)

// row is one outcome's effect: its counter deltas and the change to the
// tag word. An install row replaces the resident line with the request's
// (valid, plus set); any other row ORs set into the resident word and
// clears clr. A row with an NVRAM write writes back the dirty victim
// when it installs, and the request's own line otherwise (write-around).
type row struct {
	delta   Counters
	install bool
	set     uint64
	clr     uint64
}

// rows is Table I as data, indexed by outcome.
var rows = [nOutcomes]row{
	readHit: {delta: Counters{LLCRead: 1, DRAMRead: 1, TagHit: 1},
		set: cache.EntryLLCOwned},
	readMissClean: {delta: Counters{LLCRead: 1, DRAMRead: 1, DRAMWrite: 1, NVRAMRead: 1, TagMissClean: 1},
		install: true, set: cache.EntryLLCOwned},
	readMissDirty: {delta: Counters{LLCRead: 1, DRAMRead: 1, DRAMWrite: 1, NVRAMRead: 1, NVRAMWrite: 1, TagMissDirty: 1},
		install: true, set: cache.EntryLLCOwned},
	writeHit: {delta: Counters{LLCWrite: 1, DRAMRead: 1, DRAMWrite: 1, TagHit: 1},
		set: cache.EntryDirty, clr: cache.EntryLLCOwned},
	writeMissClean: {delta: Counters{LLCWrite: 1, DRAMRead: 1, DRAMWrite: 2, NVRAMRead: 1, TagMissClean: 1},
		install: true, set: cache.EntryDirty},
	writeMissDirty: {delta: Counters{LLCWrite: 1, DRAMRead: 1, DRAMWrite: 2, NVRAMRead: 1, NVRAMWrite: 1, TagMissDirty: 1},
		install: true, set: cache.EntryDirty},
	writeDDO: {delta: Counters{LLCWrite: 1, DRAMWrite: 1, TagHit: 1, DDO: 1},
		set: cache.EntryDirty, clr: cache.EntryLLCOwned},
	// The bypassing ablations disturb no victim, so their misses count
	// as clean.
	readBypass:  {delta: Counters{LLCRead: 1, DRAMRead: 1, NVRAMRead: 1, TagMissClean: 1}},
	writeAround: {delta: Counters{LLCWrite: 1, DRAMRead: 1, NVRAMWrite: 1, TagMissClean: 1}},
}

// decide is Figure 3: the outcome of a read or write of the line with
// tag against the resident tag word w, under policy p. A write that
// neither takes the DDO path nor writes around gets its read column
// shifted onto the write columns (writeHit - readHit apart). It is a
// branchy switch on purpose: a table index would put the tag-word load
// on a data-dependency chain into every later step. It sits exactly at
// the inliner's budget (cost 80), so line pays no call for it; CI's
// inlining guard fails when `go build -gcflags=-m` stops reporting it.
func decide(p *Policy, w uint64, tag uint32, write bool) outcome {
	var o outcome
	switch {
	case w&cache.EntryValid != 0 && cache.EntryTagOf(w) == tag:
		if write && w&cache.EntryLLCOwned != 0 && !p.DisableDDO {
			return writeDDO
		}
		o = readHit
	case write && !p.WriteAllocate:
		return writeAround
	case !write && !p.ReadAllocate:
		return readBypass
	case w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty:
		o = readMissDirty
	default:
		o = readMissClean
	}
	if write {
		o += writeHit - readHit
	}
	return o
}

// result is the tag-check result an outcome reports: the tag event its
// row counts. The bypassing ablations disturb no victim, so they report
// a clean miss whatever the resident line holds.
func result(o outcome) cache.LookupResult {
	switch {
	case rows[o].delta.TagHit != 0:
		return cache.Hit
	case rows[o].delta.TagMissDirty != 0:
		return cache.MissDirty
	}
	return cache.MissClean
}

// line services one request for the line at addr, already split into
// its tag-store set/tag and DRAM channel: probe, decide, count, charge
// the channel's CAS, issue the NVRAM traffic (victim writeback before
// fill), and store the successor tag word.
func (c *Controller) line(set uint64, tag uint32, ch int, addr uint64, write bool) outcome {
	// Direct mapped, the set's one word is both the hit candidate and
	// the victim, and its handle is the set: the probe is the load.
	h := set
	if c.Cache.DirectEntries() == nil {
		h, _ = c.Cache.ProbeAt(set, tag)
	}
	w := c.Cache.Entry(h)
	o := decide(&c.policy, w, tag, write)
	c.hist[o]++
	chn := c.DRAM.ChannelAt(ch)
	chn.CASReads += rows[o].delta.DRAMRead
	chn.CASWrites += rows[o].delta.DRAMWrite
	if rows[o].delta.NVRAMWrite != 0 {
		if rows[o].install {
			c.NVRAM.Write((uint64(cache.EntryTagOf(w))*c.sets + set) << mem.LineShift)
		} else {
			c.NVRAM.Write(addr)
		}
	}
	if rows[o].delta.NVRAMRead != 0 {
		c.NVRAM.Read(addr)
	}
	next := (w | rows[o].set) &^ rows[o].clr
	if rows[o].install {
		next = cache.PackEntry(tag, cache.EntryValid|rows[o].set)
	}
	c.Cache.Store(h, next, rows[o].install)
	return o
}

// walk services n consecutive line reads or writes starting at the line
// containing addr through line, advancing set, tag and channel
// incrementally after one split at the range start.
func (c *Controller) walk(addr, n uint64, write bool) {
	set, tag := c.Cache.Index(addr)
	ch := c.DRAM.ChannelIndex(addr)
	for end := addr + n*mem.Line; addr < end; addr += mem.Line {
		c.line(set, tag, ch, addr, write)
		if set++; set == c.sets {
			set, tag = 0, tag+1
		}
		if ch++; ch == c.nch {
			ch = 0
		}
	}
}
