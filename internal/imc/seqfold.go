// Closed-form set-stride fold for sequential demand (DESIGN.md §4h).
//
// A sequential line range walks the direct-mapped tag store's sets with
// unit stride, wrapping set -> 0 with a tag carry. Against arbitrary
// prior state, the first visit to each set can take any Table-I outcome
// — but this range's own visit leaves the set in a state the policy
// fully determines, so from the second wrap on (reads may need one more
// wrap to flush dirt that a hit preserved) every line takes exactly one
// outcome:
//
//	reads:  tag miss, clean victim (this range's own install),
//	        NVRAM fill + DRAM install
//	writes: tag miss, dirty victim = the line one set-wrap back,
//	        victim writeback + fill + install + data write
//
// The fold therefore splits a range into predicated probe wraps (one
// packed-word load/store per set, at most two wraps for reads, one for
// writes) and a uniform remainder committed arithmetically: counters in
// O(1), per-channel CAS through dram's range distributor, NVRAM media
// through the ascending-run entry points, and the final tag state as a
// bulk stamp of the last window of sets. The interleaved writeback+read
// fold does the same for the eviction shadow a store stream drags
// behind its demand reads. Every wrap and remainder counts Table I
// outcomes into the controller's histogram (table1.go). Fallbacks:
// associativity > 1 (no flat entry array) and the no-allocate ablations
// take walk; DisableDDO folds (it only changes which uniform write
// formula applies). Legality is pinned by the differential and
// range-split tests in seqfold_test.go and by FuzzDispatchMatchesPerLine
// — byte-identical counters, channel CAS, NVRAM media counters, and
// final tag state versus per-line dispatch.

package imc

import (
	"twolm/internal/cache"
	"twolm/internal/mem"
)

// seqReadRange is the closed-form body of LLCReadRange. Preconditions:
// n > 0, entries is the flat Ways==1 tag array, and ReadAllocate holds.
// The caller flushes telemetry.
func (c *Controller) seqReadRange(entries []uint64, addr, n uint64) {
	// Every read costs one DRAM data+tag read, hit or miss.
	c.DRAM.ReadRange(addr, n)

	sets := c.sets
	rem := n
	a := addr
	// Probe wraps: the first visit to each set runs predicated against
	// whatever the set held. A read hit preserves a dirty bit, so one
	// more wrap of dirt can follow; after a wrap with no dirty hits the
	// remainder is uniform. Two wraps is the fixed point: a second wrap
	// cannot hit (its tags are one carry past the tags it installed).
	for rem > 0 {
		w := min(rem, sets)
		dirtyHits := c.readProbeWrap(entries, a, w)
		a += w * mem.Line
		rem -= w
		if dirtyHits == 0 {
			break
		}
	}
	// Uniform remainder: every line misses clean against this range's
	// own install and refills.
	if rem > 0 {
		c.hist[readMissClean] += rem
		c.NVRAM.ReadLineRun(a, rem)
		c.DRAM.WriteRange(a, rem)
		wlen := min(rem, sets)
		ws, wt := c.Cache.Index(a + (rem-wlen)*mem.Line)
		c.Cache.StampSeqRun(ws, wt, wlen, cache.EntryValid|cache.EntryLLCOwned)
	}
}

// readProbeWrap services n consecutive read lines (n <= sets) with
// LLCRead's per-line semantics folded to one packed-word load and store
// per set, and reports how many hits preserved a dirty bit — the
// condition for another predicated wrap. The per-line DRAM data read is
// accounted by the caller for the whole range.
func (c *Controller) readProbeWrap(entries []uint64, addr, n uint64) (dirtyHits uint64) {
	sets := c.sets
	nch := c.nch
	set, tag := c.Cache.Index(addr)
	chIdx := c.DRAM.ChannelIndex(addr)
	a := addr
	for i := uint64(0); i < n; i++ {
		w := entries[set]
		if w&cache.EntryValid != 0 && cache.EntryTagOf(w) == tag {
			c.hist[readHit]++
			entries[set] = w | cache.EntryLLCOwned
			if w&cache.EntryDirty != 0 {
				dirtyHits++
			}
		} else {
			if w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
				c.hist[readMissDirty]++
				c.NVRAM.Write((uint64(cache.EntryTagOf(w))*sets + set) << mem.LineShift)
			} else {
				c.hist[readMissClean]++
			}
			c.NVRAM.Read(a)
			c.DRAM.ChannelAt(chIdx).CASWrites++
			entries[set] = cache.PackEntry(tag, cache.EntryValid|cache.EntryLLCOwned)
		}
		set++
		if set == sets {
			set, tag = 0, tag+1
		}
		chIdx++
		if chIdx == nch {
			chIdx = 0
		}
		a += mem.Line
	}
	return dirtyHits
}

// seqWriteRange is the closed-form body of LLCWriteRange. Preconditions:
// n > 0, entries is the flat Ways==1 tag array, and WriteAllocate holds
// (DisableDDO folds). The caller flushes telemetry.
func (c *Controller) seqWriteRange(entries []uint64, addr, n uint64) {
	sets := c.sets
	// One probe wrap reaches the fixed point: every write branch leaves
	// its set valid and dirty with this wrap's tag, so the next wrap
	// always takes the dirty-miss path.
	head := min(n, sets)
	c.writeProbeWrap(entries, addr, head)
	rem := n - head
	if rem > 0 {
		a := addr + head*mem.Line
		// Tag-check read, then: victim writeback of the line one wrap
		// back, fill, install, and the data write.
		c.hist[writeMissDirty] += rem
		c.DRAM.ReadRange(a, rem)
		c.NVRAM.WriteLineRun(a-sets*mem.Line, rem)
		c.NVRAM.ReadLineRun(a, rem)
		c.DRAM.WriteRange(a, rem)
		c.DRAM.WriteRange(a, rem)
		wlen := min(rem, sets)
		ws, wt := c.Cache.Index(a + (rem-wlen)*mem.Line)
		c.Cache.StampSeqRun(ws, wt, wlen, cache.EntryValid|cache.EntryDirty)
	}
}

// writeProbeWrap services n consecutive writeback lines (n <= sets)
// with LLCWrite's per-line semantics folded to one packed-word load and
// store per set.
func (c *Controller) writeProbeWrap(entries []uint64, addr, n uint64) {
	sets := c.sets
	nch := c.nch
	ddoOK := !c.policy.DisableDDO
	set, tag := c.Cache.Index(addr)
	chIdx := c.DRAM.ChannelIndex(addr)
	a := addr
	for i := uint64(0); i < n; i++ {
		w := entries[set]
		ch := c.DRAM.ChannelAt(chIdx)
		hit := w&cache.EntryValid != 0 && cache.EntryTagOf(w) == tag
		switch {
		case hit && ddoOK && w&cache.EntryLLCOwned != 0:
			c.hist[writeDDO]++
			ch.CASWrites++
			entries[set] = (w | cache.EntryDirty) &^ cache.EntryLLCOwned
		case hit:
			// DRAM read purely for the tag check, then the data write.
			c.hist[writeHit]++
			ch.CASReads++
			ch.CASWrites++
			entries[set] = (w | cache.EntryDirty) &^ cache.EntryLLCOwned
		default:
			ch.CASReads++
			if w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
				c.hist[writeMissDirty]++
				c.NVRAM.Write((uint64(cache.EntryTagOf(w))*sets + set) << mem.LineShift)
			} else {
				c.hist[writeMissClean]++
			}
			c.NVRAM.Read(a)
			// Fill write, then the data write of the incoming line.
			ch.CASWrites += 2
			entries[set] = cache.PackEntry(tag, cache.EntryValid|cache.EntryDirty)
		}
		set++
		if set == sets {
			set, tag = 0, tag+1
		}
		chIdx++
		if chIdx == nch {
			chIdx = 0
		}
		a += mem.Line
	}
}

// LLCWritebackReadRange services n interleaved (writeback, read) line
// pairs: for each i in [0, n), an LLCWrite of the line at waddr+i*64
// followed by an LLCRead of the line at raddr+i*64 — the stream an LLC
// filter emits in its streaming steady state, where every demand read
// evicts the dirty line `lag` lines behind it (waddr = raddr - lag*64).
// Counter results are byte-identical to the per-line interleave.
//
// When the write stream trails the read stream by 0 < lag < sets lines
// on a direct-mapped store with both allocate policies, the fold
// applies: after one predicated set wrap, every write hits the line its
// paired read installed lag pairs earlier (the Dirty Data Optimization
// case, or a plain tag hit with DDO disabled), and every read evicts
// the dirty line one set wrap back. Other configurations fall back to
// the per-line entry points.
//
//hot:entry batched streaming-store path, driven on pooled controllers
//alloc:free batched writeback+read path, 0 allocs/op by benchmark contract
func (c *Controller) LLCWritebackReadRange(waddr, raddr, n uint64) {
	if n == 0 {
		return
	}
	entries := c.Cache.DirectEntries()
	lag := (raddr >> mem.LineShift) - (waddr >> mem.LineShift)
	if entries == nil || !c.policy.ReadAllocate || !c.policy.WriteAllocate ||
		raddr <= waddr || lag == 0 || lag >= c.sets {
		for i := uint64(0); i < n; i++ {
			c.LLCWrite(waddr + i*mem.Line)
			c.LLCRead(raddr + i*mem.Line)
		}
		if c.sink != nil {
			c.maybeSample()
		}
		return
	}

	// Every read costs one DRAM data+tag read, hit or miss.
	c.DRAM.ReadRange(raddr, n)

	sets := c.sets
	head := min(n, sets)
	c.pairProbeWrap(entries, waddr, raddr, head)
	rem := n - head
	if rem > 0 {
		wa := waddr + head*mem.Line
		ra := raddr + head*mem.Line
		// Write stream: every write hits the line its paired read
		// installed lag pairs ago and still owns.
		if c.policy.DisableDDO {
			c.hist[writeHit] += rem
			c.DRAM.ReadRange(wa, rem)
		} else {
			c.hist[writeDDO] += rem
		}
		c.DRAM.WriteRange(wa, rem)
		// Read stream: every probe evicts the dirty line installed one
		// set wrap back, writes it back, refills, and reinstalls.
		c.hist[readMissDirty] += rem
		c.NVRAM.WriteLineRun(ra-sets*mem.Line, rem)
		c.NVRAM.ReadLineRun(ra, rem)
		c.DRAM.WriteRange(ra, rem)
		// Final tag state. A set's last toucher is the read stream when
		// no write follows it (the trailing lag pairs), the write
		// stream when no read revisits the set (the trailing sets-lag
		// write lines); both stamp the tag of the line involved, since
		// a write's set was (re)installed by its own paired read. Sets
		// last touched inside the probe wrap already hold their state.
		gw := min(rem, sets-lag)
		sw, tw := c.Cache.Index(waddr + (n-gw)*mem.Line)
		c.Cache.StampSeqRun(sw, tw, gw, cache.EntryValid|cache.EntryDirty)
		gr := min(rem, lag)
		sr, tr := c.Cache.Index(raddr + (n-gr)*mem.Line)
		c.Cache.StampSeqRun(sr, tr, gr, cache.EntryValid|cache.EntryLLCOwned)
	}
	if c.sink != nil {
		c.maybeSample()
	}
}

// pairProbeWrap services n interleaved (writeback, read) pairs (n <=
// sets) predicated against arbitrary tag state, folding each op to one
// packed-word load and store. The read stream's per-line DRAM data read
// is accounted by the caller for the whole range.
func (c *Controller) pairProbeWrap(entries []uint64, waddr, raddr, n uint64) {
	sets := c.sets
	nch := c.nch
	ddoOK := !c.policy.DisableDDO
	sw, tw := c.Cache.Index(waddr)
	cw := c.DRAM.ChannelIndex(waddr)
	sr, tr := c.Cache.Index(raddr)
	cr := c.DRAM.ChannelIndex(raddr)
	wa, ra := waddr, raddr
	for i := uint64(0); i < n; i++ {
		// Writeback op, LLCWrite semantics.
		w := entries[sw]
		ch := c.DRAM.ChannelAt(cw)
		hit := w&cache.EntryValid != 0 && cache.EntryTagOf(w) == tw
		switch {
		case hit && ddoOK && w&cache.EntryLLCOwned != 0:
			c.hist[writeDDO]++
			ch.CASWrites++
			entries[sw] = (w | cache.EntryDirty) &^ cache.EntryLLCOwned
		case hit:
			c.hist[writeHit]++
			ch.CASReads++
			ch.CASWrites++
			entries[sw] = (w | cache.EntryDirty) &^ cache.EntryLLCOwned
		default:
			ch.CASReads++
			if w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
				c.hist[writeMissDirty]++
				c.NVRAM.Write((uint64(cache.EntryTagOf(w))*sets + sw) << mem.LineShift)
			} else {
				c.hist[writeMissClean]++
			}
			c.NVRAM.Read(wa)
			ch.CASWrites += 2
			entries[sw] = cache.PackEntry(tw, cache.EntryValid|cache.EntryDirty)
		}
		// Demand read op, LLCRead semantics.
		w = entries[sr]
		if w&cache.EntryValid != 0 && cache.EntryTagOf(w) == tr {
			c.hist[readHit]++
			entries[sr] = w | cache.EntryLLCOwned
		} else {
			if w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
				c.hist[readMissDirty]++
				c.NVRAM.Write((uint64(cache.EntryTagOf(w))*sets + sr) << mem.LineShift)
			} else {
				c.hist[readMissClean]++
			}
			c.NVRAM.Read(ra)
			c.DRAM.ChannelAt(cr).CASWrites++
			entries[sr] = cache.PackEntry(tr, cache.EntryValid|cache.EntryLLCOwned)
		}
		sw++
		if sw == sets {
			sw, tw = 0, tw+1
		}
		sr++
		if sr == sets {
			sr, tr = 0, tr+1
		}
		cw++
		if cw == nch {
			cw = 0
		}
		cr++
		if cr == nch {
			cr = 0
		}
		wa += mem.Line
		ra += mem.Line
	}
}
