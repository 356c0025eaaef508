// Batched random dispatch: the random-traffic counterpart of the
// LLCReadRange/LLCWriteRange fast paths. Random demand defeats both of
// the controller's sequential-stream devices — the per-stream locator
// memo never hits, and every tag probe lands on a cold cache line of
// the (multi-megabyte) tag array. LLCScatter takes the whole batch at
// once and restructures the work two ways:
//
//  1. The request loop is split into chunked passes. A light pass
//     resolves each request's set/tag/channel and touches its tag word,
//     in a loop small enough that the out-of-order window holds dozens
//     of iterations — the random tag-array fetches overlap at the
//     memory system's full concurrency. The heavy pass then probes and
//     updates the same (now cache-warm) words IN REQUEST ORDER, so the
//     tag state sequence, every imc counter, and the per-channel CAS
//     counts are byte-identical to serial dispatch by construction.
//
//  2. NVRAM device calls are not issued inside the heavy pass (a
//     call per miss on an unpredictable branch). Each miss's fill read
//     and each dirty victim's writeback are instead staged — still in
//     request order — per chunk and handed to the nvram package's batch
//     entry points, one per direction. Legality: the interleave map is
//     a pure function of the address, DIMMs share no state, and within
//     one DIMM the read path (read memo, media read count) and the
//     write path (combining buffer, write memo, media write count)
//     touch disjoint fields — so the only orders that matter are the
//     per-DIMM same-direction orders, which staging preserves exactly.
//     Every interface and media counter is byte-identical to serial
//     dispatch; the differential tests and FuzzDispatchMatchesPerLine
//     pin this against the per-line path across all policy ablations.
//     See DESIGN.md §4e for the full argument.
//
// Only the hardware policy on a direct-mapped store takes this path;
// every other configuration runs each request through line.
package imc

import (
	"twolm/internal/cache"
	"twolm/internal/fastdiv"
	"twolm/internal/mem"
)

// Req is one LLC-level request, packed into a single word: the
// line-aligned address with the operation in the low (sub-line) bits.
// Build with ReadReq/WriteReq.
type Req uint64

const (
	// reqWrite marks a writeback; clear means a demand read. Line
	// addresses are 64 B aligned, so the low six bits are free.
	reqWrite uint64 = 1

	lineMask = uint64(mem.Line - 1)
)

// ReadReq packs a demand read (load miss / RFO) of addr's line.
func ReadReq(addr uint64) Req { return Req(addr &^ lineMask) }

// WriteReq packs an LLC writeback (or nontemporal store) of addr's line.
func WriteReq(addr uint64) Req { return Req(addr&^lineMask | reqWrite) }

// Addr returns the request's line address.
func (r Req) Addr() uint64 { return uint64(r) &^ lineMask }

// Write reports whether r is a writeback.
func (r Req) Write() bool { return uint64(r)&reqWrite != 0 }

// chiWrite marks a writeback in the packed channel word of the chunk
// scratch; the channel index occupies the low 31 bits.
const chiWrite uint32 = 1 << 31

// dispatchChunk is the two-pass granularity: small enough that a
// chunk's resolved tag words survive in cache until the heavy pass
// reuses them, large enough to amortize the loop split.
const dispatchChunk = 512

// scatterState is the controller-owned scratch of LLCScatter, reused
// across batches so the steady-state random path allocates nothing.
type scatterState struct {
	serial bool // geometry exceeds the packed channel encoding

	// touchSink keeps the resolve pass's tag-word loads observable:
	// accumulating into controller-owned memory stops the compiler
	// from discarding the loads as dead code (which would silently
	// turn the touch into pure bounds checks and reintroduce the
	// stalls it exists to hide). Controller-owned rather than a
	// package variable so concurrent controllers (sweep workers, the
	// suite's parallel jobs) never share a write target.
	touchSink uint64

	// Per-chunk scratch of the resolve pass.
	cset [dispatchChunk]uint64
	ctag [dispatchChunk]uint32
	cchi [dispatchChunk]uint32 // channel | chiWrite

	// Per-chunk deferred-NVRAM staging: fill reads and victim
	// writebacks collected by the heavy pass through register cursors.
	cfill [dispatchChunk]uint64
	cvict [dispatchChunk]uint64

	casR []uint64 // per-channel CAS deltas of the current batch
	casW []uint64

	// Divisor copies for resolving requests: DivMod/Mod on a local
	// Divisor value inline fully, where the cache and DRAM method
	// calls per request do not. Same construction, same quotients.
	setDiv fastdiv.Divisor
	chDiv  fastdiv.Divisor
}

// initScatter builds the resolve divisors and sizes the fixed scratch.
func (c *Controller) initScatter() {
	st := &c.scat
	st.setDiv = fastdiv.New(c.sets)
	st.chDiv = fastdiv.New(uint64(c.nch))
	// The chunk scratch packs the channel index beside the operation
	// bit; a geometry exceeding 31 bits of channel index (never built
	// in practice) falls back to serial dispatch instead of truncating.
	if uint64(c.nch) >= uint64(chiWrite) {
		st.serial = true
		return
	}
	st.casR = make([]uint64, c.nch)
	st.casW = make([]uint64, c.nch)
}

// scatterSerial dispatches a batch through line in request order: the
// ablation policies, the associative (Ways > 1) stores and geometry
// fallbacks.
func (c *Controller) scatterSerial(reqs []Req) {
	st := &c.scat
	for _, r := range reqs {
		a := r.Addr()
		tag, set := st.setDiv.DivMod(a >> mem.LineShift)
		ch := st.chDiv.Mod(a >> mem.LineShift)
		c.line(set, uint32(tag), int(ch), a, r.Write())
	}
	if c.tel.On() {
		c.maybeSample()
	}
}

// LLCScatter services a mixed batch of packed requests. Counter
// results — imc.Counters, per-channel CAS, NVRAM interface and media
// counters — are byte-identical to dispatching each request serially
// in slice order (the differential tests pin this); requests are
// processed in slice order, with only the NVRAM device calls regrouped
// per direction.
//
//hot:entry mixed-batch dispatch path, driven on pooled controllers
//alloc:free 0 allocs/op by benchmark contract (PR 7 steady-state guarantee)
func (c *Controller) LLCScatter(reqs []Req) {
	if len(reqs) == 0 {
		return
	}
	st := &c.scat
	words := c.Cache.DirectEntries()
	p := c.policy
	if st.serial || words == nil || !p.ReadAllocate || !p.WriteAllocate || p.DisableDDO {
		c.scatterSerial(reqs)
		return
	}
	clear(st.casR)
	clear(st.casW)
	c.dispatchHW(words, reqs)
	for i, r := range st.casR {
		c.DRAM.ChannelAt(i).CASReads += r
	}
	for i, w := range st.casW {
		c.DRAM.ChannelAt(i).CASWrites += w
	}
	if c.tel.On() {
		c.maybeSample()
	}
}

// dispatchHW is the dispatch loop for the configuration every headline
// experiment runs: direct mapped (Ways==1) with the hardware policy
// (read + write allocate, DDO on). The tag outcome splits the demand
// stream roughly in half under random traffic, so any branch on it
// mispredicts constantly; the heavy pass is straight-line instead —
// every counter update is predicated arithmetic on the probe outcome
// bits, and the deferred NVRAM appends store unconditionally with a
// masked cursor bump (the slot is overwritten when the request defers
// nothing). Counter results are identical to the per-line path (the
// differential tests and FuzzDispatchMatchesPerLine pin this).
func (c *Controller) dispatchHW(words []uint64, reqs []Req) {
	st := &c.scat
	sets := c.sets
	casR, casW := st.casR, st.casW
	// Outcome accumulators live in plain locals so they stay in
	// registers: a += on a histogram slot is a memory read-modify-write
	// whose store the next iteration's load depends on. Six counts fix
	// the seven Table I outcomes, filled into the histogram once at the
	// end.
	var nW, nHit, nWHit, nMissD, nWMissD, nDDO uint64
	for off := 0; off < len(reqs); off += dispatchChunk {
		chunk := reqs[off:]
		if len(chunk) > dispatchChunk {
			chunk = chunk[:dispatchChunk]
		}
		// Resolve pass: split each address once, with fully inlined
		// divisor arithmetic — the cache and DRAM method calls would
		// cost a call per request.
		for k, r := range chunk {
			line := (uint64(r) &^ lineMask) >> mem.LineShift
			tag, set := st.setDiv.DivMod(line)
			st.cset[k] = set
			st.ctag[k] = uint32(tag)
			st.cchi[k] = uint32(st.chDiv.Mod(line)) | uint32(uint64(r)&reqWrite)<<31
		}
		// Touch pass: pull the chunk's tag words toward the core. Three
		// micro-ops per iteration, so the reorder window holds dozens
		// of them and the random fetches overlap at the memory system's
		// full concurrency, where the heavy pass below would stall on
		// them a few at a time.
		var touch uint64
		for k := range chunk {
			touch += words[st.cset[k]]
		}
		st.touchSink += touch
		// Heavy pass, in request order: probe, predicated counters and
		// tag-word update, masked staging of the deferred NVRAM work.
		var nf, nv int
		for k, r := range chunk {
			a := uint64(r) &^ lineMask
			set := st.cset[k]
			tag := st.ctag[k]
			chi := st.cchi[k] &^ chiWrite
			isW := uint64(st.cchi[k] >> 31)
			w := words[set]

			// Probe outcome as 0/1 predicates. The packed-entry flag
			// layout (EntryValid=1<<0, EntryDirty=1<<1,
			// EntryLLCOwned=1<<2, tag above bit 8) is part of the cache
			// package's exported word format: masking the dirty and
			// owned bits off the resident word leaves exactly the valid
			// tag image to compare against.
			var hit, dv, ddo uint64
			if w&^(cache.EntryDirty|cache.EntryLLCOwned) == cache.PackEntry(tag, cache.EntryValid) {
				hit = 1
			}
			if w&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
				dv = 1 - hit // miss with valid dirty victim
			}
			miss := 1 - hit
			ddo = isW & hit & (w >> 2) & 1

			nW += isW
			nHit += hit
			nWHit += isW & hit
			nMissD += dv
			nWMissD += isW & dv
			nDDO += ddo
			casR[chi] += 1 - ddo
			casW[chi] += miss + isW

			// Stage the miss's fill read and the dirty victim's
			// writeback, in request order, through register cursors:
			// the slot is stored unconditionally and abandoned when the
			// cursor does not advance (the reconstructed victim address
			// is garbage when dv is 0, and discarded the same way).
			st.cfill[nf] = a
			nf += int(miss)
			va := (uint64(cache.EntryTagOf(w))*sets + set) << mem.LineShift
			st.cvict[nv] = va
			nv += int(dv)

			// New entry word: a read hit gains the LLC-owned flag, a
			// write hit gains dirty and drops owned, and a miss installs
			// the incoming tag (owned for reads, dirty for writes).
			addBits := cache.EntryLLCOwned - 2*isW // 4 on reads, 2 on writes
			nw := cache.PackEntry(tag, cache.EntryValid|addBits)
			if hit == 1 {
				nw = (w | addBits) &^ (cache.EntryLLCOwned * isW)
			}
			words[set] = nw
		}
		// Hand the staged work to the device model, still in request
		// order per direction (reads and writes commute within a DIMM,
		// so splitting the directions preserves byte-identity).
		c.NVRAM.ReadBatch(st.cfill[:nf])
		c.NVRAM.WriteBatch(st.cvict[:nv])
	}
	nR := uint64(len(reqs)) - nW
	c.hist[readHit] += nHit - nWHit
	c.hist[readMissDirty] += nMissD - nWMissD
	c.hist[readMissClean] += nR - (nHit - nWHit) - (nMissD - nWMissD)
	c.hist[writeDDO] += nDDO
	c.hist[writeHit] += nWHit - nDDO
	c.hist[writeMissDirty] += nWMissD
	c.hist[writeMissClean] += nW - nWHit - nWMissD
}
