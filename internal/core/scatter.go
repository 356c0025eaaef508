// The Batch builder is the random-traffic fast path of the demand
// pipeline: the Range forms batch *consecutive* lines, Batch batches
// *arbitrary* ones, and is the only exported way to issue demand on
// them. Workloads append Load/Store/RMW/StoreNT operations
// and the builder dispatches them in bulk — the on-chip LLC filter
// runs in appended order (its outcomes are order-sensitive and cheap),
// and the surviving requests go to the memory's LLCScatter entry point
// one chunk at a time instead of one call per line, in both modes.
// Counter results are byte-identical to calling the per-line
// operations in appended order (the differential tests in
// batch_test.go pin this); when a tap is installed, operations fall
// through to the per-line calls so traces observe every operation.
package core

import (
	"twolm/internal/cache"
	"twolm/internal/fastdiv"
	"twolm/internal/imc"
	"twolm/internal/mem"
)

// Batch operation encoding: the line-aligned address with the op in
// the low (sub-line) bits.
const (
	batchOpLoad uint64 = iota
	batchOpStore
	batchOpRMW
	batchOpStoreNT
	batchOpMask uint64 = 3

	batchLineMask = uint64(mem.Line - 1)
)

// batchChunk is the builder's capacity and the filter's granularity:
// Batch holds at most batchChunk pending operations, and a full chunk
// is filtered and handed to the memory in one LLCScatter call on the
// next append, so both buffers are fixed arrays (the request buffer is
// 2*batchChunk: a miss may emit a victim writeback and a fill read).
const batchChunk = 1 << 12

// batchSampleOps is the telemetry cadence of the batched path: a
// System with a sink samples after every batchSampleOps appended
// operations and at every Flush. It is independent of batchChunk, so
// the chunk size does not move the sampling points.
const batchSampleOps = 1 << 20

// Batch accumulates demand operations for bulk dispatch. Obtain one
// with System.Batch; the zero value is not usable.
//
// Appended operations reach the LLC and the memory only when their
// chunk is dispatched: when it fills, at Flush, or at the System's
// Sync and DrainLLC, which flush first. Per-line calls, Range forms
// and counter reads must not be mixed with unflushed Batch operations:
// they would run ahead of them.
type Batch struct {
	sys *System
	// n counts the pending operations in ops[:n].
	n uint
	// chunks counts the full chunks dispatched since the last sample
	// point (batchSampleOps/batchChunk of them make one).
	chunks uint
	ops    [batchChunk]uint64
	reqs   [2 * batchChunk]imc.Req
}

// Batch returns the system-owned batch builder, creating it on first
// use. The builder (and its buffers) is reused across flushes, so the
// steady-state random path allocates nothing. The System is not safe
// for concurrent use and neither is its builder.
func (s *System) Batch() *Batch {
	if s.batch == nil {
		s.batch = &Batch{sys: s}
	}
	return s.batch
}

// add appends one operation. With a tap installed the pending chunk
// drains and the operation takes the per-line path, so taps observe
// the stream exactly as generated. The body is only the two checks
// and the store; the tap and chunk-full cases are outlined in addSlow.
//
//alloc:free per-op append path; the ops buffer is a fixed array
func (b *Batch) add(addr, op uint64) {
	if b.sys.tap != nil || b.n >= batchChunk {
		b.addSlow(addr, op)
		return
	}
	b.ops[b.n] = addr&^batchLineMask | op
	b.n++
}

// addSlow handles the cold cases of add: dispatching a full chunk
// (sampling telemetry after every batchSampleOps operations), and
// routing operations through the per-line path when a tap is installed.
func (b *Batch) addSlow(addr, op uint64) {
	s := b.sys
	if s.tap != nil {
		b.Flush()
		switch op {
		case batchOpLoad:
			s.load(addr)
		case batchOpStore:
			s.store(addr)
		case batchOpRMW:
			s.rmw(addr)
		default:
			s.storeNT(addr)
		}
		return
	}
	b.dispatch()
	b.chunks++
	if b.chunks == batchSampleOps/batchChunk {
		b.chunks = 0
		if s.tel.On() {
			s.maybeSample()
		}
	}
	b.ops[0] = addr&^batchLineMask | op
	b.n = 1
}

// Load appends a demand load of the line containing addr.
func (b *Batch) Load(addr uint64) { b.add(addr, batchOpLoad) }

// Store appends a standard store to the line containing addr.
func (b *Batch) Store(addr uint64) { b.add(addr, batchOpStore) }

// RMW appends a read-modify-write of the line containing addr.
func (b *Batch) RMW(addr uint64) { b.add(addr, batchOpRMW) }

// LoadOrStore appends a load when sel's low bit is 0 and a store when
// it is 1 — the branch-free form of an alternating random pass, where
// an if on the (pseudo-random) parity would mispredict half the time.
func (b *Batch) LoadOrStore(addr, sel uint64) { b.add(addr, sel&batchOpStore) }

// StoreNT appends a nontemporal store to the line containing addr.
func (b *Batch) StoreNT(addr uint64) { b.add(addr, batchOpStoreNT) }

// Flush dispatches all pending operations. Call it once after the last
// append (Sync and DrainLLC call it too); full chunks dispatch as they
// fill.
//
// Chunked dispatch is byte-identical to one LLCScatter over the whole
// stream because the LLC filter and the memory share no state, and the
// memory services each call in slice order. Only sampling could tell
// them apart: imc samples once per LLCScatter call, so a sink on the
// controller would see one sample per chunk. core never gives its
// controller a sink (System samples every batchSampleOps operations
// and at Flush instead); keep it so.
//
//alloc:free flush reuses the request buffer; 0 allocs/op by benchmark contract
func (b *Batch) Flush() {
	if b.n == 0 {
		return
	}
	b.dispatch()
	b.chunks = 0
	if b.sys.tel.On() {
		b.sys.maybeSample()
	}
}

// dispatch filters the pending operations and hands their requests to
// the memory behind the LLC.
func (b *Batch) dispatch() {
	b.sys.mc.LLCScatter(b.filter(b.ops[:b.n]))
	b.n = 0
}

// filter runs the LLC filter over at most batchChunk operations in
// appended order and returns the resulting memory request stream
// (victim writebacks interleaved before their misses' fills, exactly
// as llcTouch would issue them).
//
// The filter works directly on the LLC's flat packed tag array: one
// load and one store per operation, with the hit/miss outcome applied
// as predicated arithmetic. Under random demand the outcome is a coin
// flip, so branching on it would mispredict constantly; the emitted
// requests are written through an unconditionally-stored cursor (the
// next slot is overwritten when an operation contributes nothing)
// instead of branchy appends. Results are byte-identical to the
// per-line filter in appended order.
func (b *Batch) filter(ops []uint64) []imc.Req {
	s := b.sys
	rq := &b.reqs
	idx := 0
	var bytes uint64
	words := s.llc.DirectEntries()
	sets := s.llc.Sets()
	// The on-chip LLC is orders of magnitude smaller than the DRAM
	// cache, so its tag array stays cache-resident under the filter
	// loop — no touch pass needed. The set split uses a local divisor
	// copy (DivMod on a Divisor value inlines; the method call per
	// operation does not).
	setDiv := fastdiv.New(sets)
	for _, w := range ops {
		addr := w &^ batchLineMask
		op := w & batchOpMask
		tag64, set := setDiv.DivMod(addr >> mem.LineShift)
		tag := uint32(tag64)
		e := words[set]
		if op == batchOpStoreNT {
			bytes += mem.Line
			if llcHit(e, tag) {
				// NT stores invalidate a cached copy without
				// writing it back.
				words[set] = 0
			}
			rq[idx] = imc.WriteReq(addr)
			idx++
			continue
		}
		bytes += mem.Line + mem.Line*(op>>1) // RMW moves two lines
		dbit := ((op | op>>1) & 1) << 1      // cache.EntryDirty on stores and RMWs

		var hit, dv uint64
		if llcHit(e, tag) {
			hit = 1
		}
		if llcDirty(e) {
			dv = 1 - hit // miss evicting a dirty victim
		}

		// Victim writeback (if any) precedes the demand read; a
		// hit contributes nothing and both stores are overwritten.
		rq[idx] = imc.WriteReq(llcLineAddr(e, set, sets))
		idx += int(dv)
		rq[idx] = imc.ReadReq(addr)
		idx += int(1 - hit)

		nw := cache.PackEntry(tag, cache.EntryValid|dbit)
		if hit == 1 {
			nw = e | dbit
		}
		words[set] = nw
	}
	s.demandBytes += bytes
	return rq[:idx]
}
