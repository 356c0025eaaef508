// The Batch builder is the random-traffic fast path of the demand
// pipeline: the Range forms batch *consecutive* lines, Batch batches
// *arbitrary* ones. Workloads append Load/Store/RMW/StoreNT operations
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

// batchFlushOps caps the pending-operation buffer; appending past the
// cap flushes automatically, so callers only need a final Flush.
const batchFlushOps = 1 << 20

// batchChunk is the filter's granularity: Flush filters at most
// batchChunk pending operations at a time and hands their requests to
// the memory in one LLCScatter call, so the request buffer is a fixed
// 2*batchChunk (a miss may emit a victim writeback and a fill read).
const batchChunk = 1 << 12

// Batch accumulates demand operations for bulk dispatch. Obtain one
// with System.Batch; the zero value is not usable.
type Batch struct {
	sys  *System
	ops  []uint64
	reqs [2 * batchChunk]imc.Req
}

// Batch returns the system-owned batch builder, creating it on first
// use. The builder (and its buffers) is reused across flushes, so the
// steady-state random path allocates nothing. The System is not safe
// for concurrent use and neither is its builder.
func (s *System) Batch() *Batch {
	if s.batch == nil {
		s.batch = &Batch{sys: s, ops: make([]uint64, 0, batchFlushOps)}
	}
	return s.batch
}

// add appends one operation, flushing at the buffer cap. With a tap
// installed the pending buffer drains and the operation takes the
// per-line path, so taps observe the stream exactly as generated.
// The body is only the append so it inlines into the per-op generator
// loops; the tap and buffer-full cases are outlined in addSlow.
//
//alloc:free per-op append path; the ops buffer is preallocated at batchFlushOps capacity
func (b *Batch) add(addr, op uint64) {
	if b.sys.tap != nil || len(b.ops) >= batchFlushOps {
		b.addSlow(addr, op)
		return
	}
	b.ops = append(b.ops, addr&^batchLineMask|op)
}

// addSlow handles the cold cases of add: draining a full buffer, and
// routing operations through the per-line path when a tap is installed.
func (b *Batch) addSlow(addr, op uint64) {
	b.Flush()
	if b.sys.tap != nil {
		switch op {
		case batchOpLoad:
			b.sys.Load(addr)
		case batchOpStore:
			b.sys.Store(addr)
		case batchOpRMW:
			b.sys.RMW(addr)
		default:
			b.sys.StoreNT(addr)
		}
		return
	}
	b.ops = append(b.ops, addr&^batchLineMask|op)
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

// Flush dispatches all pending operations. Always call once after the
// last append; intermediate flushes happen automatically.
//
// The chunks are byte-identical to one LLCScatter over the whole batch
// because the LLC filter and the memory share no state, and the memory
// services each call in slice order. Only sampling could tell them
// apart: imc samples once per LLCScatter call, so a sink on the
// controller would see one sample per chunk. core never gives its
// controller a sink (System samples at Flush instead); keep it so.
//
//alloc:free flush reuses the request buffer; 0 allocs/op by benchmark contract
func (b *Batch) Flush() {
	if len(b.ops) == 0 {
		return
	}
	s := b.sys
	for off := 0; off < len(b.ops); off += batchChunk {
		s.mc.LLCScatter(b.filter(b.ops[off:min(off+batchChunk, len(b.ops))]))
	}
	b.ops = b.ops[:0]
	if s.tel.On() {
		s.maybeSample()
	}
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
			if e&^(cache.EntryDirty|cache.EntryLLCOwned) == cache.PackEntry(tag, cache.EntryValid) {
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
		if e&^(cache.EntryDirty|cache.EntryLLCOwned) == cache.PackEntry(tag, cache.EntryValid) {
			hit = 1
		}
		if e&(cache.EntryValid|cache.EntryDirty) == cache.EntryValid|cache.EntryDirty {
			dv = 1 - hit // miss evicting a dirty victim
		}

		// Victim writeback (if any) precedes the demand read; a
		// hit contributes nothing and both stores are overwritten.
		rq[idx] = imc.WriteReq((uint64(cache.EntryTagOf(e))*sets + set) << mem.LineShift)
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
