package compiler

import (
	"slices"
	"testing"
	"testing/quick"

	"twolm/internal/core"
	"twolm/internal/mem"
	"twolm/internal/nn"
	"twolm/internal/platform"
)

// tinyProgram builds a small training program.
func tinyProgram(t *testing.T, batch int) *nn.Program {
	t.Helper()
	b := nn.NewBuilder("tiny", batch)
	x := b.Input(16, 16, 3)
	x = b.Conv(x, 3, 1, 1, 8)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	y := b.Conv(x, 3, 1, 1, 8)
	x = b.Concat(x, y)
	x = b.GlobalAvgPool(x)
	logits := b.FC(x, 10)
	p, err := b.Train(logits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func compileTiny(t *testing.T, batch int, scale uint64) *Plan {
	t.Helper()
	plan, err := Compile(tinyProgram(t, batch), scale)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestCompileRejectsBadScale(t *testing.T) {
	p := tinyProgram(t, 2)
	for _, s := range []uint64{0, 3, 1000} {
		if _, err := Compile(p, s); err == nil {
			t.Errorf("scale %d accepted", s)
		}
	}
}

// TestNoOverlap is the allocator's core invariant.
func TestNoOverlap(t *testing.T) {
	plan := compileTiny(t, 8, 1)
	if err := plan.CheckNoOverlap(); err != nil {
		t.Fatal(err)
	}
}

// TestHeapReuse: the heap must be smaller than the sum of all tensors
// (lifetime reuse) but at least as large as the peak live set.
func TestHeapReuse(t *testing.T) {
	plan := compileTiny(t, 8, 1)
	var total uint64
	for _, b := range plan.Bytes {
		total += b
	}
	if plan.HeapSize >= total {
		t.Errorf("heap %d >= total tensor bytes %d: no reuse", plan.HeapSize, total)
	}
	peak := uint64(0)
	for k := range plan.Prog.Kernels {
		if l := plan.LiveBytesAt(k); l > peak {
			peak = l
		}
	}
	if plan.HeapSize < peak {
		t.Errorf("heap %d below peak live bytes %d", plan.HeapSize, peak)
	}
}

// TestLivenessBounds: FirstDef <= LastUse for every dynamic tensor.
func TestLivenessBounds(t *testing.T) {
	plan := compileTiny(t, 4, 1)
	for i := range plan.Bytes {
		if plan.Prog.Tensors[i].Kind == nn.Weight {
			if plan.LastUse[i] != len(plan.Prog.Kernels) {
				t.Errorf("weight %d LastUse = %d", i, plan.LastUse[i])
			}
			continue
		}
		if plan.FirstDef[i] < 0 || plan.LastUse[i] < plan.FirstDef[i] {
			t.Errorf("tensor %d lifetime [%d, %d] invalid", i, plan.FirstDef[i], plan.LastUse[i])
		}
	}
}

// TestLivenessAccumulatesInForward: the paper's Figure 5d — live bytes
// peak near the forward/backward boundary.
func TestLivenessAccumulatesInForward(t *testing.T) {
	plan := compileTiny(t, 8, 1)
	start := plan.LiveBytesAt(1)
	boundary := plan.LiveBytesAt(plan.Prog.ForwardKernels - 1)
	end := plan.LiveBytesAt(len(plan.Prog.Kernels) - 1)
	if boundary <= start {
		t.Errorf("live bytes did not grow through forward: %d -> %d", start, boundary)
	}
	if end >= boundary {
		t.Errorf("live bytes did not shrink through backward: %d -> %d", boundary, end)
	}
}

// TestScalingDividesFootprint: scaled heap is ~1/scale of full size.
func TestScalingDividesFootprint(t *testing.T) {
	full := compileTiny(t, 512, 1)
	scaled := compileTiny(t, 512, 4)
	ratio := float64(full.HeapSize) / float64(scaled.HeapSize)
	if ratio < 3 || ratio > 5 {
		t.Errorf("scale-4 heap ratio = %.2f, want ~4", ratio)
	}
	if err := scaled.CheckNoOverlap(); err != nil {
		t.Fatal(err)
	}
}

// TestTensorBytesLineAligned: all scaled sizes are line multiples.
func TestTensorBytesLineAligned(t *testing.T) {
	plan := compileTiny(t, 8, 2)
	for i, b := range plan.Bytes {
		if b == 0 || b%mem.Line != 0 {
			t.Errorf("tensor %d bytes %d not a positive line multiple", i, b)
		}
		if plan.Offsets[i]%mem.Line != 0 {
			t.Errorf("tensor %d offset %d not line aligned", i, plan.Offsets[i])
		}
	}
}

// TestFreeListProperty: random alloc/free sequences never produce
// overlapping live allocations.
func TestFreeListProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		var fl freeList
		type span struct{ off, size uint64 }
		var live []span
		for i, raw := range sizes {
			size := uint64(raw%2048) + 64
			off := fl.alloc(size)
			// Check against all live spans.
			for _, s := range live {
				if off < s.off+s.size && s.off < off+size {
					return false
				}
			}
			live = append(live, span{off, size})
			// Free a pseudo-random earlier span occasionally.
			if i%3 == 2 && len(live) > 1 {
				idx := i % len(live)
				fl.free(live[idx].off, live[idx].size)
				live = append(live[:idx], live[idx+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFreeListCoalescing(t *testing.T) {
	var fl freeList
	a := fl.alloc(128)
	bOff := fl.alloc(128)
	c := fl.alloc(128)
	end := fl.end
	fl.free(a, 128)
	fl.free(c, 128)
	fl.free(bOff, 128) // middle free should coalesce all three
	if len(fl.blocks) != 1 || fl.blocks[0].size != 384 {
		t.Fatalf("coalescing failed: %+v", fl.blocks)
	}
	// A new allocation must reuse the coalesced block, not grow.
	fl.alloc(384)
	if fl.end != end {
		t.Error("allocation grew the heap despite a fitting free block")
	}
}

func TestKernelBytes(t *testing.T) {
	plan := compileTiny(t, 4, 1)
	for ki := range plan.Prog.Kernels {
		r, w := plan.KernelBytes(ki)
		if w == 0 {
			t.Errorf("kernel %d writes 0 bytes", ki)
		}
		_ = r
	}
}

// TestExecuteProducesTraffic: a 2LM execution generates traffic of the
// right order: total demand equals the sum of kernel reads+writes.
func TestExecuteProducesTraffic(t *testing.T) {
	plan := compileTiny(t, 16, 1)
	sys, err := core.New(core.Config{
		Platform: platform.Config{
			Sockets: 1, ChannelsPerSocket: 6,
			DRAMPerChannel:  mem.MiB,
			NVRAMPerChannel: 64 * mem.MiB,
			Scale:           1, Threads: 24,
		},
		Mode:     core.Mode2LM,
		LLCBytes: 16 * mem.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, sys, ExecConfig{WarmupIterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
	if res.Counters.Demand() == 0 {
		t.Error("no demand traffic")
	}
	// One labeled sample per kernel plus the drain.
	if res.Series.Len() != len(plan.Prog.Kernels)+1 {
		t.Errorf("series has %d samples, want %d", res.Series.Len(), len(plan.Prog.Kernels)+1)
	}
}

// TestExecuteSeriesDetached: the returned series is a copy, so work
// the system does after Execute leaves it unchanged.
func TestExecuteSeriesDetached(t *testing.T) {
	plan := compileTiny(t, 16, 1)
	sys, err := core.New(core.Config{
		Platform: platform.Config{
			Sockets: 1, ChannelsPerSocket: 6,
			DRAMPerChannel:  mem.MiB,
			NVRAMPerChannel: 64 * mem.MiB,
			Scale:           1, Threads: 24,
		},
		Mode:     core.Mode2LM,
		LLCBytes: 16 * mem.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, sys, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(res.Series.Samples())
	sys.Sync("after", 1e-3)
	if got := res.Series.Samples(); !slices.Equal(got, want) {
		t.Errorf("a Sync after Execute changed the result's series: %d samples, want %d", len(got), len(want))
	}
	if n := sys.Series().Len(); n != len(want)+1 {
		t.Errorf("system series has %d samples, want %d", n, len(want)+1)
	}
}

// TestWarmupImprovesHitRate: with a cache larger than the footprint,
// the warmed iteration should hit much more than a cold one.
func TestWarmupImprovesHitRate(t *testing.T) {
	plan := compileTiny(t, 16, 1)
	mk := func(warmup int) float64 {
		sys, err := core.New(core.Config{
			Platform: platform.Config{
				Sockets: 1, ChannelsPerSocket: 6,
				DRAMPerChannel:  16 * mem.MiB, // plenty of cache
				NVRAMPerChannel: 256 * mem.MiB,
				Scale:           1, Threads: 24,
			},
			Mode:     core.Mode2LM,
			LLCBytes: 16 * mem.KiB,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(plan, sys, ExecConfig{WarmupIterations: warmup})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.HitRate()
	}
	cold, warm := mk(0), mk(1)
	if warm <= cold {
		t.Errorf("warmup did not improve hit rate: cold %.3f warm %.3f", cold, warm)
	}
}

func TestKernelSecondsPositive(t *testing.T) {
	plan := compileTiny(t, 8, 1)
	for ki := range plan.Prog.Kernels {
		if s := plan.KernelSeconds(ki, ExecConfig{}); s < 0 {
			t.Errorf("kernel %d negative compute time", ki)
		}
	}
	// More threads = faster.
	convIdx := 1 // the first conv
	t4 := plan.KernelSeconds(convIdx, ExecConfig{Threads: 4})
	t24 := plan.KernelSeconds(convIdx, ExecConfig{Threads: 24})
	if t24 >= t4 {
		t.Errorf("24-thread compute %.3g not faster than 4-thread %.3g", t24, t4)
	}
}
