package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"twolm/internal/imc"
	"twolm/internal/mem"
	"twolm/internal/telemetry"
)

// Geometry of the split tests: 768 serial cache lines, so the set
// count is divisible by every tested channel count at 1 and 4 ways.
const (
	testDRAM  = 48 * mem.KiB
	testNVRAM = 288 * mem.KiB
)

// randomOps generates a reproducible mixed read/write stream over the
// NVRAM address range, line-aligned with occasional sub-line offsets.
func randomOps(seed int64, n int) []llcOp {
	rng := rand.New(rand.NewSource(seed))
	lines := uint64(testNVRAM / mem.Line)
	ops := make([]llcOp, n)
	for i := range ops {
		addr := (rng.Uint64() % lines) * mem.Line
		if rng.Intn(4) == 0 {
			addr += rng.Uint64() % mem.Line // sub-line offset
		}
		ops[i] = llcOp{Write: rng.Intn(3) == 0, Addr: addr}
	}
	return ops
}

// ablationPolicies is the differential-test policy matrix: every
// ablation crossed with direct-mapped and 4-way associativity.
func ablationPolicies() map[string]imc.Policy {
	hw := imc.HardwarePolicy()
	noWA := hw
	noWA.WriteAllocate = false
	noRA := hw
	noRA.ReadAllocate = false
	noDDO := hw
	noDDO.DisableDDO = true
	out := map[string]imc.Policy{}
	for name, p := range map[string]imc.Policy{
		"hardware": hw, "no-write-allocate": noWA, "no-read-allocate": noRA, "no-ddo": noDDO,
	} {
		for _, ways := range []int{1, 4} {
			p.Ways = ways
			out[fmt.Sprintf("%s-w%d", name, ways)] = p
		}
	}
	return out
}

// TestChannelSplitMatchesSerial is the property the multichannel
// self-check rests on: for every channel count dividing the set count
// and every policy, the line-interleaved split's merged counters equal
// the single-controller run's, and each channel serves exactly the ops
// whose line is congruent to it mod N.
func TestChannelSplitMatchesSerial(t *testing.T) {
	for name, policy := range ablationPolicies() {
		for _, channels := range []int{2, 3, 6} {
			ops := randomOps(int64(len(name))*1000+int64(channels), 20000)

			serial, err := newController(1, testDRAM, testNVRAM, imc.WithPolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			split, err := newChannelSplit(channels, testDRAM, testNVRAM, policy)
			if err != nil {
				t.Fatal(err)
			}
			routed := make([]uint64, channels)
			for _, op := range ops {
				if op.Write {
					serial.LLCWrite(op.Addr)
				} else {
					serial.LLCRead(op.Addr)
				}
				split.apply(op)
				routed[(op.Addr>>mem.LineShift)%uint64(channels)]++
			}

			perChannel := split.counters()
			if got, want := MergeCounters(perChannel...), serial.Counters(); got != want {
				t.Errorf("%s channels=%d: counters diverge\n merged %v\n serial %v", name, channels, got, want)
			}
			for ch, ctr := range perChannel {
				if ctr.Demand() != routed[ch] {
					t.Errorf("%s channels=%d: channel %d served %d demands, want %d",
						name, channels, ch, ctr.Demand(), routed[ch])
				}
			}
		}
	}
}

// TestMultiChannelValidation: a channel count that does not split the
// capacities into whole sets and lines is an error naming the count,
// from Validate and from MultiChannel alike, never a panic — and so is
// every malformed split geometry.
func TestMultiChannelValidation(t *testing.T) {
	for _, channels := range []int{-1, 5, 7, 1 << 62} {
		cfg := MultiChannelConfig{Channels: channels}
		_, runErr := MultiChannel(cfg)
		for name, err := range map[string]error{"Validate": cfg.Validate(), "MultiChannel": runErr} {
			if err == nil {
				t.Errorf("%s channels=%d: accepted", name, channels)
			} else if !strings.Contains(err.Error(), fmt.Sprint(channels)) {
				t.Errorf("%s channels=%d: error does not name the count: %v", name, channels, err)
			}
		}
	}
	for _, channels := range []int{0, 1, 2, 3, 6, 12} {
		if err := (MultiChannelConfig{Channels: channels}).Validate(); err != nil {
			t.Errorf("channels=%d rejected: %v", channels, err)
		}
	}

	type geometry struct {
		channels    int
		dram, nvram uint64
		ways        int
	}
	base := geometry{channels: 6, dram: testDRAM, nvram: testNVRAM, ways: 1}
	cases := map[string]func(*geometry){
		"zero channels":        func(g *geometry) { g.channels = 0 },
		"negative channels":    func(g *geometry) { g.channels = -1 },
		"zero ways":            func(g *geometry) { g.ways = 0 },
		"zero dram":            func(g *geometry) { g.dram = 0 },
		"indivisible dram":     func(g *geometry) { g.dram = 5 * mem.KiB },
		"zero nvram":           func(g *geometry) { g.nvram = 0 },
		"indivisible nvram":    func(g *geometry) { g.nvram = testNVRAM + mem.Line },
		"sets not split whole": func(g *geometry) { g.channels = 5 },
		"4-way sets not whole": func(g *geometry) { g.channels = 256; g.ways = 4 }, // 768 lines split, 192 sets do not
	}
	build := func(g geometry) error {
		policy := imc.HardwarePolicy()
		policy.Ways = g.ways
		_, err := newChannelSplit(g.channels, g.dram, g.nvram, policy)
		return err
	}
	for name, mutate := range cases {
		g := base
		mutate(&g)
		if build(g) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := build(base); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

// TestMultiChannel runs the split-vs-serial experiment at a tiny
// scale; MultiChannel itself errors if any scenario's merged counters
// diverge from the serial reference, so success asserts the property
// on the real platform geometry.
func TestMultiChannel(t *testing.T) {
	table, err := MultiChannel(MultiChannelConfig{Scale: 1 << 21, Channels: 6})
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	for _, want := range []string{"read miss (clean)", "write miss (dirty)", "rmw (ddo writeback)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing scenario %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no") && !strings.Contains(out, "yes") {
		t.Errorf("counters mismatch reported:\n%s", out)
	}
}

// TestMultiChannelDefaults: the zero config resolves to the paper
// geometry (6 channels) without error.
func TestMultiChannelDefaults(t *testing.T) {
	cfg := MultiChannelConfig{}.withDefaults()
	if cfg.Channels != 6 || cfg.Scale != 8192 {
		t.Errorf("defaults = %+v", cfg)
	}
}

// TestMultiChannelGoldenDigests pins the bytes of the self-check at
// the repro geometry (scale 8192, 4096-line sampling): the table as
// CSV and text, and the recorded scenario series as CSV and JSON. The
// digests were recorded from the goroutine-sharded replay this serial
// loop replaced, whose series equalled a serial controller's driven
// through one-line ranges; the same digests now pin that loop.
func TestMultiChannelGoldenDigests(t *testing.T) {
	const tableCSV = "96e38a96d79f8b8143b3b2a5e73417a754e7bfac2c50ad8dfda915e0db838ee8"
	golden := []struct {
		channels                   int
		tableText, recCSV, recJSON string
	}{
		{1, "34f65c398552928abdbff66ecc658a545bcb9f656773474ae5ce6b4bb1c8daf2",
			"e1fd4bf4dd4b4341352926ffa257cfbc80ae45992568ca0e5902180be8ab256e",
			"b242afc8b68de607458ed59e0fac123a479ba8e017af9e5828cc72379de7f9dc"},
		{2, "50cd63a129d1f3c7036344f5043d0a85c7ae61c03eeb7d4abb1e6d5c68a3fafb",
			"df9f49c18ca8f4ac452ada330f158f93faf8d07a9ac6df7b85f5a3eeefa4b10f",
			"4c280e3e53c6cde357a816454585c1fbc30a9f8639548485039e2dfeedfcf645"},
		{3, "227e8dc8276b9f08b5b20d804bfc28ac28a555a7b1405fe5254c338a0141b25c",
			"6089935a5c9f7ef0c55fa239fe497aae8b69a393879b159a35787a932ea4deb6",
			"e0ebb4872299881237509217cc3d4a1faefc14967beffe8fe06165d251033f21"},
		{6, "4fe9c83577667f4c170745825a941a19142d60f10ea422b8d58017f016e4950e",
			"5e050e14065768e08eaaaf809760e31a68af71aa6892aa83b1eda2649d8f3f79",
			"6ef986b2682a9121710fa036c1997dab5bfa823c9a87537389f42a9f0841a667"},
		{12, "0abc8046a928738ee3c5be1665c7cd15abe78d316d4cd49981588fa73aaae915",
			"f0f0f0716e4cb0d9732d16c306b4dbdfcb7b1b945fcae892626d3a774de1e936",
			"229c24b26edf779fbaf15cc25b613d37a706215a3b603971a9570ba4006c1f87"},
	}
	digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	for _, g := range golden {
		t.Run(fmt.Sprintf("channels=%d", g.channels), func(t *testing.T) {
			t.Parallel()
			rec := telemetry.NewRecorder()
			table, err := MultiChannel(MultiChannelConfig{Scale: 8192, Channels: g.channels, Telemetry: rec})
			if err != nil {
				t.Fatal(err)
			}
			var csv bytes.Buffer
			if err := table.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			recCSV, recJSON := renderSeries(t, rec)
			for _, c := range []struct{ what, got, want string }{
				{"table CSV", digest(csv.Bytes()), tableCSV},
				{"table text", digest([]byte(table.String())), g.tableText},
				{"series CSV", digest(recCSV), g.recCSV},
				{"series JSON", digest(recJSON), g.recJSON},
			} {
				if c.got != c.want {
					t.Errorf("%s sha256 %s, want %s", c.what, c.got, c.want)
				}
			}
		})
	}
}
