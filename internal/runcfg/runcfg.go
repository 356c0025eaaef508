// Package runcfg is the shared command-line surface of the repro
// binaries. The commands that run simulations (repro and nvtrace)
// register the same -out/-scale/-quick/-metrics-addr set from here,
// with the same validation and the same live-metrics bootstrap; repro
// alone adds the suite's -parallel/-channels and the -job file.
//
// The metrics bootstrap deliberately returns the concrete
// *telemetry.Prom rather than a telemetry.Sink: when -metrics-addr is
// unset the result is a nil pointer, and callers must check that nil
// before wrapping it in telemetry.Tee or telemetry.WithLabel. Storing
// a typed nil pointer in a Sink interface would make sink != nil true
// on the hot path and defeat the disabled-telemetry fast path.
package runcfg

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"runtime"

	"twolm/internal/telemetry"
)

// Common holds the flag values shared by every binary. Set the
// defaults you want, then Register the flags and Parse.
type Common struct {
	// Out is the artifact output directory ("" prints to stdout only,
	// in binaries where artifacts are optional).
	Out string
	// Scale is the footprint scale divisor (nonzero power of two).
	Scale uint64
	// Quick selects small footprints for a fast sanity pass.
	Quick bool
	// Parallel is the experiment worker count (1 = serial).
	Parallel int
	// Channels is the IMC channel count of the multichannel self-check.
	Channels int
	// MetricsAddr, when nonempty, is the listen address of the
	// Prometheus /metrics endpoint.
	MetricsAddr string
	// Job, when nonempty, is the path of a jobspec JSON file that
	// replaces the loose workload flags (see RegisterJob/LoadJob).
	Job string

	// BoundAddr is filled in by Metrics with the address the listener
	// actually bound — it differs from MetricsAddr when the requested
	// port was 0.
	BoundAddr string
}

// Defaults returns the canonical default values shared by the suite
// binaries: results/ output, the calibrated 1/1024 footprint scale,
// one worker per CPU, and the Cascade Lake six-channel socket.
func Defaults() Common {
	return Common{
		Out:      "results",
		Scale:    1024,
		Parallel: runtime.NumCPU(),
		Channels: 6,
	}
}

// Register installs the shared flags on fs, using c's current field
// values as the defaults. Binary-specific flags are registered by the
// caller alongside.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Out, "out", c.Out, "output directory for artifacts")
	fs.Uint64Var(&c.Scale, "scale", c.Scale, "footprint scale divisor (power of two)")
	fs.BoolVar(&c.Quick, "quick", c.Quick, "small footprints for a fast pass")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", c.MetricsAddr,
		"serve Prometheus metrics at this address (e.g. 127.0.0.1:9464)")
}

// RegisterSuite installs -parallel and -channels, the flags of a
// binary that runs jobs on the worker pool and the multichannel
// self-check. A binary that registers only Register keeps the
// Defaults values, which Validate accepts.
func (c *Common) RegisterSuite(fs *flag.FlagSet) {
	fs.IntVar(&c.Parallel, "parallel", c.Parallel, "experiment worker count (1 = serial)")
	fs.IntVar(&c.Channels, "channels", c.Channels, "IMC channels of the multichannel self-check")
}

// Validate rejects malformed values up front, before any experiment
// spends time — the same checks every binary used to carry inline.
func (c *Common) Validate() error {
	if c.Scale == 0 || c.Scale&(c.Scale-1) != 0 {
		return fmt.Errorf("-scale %d must be a nonzero power of two", c.Scale)
	}
	if c.Parallel < 1 {
		return fmt.Errorf("-parallel %d must be positive", c.Parallel)
	}
	if c.Channels < 1 {
		return fmt.Errorf("-channels %d must be positive", c.Channels)
	}
	return nil
}

// Metrics starts the Prometheus endpoint when -metrics-addr was
// given: it binds the address synchronously (so startup errors
// surface here, not in a goroutine), serves the exporter at /metrics
// in the background for the life of the process, and returns the
// exporter for the caller to wire into telemetry sinks and gauges.
//
// With no -metrics-addr it returns (nil, nil); see the package
// comment for why callers must check the nil before wrapping the
// result in a telemetry.Sink.
func (c *Common) Metrics() (*telemetry.Prom, error) {
	if c.MetricsAddr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", c.MetricsAddr)
	if err != nil {
		return nil, fmt.Errorf("-metrics-addr %s: %w", c.MetricsAddr, err)
	}
	c.BoundAddr = ln.Addr().String()
	prom := telemetry.NewProm()
	mux := http.NewServeMux()
	mux.Handle("/metrics", prom)
	go func() {
		// Serve returns only when the listener closes, which never
		// happens: the endpoint lives as long as the process.
		_ = http.Serve(ln, mux)
	}()
	return prom, nil
}
