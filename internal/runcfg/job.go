package runcfg

import (
	"flag"

	"twolm/internal/jobspec"
)

// DefaultJobCacheKiB is the DRAM-cache capacity of the flag-derived
// canonical job: 4 MiB, the single-channel microbenchmark geometry.
const DefaultJobCacheKiB uint64 = 4096

// RegisterJob installs the -job flag: a path to a versioned jobspec
// JSON file that bypasses the loose flag surface entirely. Only the
// job-running binaries (repro, nvsweep) register it.
func (c *Common) RegisterJob(fs *flag.FlagSet) {
	fs.StringVar(&c.Job, "job", c.Job,
		"path to a jobspec JSON file; bypasses the workload flags so one spec file reproduces the run across repro, nvsweep and simd")
}

// LoadJob strictly decodes and validates the -job file. It returns
// (nil, nil) when the flag was not given, so callers branch with one
// check.
func (c *Common) LoadJob() (*jobspec.Spec, error) {
	if c.Job == "" {
		return nil, nil
	}
	return jobspec.Load(c.Job)
}

// JobSpec lowers the flag surface onto the canonical job description:
// the same geometry/workload a flag-driven run executes, expressed as
// the versioned spec a -job file (or a simd POST body) would carry.
// This is the adapter direction of the API redesign — flags construct
// a jobspec.Spec; they no longer carry independent meaning — and the
// round-trip test pins that a run of JobSpec() is byte-identical to
// the flags-equivalent sweep.
//
// The -quick flag maps to the historical footprint override (scale
// 8192) exactly as engine.DefaultSuiteConfig applies it.
func (c *Common) JobSpec() jobspec.Spec {
	scale := c.Scale
	if c.Quick {
		scale = 8192
	}
	return jobspec.Spec{
		Version: jobspec.Version,
		Name:    "flags",
		Geometry: &jobspec.Geometry{
			CacheKiB: DefaultJobCacheKiB,
			Ways:     1,
			Channels: c.Channels,
			DIMMs:    1,
		},
		Policy: jobspec.PolicyHardware,
		Workload: &jobspec.Workload{
			Pattern: jobspec.PatternSequential,
			Ratio:   jobspec.DefaultRatio,
			Seed:    jobspec.DefaultSeed,
			Scale:   scale,
			Passes:  1,
		},
	}
}
