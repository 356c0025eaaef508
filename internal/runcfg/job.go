package runcfg

import (
	"flag"

	"twolm/internal/jobspec"
)

// RegisterJob installs the -job flag: a path to a versioned jobspec
// JSON file that replaces the loose flag surface entirely. Only the
// job-running binary (repro) registers it.
func (c *Common) RegisterJob(fs *flag.FlagSet) {
	fs.StringVar(&c.Job, "job", c.Job,
		"path to a jobspec JSON file, a single point or a grid (see examples/sweep_*.json); runs it instead of the suite and writes job_results.{csv,json}")
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
