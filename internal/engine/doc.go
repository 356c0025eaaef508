// Package engine runs the paper-reproduction suite as jobs on a worker
// pool, measures the simulator's own throughput, and hosts the
// multichannel self-check: the Table-I scenarios replayed through N
// line-interleaved single-channel controllers, whose merged counters
// must equal one serial controller's (the Cascade Lake socket
// interleaves 2LM traffic across 6 IMC channels).
package engine
