// Package twolm is a behavioral simulator of Intel Cascade Lake's 2LM
// ("memory mode") hardware-managed DRAM cache for Optane DC NVRAM,
// built to reproduce "A Case Against Hardware Managed DRAM Caches for
// NVRAM Based Systems" (Hildebrand, Angeles, Lowe-Power, Akella,
// ISPASS 2021).
//
// The library lives under internal/ and is organized as:
//
//   - internal/core — the system facade: 1LM/2LM modes, demand
//     operations, counters and the elapsed-time model;
//   - internal/imc, cache, dram, nvram, bwmodel, platform — the memory
//     system substrates;
//   - internal/kernels, lfsr — the microbenchmark generator;
//   - internal/nn, compiler, tensor, autotm — the CNN training case
//     study and its software-managed baseline;
//   - internal/graph, analytics, sage — the graph analytics case study;
//   - internal/experiments — every paper table and figure as a
//     function.
//
// The executable cmd/repro regenerates the paper's evaluation, whole
// or as a -experiment selection of its jobs; see README.md, DESIGN.md
// and EXPERIMENTS.md.
package twolm
