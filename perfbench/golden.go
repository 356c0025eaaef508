package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeed is the workload seed the golden digests were recorded at.
// At any other seed the checks compare a run's operations with each
// other instead.
const defaultSeed = 1

// Seed salts: each generated input draws its own stream from the seed.
const (
	saltSweep = iota + 1
	saltStreams
	saltSimdBodies
	saltSimdSchedule
)

// derive maps the workload seed and a salt to a non-zero 32-bit value
// (splitmix64), so each generated input gets its own stream.
func derive(seed, salt uint64) uint32 {
	z := seed + 0x9E3779B97F4A7C15*(salt+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if v := uint32(z); v != 0 {
		return v
	}
	return 1
}

// digest is the hex SHA-256 of data.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// goldenFile is the path of a workload's golden digests.
func goldenFile(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

// loadGolden reads a workload's golden digests, keyed by output name.
func loadGolden(dir, workload string) (map[string]string, error) {
	data, err := os.ReadFile(goldenFile(dir, workload))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("no golden digests for %s (record them with -write-golden at -seed %d)", workload, defaultSeed)
	}
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile(dir, workload), err)
	}
	return m, nil
}

// saveGolden records a workload's digests.
func saveGolden(dir, workload string, m map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile(dir, workload), append(data, '\n'), 0o644)
}

// compareDigests checks got against want and returns one message per
// missing, extra or differing output.
func compareDigests(want, got map[string]string) []string {
	var bad []string
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			bad = append(bad, name+": not produced")
		case g != w:
			bad = append(bad, fmt.Sprintf("%s: digest %.12s, golden %.12s", name, g, w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, name+": produced but has no golden digest")
		}
	}
	sort.Strings(bad)
	return bad
}

// checkGolden compares a run's digests with the golden ones, or records
// them with -write-golden. A seeded workload has golden digests only at
// defaultSeed; elsewhere it is not compared. It returns the mismatches.
func checkGolden(o options, workload string, seeded bool, got map[string]string) ([]string, error) {
	if seeded && o.seed != defaultSeed {
		if o.writeGolden {
			return nil, fmt.Errorf("-write-golden needs -seed %d", defaultSeed)
		}
		return nil, nil
	}
	if o.writeGolden {
		return nil, saveGolden(o.golden, workload, got)
	}
	want, err := loadGolden(o.golden, workload)
	if err != nil {
		return nil, err
	}
	return compareDigests(want, got), nil
}
