package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// csrDigest is the SHA-256 of Offsets then Edges, little-endian.
func csrDigest(g *Graph) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, g.Offsets)
	binary.Write(h, binary.LittleEndian, g.Edges)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorsPinned pins the generators' CSR output bit for bit, so
// a change to how a graph is built (not what it is) cannot silently
// change every graph-study figure. The WebLike digests were recorded
// when it still built src/dst edge lists and converted them through
// FromEdges, the reference its direct CSR construction must match.
func TestGeneratorsPinned(t *testing.T) {
	for _, c := range []struct {
		gen        func(scale, edgeFactor int, seed int64) (*Graph, error)
		name       string
		scale, ef  int
		seed       int64
		wantDigest string
	}{
		{Kronecker, "kron10", 10, 8, 1, "e7c59ff92da187b6b4c08a7de0fa7b0836671ffd5aa7dfee61021296febc9d8a"},
		{Kronecker, "kron14", 14, 16, 7, "2c54b69f364d094dbaffab255cf31110cb85d4255d02daa78f268c4b11c2aeee"},
		{WebLike, "web10", 10, 8, 1, "79587276abe334439bebec0f85d0008ad29d087a90732bd11cf0ef3886ba1f0c"},
		{WebLike, "web14", 14, 16, 7, "6ca312f40318a21d6337932d38a9b86025471adbb60b25593beb8160ca06962f"},
	} {
		g, err := c.gen(c.scale, c.ef, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g.Name != c.name {
			t.Errorf("name = %q, want %q", g.Name, c.name)
		}
		if got := csrDigest(g); got != c.wantDigest {
			t.Errorf("%s (edge factor %d, seed %d): CSR digest %s, want %s", c.name, c.ef, c.seed, got, c.wantDigest)
		}
	}
}
