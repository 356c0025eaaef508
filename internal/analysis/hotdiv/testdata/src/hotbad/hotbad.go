// Package hotbad exercises every hotdiv decision: runtime divisors
// are flagged, constant divisors and cold constructors are not.
package hotbad

const lineSize = 64

type geom struct {
	sets uint64
}

// NewGeom is a constructor: geometry division at build time is cold
// by convention and exempt.
func NewGeom(capacity, ways uint64) geom {
	return geom{sets: capacity / ways}
}

// Index is hot-path shaped: both divisor forms must be flagged.
func (g geom) Index(addr uint64) (uint64, uint64) {
	set := addr % g.sets // want `integer modulo \(%\) with a non-constant divisor`
	tag := addr / g.sets // want `integer division \(/\) with a non-constant divisor`
	return set, tag
}

// Mixed shows the exemptions inside a hot function.
func Mixed(addr, n uint64, scale float64) float64 {
	line := addr / lineSize // constant divisor: compiler strength-reduces
	frac := scale / 2.5     // float division is never flagged
	line /= lineSize        // constant divisor via assign-op
	line %= n               // want `integer modulo \(%\) with a non-constant divisor`
	return float64(line) * frac
}
