package jobspec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecode pins the wire boundary every front end shares: arbitrary
// bytes never panic Decode, and an accepted spec is canonical under
// Normalized (a second application changes nothing) and survives
// json.Marshal -> Decode both as decoded and in normalized form. The
// seed corpus (testdata/fuzz/FuzzDecode) holds the committed quickstart
// example and hand-made rejects, among them the reject-cap-* geometries
// TestDecodeRejectsHostileGeometry checks field by field.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := s.Normalized()
		if again := n.Normalized(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalized is not idempotent:\n once  %+v\n twice %+v", n, again)
		}
		// The decoded spec re-decodes to the same canonical form; an
		// empty slice may come back nil (omitempty drops it), which
		// Normalized maps to the same default.
		back := roundTrip(t, *s)
		if got := back.Normalized(); !reflect.DeepEqual(got, n) {
			t.Fatalf("round trip changed the spec:\n before %+v\n after  %+v", n, got)
		}
		// The normalized form has no empty slices, so it round-trips
		// exactly.
		if got := roundTrip(t, n); !reflect.DeepEqual(got, n) {
			t.Fatalf("normalized round trip changed the spec:\n before %+v\n after  %+v", n, got)
		}
	})
}

// roundTrip encodes s with json.Marshal and strictly decodes it back.
func roundTrip(t *testing.T, s Spec) Spec {
	t.Helper()
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal accepted spec: %v", err)
	}
	back, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("re-decode of %s: %v", enc, err)
	}
	return *back
}
