package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzReader pins the trace decoder against hostile input: over any
// bytes, Next returns events and then io.EOF or an ErrCorrupt-wrapped
// error, never panics, and consumes at least one byte per event. The
// events decoded before the end re-encode through Writer into a stream
// that decodes to the same events and a clean io.EOF. The seed corpus
// (testdata/fuzz/FuzzReader) holds a short valid trace, a truncated
// copy, and a sync record declaring a 1 MiB label that the stream ends
// one byte into.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := decodeAll(data)
		if !errors.Is(err, io.EOF) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Next returned %v, want io.EOF or ErrCorrupt", err)
		}
		if len(events) > len(data) {
			t.Fatalf("%d events from %d bytes", len(events), len(data))
		}

		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, ev := range events {
			if ev.IsSync {
				w.Sync(ev.Label, ev.Compute)
			} else {
				w.Access(ev.Op, ev.Addr)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := decodeAll(buf.Bytes())
		if !errors.Is(err, io.EOF) {
			t.Fatalf("re-encoded stream ends with %v, want io.EOF", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-encoded stream has %d events, want %d", len(again), len(events))
		}
		for i, ev := range events {
			got := again[i]
			if got.IsSync != ev.IsSync || got.Op != ev.Op || got.Addr != ev.Addr || got.Label != ev.Label ||
				math.Float64bits(got.Compute) != math.Float64bits(ev.Compute) {
				t.Fatalf("event %d: re-encoded %+v, want %+v", i, got, ev)
			}
		}
	})
}

// decodeAll reads events until Next fails and returns them with the
// terminating error.
func decodeAll(data []byte) ([]Event, error) {
	r := NewReader(bytes.NewReader(data))
	var events []Event
	for {
		ev, err := r.Next()
		if err != nil {
			return events, err
		}
		events = append(events, ev)
	}
}
