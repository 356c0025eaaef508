package runcfg

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadJob: unset flag loads nothing; a valid file loads; an
// invalid file fails with the file's path in the error.
func TestLoadJob(t *testing.T) {
	var c Common
	if s, err := c.LoadJob(); s != nil || err != nil {
		t.Fatalf("unset -job: %v, %v", s, err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"version":1,"geometry":{"cache_kib":64}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Job = good
	s, err := c.LoadJob()
	if err != nil || s == nil || s.Geometry.CacheKiB != 64 {
		t.Fatalf("good file: %+v, %v", s, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"geometri":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Job = bad
	if _, err := c.LoadJob(); err == nil {
		t.Fatal("unknown-field file accepted")
	}
}
