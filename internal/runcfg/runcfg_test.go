package runcfg

import (
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestRegisterParsesSharedFlags(t *testing.T) {
	c := Defaults()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	c.RegisterSuite(fs)
	err := fs.Parse([]string{
		"-out", "artifacts",
		"-scale", "2048",
		"-quick",
		"-parallel", "3",
		"-channels", "2",
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Out != "artifacts" || c.Scale != 2048 || !c.Quick ||
		c.Parallel != 3 || c.Channels != 2 || c.MetricsAddr != "127.0.0.1:0" {
		t.Errorf("parsed config %+v does not match the flag values", c)
	}
}

func TestDefaultsValidate(t *testing.T) {
	c := Defaults()
	if err := c.Validate(); err != nil {
		t.Errorf("defaults must validate, got %v", err)
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Common)
	}{
		{"zero scale", func(c *Common) { c.Scale = 0 }},
		{"non-power-of-two scale", func(c *Common) { c.Scale = 1000 }},
		{"zero parallel", func(c *Common) { c.Parallel = 0 }},
		{"zero channels", func(c *Common) { c.Channels = 0 }},
	}
	for _, tc := range cases {
		c := Defaults()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, c)
		}
	}
}

func TestMetricsDisabledReturnsNil(t *testing.T) {
	c := Defaults()
	prom, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if prom != nil {
		t.Error("Metrics without -metrics-addr must return a nil exporter")
	}
}

func TestMetricsServesExposition(t *testing.T) {
	c := Defaults()
	c.MetricsAddr = "127.0.0.1:0"
	prom, err := c.Metrics()
	if err != nil {
		t.Skipf("cannot bind loopback listener in this environment: %v", err)
	}
	if prom == nil {
		t.Fatal("Metrics with an address returned a nil exporter")
	}
	if c.BoundAddr == "" || c.BoundAddr == c.MetricsAddr {
		t.Errorf("BoundAddr %q should carry the resolved port", c.BoundAddr)
	}
	prom.SetGauge("jobs_total", "Experiment jobs in this run.", 3)

	resp, err := http.Get("http://" + c.BoundAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q is not the text exposition format", ct)
	}
	if !strings.Contains(string(body), "twolm_jobs_total 3") {
		t.Errorf("exposition missing the published gauge:\n%s", body)
	}
}
