package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twolm/internal/imc"
	"twolm/internal/results"
)

func TestRunSlotsResultsLandByIndex(t *testing.T) {
	const n = 37
	order := make([]int, n)
	for k := range order {
		order[k] = n - 1 - k // dispatch in reverse
	}
	for _, o := range [][]int{nil, order} {
		got, err := runSlots(n, o, func(i int) (int, error) {
			if i%3 == 0 {
				runtime.Gosched() // let later indices finish first
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("len = %d, want %d", len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("slot %d = %d, want %d", i, v, i*i)
			}
		}
	}
}

func TestRunSlotsLowestIndexErrorWins(t *testing.T) {
	const n = 16
	// Index 11 is dispatched first and fails; index 3 fails only after
	// 11 has, so the first failure to happen is not the one returned.
	order := []int{11}
	for i := range n {
		if i != 11 {
			order = append(order, i)
		}
	}
	failed11 := make(chan struct{})
	var ran atomic.Int64
	_, err := runSlots(n, order, func(i int) (int, error) {
		ran.Add(1)
		switch i {
		case 3:
			<-failed11
			return 0, fmt.Errorf("run %d failed", i)
		case 11:
			close(failed11)
			return 0, fmt.Errorf("run %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "run 3 failed" {
		t.Fatalf("err = %v, want run 3's", err)
	}
	if ran.Load() != n {
		t.Errorf("%d of %d runs executed; a failure must not skip the rest", ran.Load(), n)
	}
}

func TestRunSlotsPanicBecomesError(t *testing.T) {
	_, err := runSlots(4, nil, func(i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "run 2 panicked: boom") {
		t.Fatalf("err = %v, want run 2's panic", err)
	}
}

func TestRunSlotsSizes(t *testing.T) {
	called := false
	got, err := runSlots(0, nil, func(int) (int, error) { called = true; return 0, nil })
	if err != nil || len(got) != 0 || called {
		t.Fatalf("n=0: got %v, err %v, called %v", got, err, called)
	}
	// Fewer runs than workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	two, err := runSlots(2, []int{1, 0}, func(i int) (string, error) { return fmt.Sprint(i), nil })
	if err != nil || len(two) != 2 || two[0] != "0" || two[1] != "1" {
		t.Fatalf("n=2 on 8 workers: got %v, err %v", two, err)
	}
}

func TestRunSlotsLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for range 20 {
		_, _ = runSlots(9, nil, func(i int) (int, error) {
			if i == 4 {
				return 0, errors.New("fail")
			}
			return i, nil
		})
	}
	// Exited goroutines are reaped asynchronously; give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d after runSlots returned", before, after)
	}
}

// csvBytes concatenates the CSV renderings of tables and series, the
// bytes the suite writes for them.
func csvBytes(parts ...interface{ WriteCSV(io.Writer) error }) ([]byte, error) {
	var b bytes.Buffer
	for _, p := range parts {
		if err := p.WriteCSV(&b); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// tableCSV adapts a single-table experiment to csvBytes.
func tableCSV(t *results.Table, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return csvBytes(t)
}

// cnnExperiments are the experiments that read a DenseNet, each
// rendered as the CSV bytes of its artifacts. The associativity
// ablation runs at Ways {1, 4}: two values are enough for a dispatch
// order that is not slot order.
var cnnExperiments = []struct {
	name string
	run  func(d *DenseNet) ([]byte, error)
}{
	{"fig5", func(d *DenseNet) ([]byte, error) {
		r, err := Fig5(d)
		if err != nil {
			return nil, err
		}
		return csvBytes(r.Summary, r.Liveness, r.Trace)
	}},
	{"fig6", func(d *DenseNet) ([]byte, error) { return tableCSV(Fig6(d)) }},
	{"fig10", func(d *DenseNet) ([]byte, error) {
		r, err := Fig10(d)
		if err != nil {
			return nil, err
		}
		return csvBytes(r.PhaseTable, r.Trace)
	}},
	{"table2", func(d *DenseNet) ([]byte, error) {
		t, _, err := Table2(d)
		return tableCSV(t, err)
	}},
	{"codesign", func(d *DenseNet) ([]byte, error) { return tableCSV(CoDesign(d)) }},
	{"ablation_associativity", func(d *DenseNet) ([]byte, error) {
		return tableCSV(AblationAssociativity(d, []int{1, 4}))
	}},
}

// TestSuiteExperimentsSameAtAnyParallelism: every suite experiment
// that fans its independent runs out through runSlots, and every one
// that reads a DenseNet, must render the same bytes on one worker as on
// four, so its rows are assembled in slot order, never in the order the
// runs finish.
func TestSuiteExperimentsSameAtAnyParallelism(t *testing.T) {
	micro, cnn := testMicroConfig(), testCNNConfig()
	fig4 := func(fig func(MicroConfig) (*results.Table, []Fig4Row, error)) func() ([]byte, error) {
		return func() ([]byte, error) {
			table, _, err := fig(micro)
			return tableCSV(table, err)
		}
	}
	type experiment struct {
		name string
		run  func() ([]byte, error)
	}
	cases := []experiment{
		{"fig2a", func() ([]byte, error) { return tableCSV(Fig2a(micro)) }},
		{"fig2b", func() ([]byte, error) { return tableCSV(Fig2b(micro)) }},
		{"fig4a", fig4(Fig4a)},
		{"fig4b", fig4(Fig4b)},
		{"fig4c", fig4(Fig4c)},
		{"embedding", func() ([]byte, error) { return tableCSV(EmbedStudy(testEmbedConfig())) }},
	}
	for _, e := range cnnExperiments {
		cases = append(cases, experiment{e.name, func() ([]byte, error) { return e.run(NewDenseNet(cnn)) }})
	}
	render := func(procs int, run func() ([]byte, error)) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		b, err := run()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, e := range cases {
		t.Run(e.name, func(t *testing.T) {
			serial, parallel := render(1, e.run), render(4, e.run)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("CSV differs between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", serial, parallel)
			}
		})
	}
}

// TestDenseNetSharedOnce: the experiments reading one DenseNet, run
// concurrently as the suite's jobs are, render the bytes each renders
// alone, and between them simulate no iteration twice — the DenseNet
// 2LM and CPU-copy AutoTM iterations exactly once each.
func TestDenseNetSharedOnce(t *testing.T) {
	cnn := testCNNConfig()
	alone := make([][]byte, len(cnnExperiments))
	for i, e := range cnnExperiments {
		b, err := e.run(NewDenseNet(cnn))
		if err != nil {
			t.Fatalf("%s alone: %v", e.name, err)
		}
		alone[i] = b
	}

	d := NewDenseNet(cnn)
	shared := make([][]byte, len(cnnExperiments))
	errs := make([]error, len(cnnExperiments))
	var wg sync.WaitGroup
	for i, e := range cnnExperiments {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i], errs[i] = e.run(d)
		}()
	}
	wg.Wait()
	for i, e := range cnnExperiments {
		if errs[i] != nil {
			t.Fatalf("%s on the shared DenseNet: %v", e.name, errs[i])
		}
		if !bytes.Equal(shared[i], alone[i]) {
			t.Errorf("%s: bytes on the shared DenseNet differ from its run alone:\n%s\nvs\n%s", e.name, shared[i], alone[i])
		}
	}

	plan, err := d.densePlan()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []simKey{
		{prog: plan.Prog.Name, policy: imc.HardwarePolicy()},
		{prog: plan.Prog.Name},
	} {
		if _, ok := d.sims[k]; !ok {
			t.Errorf("%+v never simulated", k)
		}
	}
	for k, n := range d.sims {
		if n != 1 {
			t.Errorf("%+v simulated %d times, want 1", k, n)
		}
	}
}

// TestOnceValSharesOneCall: callers arriving while the first call runs
// wait for its value, and a panic becomes every caller's error.
func TestOnceValSharesOneCall(t *testing.T) {
	var o onceVal[int]
	var calls atomic.Int64
	release := make(chan struct{})
	got := make([]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = o.get("value", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
		}()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}

	var p onceVal[int]
	for range 2 {
		_, err := p.get("value", func() (int, error) { panic("boom") })
		if err == nil || !strings.Contains(err.Error(), "value panicked: boom") {
			t.Fatalf("err = %v, want the panic", err)
		}
	}
}
