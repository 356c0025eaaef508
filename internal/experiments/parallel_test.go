package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestSuiteExperimentsSameAtAnyParallelism: every suite experiment
// that fans its independent runs out through runSlots must render the
// same bytes on one worker as on four, so its rows are assembled in
// slot order, never in the order the runs finish.
func TestSuiteExperimentsSameAtAnyParallelism(t *testing.T) {
	micro, cnn := testMicroConfig(), testCNNConfig()
	fig4 := func(fig func(MicroConfig) (*results.Table, []Fig4Row, error)) func() (*results.Table, error) {
		return func() (*results.Table, error) {
			table, _, err := fig(micro)
			return table, err
		}
	}
	cases := []struct {
		name string
		run  func() (*results.Table, error)
	}{
		{"fig2a", func() (*results.Table, error) { return Fig2a(micro) }},
		{"fig2b", func() (*results.Table, error) { return Fig2b(micro) }},
		{"fig4a", fig4(Fig4a)},
		{"fig4b", fig4(Fig4b)},
		{"fig4c", fig4(Fig4c)},
		{"table2", func() (*results.Table, error) {
			table, _, err := Table2(cnn)
			return table, err
		}},
		{"codesign", func() (*results.Table, error) { return CoDesign(cnn) }},
		{"embedding", func() (*results.Table, error) { return EmbedStudy(testEmbedConfig()) }},
		// Two Ways values are enough for a dispatch order that is not
		// slot order.
		{"ablation_associativity", func() (*results.Table, error) { return AblationAssociativity(cnn, []int{1, 4}) }},
	}
	csv := func(procs int, run func() (*results.Table, error)) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		table, err := run()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := table.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, e := range cases {
		t.Run(e.name, func(t *testing.T) {
			serial, parallel := csv(1, e.run), csv(4, e.run)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("CSV differs between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", serial, parallel)
			}
		})
	}
}
