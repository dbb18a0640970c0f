package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hammertime/internal/obs"
	"hammertime/internal/report"
)

// resetRobustness restores the package-wide policy/observer state after
// a test that installs any of them.
func resetRobustness(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		SetPolicy(Policy{})
		SetGridObserver(nil)
	})
}

func TestRunGridContainsPanics(t *testing.T) {
	resetRobustness(t)
	for _, workers := range []int{1, 4} {
		run := runGrid(context.Background(), GridSpec{ID: "t-panic", Workers: workers}, 8, func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("boom")
			}
			return i * i, nil
		})
		err := run.Err()
		if err == nil {
			t.Fatalf("workers=%d: panic did not surface as an error", workers)
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: error %T is not a *CellError", workers, err)
		}
		if !ce.Panicked || ce.Index != 3 || ce.Grid != "t-panic" {
			t.Errorf("workers=%d: cell error = %+v", workers, ce)
		}
		if !strings.Contains(ce.Stack, "failsoft_test") {
			t.Errorf("workers=%d: stack trace misses the panicking frame:\n%s", workers, ce.Stack)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Errorf("workers=%d: error text %q does not say panicked", workers, err)
		}
	}
}

func TestRunGridStrictReportsLowestIndexFailure(t *testing.T) {
	resetRobustness(t)
	for _, workers := range []int{1, 4} {
		run := runGrid(context.Background(), GridSpec{ID: "t-low", Workers: workers}, 16, func(_ context.Context, i int) (int, error) {
			if i == 5 || i == 11 {
				return 0, fmt.Errorf("cell %d broke", i)
			}
			return i, nil
		})
		var ce *CellError
		if err := run.Err(); !errors.As(err, &ce) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Serial strict runs stop at the first failure; parallel ones
		// report the lowest-index failure among the attempted cells.
		if workers == 1 && ce.Index != 5 {
			t.Errorf("serial run reported cell %d, want 5", ce.Index)
		}
		if ce.Index != 5 && ce.Index != 11 {
			t.Errorf("workers=%d: reported cell %d, want a failing cell", workers, ce.Index)
		}
	}
}

func TestRunGridFailSoftCompletesGrid(t *testing.T) {
	resetRobustness(t)
	SetPolicy(Policy{FailSoft: true})
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		run := runGrid(context.Background(), GridSpec{ID: "t-soft", Workers: workers}, 6, func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			switch i {
			case 2:
				return 0, errors.New("flaky dependency")
			case 5:
				panic("late crash")
			}
			return 10 * i, nil
		})
		if err := run.Err(); err != nil {
			t.Fatalf("workers=%d: fail-soft run reported %v", workers, err)
		}
		if got := calls.Load(); got != 6 {
			t.Errorf("workers=%d: %d cells ran, want all 6", workers, got)
		}
		fails := run.Failures()
		if len(fails) != 2 || fails[0].Index != 2 || fails[1].Index != 5 {
			t.Fatalf("workers=%d: failures = %+v", workers, fails)
		}
		if !fails[1].Panicked {
			t.Errorf("workers=%d: cell 5 not marked panicked", workers)
		}
		for i := 0; i < 6; i++ {
			cell := run.Cell(i, func(v int) string { return fmt.Sprint(v) })
			switch i {
			case 2, 5:
				if !report.IsErrCell(cell) {
					t.Errorf("workers=%d: failed cell %d rendered %q", workers, i, cell)
				}
			default:
				if cell != fmt.Sprint(10*i) {
					t.Errorf("workers=%d: cell %d rendered %q", workers, i, cell)
				}
			}
		}
		if got := run.Cell(2, func(v int) string { return "x" }); got != report.ErrCell("flaky dependency") {
			t.Errorf("workers=%d: ERR cell = %q", workers, got)
		}
	}
}

func TestRunGridRetriesFlakyCell(t *testing.T) {
	resetRobustness(t)
	SetPolicy(Policy{Retries: 2})
	ring := obs.NewRing(64)
	SetGridObserver(obs.NewRecorder(ring))
	var attempts atomic.Int64
	run := runGrid(context.Background(), GridSpec{ID: "t-retry", Workers: 1}, 3, func(_ context.Context, i int) (int, error) {
		if i == 1 {
			if attempts.Add(1) < 3 {
				return 0, errors.New("transient")
			}
		}
		return i + 100, nil
	})
	if err := run.Err(); err != nil {
		t.Fatalf("flaky cell did not recover under retries: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("cell 1 ran %d times, want 3 (1 + 2 retries)", got)
	}
	if run.Results[1] != 101 {
		t.Errorf("recovered result = %d, want 101", run.Results[1])
	}
	if got := ring.Count(obs.KindCellRetry); got != 2 {
		t.Errorf("recorded %d cell-retry events, want 2", got)
	}
	if got := ring.Count(obs.KindCellFail); got != 0 {
		t.Errorf("recorded %d cell-fail events for a recovered cell, want 0", got)
	}
}

func TestRunGridRetryExhaustionEmitsFailure(t *testing.T) {
	resetRobustness(t)
	SetPolicy(Policy{Retries: 1})
	ring := obs.NewRing(64)
	SetGridObserver(obs.NewRecorder(ring))
	run := runGrid(context.Background(), GridSpec{ID: "t-exhaust", Workers: 1}, 2, func(_ context.Context, i int) (int, error) {
		if i == 0 {
			return 0, errors.New("permanent")
		}
		return i, nil
	})
	var ce *CellError
	if err := run.Err(); !errors.As(err, &ce) {
		t.Fatalf("%v", err)
	}
	if ce.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", ce.Attempts)
	}
	if got := ring.Count(obs.KindCellRetry); got != 1 {
		t.Errorf("cell-retry events = %d, want 1", got)
	}
	if got := ring.Count(obs.KindCellFail); got != 1 {
		t.Errorf("cell-fail events = %d, want 1", got)
	}
}

func TestRunGridCellTimeout(t *testing.T) {
	resetRobustness(t)
	// Retries must not apply to a timed-out cell: its abandoned attempt
	// may still be running and a re-run could race with it.
	SetPolicy(Policy{FailSoft: true, Retries: 3, CellTimeout: 10 * time.Millisecond})
	var attempts atomic.Int64
	run := runGrid(context.Background(), GridSpec{ID: "t-slow", Workers: 1}, 2, func(_ context.Context, i int) (int, error) {
		if i == 0 {
			attempts.Add(1)
			time.Sleep(200 * time.Millisecond)
		}
		return i + 1, nil
	})
	if err := run.Err(); err != nil {
		t.Fatalf("fail-soft timeout run reported %v", err)
	}
	ce := run.Failed(0)
	if ce == nil || !ce.TimedOut {
		t.Fatalf("slow cell not reported as timed out: %+v", ce)
	}
	if ce.Attempts != 1 {
		t.Errorf("timed-out cell was retried (%d attempts)", ce.Attempts)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("slow cell ran %d times, want 1", got)
	}
	if ce.Reason() != "timeout" {
		t.Errorf("reason = %q, want timeout", ce.Reason())
	}
	if run.Failed(1) != nil || run.Results[1] != 2 {
		t.Errorf("healthy cell affected: failed=%v result=%d", run.Failed(1), run.Results[1])
	}
}

func TestRunGridFailpointInjection(t *testing.T) {
	resetRobustness(t)
	t.Setenv(failCellEnv, "t-inj:1:panic")
	run := runGrid(context.Background(), GridSpec{ID: "t-inj", Workers: 1}, 3, func(_ context.Context, i int) (int, error) { return i, nil })
	var ce *CellError
	if err := run.Err(); !errors.As(err, &ce) || !ce.Panicked || ce.Index != 1 {
		t.Fatalf("injected panic not reported: %v", run.Err())
	}
	// Other grids are untouched by the failpoint.
	other := runGrid(context.Background(), GridSpec{ID: "t-other", Workers: 1}, 3, func(_ context.Context, i int) (int, error) { return i, nil })
	if err := other.Err(); err != nil {
		t.Fatalf("failpoint leaked into another grid: %v", err)
	}
	// "once" mode fails only the first attempt, so one retry recovers.
	SetPolicy(Policy{Retries: 1})
	t.Setenv(failCellEnv, "t-inj:0:once")
	again := runGrid(context.Background(), GridSpec{ID: "t-inj", Workers: 1}, 2, func(_ context.Context, i int) (int, error) { return i + 7, nil })
	if err := again.Err(); err != nil {
		t.Fatalf("transient injected failure did not recover: %v", err)
	}
	if again.Results[0] != 7 {
		t.Errorf("recovered result = %d, want 7", again.Results[0])
	}
}

func TestCellErrorReason(t *testing.T) {
	long := strings.Repeat("x", 80)
	cases := []struct {
		ce   CellError
		want string
	}{
		{CellError{Panicked: true, Err: errors.New("panic: boom")}, "panic"},
		{CellError{TimedOut: true, Err: errors.New("deadline")}, "timeout"},
		{CellError{Err: errors.New("multi\n  line\tmessage")}, "multi line message"},
		{CellError{Err: errors.New(long)}, long[:47] + "…"},
	}
	for _, c := range cases {
		if got := c.ce.Reason(); got != c.want {
			t.Errorf("Reason(%+v) = %q, want %q", c.ce, got, c.want)
		}
	}
}

func TestGuardedSingleRun(t *testing.T) {
	resetRobustness(t)
	v, ce := Guarded("t-one", func() (int, error) { return 42, nil })
	if ce != nil || v != 42 {
		t.Fatalf("Guarded success = (%d, %v)", v, ce)
	}
	_, ce = Guarded("t-one", func() (int, error) { panic("solo crash") })
	if ce == nil || !ce.Panicked {
		t.Fatalf("Guarded did not contain the panic: %+v", ce)
	}
	var err error = ce
	if !strings.Contains(err.Error(), "solo crash") {
		t.Errorf("cause lost: %v", err)
	}
}
