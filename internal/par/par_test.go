package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// run is RunCtx for infallible jobs under a background context.
func run[J, R any](workers int, jobs []J, fn func(J) R) []R {
	out, _ := RunCtx(context.Background(), workers, jobs, func(_ context.Context, j J) (R, error) {
		return fn(j), nil
	})
	return out
}

func TestRunPreservesInputOrder(t *testing.T) {
	jobs := make([]int, 1000)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{0, 1, 2, 7, 64, 5000} {
		out := run(workers, jobs, func(j int) int { return j * j })
		if len(out) != len(jobs) {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if out := run(8, nil, func(j int) int { return j }); out != nil {
		t.Errorf("empty job list: got %v", out)
	}
	out := run(8, []int{41}, func(j int) int { return j + 1 })
	if len(out) != 1 || out[0] != 42 {
		t.Errorf("single job: got %v", out)
	}
}

func TestRunExecutesEveryJobOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	jobs := make([]int, n)
	for i := range jobs {
		jobs[i] = i
	}
	run(16, jobs, func(j int) struct{} {
		counts[j].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// ---------------------------------------------------------------------
// Errors, panics and cancellation

func TestRunErrResultsAndErrors(t *testing.T) {
	jobs := []int{1, 2, 3, 4, 5}
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		results, errs := RunCtx(context.Background(), workers, jobs, func(_ context.Context, j int) (int, error) {
			if j%2 == 0 {
				return 0, boom
			}
			return j * 10, nil
		})
		for i, j := range jobs {
			if j%2 == 0 {
				var je *JobError
				if !errors.As(errs[i], &je) {
					t.Fatalf("workers=%d: errs[%d] = %v, want *JobError", workers, i, errs[i])
				}
				if je.Index != i || !errors.Is(je, boom) {
					t.Errorf("workers=%d: job error %v lacks index/cause", workers, je)
				}
			} else {
				if errs[i] != nil || results[i] != j*10 {
					t.Errorf("workers=%d: job %d: result %d err %v", workers, i, results[i], errs[i])
				}
			}
		}
	}
}

// TestRunErrPanicAttribution is the engine-hardening contract: a
// panicking job must be reported with its job index and original panic
// value, on both the serial (workers=1) and pooled (workers=8) paths,
// without crashing the process or losing sibling results.
func TestRunErrPanicAttribution(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 8} {
		results, errs := RunCtx(context.Background(), workers, jobs, func(_ context.Context, j int) (int, error) {
			if j == 3 || j == 6 {
				panic(fmt.Sprintf("deliberate failure in job value %d", j))
			}
			return j + 100, nil
		})
		for i := range jobs {
			if i == 3 || i == 6 {
				var je *JobError
				if !errors.As(errs[i], &je) {
					t.Fatalf("workers=%d: errs[%d] = %v, want *JobError", workers, i, errs[i])
				}
				if je.Index != i {
					t.Errorf("workers=%d: attributed to job %d, want %d", workers, je.Index, i)
				}
				var pe *PanicError
				if !errors.As(je, &pe) {
					t.Fatalf("workers=%d: cause %v is not a *PanicError", workers, je.Err)
				}
				want := fmt.Sprintf("deliberate failure in job value %d", i)
				if pe.Value != want {
					t.Errorf("workers=%d: panic value %v, want %q", workers, pe.Value, want)
				}
				if len(pe.Stack) == 0 {
					t.Errorf("workers=%d: panic stack not captured", workers)
				}
				if !strings.Contains(errs[i].Error(), fmt.Sprintf("job %d", i)) {
					t.Errorf("workers=%d: error text %q lacks job index", workers, errs[i].Error())
				}
			} else if errs[i] != nil || results[i] != i+100 {
				t.Errorf("workers=%d: sibling job %d lost: result %d err %v", workers, i, results[i], errs[i])
			}
		}
	}
}

func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any job starts
	jobs := make([]int, 16)
	var ran atomic.Int32
	_, errs := RunCtx(ctx, 4, jobs,
		func(context.Context, int) (int, error) {
			ran.Add(1)
			return 0, nil
		})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("job %d error %v, want context.Canceled", i, err)
		}
	}
	if ran.Load() != 0 {
		t.Errorf("%d jobs ran after cancellation", ran.Load())
	}
}
