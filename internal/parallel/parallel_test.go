package parallel

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mobiwlan/internal/stats"
)

func TestRunTrialsOrdered(t *testing.T) {
	for _, jobs := range []int{1, 2, 4, 8, 33} {
		got := RunTrials(100, jobs, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestRunTrialsCallsEachOnce(t *testing.T) {
	const n = 257
	var calls [n]atomic.Int32
	RunTrials(n, 7, func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("trial %d called %d times", i, c)
		}
	}
}

func TestRunTrialsEmptyAndDefaults(t *testing.T) {
	if got := RunTrials(0, 4, func(int) int { return 1 }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	if got := RunTrials(-3, 4, func(int) int { return 1 }); got != nil {
		t.Fatalf("n<0: got %v, want nil", got)
	}
	// jobs <= 0 selects the GOMAXPROCS default and still works.
	got := RunTrials(5, 0, func(i int) int { return i })
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("jobs=0: got %v", got)
	}
	if DefaultJobs() < 1 {
		t.Fatalf("DefaultJobs() = %d", DefaultJobs())
	}
}

// TestDefaultJobsFollowsGOMAXPROCS pins the default worker count to the
// processors Go may use, not the CPUs the host has: a lowered GOMAXPROCS
// must lower the default, and results stay identical either way.
func TestDefaultJobsFollowsGOMAXPROCS(t *testing.T) {
	want := RunTrials(16, 1, func(i int) int { return i * 3 })
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := DefaultJobs(); got != 1 {
		t.Fatalf("GOMAXPROCS 1: DefaultJobs() = %d, want 1", got)
	}
	if got := RunTrials(16, 0, func(i int) int { return i * 3 }); !reflect.DeepEqual(got, want) {
		t.Fatalf("GOMAXPROCS 1: got %v, want %v", got, want)
	}
	runtime.GOMAXPROCS(2)
	if got := DefaultJobs(); got != 2 {
		t.Fatalf("GOMAXPROCS 2: DefaultJobs() = %d, want 2", got)
	}
	if got := RunTrials(16, 0, func(i int) int { return i * 3 }); !reflect.DeepEqual(got, want) {
		t.Fatalf("GOMAXPROCS 2: got %v, want %v", got, want)
	}
}

// TestRunTrialsDeterministicRNG exercises the package's determinism
// contract end to end: trials that derive their RNG by splitting a shared
// root at their index produce identical streams at any worker count.
func TestRunTrialsDeterministicRNG(t *testing.T) {
	run := func(jobs int) []float64 {
		root := stats.NewRNG(2014)
		return RunTrials(64, jobs, func(i int) float64 {
			rng := root.Split(uint64(i))
			s := 0.0
			for k := 0; k < 100; k++ {
				s += rng.Float64()
			}
			return s
		})
	}
	want := run(1)
	for _, jobs := range []int{2, 3, 8, 64} {
		if got := run(jobs); !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d diverged from serial run", jobs)
		}
	}
}

// TestRunTrialsJobsExceedTrials pins the jobs-clamping edge: more
// workers than trials must still call each index exactly once and
// keep index order.
func TestRunTrialsJobsExceedTrials(t *testing.T) {
	const n = 3
	var calls [n]atomic.Int32
	got := RunTrials(n, 100, func(i int) int {
		calls[i].Add(1)
		return i + 1
	})
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("jobs=100, n=3: got %v", got)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("trial %d called %d times", i, c)
		}
	}
}

// TestRunTrialsZeroTrials covers trials == 0 for every jobs shape.
func TestRunTrialsZeroTrials(t *testing.T) {
	for _, jobs := range []int{-1, 0, 1, 8} {
		if got := RunTrials(0, jobs, func(int) int {
			t.Fatal("fn called for n=0")
			return 0
		}); got != nil {
			t.Fatalf("n=0 jobs=%d: got %v, want nil", jobs, got)
		}
	}
}

// TestRunTrialsNegativeJobs covers jobs <= 0 normalization beyond the
// zero value: any non-positive jobs selects the default worker count.
func TestRunTrialsNegativeJobs(t *testing.T) {
	for _, jobs := range []int{0, -1, -100} {
		got := RunTrials(5, jobs, func(i int) int { return i * 2 })
		if !reflect.DeepEqual(got, []int{0, 2, 4, 6, 8}) {
			t.Fatalf("jobs=%d: got %v", jobs, got)
		}
	}
}

// TestRunTrialsPanicPropagates requires a panicking trial to surface
// on the caller's goroutine — at every worker count, without killing
// the process and without deadlocking on the remaining trials.
func TestRunTrialsPanicPropagates(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 64} {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			RunTrials(32, jobs, func(i int) int {
				if i == 7 {
					panic("trial 7 exploded")
				}
				return i
			})
		}()
		select {
		case r := <-done:
			if r != "trial 7 exploded" {
				t.Fatalf("jobs=%d: recovered %v, want trial panic", jobs, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("jobs=%d: RunTrials deadlocked after worker panic", jobs)
		}
	}
}

// TestRunTrialsAllPanic drains cleanly even when every trial panics
// (each worker dies on its first pull).
func TestRunTrialsAllPanic(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		RunTrials(16, 4, func(i int) int { panic(i) })
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("want a propagated panic value, got nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunTrials deadlocked when all trials panic")
	}
}

func TestFlatten(t *testing.T) {
	got := Flatten([][]int{{1, 2}, nil, {3}, {}, {4, 5, 6}})
	if !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("got %v", got)
	}
	if got := Flatten[int](nil); len(got) != 0 {
		t.Fatalf("nil input: got %v", got)
	}
}
