package pipe_test

// Mid-stream failure semantics: cancellation between morsels surfaces as
// the context error from the terminal, a panicking stage anywhere in the
// chain is contained by the pool and surfaces as *exec.PanicError, and
// neither leaves the process wedged — the same first-error convention as
// the one-shot operators.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/agg"
	"repro/exec"
	"repro/internal/fault"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

func bigColumn(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	return keys
}

func TestCancelMidStream(t *testing.T) {
	keys := bigColumn(200_000)
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		err := pipe.FromColumns(keys, nil).
			Filter(func(_, _ uint64) bool {
				if seen.Add(1) == 10_000 {
					cancel()
				}
				return true
			}).
			Drain(pipe.Config{Workers: workers, MorselSize: 512, Ctx: ctx})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := seen.Load(); n >= int64(len(keys)) {
			t.Fatalf("workers=%d: scan ran to completion (%d rows) despite cancellation", workers, n)
		}
	}
}

func TestCancelMidHandleScan(t *testing.T) {
	// The serial handle walk checks cancellation at every morsel flush.
	h := table.MustOpen(table.WithSeed(5))
	for i := uint64(1); i <= 50_000; i++ {
		if _, err := h.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	err := pipe.FromHandle(h).
		Filter(func(_, _ uint64) bool {
			if seen.Add(1) == 1_000 {
				cancel()
			}
			return true
		}).
		Drain(pipe.Config{Workers: 1, MorselSize: 128, Ctx: ctx})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := seen.Load(); n >= 50_000 {
		t.Fatalf("handle scan ran to completion (%d rows) despite cancellation", n)
	}
}

// relation returns n rows with unique keys 1..n.
func relation(n int) join.Relation {
	rel := make(join.Relation, n)
	for i := range rel {
		rel[i] = join.Row{Key: uint64(i) + 1, Payload: uint64(i)}
	}
	return rel
}

// TestCancelBeforeRun: a pre-cancelled context stops a plain scan and a
// join (whose build phase runs first) before any morsel does work.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	streams := []struct {
		name string
		s    *pipe.Stream
	}{
		{"scan", pipe.FromColumns(bigColumn(1024), nil)},
		{"join", pipe.HashJoin(pipe.FromRelation(relation(10_000)), pipe.FromRelation(relation(10_000)),
			pipe.JoinConfig{Scheme: table.SchemeLP})},
	}
	for _, tc := range streams {
		if _, _, err := tc.s.Collect(pipe.Config{Workers: 4, Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestHashJoinErrFullPropagation: a table refusal during the build phase
// (injected at rate 1.0, the stand-in for a genuinely full build side)
// must surface from the terminal as the typed *table.FullError chain —
// through the batched build pipeline, the pool's first-error convention
// and any suppression wrapper — serial and parallel alike.
func TestHashJoinErrFullPropagation(t *testing.T) {
	var rates [fault.NumKinds]float64
	rates[fault.Full] = 1.0
	fault.Arm(fault.Config{Seed: 3, Rates: rates})
	defer fault.Disarm()

	for _, workers := range []int{1, 4} {
		_, err := pipe.HashJoin(pipe.FromRelation(relation(10_000)), pipe.FromRelation(relation(100)),
			pipe.JoinConfig{Scheme: table.SchemeLP, Seed: 3}).Count(pipe.Config{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: build under rate-1.0 refusals returned nil error", workers)
		}
		var fe *table.FullError
		if !errors.As(err, &fe) {
			t.Fatalf("workers=%d: error = %v, want *table.FullError in the chain", workers, err)
		}
		if !errors.Is(err, table.ErrFull) {
			t.Fatalf("workers=%d: error %v does not wrap table.ErrFull", workers, err)
		}
	}
}

func TestPanicInStage(t *testing.T) {
	keys := bigColumn(10_000)
	for _, workers := range []int{1, 8} {
		err := pipe.FromColumns(keys, nil).
			Map(func(k, v uint64) (uint64, uint64) {
				if k == 7_777 {
					panic("stage boom")
				}
				return k, v
			}).
			Drain(pipe.Config{Workers: workers, MorselSize: 256})
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *exec.PanicError", workers, err)
		}
		if pe.Value != "stage boom" {
			t.Fatalf("workers=%d: PanicError.Value = %v, want stage boom", workers, pe.Value)
		}
	}
}

func TestPanicInJoinProbeStage(t *testing.T) {
	// A panic downstream of the probe must not leak the build table's
	// state or wedge the probe pass.
	build := join.Relation{{Key: 1, Payload: 1}, {Key: 2, Payload: 2}}
	probe := make(join.Relation, 5_000)
	for i := range probe {
		probe[i] = join.Row{Key: uint64(i%2) + 1, Payload: uint64(i)}
	}
	for _, workers := range []int{1, 8} {
		err := pipe.HashJoin(pipe.FromRelation(build), pipe.FromRelation(probe), pipe.JoinConfig{}).
			Filter(func(_, v uint64) bool {
				if v == 4_000 {
					panic("probe boom")
				}
				return true
			}).
			Drain(pipe.Config{Workers: workers})
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *exec.PanicError", workers, err)
		}
	}
}

func TestPanicInGroupDrain(t *testing.T) {
	// The serial group drain runs as a pool task: a panicking downstream
	// stage is contained the same way as in parallel scans.
	err := pipe.GroupByStream(
		pipe.FromColumns(bigColumn(1_000), nil), pipe.GroupConfig{}, agg.Count,
	).
		Map(func(k, v uint64) (uint64, uint64) {
			if k == 500 {
				panic("drain boom")
			}
			return k, v
		}).
		Drain(pipe.Config{Workers: 1})
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *exec.PanicError", err)
	}
}

func TestSinkErrorStopsRun(t *testing.T) {
	sentinel := errors.New("sink refused")
	var calls atomic.Int64
	err := pipe.FromColumns(bigColumn(100_000), nil).
		Sink(pipe.Config{Workers: 4, MorselSize: 512}, func(_ int, _, _ []uint64) error {
			if calls.Add(1) == 3 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sink's sentinel", err)
	}
	if n := calls.Load(); n >= 100_000/512 {
		t.Fatalf("sink called %d times after first error; run did not stop early", n)
	}
}
