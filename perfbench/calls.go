package main

import (
	"errors"
	"time"

	"repro/exec"
	"repro/hashfn"
	"repro/shard"
	"repro/table"
)

// opKind is the kind of one batch call into a handle.
type opKind int

const (
	opGet opKind = iota
	opPut
	opUpsert
	opDelete
	numOps
)

var opNames = [numOps]string{"GetBatch", "PutBatch", "UpsertBatch", "Delete"}

// calls times the batch calls one lane (a client goroutine, or the
// ladder) makes into a layer: per-kind latency samples and key counts,
// plus a span per call when tracing.
type calls struct {
	lane  int
	tr    *tracer // nil: no spans
	names [numOps]string
	lat   [numOps][]int64
	ends  [numOps][]int64 // when each call returned, in ns since origin
	keys  [numOps]int64
	id    uint64 // span id of the batch in flight
	// origin is the start of the timed phase the end times count from.
	origin time.Time
}

// newCalls prepares a lane whose spans are named layer.<op>; samples
// pre-sizes the latency buffers so the timed phase does not allocate for
// them.
func newCalls(lane int, layer string, samples int) *calls {
	k := &calls{lane: lane}
	for op := range k.names {
		k.names[op] = layer + "." + opNames[op]
		k.lat[op] = make([]int64, 0, samples)
		k.ends[op] = make([]int64, 0, samples)
	}
	return k
}

// time runs fn as one call of kind op over nkeys keys, under parent.
func (k *calls) time(op opKind, nkeys int, parent int32, fn func()) {
	s := k.tr.begin(k.lane, k.names[op], k.id, parent)
	t0 := time.Now()
	fn()
	t1 := time.Now()
	k.tr.end(k.lane, s)
	k.lat[op] = append(k.lat[op], t1.Sub(t0).Nanoseconds())
	k.ends[op] = append(k.ends[op], t1.Sub(k.origin).Nanoseconds())
	k.keys[op] += int64(nkeys)
}

// nsPerKey returns the mean cost of one key of kind op.
func (k *calls) nsPerKey(op opKind) float64 {
	if k.keys[op] == 0 {
		return 0
	}
	var sum int64
	for _, d := range k.lat[op] {
		sum += d
	}
	return float64(sum) / float64(k.keys[op])
}

func (k *calls) totalKeys() int64 {
	var n int64
	for _, v := range k.keys {
		n += v
	}
	return n
}

// openHandle opens the handle every point path uses: Robin Hood with
// multiply-shift hashing (the Open default), growing at growAt, split
// over parts shards (1 = the unsharded table).
func openHandle(capacity, parts int, seed uint64) (*table.Handle, error) {
	return table.Open(
		table.WithScheme(table.SchemeRH),
		table.WithHashFamily(hashfn.MultFamily{}),
		table.WithCapacity(capacity),
		table.WithMaxLoadFactor(growAt),
		table.WithPartitions(parts),
		table.WithSeed(seed),
	)
}

// typedFailure reports whether err is one of the library's typed
// failures, which the benchmark counts instead of stopping on.
func typedFailure(err error) bool {
	var degraded *shard.DegradedError
	var panicked *exec.PanicError
	return errors.Is(err, table.ErrFull) || errors.Is(err, exec.ErrOverloaded) ||
		errors.As(err, &degraded) || errors.As(err, &panicked)
}
