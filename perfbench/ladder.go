package main

import (
	"fmt"
	"time"

	"repro/hashfn"
	"repro/table"
)

// The per-layer ladder of the key path. Each rung feeds the workload's
// own inputs to one layer alone, and a layer's cost is reported as its
// delta over the rung beneath it:
//
//	hashfn.HashBatch -> unsharded table.Handle -> 4-shard table.Handle
//
// Both handle rungs replay the same operation sequence on a fresh handle
// that starts at 64K slots and grows at 0.7, so the write rungs include
// growth (rehashes on the unsharded table, incremental migrations on the
// sharded one).

const replayCapacity = 64 << 10

type keyLadder struct {
	rep  *report
	tr   *tracer
	seed uint64
	// Counters the workload's own timed phase produced: read retries and
	// fallbacks per key read, and the 2-client / 1-client read rate.
	retries, fallbacks, scale float64
}

// replay is a workload's operation sequence for the handle rungs: fill
// builds the table and reads it, mutate (optional) then writes over it.
// The probe profile is taken between the two, as the reads saw it.
type replay struct {
	fill, mutate func(h *table.Handle, k *calls) error
}

func (r replay) run(h *table.Handle, k *calls) (table.Stats, error) {
	if err := r.fill(h, k); err != nil {
		return table.Stats{}, err
	}
	st := h.Stats()
	if r.mutate != nil {
		return st, r.mutate(h, k)
	}
	return st, nil
}

// run measures the hash rung over hashKeys, replays the workload on an
// unsharded and on a 4-shard handle, and reports the key-path layer
// metrics.
func (l keyLadder) run(hashKeys []uint64, rp replay) error {
	lane := clients // the ladder's own span lane
	hashNs := hashRung(l.tr, lane, l.seed, hashKeys)

	single, err := openHandle(replayCapacity, 1, l.seed)
	if err != nil {
		return err
	}
	tk := newCalls(lane, "table", 1<<12)
	tk.tr = l.tr
	ts, err := rp.run(single, tk)
	if err != nil {
		return fmt.Errorf("table replay: %w", err)
	}
	singleLen := single.Len()
	single = nil
	settle()

	sharded, err := openHandle(replayCapacity, shards, l.seed)
	if err != nil {
		return err
	}
	sk := newCalls(lane, "shard", 1<<12)
	sk.tr = l.tr
	if _, err := rp.run(sharded, sk); err != nil {
		return fmt.Errorf("shard replay: %w", err)
	}
	es := sharded.EngineStats()
	if got := sharded.Len(); got != singleLen {
		l.rep.mismatch("replay: sharded handle holds %d keys, unsharded %d", got, singleLen)
	}
	sharded = nil
	settle()

	r := l.rep
	r.addLayer("hashfn.ns_per_key", "ns/key", hashNs)
	for op := opKind(0); op < numOps; op++ {
		r.addLayer("table."+opSuffix[op]+"_ns_per_key", "ns/key", tk.nsPerKey(op))
	}
	r.addLayer("table.mean_probe", "probes", ts.MeanProbe)
	r.addLayer("table.max_probe", "probes", float64(ts.MaxProbe))
	r.addLayer("table.rehashes", "count", float64(ts.Rehashes))
	for op := opKind(0); op < numOps; op++ {
		r.addLayer("shard."+opSuffix[op]+"_ns_per_key", "ns/key", sk.nsPerKey(op))
		r.addLayer("shard."+opSuffix[op]+"_overhead_ns_per_key", "ns/key", sk.nsPerKey(op)-tk.nsPerKey(op))
	}
	r.addLayer("shard.scale_2c", "ratio", l.scale)
	r.addLayer("shard.read_retry_ratio", "ratio", l.retries)
	r.addLayer("shard.read_fallback_ratio", "ratio", l.fallbacks)
	r.addLayer("shard.migrations", "count", float64(es.MigrationsDone))
	chunkUs := 0.0
	if es.MigrationChunks > 0 {
		chunkUs = float64(es.MigrationNanos) / float64(es.MigrationChunks) / 1e3
	}
	r.addLayer("shard.migration_chunk_us", "us", chunkUs)
	r.addLayer("shard.migrated_entries", "count", float64(es.MigratedEntries))
	return nil
}

var opSuffix = [numOps]string{"get", "put", "upsert", "delete"}

// hashRung times hashfn.HashBatch over keys in 1024-key batches with the
// function the tables draw (Mult), and returns the median ns/key of five
// passes.
func hashRung(tr *tracer, lane int, seed uint64, keys []uint64) float64 {
	fn := hashfn.MultFamily{}.New(seed)
	dst := make([]uint64, batchKeys)
	ns, _ := timeReps(5, func() error {
		s := tr.begin(lane, "hashfn.HashBatch", 0, -1)
		for lo := 0; lo+batchKeys <= len(keys); lo += batchKeys {
			hashfn.HashBatch(fn, keys[lo:lo+batchKeys], dst)
		}
		tr.end(lane, s)
		return nil
	})
	return ns / float64(len(keys)/batchKeys*batchKeys)
}

// scaleRung returns the GetBatch key rate on h at 2 clients divided by the
// rate at 1 client. newFill(c) returns client c's batch generator. Three
// alternating rounds of each keep the two sides under the same
// conditions.
func scaleRung(h *table.Handle, newFill func(c int) func(keys []uint64)) float64 {
	const slice = 300 * time.Millisecond
	var keys [2]int64 // by client count - 1
	var wall [2]time.Duration
	for round := 0; round < 3; round++ {
		for n := 1; n <= 2; n++ {
			counts := make([]int64, n)
			t0 := time.Now()
			runClients(n, func(c int) {
				fill := newFill(c)
				batch := make([]uint64, batchKeys)
				vals := make([]uint64, batchKeys)
				ok := make([]bool, batchKeys)
				for time.Since(t0) < slice {
					fill(batch)
					h.GetBatch(batch, vals, ok)
					counts[c] += batchKeys
				}
			})
			wall[n-1] += time.Since(t0)
			for _, v := range counts {
				keys[n-1] += v
			}
		}
	}
	return (float64(keys[1]) / wall[1].Seconds()) / (float64(keys[0]) / wall[0].Seconds())
}

// addTraceOverhead reports how much slower the traced seconds of the
// timed phase ran than the untraced ones, in percent.
func addTraceOverhead(rep *report, cfg runConfig, untraced, traced int64) {
	secs := int64(cfg.seconds / time.Second)
	tracedSecs, untracedSecs := secs/2, secs-secs/2
	pct := 0.0
	if traced > 0 && tracedSecs > 0 {
		pct = (float64(untraced)/float64(untracedSecs)/(float64(traced)/float64(tracedSecs)) - 1) * 100
	}
	rep.addLayer("trace.overhead_pct", "%", pct)
}
