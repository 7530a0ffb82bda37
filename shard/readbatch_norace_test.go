//go:build !race

package shard_test

// A concurrent hammer on the optimistic batched read path. Race builds
// route every read through the locked fallback (read_racedetector.go),
// so only this non-race build runs the tables' batched walks
// concurrently, on plain loads of tables a writer is changing.

import (
	"sync"
	"testing"

	"repro/dist"
	"repro/table"
)

// TestConcurrentGetBatchScratch hammers GetBatch from several readers on
// the same non-migrating shards while a writer updates the same keys in
// place, on every scheme. Each reader probes the keys in its own order,
// so concurrent walks keep different keys in the same lane positions: if
// readers shared walk scratch (hash codes, cursors, live-lane lists), a
// lane would return another key's value, or a stale one. Stored values
// pack (version, lane), so every lane checks that its value belongs to
// its key and that the version never goes backwards for that reader. The
// key set includes the sentinel keys 0 and 2^64-1, which the
// open-addressing tables keep in side fields outside their slot arrays.
func TestConcurrentGetBatchScratch(t *testing.T) {
	const (
		tracked  = 512
		readers  = 4
		rounds   = 100
		laneBits = 20
		laneMask = 1<<laneBits - 1
	)
	gen := dist.New(dist.Sparse, 53)
	keys := make([]uint64, tracked)
	keys[0], keys[1] = 0, ^uint64(0)
	for i := 2; i < tracked; i++ {
		keys[i] = gen.Key(uint64(i))
	}
	encode := func(version, lane int) uint64 {
		return uint64(version)<<laneBits | uint64(lane)
	}

	for _, scheme := range table.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			// Four times the key count in slots: updates never cross the
			// growth threshold, so every read runs the batched walk.
			e := newEngine(t, scheme, 4, 4*tracked, 0.8, 61)
			vals := make([]uint64, tracked)
			for i := range keys {
				vals[i] = encode(1, i)
			}
			if _, err := e.PutBatch(keys, vals); err != nil {
				t.Fatal(err)
			}

			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					lane := func(i int) int { return (i + r*97) % tracked }
					probe := make([]uint64, tracked)
					for i := range probe {
						probe[i] = keys[lane(i)]
					}
					floor := make([]int, tracked)
					got := make([]uint64, tracked)
					ok := make([]bool, tracked)
					for {
						select {
						case <-done:
							return
						default:
						}
						e.GetBatch(probe, got, ok)
						for i := range probe {
							l := lane(i)
							if !ok[i] || int(got[i]&laneMask) != l {
								t.Errorf("reader %d: key %#x = (%#x,%v), want lane %d's value", r, probe[i], got[i], ok[i], l)
								return
							}
							v := int(got[i] >> laneBits)
							if v < floor[l] {
								t.Errorf("reader %d: key %#x went backwards: version %d after %d", r, probe[i], v, floor[l])
								return
							}
							floor[l] = v
						}
					}
				}(r)
			}

			// The writer: in-place updates only, alternating the batched
			// and scalar write paths.
			for round := 2; round < rounds+2 && !t.Failed(); round++ {
				for i := range keys {
					vals[i] = encode(round, i)
				}
				if round%2 == 0 {
					if _, err := e.PutBatch(keys, vals); err != nil {
						t.Error(err)
					}
					continue
				}
				for i, k := range keys {
					if _, err := e.Put(k, vals[i]); err != nil {
						t.Error(err)
						break
					}
				}
			}
			close(done)
			wg.Wait()
			if st := e.Stats(); st.MigrationsStarted != 0 {
				t.Fatalf("%d migrations started: the hammer must stay on non-migrating shards", st.MigrationsStarted)
			}
		})
	}
}
