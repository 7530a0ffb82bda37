package table

import (
	"testing"
	"time"

	"repro/internal/lanes"
)

// The batched walks run optimistically under the shard engine's seqlock:
// on plain loads of a table a writer may be changing, validated only
// afterwards. These tests hand ReadBatch table states no consistent
// history produces — the states a torn read can observe — and require
// every walk to end (see kern.ReadBatch).

// mustEnd runs ReadBatch over keys and fails the test if it does not
// return promptly. A walk that never ends leaves its goroutine spinning,
// which is acceptable in a test that has already failed.
func mustEnd(t *testing.T, tab Table, keys []uint64) ([]uint64, []bool) {
	t.Helper()
	vals := make([]uint64, len(keys))
	ok := make([]bool, len(keys))
	done := make(chan struct{})
	go func() {
		var sc lanes.Scratch
		tab.ReadBatch(&sc, keys, vals, ok)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: ReadBatch did not terminate on a torn table", tab.Name())
	}
	return vals, ok
}

func kernOf(tab Table) *kern {
	switch t := tab.(type) {
	case *LinearProbing:
		return &t.kern
	case *LinearProbingSoA:
		return &t.kern
	case *QuadraticProbing:
		return &t.kern
	case *RobinHood:
		return &t.kern
	case *DoubleHashing:
		return &t.kern
	}
	panic("not a kernel scheme: " + tab.Name())
}

// TestReadBatchEndsWithoutEmptySlot fills every empty slot with a
// tombstone while leaving the occupancy counters stale, as a reader
// racing the last inserts and deletes can see them: no probe sequence
// meets an empty slot, and the counters still claim one exists, so
// neither the empty-slot exit nor the full-table sweep diversion can end
// a miss. The round cap must, on the minimum capacity and a larger one.
func TestReadBatchEndsWithoutEmptySlot(t *testing.T) {
	for _, s := range KernelSchemes() {
		for _, capacity := range []int{8, 256} {
			tab := MustNew(s, Config{InitialCapacity: capacity, MaxLoadFactor: 0, Seed: 3})
			present := []uint64{11, 22, 33}
			for _, k := range present {
				if _, err := tab.TryPut(k, k*10); err != nil {
					t.Fatal(err)
				}
			}
			c := kernOf(tab)
			for i := 0; i < c.slotCount(); i++ {
				if si := uint64(i) << c.ks; c.kc[si] == emptyKey {
					c.kc[si] = tombKey
				}
			}
			absent := make([]uint64, 3*BatchWidth)
			for i := range absent {
				absent[i] = uint64(i+1) * 0x9E3779B97F4A7C15
			}
			keys := append(append([]uint64{}, present...), absent...)
			vals, ok := mustEnd(t, tab, keys)
			for i, k := range keys {
				if i >= len(present) && ok[i] {
					t.Fatalf("%s/%d: absent key %#x reported present", s, capacity, k)
				}
				// Robin Hood's early abort may stop a present key at a
				// foreign tombstone; the other sequences pass them.
				if i < len(present) && !c.robin && (!ok[i] || vals[i] != k*10) {
					t.Fatalf("%s/%d: key %d = (%d,%v), want (%d,true)", s, capacity, k, vals[i], ok[i], k*10)
				}
			}
		}
	}
}

// TestReadBatchEndsOnChainCycle links a chain entry to itself, the cycle
// a reader can follow when an entry it stands on is freed and reused
// mid-walk: the chained walks' round cap must end the lookup of an
// absent key that hashes into that bucket.
func TestReadBatchEndsOnChainCycle(t *testing.T) {
	cfg := Config{InitialCapacity: 16, MaxLoadFactor: 0, Seed: 5}
	collide := func(home func(uint64) uint64, key uint64, n int) []uint64 {
		var out []uint64
		for k := key + 1; len(out) < n; k++ {
			if home(k) == home(key) {
				out = append(out, k)
			}
		}
		return out
	}

	c8 := NewChained8(cfg)
	c8.Put(7, 70)
	e := c8.dir[c8.home(7)]
	e.Next = e
	absent := collide(c8.home, 7, 1)
	if _, ok := mustEnd(t, c8, absent); ok[0] {
		t.Fatal("ChainedH8: absent key reported present")
	}

	c24 := NewChained24(cfg)
	ks := collide(c24.home, 7, 2) // one inline, one overflow entry
	for _, k := range ks {
		c24.Put(k, k)
	}
	b := &c24.dir[c24.home(7)]
	if b.next == nil {
		t.Fatal("ChainedH24: colliding keys built no overflow chain")
	}
	b.next.Next = b.next
	if _, ok := mustEnd(t, c24, []uint64{7}); ok[0] {
		t.Fatal("ChainedH24: absent key reported present")
	}
}
