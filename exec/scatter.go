package exec

// The one scatter→group-major→gather primitive. The sharded engine
// regroups every key batch by the top bits of its routing hash before
// working shard-by-shard; this file is the single implementation of that
// stable scatter.

import "repro/hashfn"

// Scatter is one stable scatter of a key column into groups (shards):
// the keys regrouped group-major, the original lane of every staged slot,
// per-group extents, and value/flag staging areas sized to match. The
// scatter is stable — keys of the same group keep their input order — so
// duplicate keys (which always share a group) retain sequential semantics
// when the staged ranges are applied in order.
//
// After Route, group j's staged range is Keys[Starts[j]:Starts[j+1]], and
// staged slot i came from input lane Orig[i]. Vals and OK are scratch
// columns of the same length as Keys for the caller's values and result
// flags; the usual cycle is
//
//	scatter values:  for i, oi := range sc.Orig { sc.Vals[i] = vals[oi] }
//	apply group j:   over sc.Keys[lo:hi], sc.Vals[lo:hi], sc.OK[lo:hi]
//	gather results:  for i, oi := range sc.Orig { out[oi] = sc.Vals[i] }
//
// A Scatter may be reused across calls (Route grows the buffers in place,
// so steady-state staging allocates nothing; the sharded engine pools
// them, one per in-flight batch call) but is not safe for concurrent
// Route calls; concurrent workers may write DISJOINT staged
// ranges of Vals/OK between a Route and the gather.
type Scatter struct {
	Keys   []uint64
	Vals   []uint64
	OK     []bool
	Orig   []int32
	Starts []int32

	group []int32
	pos   []int32
	hash  [hashfn.DefaultBatchWidth]uint64
}

// growSlice returns s with length exactly n, reusing its backing array
// when possible.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Route scatters keys into groups groups by the top bits of router's hash
// (group = hash >> shift, the radix scheme the paper cites for parallel
// joins), bulk-hashing the router in batch-width chunks so its dispatch
// is paid once per chunk. shift must be 64 - log2(groups).
func (sc *Scatter) Route(router hashfn.Function, shift uint, groups int, keys []uint64) {
	sc.group = growSlice(sc.group, len(keys))
	group := sc.group
	for base := 0; base < len(keys); base += hashfn.DefaultBatchWidth {
		n := min(hashfn.DefaultBatchWidth, len(keys)-base)
		hashfn.HashBatch(router, keys[base:base+n], sc.hash[:])
		for i := 0; i < n; i++ {
			group[base+i] = int32(sc.hash[i] >> shift)
		}
	}
	sc.Starts = growSlice(sc.Starts, groups+1)
	starts := sc.Starts
	clear(starts)
	for _, j := range group {
		starts[j+1]++
	}
	for j := 0; j < groups; j++ {
		starts[j+1] += starts[j]
	}
	sc.Keys = growSlice(sc.Keys, len(keys))
	sc.Vals = growSlice(sc.Vals, len(keys))
	sc.OK = growSlice(sc.OK, len(keys))
	sc.Orig = growSlice(sc.Orig, len(keys))
	// One stable counting pass over per-group cursors.
	sc.pos = growSlice(sc.pos, groups)
	pos := sc.pos
	copy(pos, starts[:groups])
	for i, k := range keys {
		j := group[i]
		at := pos[j]
		sc.Keys[at] = k
		sc.Orig[at] = int32(i)
		pos[j]++
	}
}
