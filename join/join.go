// Package join implements in-memory equi-joins on top of the hash tables —
// the query-processing use case that motivates the paper (§1: "hashing has
// plenty of applications in modern database systems, including join
// processing"). Two operators are provided:
//
//   - HashJoin: the classic two-phase build/probe join over one
//     single-threaded table. The build phase is a WORM write phase, the
//     probe phase a read phase with whatever unsuccessful-probe ratio the
//     outer relation induces — exactly the workload the paper measures, so
//     its scheme recommendations apply verbatim.
//   - NestedLoopJoin: the O(n*m) reference implementation used by the test
//     suite as a correctness oracle.
//
// The parallel join is pipe.HashJoin: a streaming build into one shared
// table, probed morsel-at-a-time on an exec pool.
//
// Joins here are primary-key / foreign-key joins: build-side keys are
// unique. Should duplicates occur anyway, the first payload per key wins —
// the natural semantics of the single-probe GetOrPutBatch build, which
// finds a key or claims its slot in one probe sequence per row. Each
// match invokes a caller-supplied emit function, so callers can
// materialize, count, or aggregate without intermediate allocation.
package join

import (
	"repro/decision"
	"repro/hashfn"
	"repro/table"
)

// Row is one tuple of a relation: a join key and a payload.
type Row struct {
	Key     uint64
	Payload uint64
}

// Relation is a slice of rows.
type Relation []Row

// Keys returns the keys of the relation as one column.
func (r Relation) Keys() []uint64 {
	out := make([]uint64, len(r))
	for i := range r {
		out[i] = r[i].Key
	}
	return out
}

// Emit receives one join match: the key and both payloads.
type Emit func(key, buildPayload, probePayload uint64)

// Config parameterizes a hash join.
type Config struct {
	// Scheme selects the build-side table; empty lets the paper's Figure 8
	// decision graph pick based on the join's shape.
	Scheme table.Scheme
	// Family is the hash-function class (default Mult, per the paper).
	Family hashfn.Family
	// LoadFactor is the build-side occupancy target (default 0.5: joins
	// are usually memory-rich and probe-bound).
	LoadFactor float64
	// Seed seeds the build-side table's hash function.
	Seed uint64
}

func (c Config) withDefaults(buildRows, probeRows int) Config {
	if c.Family == nil {
		c.Family = hashfn.MultFamily{}
	}
	if c.LoadFactor <= 0 || c.LoadFactor >= 1 {
		c.LoadFactor = 0.5
	}
	if c.Scheme == "" {
		// Ask the decision graph: a join build is a static (WORM) table;
		// reads dominate when the probe side is larger.
		choice := decision.MustRecommend(decision.Workload{
			LoadFactor:      c.LoadFactor,
			UnsuccessfulPct: 25, // unknowable upfront; assume a moderate miss rate
			WriteHeavy:      buildRows > probeRows,
			Dynamic:         false,
			Dense:           false,
		})
		c.Scheme = choice.Scheme
		if c.Scheme == table.SchemeChained24 {
			// Chained needs the §4.5 budget machinery; prefer RH for the
			// automatic path.
			c.Scheme = table.SchemeRH
		}
	}
	return c
}

// CapacityFor returns the power-of-two capacity that places n keys at or
// below the target load factor lf — the build-side pre-sizing rule every
// hash-join build in the repo uses (HashJoin and pipe's streaming build
// consume it alike, so their tables are sized identically). lf outside
// (0, 1) is treated as the join default 0.5.
func CapacityFor(n int, lf float64) int {
	if lf <= 0 || lf >= 1 {
		lf = 0.5
	}
	c := 8
	for float64(n) > lf*float64(c) {
		c *= 2
	}
	return c
}

// joinScratch is the reusable column buffer of one join's batched build and
// probe phases: row keys/payloads are gathered into columns one batch at a
// time, handed to the table's batched pipeline, and the hit lanes emitted.
type joinScratch struct {
	keys [table.BatchWidth]uint64
	vals [table.BatchWidth]uint64
	ok   [table.BatchWidth]bool
}

// buildBatched inserts all rows through the handle's single-probe
// GetOrPutBatch pipeline in row order: each build row costs exactly one
// probe sequence (find the key or claim its slot), instead of the probe
// plus full re-probe a Get-then-Put build would pay. Duplicate build keys
// keep the first payload.
func (sc *joinScratch) buildBatched(h *table.Handle, build Relation) error {
	for base := 0; base < len(build); base += table.BatchWidth {
		n := min(table.BatchWidth, len(build)-base)
		for i := 0; i < n; i++ {
			sc.keys[i] = build[base+i].Key
			sc.vals[i] = build[base+i].Payload
		}
		if _, err := h.GetOrPutBatch(sc.keys[:n], sc.vals[:n], sc.vals[:n], sc.ok[:n]); err != nil {
			return err
		}
	}
	return nil
}

// probeBatched probes all rows through the batched pipeline and emits every
// match, returning the match count.
func (sc *joinScratch) probeBatched(h *table.Handle, probe Relation, emit Emit) int {
	matches := 0
	for base := 0; base < len(probe); base += table.BatchWidth {
		n := min(table.BatchWidth, len(probe)-base)
		for i := 0; i < n; i++ {
			sc.keys[i] = probe[base+i].Key
		}
		matches += h.GetBatch(sc.keys[:n], sc.vals[:n], sc.ok[:n])
		if emit == nil {
			continue
		}
		for i := 0; i < n; i++ {
			if sc.ok[i] {
				emit(sc.keys[i], sc.vals[i], probe[base+i].Payload)
			}
		}
	}
	return matches
}

// HashJoin joins build ⋈ probe on Key, calling emit for every match. It
// returns the number of matches. Duplicate keys on the build side keep the
// first payload (build keys are expected unique — PK/FK joins); the probe
// side may repeat keys freely.
//
// Both phases run through the tables' batched pipelines: rows are gathered
// into one reusable column scratch per phase, so the per-key hash dispatch
// is amortized; the build issues exactly one probe sequence per row via
// GetOrPutBatch, and the probe phase's sequences overlap in the memory
// system.
func HashJoin(build, probe Relation, cfg Config, emit Emit) (int, error) {
	cfg = cfg.withDefaults(len(build), len(probe))
	h, err := table.Open(
		table.WithScheme(cfg.Scheme),
		table.WithCapacity(CapacityFor(len(build), cfg.LoadFactor)),
		table.WithMaxLoadFactor(0), // pre-sized for the build side: WORM contract
		table.WithHashFamily(cfg.Family),
		table.WithSeed(cfg.Seed),
	)
	if err != nil {
		return 0, err
	}
	var sc joinScratch
	if err := sc.buildBatched(h, build); err != nil {
		return 0, err
	}
	return sc.probeBatched(h, probe, emit), nil
}

// NestedLoopJoin is the quadratic reference join used as a test oracle.
func NestedLoopJoin(build, probe Relation, emit Emit) int {
	// Match HashJoin's GetOrPut build semantics: first payload per key wins.
	first := make(map[uint64]uint64, len(build))
	for _, b := range build {
		if _, ok := first[b.Key]; !ok {
			first[b.Key] = b.Payload
		}
	}
	matches := 0
	for _, p := range probe {
		if v, ok := first[p.Key]; ok {
			matches++
			if emit != nil {
				emit(p.Key, v, p.Payload)
			}
		}
	}
	return matches
}
