package main

import (
	"fmt"
	"time"

	"repro/dist"
	"repro/table"
)

// point-read: clients issue 1024-key GetBatch calls against one 4-shard
// handle prefilled with storedKeys sparse keys at 50% load factor (16M
// keys, 512 MiB: above the last-level cache). Keys come from dist's
// Sparse generator, a bijection of the index, so whether a drawn key is
// stored, and its value, follow from its index alone. Indexes are drawn
// from [0, 4/3·storedKeys): three lookups in four hit.

type lookupStream struct {
	gen     dist.Generator
	n, span uint64
	r       *rng
}

func newLookupStream(seed uint64, n int, stream uint64) *lookupStream {
	return &lookupStream{
		gen:  dist.New(dist.Sparse, seed),
		n:    uint64(n),
		span: uint64(n) + uint64(n)/3,
		r:    newRNG(seed, stream),
	}
}

// fill draws one batch of lookups and returns how many should hit.
func (s *lookupStream) fill(keys []uint64, want []bool) (hits int) {
	for j := range keys {
		i := s.r.below(s.span)
		keys[j] = s.gen.Key(i)
		want[j] = i < s.n
		if want[j] {
			hits++
		}
	}
	return hits
}

// checkLookups compares one answered batch with the oracle.
func checkLookups(rep *report, what string, keys, vals []uint64, ok, want []bool, got, wantHits int) {
	if got != wantHits {
		rep.mismatch("%s: %d hits, want %d", what, got, wantHits)
		return
	}
	for j := range keys {
		if ok[j] != want[j] || (ok[j] && vals[j] != payload(keys[j])) {
			rep.mismatch("%s: key %#x found=%t val=%#x, want found=%t val=%#x",
				what, keys[j], ok[j], vals[j], want[j], payload(keys[j]))
			return
		}
	}
}

// putKeys inserts the stored keys with indexes [lo, hi) in batches.
func putKeys(h *table.Handle, gen dist.Generator, lo, hi int, k *calls) error {
	keys := make([]uint64, batchKeys)
	vals := make([]uint64, batchKeys)
	for i := lo; i < hi; i += batchKeys {
		b := min(batchKeys, hi-i)
		for j := 0; j < b; j++ {
			keys[j] = gen.Key(uint64(i + j))
			vals[j] = payload(keys[j])
		}
		var ins int
		var err error
		k.time(opPut, b, -1, func() { ins, err = h.PutBatch(keys[:b], vals[:b]) })
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if ins != b {
			return fmt.Errorf("prefill: %d of %d fresh keys inserted", ins, b)
		}
	}
	return nil
}

// readClient is one point-read client's tally.
type readClient struct {
	k      *calls
	keysBy [2]int64 // keys read in untraced [0] and traced [1] seconds
}

// readLoop issues lookups until deadline (or for maxBatches when
// positive) and checks every answer, tracing every other second when tr
// is set.
func readLoop(rep *report, cfg runConfig, h *table.Handle, c int, s *lookupStream, t0, deadline time.Time, maxBatches int, tr *tracer) readClient {
	samples := maxBatches
	if samples <= 0 {
		samples = 1 << 18
	}
	rc := readClient{k: newCalls(c, "shard", samples)}
	rc.k.origin = t0
	keys := make([]uint64, batchKeys)
	vals := make([]uint64, batchKeys)
	ok := make([]bool, batchKeys)
	want := make([]bool, batchKeys)
	for b := 0; maxBatches <= 0 || b < maxBatches; b++ {
		now := time.Now()
		if maxBatches <= 0 && !now.Before(deadline) {
			break
		}
		var traced int
		rc.k.tr, traced = tr.second(t0)
		rc.k.id = uint64(c)<<40 | uint64(b)
		root := rc.k.tr.begin(c, "client.batch", rc.k.id, -1)
		wantHits := s.fill(keys, want)
		var got int
		rc.k.time(opGet, batchKeys, root, func() { got = h.GetBatch(keys, vals, ok) })
		if cfg.tamper != nil {
			cfg.tamper(vals)
		}
		checkLookups(rep, "point-read", keys, vals, ok, want, got, wantHits)
		rc.k.tr.end(c, root)
		rc.keysBy[traced] += batchKeys
	}
	return rc
}

func setupPointRead(cfg runConfig, rep *report) (*table.Handle, error) {
	n := cfg.sz.storedKeys
	gen := dist.New(dist.Sparse, cfg.seed)
	h, err := openHandle(2*n, shards, cfg.seed)
	if err != nil {
		return nil, err
	}
	errs := make([]error, clients)
	runClients(clients, func(c int) {
		errs[c] = putKeys(h, gen, c*n/clients, (c+1)*n/clients, newCalls(c, "shard", 0))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Warm-up: page faults, lazily built scratch and branch history land
	// here, in setup_s, and not in the timed tail.
	runClients(clients, func(c int) {
		readLoop(rep, cfg, h, c, newLookupStream(cfg.seed, n, 100+uint64(c)), time.Time{}, time.Time{}, cfg.sz.warmBatches, nil)
	})
	return h, nil
}

func runPointRead(cfg runConfig, rep *report, tr *tracer) error {
	n := cfg.sz.storedKeys
	var h *table.Handle
	setups := make([]float64, 0, cfg.sz.setupReps)
	for i := 0; i < cfg.sz.setupReps; i++ {
		h = nil
		settle()
		t0 := time.Now()
		var err error
		if h, err = setupPointRead(cfg, rep); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.workingSet(h.MemoryFootprint())
	settle()

	res := make([]readClient, clients)
	es0 := h.EngineStats()
	alloc0 := totalAlloc()
	t0 := time.Now()
	deadline := t0.Add(cfg.seconds)
	runClients(clients, func(c int) {
		res[c] = readLoop(rep, cfg, h, c, newLookupStream(cfg.seed, n, uint64(c)), t0, deadline, 0, tr)
	})
	alloc := totalAlloc() - alloc0
	es1 := h.EngineStats()

	var lat, ends []int64
	var keys, traced, untraced int64
	for _, rc := range res {
		lat = append(lat, rc.k.lat[opGet]...)
		ends = append(ends, rc.k.ends[opGet]...)
		keys += rc.k.keys[opGet]
		untraced += rc.keysBy[0]
		traced += rc.keysBy[1]
	}
	rep.attempted = int64(len(lat))
	if got := h.Len(); got != n {
		rep.mismatch("point-read: Len() = %d after the run, want %d", got, n)
	}

	setup := median(setups)
	perSec, p50, tail := windowed(ends, lat, int(cfg.seconds/time.Second), pointTail)
	kps := perSec * batchKeys
	p50, tail = p50/1e3, tail/1e3
	allocPerKey := float64(alloc) / float64(keys)
	rep.addEndToEnd(setup, kps, p50, tail, allocPerKey)

	rep.addNamed("setup_s", "s", setup)
	rep.addNamed("keys_per_s", "1/s", kps)
	rep.addNamed("read_p50_us", "us", p50)
	rep.addNamed("read_p99_us", "us", tail)
	rep.addNamed("bytes_per_key", "B", float64(h.MemoryFootprint())/float64(h.Len()))
	rep.addNamed("alloc_bytes_per_key", "B", allocPerKey)
	rep.addNamed("fail_ratio", "ratio", 0)
	rep.addNamed("read_samples", "count", float64(len(lat)))

	if tr == nil {
		return nil
	}
	// The per-layer ladder. The scale rung and the read-path counters use
	// the workload's own handle; the replays rebuild it alone.
	scale := scaleRung(h, func(c int) func(keys []uint64) {
		s := newLookupStream(cfg.seed, n, 200+uint64(c))
		want := make([]bool, batchKeys)
		return func(keys []uint64) { s.fill(keys, want) }
	})
	h = nil
	settle()
	lad := keyLadder{
		rep: rep, tr: tr, seed: cfg.seed,
		retries:   float64(es1.ReadRetries-es0.ReadRetries) / float64(keys),
		fallbacks: float64(es1.ReadFallbacks-es0.ReadFallbacks) / float64(keys),
		scale:     scale,
	}
	hashKeys := make([]uint64, n/4)
	s := newLookupStream(cfg.seed, n, 0)
	want := make([]bool, len(hashKeys))
	s.fill(hashKeys, want)
	if err := lad.run(hashKeys, replayPointRead(rep, cfg)); err != nil {
		return err
	}
	if err := queryLadder(rep, tr, cfg, newQueryData(cfg.seed, cfg.sz.customers, cfg.sz.orders)); err != nil {
		return err
	}
	addTraceOverhead(rep, cfg, untraced, traced)
	return nil
}

// replayPointRead feeds the point-read inputs to one handle alone: the
// prefill and client 0's first lookups, then upserts over the following
// lookups and deletes of the first stored keys.
func replayPointRead(rep *report, cfg runConfig) replay {
	n := cfg.sz.storedKeys
	gen := dist.New(dist.Sparse, cfg.seed)
	s := newLookupStream(cfg.seed, n, 0)
	keys := make([]uint64, batchKeys)
	vals := make([]uint64, batchKeys)
	ok := make([]bool, batchKeys)
	want := make([]bool, batchKeys)
	fill := func(h *table.Handle, k *calls) error {
		s = newLookupStream(cfg.seed, n, 0)
		if err := putKeys(h, gen, 0, n, k); err != nil {
			return err
		}
		for b := 0; b < n/4/batchKeys; b++ {
			wantHits := s.fill(keys, want)
			var got int
			k.time(opGet, batchKeys, -1, func() { got = h.GetBatch(keys, vals, ok) })
			checkLookups(rep, "point-read replay", keys, vals, ok, want, got, wantHits)
		}
		return nil
	}
	mutate := func(h *table.Handle, k *calls) error {
		bump := func(_ int, old uint64, _ bool) uint64 { return old + 1 }
		for b := 0; b < n/16/batchKeys; b++ {
			s.fill(keys, want)
			var err error
			k.time(opUpsert, batchKeys, -1, func() { _, err = h.UpsertBatch(keys, bump) })
			if err != nil {
				return fmt.Errorf("replay upsert: %w", err)
			}
		}
		for b := 0; b < n/16/batchKeys; b++ {
			for j := range keys {
				keys[j] = gen.Key(uint64(b*batchKeys + j))
			}
			deleted := 0
			k.time(opDelete, batchKeys, -1, func() {
				for _, key := range keys {
					if h.Delete(key) {
						deleted++
					}
				}
			})
			if deleted != batchKeys {
				rep.mismatch("point-read replay: %d of %d stored keys deleted", deleted, batchKeys)
			}
		}
		return nil
	}
	return replay{fill: fill, mutate: mutate}
}
