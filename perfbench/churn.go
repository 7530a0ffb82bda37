package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/dist"
	"repro/shard"
	"repro/table"
)

// point-churn: clients on disjoint key ranges of one 4-shard handle that
// starts at 64K slots and grows at 0.7. Each client repeats a cycle of
// ten 1024-key batches: five GetBatch, three PutBatch of fresh keys, one
// UpsertBatch and one run of 1024 scalar Deletes, so the table keeps
// growing.
//
// The run is a sequence of episodes. Each opens a fresh handle, brings
// the clients to their starting live sets (the episode's set-up), then
// runs churnCycles cycles per client: every shard completes at least
// four migrations on its way from 16K to 512K slots, and the table
// outgrows L2. An episode is the
// unit every figure is a median over, because a single growing table's
// rates are not stationary: they would depend on how far a run got and
// where its migrations fell.
//
// Client c owns the dist Sparse keys at indexes c<<40 + seq. Puts take
// the next seqs and deletes retire the oldest, so the client's live set
// is always the range [tail, head); the oracle is that range plus the
// number of upserts applied to each seq.

var churnCycle = [10]opKind{opGet, opPut, opGet, opUpsert, opGet, opPut, opGet, opDelete, opGet, opPut}

// churnWarmCycles closes each episode's set-up: a few cycles, so the
// timed cycles start from warm code paths and a table that fits in cache.
const churnWarmCycles = 8

type churnClient struct {
	c          int
	gen        dist.Generator
	r          *rng
	head, tail uint64
	upserts    []uint16 // upserts applied, by seq
	step       int

	keys, vals, seqs, expOld []uint64
	ok, want                 []bool
	attempted, failed        int64
	keysBy                   [2]int64
}

func newChurnClient(seed uint64, c, episode int) *churnClient {
	return &churnClient{
		c:      c,
		gen:    dist.New(dist.Sparse, seed),
		r:      newRNG(seed, 300+uint64(episode*clients+c)),
		keys:   make([]uint64, batchKeys),
		vals:   make([]uint64, batchKeys),
		seqs:   make([]uint64, batchKeys),
		expOld: make([]uint64, batchKeys),
		ok:     make([]bool, batchKeys),
		want:   make([]bool, batchKeys),
	}
}

func (cl *churnClient) key(seq uint64) uint64 { return cl.gen.Key(uint64(cl.c)<<40 + seq) }
func (cl *churnClient) value(seq uint64) uint64 {
	return payload(cl.key(seq)) + uint64(cl.upserts[seq])
}

// do issues the client's next batch on h, timed by k, and checks the
// answer. A typed failure is counted and the batch retried (puts and
// upserts are written to be idempotent); an error that persists ends the
// run.
func (cl *churnClient) do(rep *report, cfg runConfig, h *table.Handle, k *calls, root int32) error {
	op := churnCycle[cl.step%len(churnCycle)]
	cl.step++
	cl.attempted++
	switch op {
	case opGet:
		cl.get(rep, cfg, h, k, root)
	case opPut:
		return cl.put(rep, h, k, root)
	case opUpsert:
		return cl.upsert(rep, h, k, root)
	case opDelete:
		cl.del(rep, h, k, root)
	}
	return nil
}

// get reads a batch drawn from [tail-live/6, head+live/6): about three
// in four keys are live, the rest are retired or not yet written.
func (cl *churnClient) get(rep *report, cfg runConfig, h *table.Handle, k *calls, root int32) {
	live := cl.head - cl.tail
	lo := cl.tail - min(cl.tail, live/6)
	hi := cl.head + live/6
	wantHits := 0
	for j := range cl.keys {
		seq := lo + cl.r.below(hi-lo)
		cl.seqs[j], cl.keys[j] = seq, cl.key(seq)
		cl.want[j] = seq >= cl.tail && seq < cl.head
		if cl.want[j] {
			wantHits++
		}
	}
	var got int
	k.time(opGet, batchKeys, root, func() { got = h.GetBatch(cl.keys, cl.vals, cl.ok) })
	if cfg.tamper != nil {
		cfg.tamper(cl.vals)
	}
	if got != wantHits {
		rep.mismatch("point-churn client %d: %d hits, want %d", cl.c, got, wantHits)
		return
	}
	for j, seq := range cl.seqs {
		if cl.ok[j] != cl.want[j] || (cl.ok[j] && cl.vals[j] != cl.value(seq)) {
			rep.mismatch("point-churn client %d: seq %d found=%t val=%#x, want found=%t", cl.c, seq, cl.ok[j], cl.vals[j], cl.want[j])
			return
		}
	}
}

func (cl *churnClient) put(rep *report, h *table.Handle, k *calls, root int32) error {
	for j := range cl.keys {
		cl.keys[j] = cl.key(cl.head + uint64(j))
		cl.vals[j] = payload(cl.keys[j])
		cl.upserts = append(cl.upserts, 0)
	}
	for attempt := 0; ; attempt++ {
		var ins int
		var err error
		k.time(opPut, batchKeys, root, func() { ins, err = h.PutBatch(cl.keys, cl.vals) })
		if err == nil {
			if attempt == 0 && ins != batchKeys {
				rep.mismatch("point-churn client %d: PutBatch inserted %d of %d fresh keys", cl.c, ins, batchKeys)
			}
			break
		}
		if err := cl.failure(err, attempt); err != nil {
			return err
		}
	}
	cl.head += batchKeys
	return nil
}

// upsert increments 1024 consecutive live seqs (distinct keys, spread
// over the shards by the hash), checking each old value in the callback.
func (cl *churnClient) upsert(rep *report, h *table.Handle, k *calls, root int32) error {
	start := cl.tail + cl.r.below(cl.head-cl.tail-batchKeys+1)
	for j := range cl.keys {
		cl.keys[j] = cl.key(start + uint64(j))
		cl.expOld[j] = cl.value(start + uint64(j))
	}
	for attempt := 0; ; attempt++ {
		bad := 0
		fn := func(lane int, old uint64, exists bool) uint64 {
			// A retried batch may find lanes the failed attempt applied.
			if !exists || (old != cl.expOld[lane] && (attempt == 0 || old != cl.expOld[lane]+1)) {
				bad++
			}
			return cl.expOld[lane] + 1
		}
		var ins int
		var err error
		k.time(opUpsert, batchKeys, root, func() { ins, err = h.UpsertBatch(cl.keys, fn) })
		if err == nil {
			if ins != 0 || bad != 0 {
				rep.mismatch("point-churn client %d: UpsertBatch inserted %d keys and saw %d wrong old values", cl.c, ins, bad)
			}
			break
		}
		if err := cl.failure(err, attempt); err != nil {
			return err
		}
	}
	for j := uint64(0); j < batchKeys; j++ {
		cl.upserts[start+j]++
	}
	return nil
}

func (cl *churnClient) del(rep *report, h *table.Handle, k *calls, root int32) {
	missing := 0
	k.time(opDelete, batchKeys, root, func() {
		for j := uint64(0); j < batchKeys; j++ {
			if !h.Delete(cl.key(cl.tail + j)) {
				missing++
			}
		}
	})
	if missing != 0 {
		rep.mismatch("point-churn client %d: %d live keys not found by Delete", cl.c, missing)
	}
	cl.tail += batchKeys
}

func (cl *churnClient) failure(err error, attempt int) error {
	if !typedFailure(err) {
		return err
	}
	cl.failed++
	if attempt >= 2 {
		return fmt.Errorf("client %d: batch still failing after %d attempts: %w", cl.c, attempt+1, err)
	}
	return nil
}

// sweep checks, after the run, that every live key is found with its
// value and that the last retired batch is gone.
func (cl *churnClient) sweep(rep *report, h *table.Handle) {
	check := func(lo, hi uint64, live bool) {
		for s := lo; s < hi; s += batchKeys {
			b := int(min(batchKeys, hi-s))
			for j := 0; j < b; j++ {
				cl.keys[j] = cl.key(s + uint64(j))
			}
			got := h.GetBatch(cl.keys[:b], cl.vals[:b], cl.ok[:b])
			want := 0
			if live {
				want = b
			}
			if got != want {
				rep.mismatch("point-churn sweep client %d: %d of %d keys at seq %d found, want %d", cl.c, got, b, s, want)
				return
			}
			for j := 0; live && j < b; j++ {
				if cl.vals[j] != cl.value(s+uint64(j)) {
					rep.mismatch("point-churn sweep client %d: seq %d holds %#x", cl.c, s+uint64(j), cl.vals[j])
					return
				}
			}
		}
	}
	check(cl.tail, cl.head, true)
	check(cl.tail-min(cl.tail, batchKeys), cl.tail, false)
}

// episode is one point-churn episode's results.
type episode struct {
	h               *table.Handle
	cls             []*churnClient
	setup, measured float64 // seconds
	reads, writes   []int64 // call latencies, ns
	keys, readKeys  int64
	alloc           uint64
	start, end      shard.Stats
	keysBy          [2]int64
}

// runEpisode sets up a fresh handle and runs churnCycles cycles per
// client on it, then checks Len and sweeps every live key. t0 is the
// start of the timed phase, which decides which seconds are traced.
func runEpisode(rep *report, cfg runConfig, ep int, t0 time.Time, tr *tracer) (episode, error) {
	runtime.GC()
	e := episode{cls: make([]*churnClient, clients)}
	s0 := time.Now()
	h, err := openHandle(replayCapacity, shards, cfg.seed)
	if err != nil {
		return e, err
	}
	e.h = h
	errs := make([]error, clients)
	runClients(clients, func(c int) {
		e.cls[c] = newChurnClient(cfg.seed, c, ep)
		errs[c] = e.cls[c].start(rep, cfg, h, newCalls(c, "shard", 0))
	})
	e.setup = time.Since(s0).Seconds()
	if err := errors.Join(errs...); err != nil {
		return e, err
	}

	steps := cfg.sz.churnCycles * len(churnCycle)
	ks := make([]*calls, clients)
	e.start = h.EngineStats()
	alloc0 := totalAlloc()
	m0 := time.Now()
	runClients(clients, func(c int) {
		cl := e.cls[c]
		k := newCalls(c, "shard", steps)
		ks[c] = k
		for b := 0; b < steps; b++ {
			var traced int
			k.tr, traced = tr.second(t0)
			k.id = uint64(ep)<<48 | uint64(c)<<40 | uint64(b)
			root := k.tr.begin(c, "client.batch", k.id, -1)
			if errs[c] = cl.do(rep, cfg, h, k, root); errs[c] != nil {
				return
			}
			k.tr.end(c, root)
			cl.keysBy[traced] += batchKeys
		}
	})
	e.measured = time.Since(m0).Seconds()
	e.alloc = totalAlloc() - alloc0
	e.end = h.EngineStats()
	if err := errors.Join(errs...); err != nil {
		return e, err
	}

	var live int64
	for c, k := range ks {
		cl := e.cls[c]
		e.reads = append(e.reads, k.lat[opGet]...)
		for _, op := range []opKind{opPut, opUpsert, opDelete} {
			e.writes = append(e.writes, k.lat[op]...)
		}
		e.keys += k.totalKeys()
		e.readKeys += k.keys[opGet]
		live += int64(cl.head - cl.tail)
		rep.attempted += cl.attempted
		rep.failed += cl.failed
		e.keysBy[0] += cl.keysBy[0]
		e.keysBy[1] += cl.keysBy[1]
	}
	if got := h.Len(); int64(got) != live {
		rep.mismatch("point-churn: Len() = %d after episode %d, clients hold %d live keys", got, ep, live)
	}
	runClients(clients, func(c int) { e.cls[c].sweep(rep, h) })
	return e, nil
}

// start puts the client's starting keys and runs the warm-up cycles.
func (cl *churnClient) start(rep *report, cfg runConfig, h *table.Handle, k *calls) error {
	// Sized for every put of the episode, so the measured cycles do not
	// allocate for the oracle.
	puts := cfg.sz.churnStart + (churnWarmCycles+cfg.sz.churnCycles)*3*batchKeys
	cl.upserts = make([]uint16, 0, puts)
	for cl.head < uint64(cfg.sz.churnStart) {
		if err := cl.put(rep, h, k, -1); err != nil {
			return err
		}
	}
	for i := 0; i < churnWarmCycles*len(churnCycle); i++ {
		if err := cl.do(rep, cfg, h, k, -1); err != nil {
			return err
		}
	}
	cl.attempted, cl.failed = 0, 0
	return nil
}

// minEpisodes keeps the medians meaningful on short runs.
const minEpisodes = 3

func runPointChurn(cfg runConfig, rep *report, tr *tracer) error {
	// One untimed episode first: the heap, the page tables and the code
	// paths are warm before the first measured one.
	if _, err := runEpisode(rep, cfg, 0, time.Now(), nil); err != nil {
		return err
	}
	rep.attempted, rep.failed = 0, 0

	var eps []episode
	t0 := time.Now()
	for ep := 1; len(eps) < minEpisodes || time.Since(t0) < cfg.seconds; ep++ {
		if len(eps) > 0 {
			eps[len(eps)-1].h, eps[len(eps)-1].cls = nil, nil // keep only the last table alive
		}
		e, err := runEpisode(rep, cfg, ep, t0, tr)
		if err != nil {
			return err
		}
		eps = append(eps, e)
	}
	last := eps[len(eps)-1]
	rep.workingSet(last.h.MemoryFootprint())

	// Each figure is the median over the episodes.
	field := func(f func(e episode) float64) float64 {
		xs := make([]float64, len(eps))
		for i, e := range eps {
			xs[i] = f(e)
		}
		return median(xs)
	}
	var keys, readKeys, untraced, traced int64
	var alloc, retries, fallbacks, migrations uint64
	for _, e := range eps {
		keys += e.keys
		readKeys += e.readKeys
		alloc += e.alloc
		retries += e.end.ReadRetries - e.start.ReadRetries
		fallbacks += e.end.ReadFallbacks - e.start.ReadFallbacks
		migrations += e.end.MigrationsDone - e.start.MigrationsDone
		untraced += e.keysBy[0]
		traced += e.keysBy[1]
	}
	setup := field(func(e episode) float64 { return e.setup })
	kps := float64(last.keys) / field(func(e episode) float64 { return e.measured })
	p50 := field(func(e episode) float64 { return percentile(e.reads, 0.5) }) / 1e3
	tail := field(func(e episode) float64 { return percentile(e.reads, churnTail) }) / 1e3
	allocPerKey := float64(alloc) / float64(keys)
	rep.addEndToEnd(setup, kps, p50, tail, allocPerKey)

	rep.addNamed("setup_s", "s", setup)
	rep.addNamed("keys_per_s", "1/s", kps)
	rep.addNamed("read_p50_us", "us", p50)
	rep.addNamed("read_p95_us", "us", tail)
	rep.addNamed("read_p99_us", "us", field(func(e episode) float64 { return percentile(e.reads, pointTail) })/1e3)
	rep.addNamed("write_p50_us", "us", field(func(e episode) float64 { return percentile(e.writes, 0.5) })/1e3)
	rep.addNamed("write_p99_us", "us", field(func(e episode) float64 { return percentile(e.writes, pointTail) })/1e3)
	rep.addNamed("bytes_per_key", "B", float64(last.h.MemoryFootprint())/float64(last.h.Len()))
	rep.addNamed("alloc_bytes_per_key", "B", allocPerKey)
	rep.addNamed("fail_ratio", "ratio", float64(rep.failed)/float64(rep.attempted))
	rep.addNamed("episodes", "count", float64(len(eps)))
	rep.addNamed("live_keys_per_episode", "count", float64(last.h.Len()))
	rep.addNamed("migrations_per_episode", "count", float64(migrations)/float64(len(eps)))

	if tr == nil {
		return nil
	}
	scale := scaleRung(last.h, func(c int) func(keys []uint64) {
		cl := last.cls[c]
		r := newRNG(cfg.seed, 400+uint64(c))
		return func(keys []uint64) {
			for j := range keys {
				keys[j] = cl.key(cl.tail + r.below(cl.head-cl.tail))
			}
		}
	})
	eps, last = nil, episode{}
	settle()
	lad := keyLadder{
		rep: rep, tr: tr, seed: cfg.seed,
		retries:   float64(retries) / float64(readKeys),
		fallbacks: float64(fallbacks) / float64(readKeys),
		scale:     scale,
	}
	// The hash rung hashes the keys client 0 writes first.
	hashKeys := dist.New(dist.Sparse, cfg.seed).Keys(1 << 20)
	if err := lad.run(hashKeys, replay{fill: func(h *table.Handle, k *calls) error {
		// Client 0 alone through its first episode: the batches it issued.
		cl := newChurnClient(cfg.seed, 0, 1)
		if err := cl.start(rep, cfg, h, k); err != nil {
			return err
		}
		for i := 0; i < cfg.sz.churnCycles*len(churnCycle); i++ {
			if err := cl.do(rep, cfg, h, k, -1); err != nil {
				return err
			}
		}
		return nil
	}}); err != nil {
		return err
	}
	if err := queryLadder(rep, tr, cfg, newQueryData(cfg.seed, cfg.sz.customers, cfg.sz.orders)); err != nil {
		return err
	}
	addTraceOverhead(rep, cfg, untraced, traced)
	return nil
}
