package main

import (
	"fmt"
	"time"

	"repro/agg"
	"repro/exec"
	"repro/join"
	"repro/pipe"
	"repro/table"
)

// query: one client runs pipe queries at two workers, alternating
//
//	segment-revenue: SELECT c.segment, COUNT(*), SUM(o.cents)
//	                 FROM orders o JOIN customers c ON o.custkey = c.key
//	                 WHERE o.cents >= 5000 GROUP BY c.segment
//	repeat-customers: SELECT COUNT(*) FROM (SELECT custkey FROM orders
//	                  GROUP BY custkey HAVING COUNT(*) >= 3)
//
// over 64K customers (a 2 MiB build table: fits in L2) and 2M orders,
// one in eleven of which references no customer. The oracle is a plain
// map computation made in setup.

const (
	segments   = 8
	maxCents   = 10_000
	centsCut   = maxCents / 2 // the filter keeps half the orders
	minOrders  = 3
	queryWorks = 2 // pipe workers
)

type queryData struct {
	customers, orders join.Relation

	// The oracle.
	segCount, segSum [segments]uint64
	repeat           int // customers with at least minOrders orders
	filtered         int // orders passing the filter
	// The filtered orders, and the joined (segment, cents) columns:
	// inputs of the join and agg rungs, which feed one layer alone.
	filteredOrders join.Relation
	segCol, cents  []uint64
}

func newQueryData(seed uint64, customers, orders int) *queryData {
	d := &queryData{customers: make(join.Relation, customers), orders: make(join.Relation, orders)}
	r := newRNG(seed, 500)
	for i := range d.customers {
		d.customers[i] = join.Row{Key: uint64(i) + 1, Payload: r.below(segments)}
	}
	span := uint64(customers) * 11 / 10
	for i := range d.orders {
		d.orders[i] = join.Row{Key: r.below(span) + 1, Payload: r.below(maxCents)}
	}

	segment := make(map[uint64]uint64, len(d.customers))
	for _, c := range d.customers {
		segment[c.Key] = c.Payload
	}
	perCustomer := make(map[uint64]int)
	for _, o := range d.orders {
		perCustomer[o.Key]++
		if o.Payload < centsCut {
			continue
		}
		d.filtered++
		d.filteredOrders = append(d.filteredOrders, o)
		if s, ok := segment[o.Key]; ok {
			d.segCount[s]++
			d.segSum[s] += o.Payload
			d.segCol = append(d.segCol, s)
			d.cents = append(d.cents, o.Payload)
		}
	}
	for _, n := range perCustomer {
		if n >= minOrders {
			d.repeat++
		}
	}
	return d
}

func segmentRevenue(d *queryData, cfg pipe.Config) (*agg.GroupBy, error) {
	return pipe.HashJoin(
		pipe.FromRelation(d.customers),
		pipe.FromRelation(d.orders).Filter(func(_, cents uint64) bool { return cents >= centsCut }),
		pipe.JoinConfig{Project: func(_, segment, cents uint64) (uint64, uint64) { return segment, cents }},
	).GroupBy(cfg, pipe.GroupConfig{ExpectedGroups: segments})
}

func repeatCustomers(d *queryData, cfg pipe.Config) (int, error) {
	return pipe.GroupByStream(pipe.FromRelation(d.orders), pipe.GroupConfig{}, agg.Count).
		Filter(func(_, n uint64) bool { return n >= minOrders }).
		Count(cfg)
}

// checkSegments compares a segment-revenue result with the oracle.
func checkSegments(rep *report, what string, g *agg.GroupBy, d *queryData, tamper func([]uint64)) {
	counts, sums := make([]uint64, segments), make([]uint64, segments)
	for s := range counts {
		if st, ok := g.Get(uint64(s)); ok {
			counts[s], sums[s] = st.Count, st.Sum
		}
	}
	if tamper != nil {
		tamper(sums)
	}
	for s := range counts {
		if counts[s] != d.segCount[s] || sums[s] != d.segSum[s] {
			rep.mismatch("%s: segment %d count=%d sum=%d, want count=%d sum=%d", what, s, counts[s], sums[s], d.segCount[s], d.segSum[s])
			return
		}
	}
	if g.NumGroups() > segments {
		rep.mismatch("%s: %d groups, at most %d segments exist", what, g.NumGroups(), segments)
	}
}

// runQueryOnce runs query number q of the alternating mix and checks it.
// It returns the typed failure, if any; other errors end the run.
func runQueryOnce(rep *report, cfg runConfig, d *queryData, q int, pcfg pipe.Config) (failed bool, err error) {
	if q%2 == 0 {
		g, err := segmentRevenue(d, pcfg)
		if err != nil {
			return typedFailure(err), err
		}
		checkSegments(rep, "segment-revenue", g, d, cfg.tamper)
		return false, nil
	}
	n, err := repeatCustomers(d, pcfg)
	if err != nil {
		return typedFailure(err), err
	}
	if n != d.repeat {
		rep.mismatch("repeat-customers: %d, want %d", n, d.repeat)
	}
	return false, nil
}

var queryNames = [2]string{"pipe.segment_revenue", "pipe.repeat_customers"}

func runQuery(cfg runConfig, rep *report, tr *tracer) error {
	var d *queryData
	pcfg := pipe.Config{Workers: queryWorks}
	setups := make([]float64, 0, cfg.sz.setupReps)
	for i := 0; i < cfg.sz.setupReps; i++ {
		d = nil
		settle()
		t0 := time.Now()
		d = newQueryData(cfg.seed, cfg.sz.customers, cfg.sz.orders)
		for q := 0; q < 2; q++ { // warm-up: one query of each kind
			if _, err := runQueryOnce(rep, cfg, d, q, pcfg); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.workingSet(uint64(16 * (len(d.orders) + len(d.customers) + join.CapacityFor(len(d.customers), 0.5))))
	settle()

	lat := make([]int64, 0, 1<<14)
	ends := make([]int64, 0, 1<<14)
	var byKind [2][]int64
	var rowsBy [2]int64
	alloc0 := totalAlloc()
	t0 := time.Now()
	deadline := t0.Add(cfg.seconds)
	for q := 0; ; q++ {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		qt, traced := tr.second(t0)
		root := qt.begin(0, "client.query", uint64(q), -1)
		s := qt.begin(0, queryNames[q%2], uint64(q), root)
		q0 := time.Now()
		failed, err := runQueryOnce(rep, cfg, d, q, pcfg)
		q1 := time.Now()
		ns := q1.Sub(q0).Nanoseconds()
		lat = append(lat, ns)
		ends = append(ends, q1.Sub(t0).Nanoseconds())
		byKind[q%2] = append(byKind[q%2], ns)
		qt.end(0, s)
		qt.end(0, root)
		rep.attempted++
		if failed {
			rep.failed++
		} else if err != nil {
			return err
		}
		rowsBy[traced] += int64(len(d.orders))
	}
	alloc := totalAlloc() - alloc0

	rows := rowsBy[0] + rowsBy[1]
	setup := median(setups)
	// Throughput is the median over one-second windows, like
	// point-read's; a window holds only a dozen queries, too few for its
	// own latency percentiles, so those come from the whole run.
	perSec, _, _ := windowed(ends, append([]int64(nil), lat...), int(cfg.seconds/time.Second), queryTail)
	rps := perSec * float64(len(d.orders))
	// The two kinds' latencies form two humps, and the overall median
	// would sit in the gap between them; the p50 is the mean of the
	// kinds' medians instead.
	segP50, repP50 := percentile(byKind[0], 0.5)/1e3, percentile(byKind[1], 0.5)/1e3
	p50 := (segP50 + repP50) / 2
	tail := percentile(lat, queryTail) / 1e3
	rep.addEndToEnd(setup, rps, p50, tail, float64(alloc)/float64(rows))

	rep.addNamed("setup_s", "s", setup)
	rep.addNamed("rows_per_s", "1/s", rps)
	rep.addNamed("query_p50_ms", "ms", p50/1e3)
	rep.addNamed("segment_revenue_p50_ms", "ms", segP50/1e3)
	rep.addNamed("repeat_customers_p50_ms", "ms", repP50/1e3)
	rep.addNamed("query_p90_ms", "ms", tail/1e3)
	rep.addNamed("alloc_bytes_per_query", "B", float64(alloc)/float64(len(lat)))
	rep.addNamed("fail_ratio", "ratio", float64(rep.failed)/float64(rep.attempted))
	rep.addNamed("queries", "count", float64(len(lat)))

	if tr == nil {
		return nil
	}
	// Key-path rungs over the query's inputs: the build side is the
	// customers, the probe keys are the orders' customer keys.
	scale, err := customerScale(cfg, d)
	if err != nil {
		return err
	}
	lad := keyLadder{rep: rep, tr: tr, seed: cfg.seed, scale: scale}
	if err := lad.run(d.orders.Keys(), replayQuery(rep, d)); err != nil {
		return err
	}
	if err := queryLadder(rep, tr, cfg, d); err != nil {
		return err
	}
	addTraceOverhead(rep, cfg, rowsBy[0], rowsBy[1])
	return nil
}

// customerScale is the shard.scale_2c rung of the query workload: a
// 4-shard handle of the customers, read with the orders' keys.
func customerScale(cfg runConfig, d *queryData) (float64, error) {
	h, err := openHandle(join.CapacityFor(len(d.customers), 0.5), shards, cfg.seed)
	if err != nil {
		return 0, err
	}
	if _, err := h.PutBatch(d.customers.Keys(), customerSegments(d)); err != nil {
		return 0, err
	}
	keys := d.orders.Keys()
	return scaleRung(h, func(c int) func([]uint64) {
		next := c * len(keys) / clients
		return func(batch []uint64) {
			for j := range batch {
				batch[j] = keys[next%len(keys)]
				next++
			}
		}
	}), nil
}

func customerSegments(d *queryData) []uint64 {
	vals := make([]uint64, len(d.customers))
	for i, c := range d.customers {
		vals[i] = c.Payload
	}
	return vals
}

// replayQuery feeds the query's key operations to one handle alone: the
// customers as the build and the order keys as probes, then the order
// keys again as count-by-customer upserts and deletes of every customer.
func replayQuery(rep *report, d *queryData) replay {
	ckeys, cvals := d.customers.Keys(), customerSegments(d)
	okeys := d.orders.Keys()
	return replay{
		fill: func(h *table.Handle, k *calls) error {
			return queryFill(rep, d, ckeys, cvals, okeys, h, k)
		},
		mutate: func(h *table.Handle, k *calls) error {
			return queryMutate(rep, ckeys, okeys, h, k)
		},
	}
}

func queryFill(rep *report, d *queryData, ckeys, cvals, okeys []uint64, h *table.Handle, k *calls) error {
	for lo := 0; lo < len(ckeys); lo += batchKeys {
		hi := min(lo+batchKeys, len(ckeys))
		var ins int
		var err error
		k.time(opPut, hi-lo, -1, func() { ins, err = h.PutBatch(ckeys[lo:hi], cvals[lo:hi]) })
		if err != nil {
			return fmt.Errorf("replay put: %w", err)
		}
		if ins != hi-lo {
			rep.mismatch("query replay: %d of %d customers inserted", ins, hi-lo)
		}
	}
	vals := make([]uint64, batchKeys)
	ok := make([]bool, batchKeys)
	for lo := 0; lo+batchKeys <= len(okeys); lo += batchKeys {
		batch := okeys[lo : lo+batchKeys]
		k.time(opGet, batchKeys, -1, func() { h.GetBatch(batch, vals, ok) })
		for j, key := range batch {
			known := key <= uint64(len(d.customers))
			if ok[j] != known || (known && vals[j] != d.customers[key-1].Payload) {
				rep.mismatch("query replay: custkey %d found=%t segment=%d", key, ok[j], vals[j])
				return nil
			}
		}
	}
	return nil
}

func queryMutate(rep *report, ckeys, okeys []uint64, h *table.Handle, k *calls) error {
	count := func(_ int, old uint64, _ bool) uint64 { return old + 1 }
	for lo := 0; lo+batchKeys <= len(okeys); lo += batchKeys {
		var err error
		k.time(opUpsert, batchKeys, -1, func() { _, err = h.UpsertBatch(okeys[lo:lo+batchKeys], count) })
		if err != nil {
			return fmt.Errorf("replay upsert: %w", err)
		}
	}
	for lo := 0; lo < len(ckeys); lo += batchKeys {
		hi := min(lo+batchKeys, len(ckeys))
		deleted := 0
		k.time(opDelete, hi-lo, -1, func() {
			for _, key := range ckeys[lo:hi] {
				if h.Delete(key) {
					deleted++
				}
			}
		})
		if deleted != hi-lo {
			rep.mismatch("query replay: %d of %d customers deleted", deleted, hi-lo)
		}
	}
	return nil
}

// queryLadder runs the columnar rungs — exec, pipe, agg, join — over d.
// Each pipe rung adds one operator to the one beneath it, so an
// operator's cost is the difference of two medians.
func queryLadder(rep *report, tr *tracer, cfg runConfig, d *queryData) error {
	lane := clients
	reps := cfg.sz.ladderReps
	n := len(d.orders)
	timed := func(name string, fn func() error) (float64, error) {
		return timeReps(reps, func() error {
			s := tr.begin(lane, name, 0, -1)
			defer tr.end(lane, s)
			return fn()
		})
	}
	expect := func(what string, got, want int) {
		if got != want {
			rep.mismatch("%s: %d, want %d", what, got, want)
		}
	}

	// exec: empty-body dispatch, then a filter-count with pool metrics.
	pool := exec.NewPool(exec.Config{Workers: queryWorks})
	const dispatches = 100
	morsels := (n + exec.DefaultMorselSize - 1) / exec.DefaultMorselSize
	tDispatch, err := timed("exec.ForMorsels.empty", func() error {
		for i := 0; i < dispatches; i++ {
			if err := pool.ForMorsels(n, func(int, int, int) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	pool.Close()
	if err != nil {
		return err
	}
	pm := exec.NewPoolMetrics(queryWorks)
	pool = exec.NewPool(exec.Config{Workers: queryWorks, Metrics: pm})
	counts := make([]int, queryWorks)
	t0 := time.Now()
	_, err = timed("exec.ForMorsels.filter", func() error {
		clear(counts)
		err := pool.ForMorsels(n, func(w, lo, hi int) error {
			for _, o := range d.orders[lo:hi] {
				if o.Payload >= centsCut {
					counts[w]++
				}
			}
			return nil
		})
		expect("exec filter-count", counts[0]+counts[1], d.filtered)
		return err
	})
	busyWall := time.Since(t0)
	pool.Close()
	if err != nil {
		return err
	}

	// pipe: scan, +filter, join build alone, +join, +group-by, and the
	// mid-pipeline group-by over the scan.
	pc := pipe.Config{Workers: queryWorks}
	orders := pipe.FromRelation(d.orders)
	filtered := orders.Filter(func(_, cents uint64) bool { return cents >= centsCut })
	build := pipe.FromRelation(d.customers)
	count := func(what string, s *pipe.Stream, want int) func() error {
		return func() error {
			got, err := s.Count(pc)
			expect(what, got, want)
			return err
		}
	}
	tScan, err := timed("pipe.scan", count("pipe scan", orders, n))
	if err != nil {
		return err
	}
	tFilter, err := timed("pipe.filter", count("pipe filter", filtered, d.filtered))
	if err != nil {
		return err
	}
	tBuild, err := timed("pipe.join_build", count("pipe build", pipe.HashJoin(build, pipe.FromColumns([]uint64{}, nil), pipe.JoinConfig{}), 0))
	if err != nil {
		return err
	}
	tJoin, err := timed("pipe.join", count("pipe join", pipe.HashJoin(build, filtered, pipe.JoinConfig{}), len(d.segCol)))
	if err != nil {
		return err
	}
	tGroup, err := timed("pipe.segment_revenue", func() error {
		g, err := segmentRevenue(d, pc)
		if err == nil {
			checkSegments(rep, "ladder segment-revenue", g, d, nil)
		}
		return err
	})
	if err != nil {
		return err
	}
	tStream, err := timed("pipe.repeat_customers", func() error {
		got, err := repeatCustomers(d, pc)
		expect("ladder repeat-customers", got, d.repeat)
		return err
	})
	if err != nil {
		return err
	}
	serial := pipe.Config{Workers: 1}
	tSerial, err := timed("pipe.query_mix.1w", func() error {
		if _, err := segmentRevenue(d, serial); err != nil {
			return err
		}
		_, err := repeatCustomers(d, serial)
		return err
	})
	if err != nil {
		return err
	}
	// Operator counts over one query of each kind; the selectivity is
	// the segment-revenue scans' alone (customers, then filtered orders).
	segMet, pmet := pipe.NewMetrics(queryWorks), pipe.NewMetrics(queryWorks)
	if _, err := segmentRevenue(d, pipe.Config{Workers: queryWorks, Metrics: segMet}); err != nil {
		return err
	}
	if _, err := segmentRevenue(d, pipe.Config{Workers: queryWorks, Metrics: pmet}); err != nil {
		return err
	}
	if _, err := repeatCustomers(d, pipe.Config{Workers: queryWorks, Metrics: pmet}); err != nil {
		return err
	}

	// agg and join, alone, on the columns and relations precomputed in
	// setup.
	tAgg, err := timed("agg.AddBatch", func() error {
		g, err := agg.NewGroupBy(agg.Config{ExpectedGroups: segments})
		if err != nil {
			return err
		}
		if err := g.AddBatch(d.segCol, d.cents); err != nil {
			return err
		}
		checkSegments(rep, "agg.AddBatch", g, d, nil)
		return nil
	})
	if err != nil {
		return err
	}
	tHashJoin, err := timed("join.HashJoin", func() error {
		got, err := join.HashJoin(d.customers, d.filteredOrders, join.Config{}, nil)
		expect("join.HashJoin matches", got, len(d.segCol))
		return err
	})
	if err != nil {
		return err
	}

	rep.addLayer("exec.dispatch_ns_per_morsel", "ns/morsel", tDispatch/float64(dispatches*morsels))
	tasks := float64(pm.Tasks.Value())
	rep.addLayer("exec.steal_ratio", "ratio", float64(pm.Steals.Value())/tasks)
	rep.addLayer("exec.busy_share", "ratio", float64(pm.BusyNanos.Value())/(float64(queryWorks)*float64(busyWall.Nanoseconds())))
	rep.addLayer("exec.queue_wait_p50_us", "us", float64(pm.QueueWait.Snapshot().P50())/1e3)

	rows := float64(n)
	rep.addLayer("pipe.scan_ns_per_row", "ns/row", tScan/rows)
	rep.addLayer("pipe.filter_ns_per_row", "ns/row", (tFilter-tScan)/rows)
	rep.addLayer("pipe.join_build_ns_per_row", "ns/row", tBuild/float64(len(d.customers)))
	rep.addLayer("pipe.join_probe_ns_per_row", "ns/row", (tJoin-tBuild-tFilter)/float64(d.filtered))
	rep.addLayer("pipe.groupby_ns_per_row", "ns/row", (tGroup-tJoin)/float64(len(d.segCol)))
	rep.addLayer("pipe.groupbystream_ns_per_row", "ns/row", (tStream-tScan)/rows)
	rep.addLayer("pipe.scale_2w", "ratio", tSerial/(tGroup+tStream))
	segScan := segMet.Scan()
	rep.addLayer("pipe.selectivity", "ratio", float64(segScan.RowsOut.Value())/float64(segScan.RowsIn.Value()))
	scan := pmet.Scan()
	for _, op := range []struct {
		name string
		m    *pipe.OpMetrics
	}{{"scan", scan}, {"join_build", pmet.JoinBuild()}, {"join_probe", pmet.JoinProbe()}, {"group_by", pmet.GroupBy()}} {
		rep.addLayer("pipe.rows_out."+op.name, "count", float64(op.m.RowsOut.Value()))
		rep.addLayer("pipe.morsels."+op.name, "count", float64(op.m.Morsels.Value()))
	}
	rep.addLayer("agg.addbatch_ns_per_row", "ns/row", tAgg/float64(len(d.segCol)))
	rep.addLayer("join.hashjoin_ns_per_probe", "ns/probe", tHashJoin/float64(len(d.filteredOrders)))
	return nil
}
