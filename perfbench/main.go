// Command perfbench is the repository benchmark. It drives three
// closed-loop workloads through the public API — hashfn, table, shard
// (through a partitioned table.Handle), exec, pipe, agg and join — and
// checks every answer against an oracle derived from the seed.
//
//	bash perfbench/run.sh --workload point-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// records a span around every call into a layer, runs the per-layer
// ladder (each rung the workload's inputs fed to one layer alone) and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any oracle
// mismatch makes the command exit 1; typed errors returned by the library
// are counted in "failed" and do not stop the run. README.md lists the
// metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	batchKeys = 1024 // keys per batch call, in every workload
	clients   = 2    // client goroutines of the point workloads
	shards    = 4    // partitions of every sharded handle
	growAt    = 0.7  // growth threshold of every growing handle
)

// sizes holds the workload dimensions; tests run the same code smaller.
type sizes struct {
	storedKeys  int // point-read: keys prefilled into the handle
	churnStart  int // point-churn: live keys each client starts with
	customers   int // query: build-side rows
	orders      int // query: probe-side rows
	setupReps   int // set-ups per run; setup_s is their median
	warmBatches int // untimed batches per client before timing
	churnCycles int // point-churn: cycles per client in one episode
	ladderReps  int // repetitions per timed ladder rung (median kept)
}

var defaultSizes = sizes{
	storedKeys:  16 << 20,
	churnStart:  16 << 10,
	customers:   64 << 10,
	orders:      2 << 20,
	setupReps:   3,
	warmBatches: 256,
	churnCycles: 256,
	ladderReps:  5,
}

type metric struct {
	name, unit string
	value      float64
}

// report collects one run's results. Clients record mismatches
// concurrently; everything else is written by the driving goroutine.
type report struct {
	mu         sync.Mutex
	mismatches int
	firstBad   []string

	attempted, failed int64
	e2e               []metric // gated end-to-end metrics (JSON with --trace 0)
	named             []metric // the same run under the names README.md uses, for readers
	layer             []metric // per-layer metrics (JSON with --trace 1)
	env               []string
}

func (r *report) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mismatches++
	if len(r.firstBad) < 5 {
		r.firstBad = append(r.firstBad, fmt.Sprintf(format, args...))
	}
}

// addEndToEnd records the gated metrics every workload reports.
func (r *report) addEndToEnd(setupS, opsPerS, readP50us, readTailUs, allocBytesPerOp float64) {
	r.e2e = append(r.e2e,
		metric{"setup_s", "s", setupS},
		metric{"ops_per_s", "1/s", opsPerS},
		metric{"read_p50_us", "us", readP50us},
		metric{"read_tail_us", "us", readTailUs},
		metric{"alloc_bytes_per_op", "B", allocBytesPerOp})
}

func (r *report) addNamed(name, unit string, v float64) {
	r.named = append(r.named, metric{name, unit, v})
}

func (r *report) addLayer(name, unit string, v float64) {
	r.layer = append(r.layer, metric{name, unit, v})
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	sz      sizes
	// tamper, when set (tests only), corrupts one answer the workload
	// received from the library before the oracle sees it.
	tamper func(vals []uint64)
}

type workloadFunc func(cfg runConfig, rep *report, tr *tracer) error

var workloads = map[string]workloadFunc{
	"point-read":  runPointRead,
	"point-churn": runPointChurn,
	"query":       runQuery,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultSizes, nil))
}

// run parses args, runs one workload and prints its report; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer, sz sizes, tamper func([]uint64)) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "point-read, point-churn or query")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and runs the per-layer ladder")
	out := fs.String("out", ".bench_build", "directory for the span trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload point-read|point-churn|query, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// The point-read table alone is 512 MiB; keep the heap from doubling
	// it between collections.
	debug.SetMemoryLimit(1 << 30)

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, sz: sz, tamper: tamper}
	rep := &report{}
	rep.env = environment()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(clients + 1)
	}
	if err := wl(cfg, rep, tr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, line := range rep.env {
		fmt.Fprintf(stdout, "env %s\n", line)
	}
	for _, m := range rep.named {
		fmt.Fprintf(stdout, "metric %-24s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range rep.layer {
		fmt.Fprintf(stdout, "layer  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if tr != nil {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		kept, dropped := tr.spans()
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := tr.writeChromeJSON(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s spans=%d dropped=%d\n", path, kept, dropped)
	}
	for _, s := range rep.firstBad {
		fmt.Fprintf(stdout, "MISMATCH %s\n", s)
	}

	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: rep.mismatches == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]map[string]any{}}
	ms := rep.e2e
	if cfg.trace {
		ms = rep.layer
	}
	for _, m := range ms {
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if rep.mismatches > 0 {
		fmt.Fprintf(stderr, "perfbench: %d oracle mismatches\n", rep.mismatches)
		return 1
	}
	return 0
}

// environment describes the machine, so a reader can tell whether a
// working set was above the last-level cache where the run happened.
// Hardware fields read "unknown" where the system does not expose them.
func environment() []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	l2, llc := cacheBytes()
	return []string{
		fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()),
		fmt.Sprintf("cpu=%q l2_bytes=%d llc_bytes=%d", cpu, l2, llc),
	}
}

// cacheBytes returns the L2 size and the size of the highest cache level
// of CPU 0, from sysfs (0 where unavailable).
func cacheBytes() (l2, llc uint64) {
	best := 0
	for i := 0; ; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			return l2, llc
		}
		sz, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		bytes := parseSize(strings.TrimSpace(string(sz)))
		if level == 2 {
			l2 = bytes
		}
		if level >= best {
			best, llc = level, bytes
		}
	}
}

func parseSize(s string) uint64 {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, _ := strconv.ParseUint(s, 10, 64)
	return n * mult
}

// workingSet appends the workload's working-set line to the environment
// block.
func (r *report) workingSet(bytes uint64) {
	_, llc := cacheBytes()
	r.env = append(r.env, fmt.Sprintf("working_set_bytes=%d llc_bytes=%d above_llc=%t", bytes, llc, llc > 0 && bytes > llc))
}
