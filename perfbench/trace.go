package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// The traced run records a span around every call the benchmark makes
// into a layer. Spans stay in memory, one buffer per client lane so
// recording takes no lock, and are written out once, at the end, as
// Chrome trace-event JSON (load in chrome://tracing or Perfetto).

// maxSpansPerLane bounds the memory one lane's spans may take; spans past
// it are counted, not kept.
const maxSpansPerLane = 1 << 19

type span struct {
	name       string
	id         uint64 // shared by every span of one batch or query
	parent     int32  // index of the parent span in the same lane, -1 for a root
	start, end int64  // nanoseconds since the trace epoch
}

type tracer struct {
	epoch   time.Time
	lanes   [][]span
	dropped []int
}

func newTracer(lanes int) *tracer {
	return &tracer{epoch: time.Now(), lanes: make([][]span, lanes), dropped: make([]int, lanes)}
}

// second returns tr during the odd seconds since t0 and nil during the
// even ones, with 1 or 0: a traced run traces every other second of its
// timed phase, so the traced and untraced rates come from the same
// table at the same time and their ratio is the tracing overhead.
func (t *tracer) second(t0 time.Time) (*tracer, int) {
	if t != nil && int(time.Since(t0)/time.Second)%2 == 1 {
		return t, 1
	}
	return nil, 0
}

// begin opens a span on lane and returns its handle; a nil tracer records
// nothing.
func (t *tracer) begin(lane int, name string, id uint64, parent int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.lanes[lane]) >= maxSpansPerLane {
		t.dropped[lane]++
		return -1
	}
	t.lanes[lane] = append(t.lanes[lane], span{
		name: name, id: id, parent: parent, start: time.Since(t.epoch).Nanoseconds(),
	})
	return int32(len(t.lanes[lane]) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(lane int, s int32) {
	if t == nil || s < 0 {
		return
	}
	t.lanes[lane][s].end = time.Since(t.epoch).Nanoseconds()
}

// spans returns the number of spans kept and dropped.
func (t *tracer) spans() (kept, dropped int) {
	for i := range t.lanes {
		kept += len(t.lanes[i])
		dropped += t.dropped[i]
	}
	return kept, dropped
}

// writeChromeJSON writes every kept span as a complete ("X") event; tid
// is the lane, args carry the shared id and the parent span's name.
func (t *tracer) writeChromeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for lane, spans := range t.lanes {
		for _, s := range spans {
			parent := ""
			if s.parent >= 0 {
				parent = spans[s.parent].name
			}
			if !first {
				fmt.Fprint(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%q}}`,
				s.name, lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, parent)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
