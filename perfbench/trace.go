package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dlsm/internal/sim"
)

// tracer records spans from the benchmark's own code: one per phase of a
// repetition and one per measured op, each with virtual and host start and
// end. Spans stay in memory until write. A nil *tracer records nothing, so
// the untraced run calls the same code.
type tracer struct {
	base   time.Time // host-time origin of the span timestamps
	phases []phaseSpan
	ops    [sessions][]opSpan
}

type phaseSpan struct {
	name                       string
	vStart, vEnd, hStart, hEnd int64
}

// opSpan is one measured op; parent is the index of its phase span.
type opSpan struct {
	kind                       opKind
	key                        int32
	parent                     int
	vStart, vEnd, hStart, hEnd int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a phase span at virtual time now and returns its index.
func (t *tracer) begin(name string, now sim.Time) int {
	if t == nil {
		return -1
	}
	t.phases = append(t.phases, phaseSpan{name: name, vStart: int64(now), hStart: time.Since(t.base).Nanoseconds()})
	return len(t.phases) - 1
}

// end closes phase span i at virtual time now.
func (t *tracer) end(i int, now sim.Time) {
	if t == nil {
		return
	}
	p := &t.phases[i]
	p.vEnd, p.hEnd = int64(now), time.Since(t.base).Nanoseconds()
}

// opSpans returns session's span buffer, sized for n ops, or nil when not
// tracing.
func (t *tracer) opSpans(session, n int) []opSpan {
	if t == nil {
		return nil
	}
	t.ops[session] = make([]opSpan, n)
	return t.ops[session]
}

func (t *tracer) spanCount() int {
	n := len(t.phases)
	for _, s := range t.ops {
		n += len(s)
	}
	return n
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): ts and dur are virtual microseconds, args carry the host
// times, the span id and the parent id. Phase spans sit on thread 0, the
// ops of session s on thread s+1; span ids are phase indexes, then ops in
// session order.
func (t *tracer) write(path string, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"otherData":{"workload":%q,"seed":%d,"clock":"ts/dur virtual us; args host ns since run start"},"traceEvents":[`, workload, seed)
	sep := ""
	for i, p := range t.phases {
		fmt.Fprintf(w, `%s{"name":%q,"cat":"phase","ph":"X","pid":1,"tid":0,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":-1,"host_start_ns":%d,"host_end_ns":%d}}`,
			sep, p.name, us(p.vStart), us(p.vEnd-p.vStart), i, p.hStart, p.hEnd)
		sep = ",\n"
	}
	id := len(t.phases)
	for s, spans := range t.ops {
		for _, o := range spans {
			fmt.Fprintf(w, `%s{"name":%q,"cat":"op","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"session":%d,"key":%d,"host_start_ns":%d,"host_end_ns":%d}}`,
				sep, o.kind, s+1, us(o.vStart), us(o.vEnd-o.vStart), id, o.parent, s, o.key, o.hStart, o.hEnd)
			id++
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
