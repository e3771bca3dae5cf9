// Command perfbench is the repository benchmark: it runs one named
// workload against the public dlsm facade with 16 closed-loop client
// sessions, checks every answer, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a traced run) as one JSON
// object on its last line. See METRICS.md for what each metric means.
//
//	go run . -workload read-uniform -seed 1 -seconds 10 -trace 0
//
// Each repetition runs in a child process of its own (the same binary
// with -rep), so peak RSS is per repetition and a program panic fails
// the repetition instead of ending the run without a report.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: fill-sync, read-uniform or mixed-zipf")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds of repetitions to run")
	trace := flag.Int("trace", 0, "1 adds a traced repetition and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "file the traced repetition's spans are written to")
	rep := flag.Bool("rep", false, "run one repetition in this process and print its report (the run starts these itself)")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Entities run one at a time under the kernel's serial dispatch; more
	// than two Ps only add scheduler noise.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ok := true
	if *rep {
		err = repMain(w, *seed, *trace == 1, *traceOut)
	} else {
		ok, err = run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// Line prefixes of a repetition's report.
const (
	reportPrefix    = "REPORT "
	recoveredPrefix = "RECOVERED "
)

// repReport is what a repetition reports after its read-back, before the
// crash: the timed window on both clocks and, when traced, the per-layer
// metrics.
type repReport struct {
	Fingerprint string   `json:"fingerprint"`
	Virtual     []metric `json:"virtual"`
	Kinds       []string `json:"kinds"`
	Layer       []metric `json:"layer,omitempty"`
	Ops         int64    `json:"ops"`
	SetupNs     int64    `json:"setup_ns"`
	MeasureNs   int64    `json:"measure_ns"`
	AllocBytes  uint64   `json:"alloc_bytes"`
	PeakRSSMB   float64  `json:"peak_rss_mb"`
	Attempted   int64    `json:"attempted"`
	Failed      int64    `json:"failed"`
	Errs        []string `json:"errs,omitempty"`
	// speed scales this repetition's host times to the reference host:
	// calibrationRefNs over the mean of the calibration times just before
	// and just after it. The parent run sets it.
	speed float64
}

// recovered is what a repetition reports after the crash, the recovery
// and the post-crash read-back.
type recovered struct {
	RecoveryNs int64    `json:"recovery_ns"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Errs       []string `json:"errs,omitempty"`
}

// repMain runs one repetition and prints its report lines.
func repMain(w workload, seed int64, traced bool, traceOut string) error {
	in := generate(w, seed)
	var tr *tracer
	var prof *profiler
	var probes map[string]float64
	if traced {
		probes = runProbes(in)
		tr, prof = newTracer(), &profiler{}
	}
	var rep repReport
	var reportErr error
	r, err := runRep(w, in, tr, prof, func(r *repResult) {
		v := &r.virt
		rep = repReport{
			Fingerprint: strconv.FormatUint(v.fingerprint(), 16),
			Virtual:     virtualMetrics(v),
			Kinds:       kindLatencies(v),
			Ops:         v.ops,
			SetupNs:     r.host.setup.Nanoseconds(),
			MeasureNs:   r.host.measure.Nanoseconds(),
			AllocBytes:  r.host.allocBytes,
			PeakRSSMB:   peakRSSMB(),
			Attempted:   v.attempted,
			Failed:      v.failed,
			Errs:        v.errs,
		}
		if traced {
			self, err := prof.selfByModule()
			if err != nil {
				reportErr = err
				return
			}
			rep.Layer = append(layerMetrics(v), hostSelfMetrics(self)...)
			rep.Layer = append(rep.Layer, probeMetrics(probes)...)
			rep.Layer = append(rep.Layer, metric{"trace.spans", "count", float64(tr.spanCount())})
			if traceOut != "" {
				if reportErr = tr.write(traceOut, w.name, seed); reportErr != nil {
					return
				}
			}
		}
		reportErr = printLine(reportPrefix, rep)
	})
	if reportErr != nil {
		return reportErr
	}
	if err != nil {
		return err
	}
	v := &r.virt
	if traced && traceOut != "" {
		// Rewrite the spans with the recover and close phases.
		if err := tr.write(traceOut, w.name, seed); err != nil {
			return err
		}
	}
	return printLine(recoveredPrefix, recovered{
		RecoveryNs: v.recovery,
		Attempted:  v.attempted - rep.Attempted,
		Failed:     v.failed - rep.Failed,
		Errs:       v.errs[len(rep.Errs):],
	})
}

func printLine(prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(prefix + string(b))
	return nil
}

// child is one repetition as its parent run saw it.
type child struct {
	label     string
	report    *repReport
	recovered *recovered
	problems  []string
}

// spawnRep runs one repetition in a child process and collects its
// reports; a child that panics or exits non-zero adds a problem.
func spawnRep(w workload, seed int64, traced bool, traceOut string, label string) child {
	c := child{label: label}
	self, err := os.Executable()
	if err != nil {
		c.problems = append(c.problems, fmt.Sprintf("%s: %v", label, err))
		return c
	}
	args := []string{"-rep", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", traceOut)
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	runErr := cmd.Run()
	for _, line := range strings.Split(out.String(), "\n") {
		var err error
		switch {
		case strings.HasPrefix(line, reportPrefix):
			c.report = &repReport{}
			err = json.Unmarshal([]byte(strings.TrimPrefix(line, reportPrefix)), c.report)
		case strings.HasPrefix(line, recoveredPrefix):
			c.recovered = &recovered{}
			err = json.Unmarshal([]byte(strings.TrimPrefix(line, recoveredPrefix)), c.recovered)
		case strings.HasPrefix(line, "panic:"), strings.HasPrefix(line, "fatal error:"), strings.HasPrefix(line, "perfbench:"):
			c.problems = append(c.problems, fmt.Sprintf("%s: %s", label, line))
		}
		if err != nil {
			c.problems = append(c.problems, fmt.Sprintf("%s: bad report line: %v", label, err))
		}
	}
	switch {
	case c.report == nil:
		c.problems = append(c.problems, label+": no report (the repetition failed before its read-back)")
	case c.recovered == nil:
		c.problems = append(c.problems, label+": no post-crash report (the crash recovery failed)")
	}
	if runErr != nil && len(c.problems) == 0 {
		c.problems = append(c.problems, fmt.Sprintf("%s: %v", label, runErr))
	}
	return c
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// subSeeds is how many derived seeds a run's repetitions cycle through.
// The run's virtual metrics are the per-metric median over them, so no
// single op stream decides the run, and set-up time is a median of at
// least this many set-ups.
const subSeeds = 5

// subSeed is the seed of the j-th input set of run seed.
func subSeed(seed int64, j int) int64 { return seed*subSeeds + int64(j) }

func run(w workload, seed int64, budget time.Duration, traced bool, traceOut string) (bool, error) {
	for j := 0; j < subSeeds; j++ {
		s := subSeed(seed, j)
		fp := generate(w, s).fingerprint()
		if generate(w, s+1).fingerprint() == fp {
			return false, fmt.Errorf("seeds %d and %d generate the same op stream", s, s+1)
		}
		fmt.Printf("workload %s seed %d.%d: %d sessions, %d ops, stream %016x\n", w.name, seed, j, sessions, w.ops, fp)
	}

	var reps []*repReport
	var problems []string
	var attempted, failed int64
	record := func(c child) {
		problems = append(problems, c.problems...)
		if r := c.report; r != nil {
			attempted += r.Attempted
			failed += r.Failed
			for _, e := range r.Errs {
				problems = append(problems, c.label+": "+e)
			}
		}
		if r := c.recovered; r != nil {
			attempted += r.Attempted
			failed += r.Failed
			for _, e := range r.Errs {
				problems = append(problems, c.label+": "+e)
			}
		}
	}
	// A -trace 0 run covers every sub-seed; a -trace 1 run needs only the
	// untraced twin of its traced repetition (sub-seed 0).
	want := subSeeds
	if traced {
		want = 1
	}
	start := time.Now()
	// The host's speed is calibrated before the first repetition and after
	// every one.
	cals := []float64{calibrate()}
	spawnCal := func(seed int64, traced bool, traceOut, label string) child {
		c := spawnRep(w, seed, traced, traceOut, label)
		cals = append(cals, calibrate())
		if c.report != nil {
			c.report.speed = calibrationRefNs / ((cals[len(cals)-2] + cals[len(cals)-1]) / 2)
		}
		return c
	}
	for len(reps) < want || time.Since(start) < budget {
		i := len(reps)
		c := spawnCal(subSeed(seed, i%subSeeds), false, "", fmt.Sprintf("rep %d (seed %d.%d)", i, seed, i%subSeeds))
		record(c)
		if c.report == nil {
			break
		}
		reps = append(reps, c.report)
	}
	var traced0 child
	if traced && len(reps) > 0 {
		traced0 = spawnCal(subSeed(seed, 0), true, traceOut, "traced rep")
		record(traced0)
	}
	if len(reps) < want || (traced && traced0.report == nil) {
		for _, p := range problems {
			fmt.Println("ERROR", p)
		}
		return false, fmt.Errorf("no repetition completed")
	}
	for i := subSeeds; i < len(reps); i++ {
		if reps[i].Fingerprint != reps[i%subSeeds].Fingerprint {
			problems = append(problems, fmt.Sprintf("rep %d: virtual metrics differ from rep %d's at the same seed", i, i%subSeeds))
		}
	}

	e2e := append(medianVirtual(reps[:min(len(reps), subSeeds)]), hostMetrics(reps)...)
	for _, m := range e2e {
		fmt.Printf("%-24s = %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for i, r := range reps[:min(len(reps), subSeeds)] {
		for _, line := range r.Kinds {
			fmt.Printf("seed %d.%d: %s\n", seed, i, line)
		}
	}
	var perRep, calMs []string
	for _, r := range reps {
		perRep = append(perRep, strconv.FormatFloat(float64(r.MeasureNs)/float64(r.Ops), 'f', 0, 64))
	}
	for _, c := range cals {
		calMs = append(calMs, strconv.FormatFloat(c/1e6, 'f', 0, 64))
	}
	fmt.Printf("host_ns_per_op by repetition, unscaled: %s\n", strings.Join(perRep, " "))
	fmt.Printf("calibration ms, before the first repetition and after each: %s\n", strings.Join(calMs, " "))
	metrics := map[string]metricValue{}
	add := func(ms []metric) {
		for _, m := range ms {
			metrics[m.Name] = metricValue{m.Value, m.Unit}
		}
	}
	if !traced {
		add(e2e)
	} else {
		tr := traced0.report
		if tr.Fingerprint != reps[0].Fingerprint {
			problems = append(problems, "traced rep: virtual metrics differ from the untraced run's")
		}
		var recovery int64
		if traced0.recovered != nil {
			recovery = traced0.recovered.RecoveryNs
		}
		add(tr.Layer)
		untraced := hostMetrics(reps)[0].Value
		add([]metric{
			{"wal.recovery_ms", "ms", float64(recovery) / 1e6},
			{"trace.overhead_ns_per_op", "ns/op", float64(tr.MeasureNs)/float64(tr.Ops)*tr.speed - untraced},
		})
		if traceOut != "" {
			fmt.Println("trace: spans written to", traceOut)
		}
	}

	fmt.Printf("error_rate = %g (%d failed of %d attempted), %d repetitions\n",
		ratio(float64(failed), float64(attempted)), failed, attempted, len(reps))
	for _, p := range problems {
		fmt.Println("ERROR", p)
	}
	res := result{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	out, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return res.Correct, nil
}
