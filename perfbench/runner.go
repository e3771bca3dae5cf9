package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"dlsm"
	"dlsm/internal/sim"
	"dlsm/internal/telemetry"
)

// memTableSize scales the paper's 64 MB MemTable to the keyspace the way
// internal/bench does (data/96, at least 256 KB).
func memTableSize() int64 {
	return max(int64(keyCount*entryBytes)/96, 256<<10)
}

// deploymentConfig is one compute node running the DB, a standby compute
// node for crash recovery, and one memory node whose regions are sized to
// the data (live bytes ×6 plus headroom, as internal/bench sizes them).
func deploymentConfig() dlsm.DeploymentConfig {
	cfg := dlsm.SingleNodeConfig()
	cfg.ComputeNodes = 2
	region := int64(keyCount*entryBytes)*6 + 128<<20
	cfg.MemNode.ComputeRegionSize = region
	cfg.MemNode.SelfRegionSize = region
	cfg.MemNode.Subcompactions = 12
	cfg.MemNode.LogRegionSize = 8*memTableSize() + 64<<20
	return cfg
}

// options is the Options set every workload shares. Write buffers and
// background workers are node-wide budgets split across the λ shards, as
// internal/bench.engineOptions splits them.
func options(lambda int) dlsm.Options {
	o := dlsm.DefaultOptions()
	per := max(memTableSize()/int64(lambda), 64<<10)
	o.MemTableSize = per
	o.TableSize = per
	o.L1MaxBytes = 8 * per
	o.EntrySizeHint = entryBytes
	o.L0StopTrigger = 36
	o.FlushWorkers = max(4/lambda, 1)
	o.CompactionWorkers = max(12/lambda, 1)
	o.Subcompactions = 12
	o.Durability = dlsm.DurabilitySync
	o.CompactionSite = dlsm.CompactNearData
	o.CacheBudgetBytes = keyCount * entryBytes / 8
	o.PrefetchDepth = 4
	return o
}

func placement(lambda int) dlsm.Placement {
	p := dlsm.Placement{Lambda: lambda}
	if lambda > 1 {
		p.Boundaries = dlsm.UniformBoundaries(lambda, keyCount, key)
	}
	return p
}

// virtualResult holds everything measured on the virtual clock. It is a
// pure function of the seed: every repetition, traced or not, must
// produce an identical one.
type virtualResult struct {
	ops        int64
	elapsed    int64 // measured phase, virtual ns
	lat        [3][]int64
	all        []int64
	wireBytes  int64
	computeCPU float64 // core-ns, measure start to drain end
	memnodeCPU float64
	spaceUsed  int64
	liveBytes  int64 // user bytes of the keys live after the drain
	putBytes   int64 // user bytes written by the measured Puts
	recovery   int64 // virtual ns of the RoleRecover open
	counters   map[string]float64
	shardOps   []int64
	attempted  int64
	failed     int64
	errs       []string
}

// hostResult holds the host-clock measurements of one repetition.
type hostResult struct {
	setup      time.Duration
	measure    time.Duration
	allocBytes uint64
}

type repResult struct {
	virt virtualResult
	host hostResult
}

// maxErrs caps the error messages kept for the report.
const maxErrs = 5

func (v *virtualResult) fail(format string, args ...any) {
	v.failed++
	if len(v.errs) < maxErrs {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	}
}

// runRep performs one full lifecycle on a fresh deployment: deploy, open,
// preload, settle (the set-up), measure, drain (the timed window), and a
// read-back of every acknowledged key. It then hands the result to report,
// fails the compute node, recovers its DB on the standby and reads every
// key back again. tr may be nil; prof, when non-nil, brackets the timed
// window.
func runRep(w workload, in *inputs, tr *tracer, prof *profiler, report func(*repResult)) (repResult, error) {
	var res repResult
	v := &res.virt
	opts := options(w.lambda)
	pl := placement(w.lambda)

	hostStart := time.Now()
	ph := tr.begin("deploy", 0)
	d := dlsm.NewDeployment(deploymentConfig())
	tr.end(ph, 0)
	var runErr error
	d.Run(func() {
		env := d.Env
		ph := tr.begin("open", env.Now())
		db, err := dlsm.OpenDB(d, dlsm.RolePrimary, pl, opts)
		tr.end(ph, env.Now())
		if err != nil {
			runErr = fmt.Errorf("open: %w", err)
			return
		}
		if w.preload {
			ph = tr.begin("preload", env.Now())
			preload(env, db, in, v)
			tr.end(ph, env.Now())
			ph = tr.begin("settle", env.Now())
			db.Flush()
			db.WaitForCompactions()
			tr.end(ph, env.Now())
		}
		res.host.setup = time.Since(hostStart)

		sess := make([]*dlsm.Session, sessions)
		for i := range sess {
			sess[i] = db.NewSession()
		}
		before := sample(d, db)
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		prof.start()
		h0, v0 := time.Now(), env.Now()
		ph = tr.begin("measure", v0)
		lats := measure(env, sess, in, tr, ph, v)
		v1 := env.Now()
		tr.end(ph, v1)
		res.host.measure = time.Since(h0)
		runtime.ReadMemStats(&ms1)
		res.host.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		v.elapsed = int64(v1 - v0)
		v.collect(in, lats)
		for _, s := range sess {
			s.Close()
		}

		ph = tr.begin("drain", env.Now())
		db.Flush()
		db.WaitForCompactions()
		tr.end(ph, env.Now())
		prof.stop()
		after := sample(d, db)
		after.diff(before, v)
		v.spaceUsed = db.SpaceUsed()
		want := live(w, in)
		for _, k := range want {
			v.liveBytes += int64(keySize + len(in.values[k]))
		}
		ph = tr.begin("verify", env.Now())
		readBack(db, want, in, v, "read-back")
		tr.end(ph, env.Now())
		report(&res)

		ph = tr.begin("recover", env.Now())
		db, runErr = crashAndRecover(d, db, w, opts, v)
		if runErr == nil {
			readBack(db, want, in, v, "post-crash read-back")
		}
		tr.end(ph, env.Now())
		ph = tr.begin("close", env.Now())
		if db != nil {
			db.Close()
		}
		tr.end(ph, env.Now())
	})
	d.Close()
	return res, runErr
}

// preload inserts every key once, in the seeded order, from sessions
// loader entities. Failures count against the run like any other op.
func preload(env *sim.Env, db *dlsm.DB, in *inputs, v *virtualResult) {
	wg := sim.NewWaitGroup(env)
	for t := 0; t < sessions; t++ {
		t := t
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := t; i < len(in.preload); i += sessions {
				k := in.preload[i]
				v.attempted++
				if err := s.Put(in.keys[k], in.values[k]); err != nil {
					v.fail("preload put %d: %v", k, err)
				}
			}
		})
	}
	wg.Wait()
}

// measure runs every session's op stream as its own closed-loop client
// entity, timing every op on the virtual clock. It returns each session's
// per-op latencies in stream order.
func measure(env *sim.Env, sess []*dlsm.Session, in *inputs, tr *tracer, parent int, v *virtualResult) [][]int64 {
	lats := make([][]int64, sessions)
	wg := sim.NewWaitGroup(env)
	for t := range sess {
		t := t
		ops := in.streams[t]
		lats[t] = make([]int64, len(ops))
		spans := tr.opSpans(t, len(ops))
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			s := sess[t]
			for i, o := range ops {
				var h0 time.Time
				if spans != nil {
					h0 = time.Now()
				}
				t0 := env.Now()
				doOp(s, o, in, v)
				t1 := env.Now()
				lats[t][i] = int64(t1 - t0)
				if spans != nil {
					spans[i] = opSpan{kind: o.kind, key: o.key, parent: parent,
						vStart: int64(t0), vEnd: int64(t1),
						hStart: h0.Sub(tr.base).Nanoseconds(), hEnd: time.Since(tr.base).Nanoseconds()}
				}
			}
		})
	}
	wg.Wait()
	return lats
}

// collect sorts the latencies of the measured ops, overall and per kind.
func (v *virtualResult) collect(in *inputs, lats [][]int64) {
	for t, ops := range in.streams {
		for i, o := range ops {
			v.lat[o.kind] = append(v.lat[o.kind], lats[t][i])
			v.all = append(v.all, lats[t][i])
			if o.kind == opPut {
				v.putBytes += int64(keySize + len(in.values[o.key]))
			}
		}
		v.ops += int64(len(ops))
		v.attempted += int64(len(ops))
	}
	for k := range v.lat {
		sort.Slice(v.lat[k], func(i, j int) bool { return v.lat[k][i] < v.lat[k][j] })
	}
	sort.Slice(v.all, func(i, j int) bool { return v.all[i] < v.all[j] })
}

// doOp issues one op and checks its answer: every key holds its seeded
// value, so a Get has exactly one right result and a scan exactly one
// right sequence.
func doOp(s *dlsm.Session, o op, in *inputs, v *virtualResult) {
	k := int(o.key)
	switch o.kind {
	case opPut:
		if err := s.Put(in.keys[k], in.values[k]); err != nil {
			v.fail("put %d: %v", k, err)
		}
	case opGet:
		got, err := s.Get(in.keys[k])
		if err != nil {
			v.fail("get %d: %v", k, err)
		} else if !bytes.Equal(got, in.values[k]) {
			v.fail("get %d: wrong value", k)
		}
	case opScan:
		n := min(scanLen, keyCount-k) // every key exists
		it := s.NewIteratorOpts(dlsm.ReadOptions{})
		defer it.Close()
		it.SeekGE(in.keys[k])
		for i := 0; i < n; i++ {
			want := k + i
			switch {
			case !it.Valid():
				v.fail("scan from %d: %d entries, want %d", k, i, n)
				return
			case !bytes.Equal(it.Key(), in.keys[want]):
				v.fail("scan from %d: entry %d is %q, want %q", k, i, it.Key(), in.keys[want])
				return
			case !bytes.Equal(it.Value(), in.values[want]):
				v.fail("scan from %d: wrong value for %q", k, in.keys[want])
				return
			}
			it.Next()
		}
	}
}

// live returns the key indexes the DB must hold after the measured phase,
// ascending.
func live(w workload, in *inputs) []int32 {
	present := make([]bool, keyCount)
	if w.preload {
		for i := range present {
			present[i] = true
		}
	}
	for _, ops := range in.streams {
		for _, o := range ops {
			if o.kind == opPut {
				present[o.key] = true
			}
		}
	}
	var out []int32
	for i, p := range present {
		if p {
			out = append(out, int32(i))
		}
	}
	return out
}

// readBack reads every acknowledged key with one full scan of db: each
// must be present exactly once, in order, with its value, and nothing else
// may appear.
func readBack(db *dlsm.DB, want []int32, in *inputs, v *virtualResult, label string) {
	v.attempted += int64(len(want))
	s := db.NewSession()
	defer s.Close()
	it := s.NewIteratorOpts(dlsm.ReadOptions{})
	defer it.Close()
	j := 0
	for it.First(); it.Valid(); it.Next() {
		if j == len(want) {
			v.fail("%s: unexpected key %q after the last acknowledged key", label, it.Key())
			return
		}
		k := want[j]
		if !bytes.Equal(it.Key(), in.keys[k]) {
			v.fail("%s: got key %q, want %q", label, it.Key(), in.keys[k])
			return
		}
		if !bytes.Equal(it.Value(), in.values[k]) {
			v.fail("%s: wrong value for %q", label, in.keys[k])
		}
		j++
	}
	for ; j < len(want); j++ {
		v.fail("%s: acknowledged key %q lost", label, in.keys[want[j]])
	}
}

// crashAndRecover publishes compute-0's checkpoint, fails compute-0 and
// rebuilds its DB from the remote write-ahead logs on the standby
// compute-1, recording the recovery's virtual duration.
//
// The publish is there because the engine republishes its checkpoint only
// after a flush, not after a compaction install, yet GC frees the
// compaction's inputs at once: a crash that finds the checkpoint behind the
// last compaction recovers over freed extents and panics or loses
// acknowledged keys (METRICS.md, "Known program behaviour"). Without the
// publish every workload fails its post-crash read-back.
func crashAndRecover(d *dlsm.Deployment, db *dlsm.DB, w workload, opts dlsm.Options, v *virtualResult) (*dlsm.DB, error) {
	if err := db.PublishCheckpoint(); err != nil {
		return nil, fmt.Errorf("publish checkpoint: %w", err)
	}
	d.Compute[0].Crash()
	db.Close()
	t0 := d.Env.Now()
	pl := placement(w.lambda)
	pl.ComputeIdx, pl.Owner = 1, 0
	db2, err := dlsm.OpenDB(d, dlsm.RoleRecover, pl, opts)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	v.recovery = int64(d.Env.Now() - t0)
	return db2, nil
}

// snap is the program state the benchmark reads at a phase boundary:
// merged telemetry of the DB and the fabric, per-shard op counts and
// per-node CPU busy time.
type snap struct {
	tel        telemetry.Snapshot
	shardOps   []int64
	computeCPU float64
	memnodeCPU float64
}

func sample(d *dlsm.Deployment, db *dlsm.DB) snap {
	s := snap{tel: telemetry.Merge(db.TelemetrySnapshot(), d.Fabric.Telemetry().Snapshot())}
	for _, st := range db.Stats() {
		s.shardOps = append(s.shardOps, st.Reads.Load()+st.Writes.Load())
	}
	s.computeCPU = busy(d.Env, d.Compute[0].CPU)
	s.memnodeCPU = busy(d.Env, d.Servers[0].Node().CPU)
	return s
}

// busy recovers a core pool's busy core-ns since virtual time zero from
// its utilization; the pool's accounting window is never reset.
func busy(env *sim.Env, c *sim.CPU) float64 {
	return c.Utilization() * float64(env.Now()) * float64(c.Cores())
}

// diff stores the deltas from before to s into v.
func (s snap) diff(before snap, v *virtualResult) {
	v.counters = make(map[string]float64)
	for name, n := range s.tel.Counters {
		v.counters[name] = float64(n - before.tel.Counters[name])
	}
	for name, h := range s.tel.Histograms {
		b := before.tel.Histograms[name]
		delta := telemetry.HistogramSnapshot{Count: h.Count - b.Count, Max: h.Max,
			Buckets: make([]int64, len(h.Buckets))}
		for i := range h.Buckets {
			delta.Buckets[i] = h.Buckets[i]
			if i < len(b.Buckets) {
				delta.Buckets[i] -= b.Buckets[i]
			}
		}
		v.counters[name+".p99"] = float64(delta.Quantile(0.99))
	}
	for name, n := range v.counters {
		if isLinkCounter(name, ".bytes") {
			v.wireBytes += int64(n)
		}
	}
	v.shardOps = make([]int64, len(s.shardOps))
	for i := range s.shardOps {
		v.shardOps[i] = s.shardOps[i] - before.shardOps[i]
	}
	v.computeCPU = s.computeCPU - before.computeCPU
	v.memnodeCPU = s.memnodeCPU - before.memnodeCPU
}

// isLinkCounter reports whether name is a per-link fabric counter
// (rdma.link.<src>-><dst><suffix>).
func isLinkCounter(name, suffix string) bool {
	return strings.HasPrefix(name, "rdma.link.") && strings.HasSuffix(name, suffix)
}
