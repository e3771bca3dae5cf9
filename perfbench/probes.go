package main

import (
	"bytes"
	"runtime"
	"sort"
	"time"

	"dlsm/internal/arena"
	"dlsm/internal/bloom"
	"dlsm/internal/cache"
	"dlsm/internal/iterx"
	"dlsm/internal/keys"
	"dlsm/internal/rdma"
	"dlsm/internal/sim"
	"dlsm/internal/skiplist"
	"dlsm/internal/sstable"
)

// probeCalls is how many calls one probe round makes; probeRounds rounds
// run and the median round's ns/call is reported.
const (
	probeCalls  = 20000
	probeRounds = 5
)

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int

// probeKeys returns the workload's key indexes in op-stream order, the
// sessions interleaved, truncated to probeCalls.
func probeKeys(in *inputs) []int32 {
	var out []int32
	for i := 0; len(out) < probeCalls; i++ {
		added := false
		for _, ops := range in.streams {
			if i < len(ops) && len(out) < probeCalls {
				out = append(out, ops[i].key)
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}

// probeResult is one probe's host cost per call.
type probeResult struct{ ns, allocs float64 }

// measureProbe runs probeRounds rounds; each calls setup (untimed), then
// fn(i) for every i < n. It reports the median round's host ns per call
// and the mean heap allocations per call.
func measureProbe(n int, setup func(), fn func(i int)) probeResult {
	var rounds []float64
	var ms0, ms1 runtime.MemStats
	var allocs uint64
	for r := 0; r < probeRounds; r++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		rounds = append(rounds, float64(el.Nanoseconds())/float64(n))
	}
	sort.Float64s(rounds)
	return probeResult{rounds[len(rounds)/2], float64(allocs) / float64(n*probeRounds)}
}

// runProbes measures host ns/call and allocs/call of the public functions
// each layer's hot path calls, fed with the workload's own keys. Results
// are keyed <module>.<fn>_ns and <module>.<fn>_allocs.
func runProbes(in *inputs) map[string]float64 {
	out := make(map[string]float64)
	put := func(name string, r probeResult) {
		out[name+"_ns"] = r.ns
		out[name+"_allocs"] = r.allocs
	}
	ks := probeKeys(in)
	n := len(ks)

	// skiplist: MemTable inserts of internal keys, then seeks.
	ikeys := make([][]byte, n)
	lookups := make([][]byte, n)
	for i, k := range ks {
		ikeys[i] = keys.Append(nil, in.keys[k], keys.Seq(i+1), keys.KindSet)
		lookups[i] = keys.AppendLookup(nil, in.keys[k], keys.MaxSeq)
	}
	var list *skiplist.List
	fresh := func() { list = skiplist.New(keys.Compare, arena.New()) }
	put("skiplist.insert", measureProbe(n, fresh, func(i int) {
		list.Insert(ikeys[i], in.values[ks[i]])
	}))
	it := list.NewIterator()
	put("skiplist.seek_ge", measureProbe(n, nil, func(i int) {
		it.SeekGE(lookups[i])
		if it.Valid() {
			sink++
		}
	}))

	// bloom: a filter over the whole keyspace at the engine's default
	// 10 bits/key, probed with the stream's keys.
	filter := bloom.Build(in.keys, 10)
	put("bloom.may_contain", measureProbe(n, nil, func(i int) {
		if filter.MayContain(in.keys[ks[i]]) {
			sink++
		}
	}))

	// cache: fills into an empty cache of the benchmark's budget, then
	// value probes for the same entries.
	var c *cache.Cache
	budget := options(1).CacheBudgetBytes
	put("cache.fill_value", measureProbe(n, func() { c = cache.New(cache.Config{Budget: budget}) }, func(i int) {
		c.FillValue(1, uint32(ks[i]), in.values[ks[i]])
	}))
	put("cache.get_value", measureProbe(n, nil, func(i int) {
		if _, ok := c.GetValue(1, uint32(ks[i])); ok {
			sink++
		}
	}))

	// iterx: a four-way merge of the stream's distinct keys dealt
	// round-robin to four sorted children; one call is one Next.
	distinct := distinctSorted(ks)
	var children [4][][]byte
	for i, k := range distinct {
		children[i%4] = append(children[i%4], keys.Append(nil, in.keys[k], 1, keys.KindSet))
	}
	var merged sstable.Iterator
	open := func() {
		its := make([]sstable.Iterator, len(children))
		for i := range children {
			its[i] = &sliceIter{keys: children[i]}
		}
		merged = iterx.Merging(keys.Compare, its...)
		merged.First()
	}
	put("iterx.merge_next", measureProbe(len(distinct)-1, open, func(int) {
		merged.Next()
	}))

	// sim: entity handoff through the kernel's serial dispatch.
	put("sim.handoff", simHandoff(n))

	// rdma: one-sided reads of each stream key's value slot in a
	// registered region on a second node.
	put("rdma.read_sync", rdmaRead(in, ks))
	return out
}

func distinctSorted(ks []int32) []int32 {
	seen := make(map[int32]bool, len(ks))
	var out []int32
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// simHandoff times Sleep(1) calls of an entity while a partner entity
// sleeps in lockstep, so each call is two dispatches through the kernel.
func simHandoff(n int) (r probeResult) {
	env := sim.NewEnv()
	env.Run(func() {
		stop := false
		wg := sim.NewWaitGroup(env)
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			for !stop {
				env.Sleep(1)
			}
		})
		r = measureProbe(n, nil, func(int) { env.Sleep(1) })
		stop = true
		wg.Wait()
	})
	env.Wait()
	return r
}

// rdmaRead times a ReadSync of each key's value from a slot in a
// registered region on a second node.
func rdmaRead(in *inputs, ks []int32) (r probeResult) {
	env := sim.NewEnv()
	fab := rdma.NewFabric(env, rdma.EDR100())
	cn := fab.AddNode("compute", 1)
	mn := fab.AddNode("memory", 1)
	remote := mn.Register(keyCount * valSize)
	local := cn.Register(valSize)
	env.Run(func() {
		qp := cn.NewQP(mn)
		r = measureProbe(len(ks), nil, func(i int) {
			if err := qp.ReadSync(local, 0, remote.Addr(int(ks[i])*valSize), len(in.values[ks[i]])); err == nil {
				sink++
			}
		})
		qp.Close()
		fab.Close()
	})
	env.Wait()
	return r
}

// sliceIter is an sstable.Iterator over sorted internal keys with empty
// values: a merge child whose own cost is negligible.
type sliceIter struct {
	keys [][]byte
	i    int
}

func (s *sliceIter) First() { s.i = 0 }
func (s *sliceIter) SeekGE(k []byte) {
	s.i = sort.Search(len(s.keys), func(i int) bool { return bytes.Compare(s.keys[i], k) >= 0 })
}
func (s *sliceIter) Valid() bool   { return s.i < len(s.keys) }
func (s *sliceIter) Next()         { s.i++ }
func (s *sliceIter) Key() []byte   { return s.keys[s.i] }
func (s *sliceIter) Value() []byte { return nil }
func (s *sliceIter) Error() error  { return nil }
func (s *sliceIter) Close()        {}
