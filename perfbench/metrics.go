package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// percentile returns the nearest-rank q-quantile of sorted (ns), the
// sample at rank ⌈q·n⌉, and how many samples lie beyond it.
func percentile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return sorted[rank-1], n - rank
}

// tailMean returns the mean of the slowest share of sorted (ns), at least
// one sample.
func tailMean(sorted []int64, share float64) float64 {
	tail := sorted[len(sorted)-max(int(share*float64(len(sorted))), 1):]
	var sum int64
	for _, x := range tail {
		sum += x
	}
	return float64(sum) / float64(len(tail))
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// virtualMetrics are the end-to-end metrics on the virtual clock.
func virtualMetrics(v *virtualResult) []metric {
	ops := float64(v.ops)
	return []metric{
		{"throughput_ops_s", "ops/s", ops / (float64(v.elapsed) / 1e9)},
		{"tail_1pct_mean_us", "us", tailMean(v.all, 0.01) / 1e3},
		{"wire_bytes_per_op", "B/op", float64(v.wireBytes) / ops},
		{"cpu_us_per_op", "us/op", (v.computeCPU + v.memnodeCPU) / 1e3 / ops},
		{"space_amp", "ratio", ratio(float64(v.spaceUsed), float64(v.liveBytes))},
	}
}

// medianVirtual takes each virtual metric's median over reps.
func medianVirtual(reps []*repReport) []metric {
	out := append([]metric(nil), reps[0].Virtual...)
	for i := range out {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r.Virtual[i].Value)
		}
		out[i].Value = median(xs)
	}
	return out
}

// hostMetrics are the end-to-end metrics on the host clock: medians over
// the repetitions, with host times scaled to the reference host.
func hostMetrics(reps []*repReport) []metric {
	var perOp, alloc, rss, setup []float64
	for _, r := range reps {
		ops := float64(r.Ops)
		perOp = append(perOp, float64(r.MeasureNs)/ops*r.speed)
		alloc = append(alloc, float64(r.AllocBytes)/ops)
		rss = append(rss, r.PeakRSSMB)
		setup = append(setup, float64(r.SetupNs)/1e9*r.speed)
	}
	return []metric{
		{"host_ns_per_op", "ns/op", median(perOp)},
		{"host_alloc_bytes_per_op", "B/op", median(alloc)},
		{"peak_rss_mb", "MB", median(rss)},
		{"setup_s", "s", median(setup)},
	}
}

// layerMetrics derives the per-layer metrics of one traced repetition
// from the counter deltas over its timed window (measure start to drain
// end). A ratio whose base is zero on a workload (for example hits per
// Get on a workload without Gets) reads 0.
func layerMetrics(v *virtualResult) []metric {
	c := v.counters
	var toMem, fromMem, opsTo, opsFrom float64
	for name, n := range c {
		switch {
		case isLinkCounter(name, ".bytes") && strings.Contains(name, "->memory-"):
			toMem += n
		case isLinkCounter(name, ".bytes"):
			fromMem += n
		case isLinkCounter(name, ".ops") && strings.Contains(name, "->memory-"):
			opsTo += n
		case isLinkCounter(name, ".ops"):
			opsFrom += n
		}
	}
	gets := float64(len(v.lat[opGet]))
	puts := float64(len(v.lat[opPut]))
	hits, misses := c["cache.hits"], c["cache.misses"]
	var maxShard, sumShard float64
	for _, n := range v.shardOps {
		maxShard = math.Max(maxShard, float64(n))
		sumShard += float64(n)
	}
	meanShard := sumShard / float64(len(v.shardOps))
	ms := func(ns float64) float64 { return ns / 1e6 }
	return []metric{
		{"rdma.bytes_to_mem", "B", toMem},
		{"rdma.bytes_from_mem", "B", fromMem},
		{"rdma.ops_to_mem", "count", opsTo},
		{"rdma.ops_from_mem", "count", opsFrom},
		{"rpc.retries", "count", c["rpc.retries"]},
		{"rpc.timeouts", "count", c["rpc.timeouts"]},
		{"memnode.compactions_remote", "count", c["engine.compaction.remote"]},
		{"memnode.jobs_deduped", "count", c["memnode.jobs.deduped"]},
		{"compute.cpu_us_per_op", "us/op", v.computeCPU / 1e3 / float64(v.ops)},
		{"memnode.cpu_us_per_op", "us/op", v.memnodeCPU / 1e3 / float64(v.ops)},
		{"engine.stalls", "count", c["engine.stalls"]},
		{"engine.stall_ms", "ms", ms(c["engine.stall.time_ns"])},
		{"engine.memtable_switches", "count", c["engine.memtable.switches"]},
		{"engine.switch_contended", "count", c["engine.memtable.switch_contended"]},
		{"engine.switch_wait_p99_us", "us", c["engine.memtable.switch_wait_ns.p99"] / 1e3},
		{"wal.appends", "count", c["wal.appends"]},
		{"wal.doorbells", "count", c["wal.doorbells"]},
		{"wal.records_per_doorbell", "ratio", ratio(c["wal.appends"], c["wal.doorbells"])},
		{"wal.ring_stalls", "count", c["wal.ring_stalls"]},
		{"wal.bytes_per_put", "B", ratio(c["wal.append_bytes"], puts)},
		{"flush.count", "count", c["engine.flushes"]},
		{"flush.bytes", "B", c["engine.flush.bytes"]},
		{"flush.latency_p99_us", "us", c["engine.flush.latency_ns.p99"] / 1e3},
		{"flush.reap_waits", "count", c["flush.reap_waits"]},
		{"compactor.bytes_in", "B", c["engine.compaction.bytes_in"]},
		{"compactor.bytes_out", "B", c["engine.compaction.bytes_out"]},
		{"compactor.time_ms", "ms", ms(c["engine.compaction.time_ns"])},
		{"compactor.local", "count", c["engine.compaction.local"]},
		{"compactor.fallbacks", "count", c["compaction.fallback"]},
		{"compactor.write_amp", "ratio", ratio(c["engine.flush.bytes"]+c["engine.compaction.bytes_out"], float64(v.putBytes))},
		{"cache.hits", "count", hits},
		{"cache.misses", "count", misses},
		{"cache.neg_hits", "count", c["cache.neg_hits"]},
		{"cache.evictions", "count", c["cache.evictions"]},
		{"cache.invalidations", "count", c["cache.invalidations"]},
		{"cache.hit_ratio", "ratio", ratio(hits, hits+misses)},
		{"bloom.negatives_per_get", "ratio", ratio(c["engine.read.bloom_negatives"], gets)},
		{"sstable.fetches_per_get", "ratio", ratio(c["engine.read.table_fetches"], gets)},
		{"sstable.fetch_bytes_per_get", "B", ratio(c["engine.read.table_fetch_bytes"], gets)},
		{"readahead.bytes_prefetched", "B", c["scan.bytes_prefetched"]},
		{"readahead.waste_ratio", "ratio", ratio(c["scan.bytes_wasted"], c["scan.bytes_prefetched"])},
		{"readahead.stall_ms", "ms", ms(c["scan.stall_ns"])},
		{"shard.max_over_mean_ops", "ratio", ratio(maxShard, meanShard)},
	}
}

// profiledModules are the modules whose host self time the traced run
// reports: every dlsm/internal package the workloads execute, plus
// "driver" (the benchmark and the dlsm facade) and "runtime" (samples with
// no dlsm frame). Samples in any other module are summed under "other".
var profiledModules = []string{
	"arena", "bloom", "cache", "compactor", "engine", "flush", "iterx",
	"keys", "memnode", "memtable", "rdma", "readahead", "remote", "rpc",
	"shard", "sim", "skiplist", "sstable", "telemetry", "version", "wal",
	"driver", "runtime", "other",
}

// hostSelfMetrics turns per-module profile time (ns) into one
// <module>.host_self_ms metric per profiled module.
func hostSelfMetrics(self map[string]int64) []metric {
	known := make(map[string]bool)
	for _, m := range profiledModules {
		known[m] = true
	}
	for m, ns := range self {
		if !known[m] {
			self["other"] += ns
		}
	}
	var out []metric
	for _, m := range profiledModules {
		out = append(out, metric{m + ".host_self_ms", "ms", float64(self[m]) / 1e6})
	}
	return out
}

// probeMetrics orders the layer-probe results by name.
func probeMetrics(p map[string]float64) []metric {
	var out []metric
	for name, v := range p {
		unit := "ns"
		if strings.HasSuffix(name, "_allocs") {
			unit = "allocs"
		}
		out = append(out, metric{name, unit, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// kindLatencies describes each op kind's latency distribution: the median
// and the highest of p99 and p999 with at least minBeyond samples beyond
// it, each with its sample count.
func kindLatencies(v *virtualResult) []string {
	var out []string
	for k, lat := range v.lat {
		if len(lat) == 0 {
			continue
		}
		p50, _ := percentile(lat, 0.5)
		line := fmt.Sprintf("%s_p50_us = %.3f us", opKind(k), usOf(p50))
		for _, q := range []struct {
			name string
			q    float64
		}{{"p999", 0.999}, {"p99", 0.99}} {
			if p, beyond := percentile(lat, q.q); beyond >= minBeyond {
				line += fmt.Sprintf(", %s_%s_us = %.3f us (%d beyond)", opKind(k), q.name, usOf(p), beyond)
				break
			}
		}
		out = append(out, line+fmt.Sprintf(", n = %d", len(lat)))
	}
	return out
}

// fingerprint hashes every virtual number of v's timed window; two
// repetitions at one seed must agree.
func (v *virtualResult) fingerprint() uint64 {
	h := fnv.New64a()
	for _, m := range virtualMetrics(v) {
		fmt.Fprintf(h, "%s=%s;", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64))
	}
	names := make([]string, 0, len(v.counters))
	for name := range v.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%s;", name, strconv.FormatFloat(v.counters[name], 'g', -1, 64))
	}
	fmt.Fprint(h, v.shardOps, v.memnodeCPU, v.all)
	return h.Sum64()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
