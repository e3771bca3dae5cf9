package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Data geometry shared by every workload: the paper's entries (20-byte
// keys, fixed 400-byte values, as internal/bench uses) over a keyspace
// small enough that one run cycles flush and compaction many times.
const (
	keyCount = 40000
	keySize  = 20
	valSize  = 400
	sessions = 16
	scanLen  = 100
)

// entryBytes is the user payload of one key/value pair.
const entryBytes = keySize + valSize

// fixedOrderSeed draws read-uniform's preload order, the same for every
// run seed. The LSM shape a preload settles into depends on the order: 30
// of 75 seeded orders left one to three more tables for a Get to look
// through, costing up to 40% more CPU per Get, and a run's median over five
// sub-seeds then changed by more than the metrics' bounds from one run
// seed to the next. This order settles with one such table. mixed-zipf
// keeps a seeded order, because its Puts reshape the tree while it runs.
const fixedOrderSeed = 1

// opKind is one client operation.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
)

func (k opKind) String() string {
	return [...]string{"get", "put", "scan"}[k]
}

// op is one pre-generated client request: the kind and the key index it
// targets (a scan's start key).
type op struct {
	kind opKind
	key  int32
}

// workload is one named traffic mix.
type workload struct {
	name    string
	lambda  int  // shard count
	preload bool // load every key and settle before measuring
	ops     int  // measured ops across all sessions
}

// workloads lists the benchmark's traffic mixes. All three share one
// Options set; only λ differs (4 in mixed-zipf).
var workloads = []workload{
	{name: "fill-sync", lambda: 1, ops: 64000},
	{name: "read-uniform", lambda: 1, preload: true, ops: 48000},
	{name: "mixed-zipf", lambda: 4, preload: true, ops: 48000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run feeds the program, generated before any timed
// window: the key and value bytes, the preload order and each session's op
// stream. The seed draws the op streams and, except on read-uniform, the
// preload order; the key and value bytes are the same for every seed.
type inputs struct {
	keys    [][]byte
	values  [][]byte
	preload []int32 // preload order (a permutation of the keyspace)
	streams [sessions][]op
}

// key formats key index i: fixed width, so byte order is index order.
func key(i int) []byte { return []byte(fmt.Sprintf("user%016d", i)) }

// value derives key i's value from i. Every Put of key i writes this
// value, so any read of i has exactly one correct answer.
func value(i int) []byte {
	x := uint64(i+1) * 0xBF58476D1CE4E5B9
	x ^= x >> 31
	v := make([]byte, valSize)
	for j := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[j] = 'a' + byte(x%26)
	}
	return v
}

func generate(w workload, seed int64) *inputs {
	in := &inputs{keys: make([][]byte, keyCount), values: make([][]byte, keyCount)}
	for i := range in.keys {
		in.keys[i] = key(i)
		in.values[i] = value(i)
	}
	if w.preload {
		orderSeed := seed
		if w.name == "read-uniform" {
			orderSeed = fixedOrderSeed
		}
		perm := rand.New(rand.NewSource(orderSeed)).Perm(keyCount)
		in.preload = make([]int32, keyCount)
		for i, k := range perm {
			in.preload[i] = int32(k)
		}
	}
	per := w.ops / sessions
	for s := range in.streams {
		r := rand.New(rand.NewSource(seed*1000003 + int64(s)*7919))
		z := rand.NewZipf(r, 1.2, 1, keyCount-1)
		ops := make([]op, per)
		for i := range ops {
			switch w.name {
			case "fill-sync":
				ops[i] = op{opPut, int32(r.Intn(keyCount))}
			case "read-uniform":
				ops[i] = op{opGet, int32(r.Intn(keyCount))}
			case "mixed-zipf":
				k := int32(scramble(z.Uint64()) % keyCount)
				switch p := r.Float64(); {
				case p < 0.50:
					ops[i] = op{opGet, k}
				case p < 0.95:
					ops[i] = op{opPut, k}
				default:
					ops[i] = op{opScan, k}
				}
			}
		}
		in.streams[s] = ops
	}
	return in
}

// fingerprint hashes the op streams; two seeds must give different
// fingerprints.
func (in *inputs) fingerprint() uint64 {
	h := fnv.New64a()
	var b [5]byte
	for _, ops := range in.streams {
		for _, o := range ops {
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint32(b[1:], uint32(o.key))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// scramble maps Zipf ranks to keys: splitmix64's finalizer, the fixed
// mapping internal/bench and internal/service use (YCSB's scrambled Zipf
// likewise hashes the rank with a fixed hash). Hot keys spread over the
// keyspace and the shards rather than bunching at its low end.
func scramble(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
