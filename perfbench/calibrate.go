package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The host the benchmark runs on may share its cores, caches and memory
// bandwidth with other machines' work, and its speed then drifts by tens
// of percent over seconds to minutes. Host times are therefore reported at
// a reference speed: a run times a fixed piece of work (calibrate) before
// its first repetition and after every one, and scales each repetition's
// host times by calibrationRefNs over the mean of the two calibration
// times around it. The work mixes small allocations with map updates and
// lookups, a sort, and a pointer chase through a table larger than the
// caches, the kinds of host work the simulator does. It calls no dlsm code
// and runs in the parent process, whose heap is small, so no change to the
// program makes it faster or slower.

// calibrationRefNs defines the reference host: one whose calibrate takes
// this long, about what it takes on a 2-vCPU cloud VM.
const calibrationRefNs = 400e6

var (
	calibrationSink  int
	calibrationChase []uint32
	calibrationSort  = make([]uint64, 1<<19)
)

// calibrate does the fixed calibration work and returns its host ns.
func calibrate() float64 {
	r := rand.New(rand.NewSource(1))
	if calibrationChase == nil {
		// One cycle through every slot (Sattolo's shuffle), 32 MB.
		calibrationChase = make([]uint32, 1<<23)
		for i := range calibrationChase {
			calibrationChase[i] = uint32(i)
		}
		for i := len(calibrationChase) - 1; i > 0; i-- {
			j := r.Intn(i)
			calibrationChase[i], calibrationChase[j] = calibrationChase[j], calibrationChase[i]
		}
	}
	for i := range calibrationSort {
		calibrationSort[i] = r.Uint64()
	}
	runtime.GC()
	t0 := time.Now()
	m := make(map[uint32][]byte)
	for i := 0; i < 300000; i++ {
		b := make([]byte, 48+i%64)
		b[0] = byte(i)
		m[uint32(r.Int63()%300000)] = b
		calibrationSink += len(m[uint32(r.Int63()%300000)])
	}
	sort.Slice(calibrationSort, func(i, j int) bool { return calibrationSort[i] < calibrationSort[j] })
	j := uint32(0)
	for i := 0; i < 1000000; i++ {
		j = calibrationChase[j]
	}
	calibrationSink += int(j)
	return float64(time.Since(t0).Nanoseconds())
}
