package sim

import (
	"testing"
	"time"
)

// Kernel dispatch micro-benchmarks. Each reports per-dispatch host cost:
// ns/op and allocs/op are per entity resumption, not per benchmark loop.

// BenchmarkSleepDispatch runs 16 entities sleeping pseudo-random virtual
// durations, so every dispatch is a wait-heap wakeup of the earliest
// sleeper, usually a different entity from the one that just blocked.
func BenchmarkSleepDispatch(b *testing.B) {
	const entities = 16
	e := NewEnv()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(func() {
		wg := NewWaitGroup(e)
		for i := 0; i < entities; i++ {
			n := b.N / entities
			if i < b.N%entities {
				n++
			}
			x := uint64(i)*0x9e3779b97f4a7c15 + 1
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				for j := 0; j < n; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					e.Sleep(Duration(1 + x%1000))
				}
			})
		}
		wg.Wait()
	})
	b.StopTimer()
	e.Wait()
}

// BenchmarkMutexHandoff passes a contended Mutex back and forth between
// two entities: every Unlock readies the parked peer and every Lock parks,
// so each op is one ready-queue dispatch.
func BenchmarkMutexHandoff(b *testing.B) {
	e := NewEnv()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(func() {
		mu := NewMutex(e)
		wg := NewWaitGroup(e)
		mu.Lock()
		for i := 0; i < 2; i++ {
			n := b.N / 2
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				mu.Lock()
				for j := 0; j < n; j++ {
					mu.Unlock()
					mu.Lock()
				}
				mu.Unlock()
			})
		}
		e.Sleep(time.Nanosecond) // both peers park on the held lock
		mu.Unlock()
		wg.Wait()
	})
	b.StopTimer()
	e.Wait()
}

// BenchmarkChanHandoff streams b.N values through a rendezvous Chan from
// one entity to another; each value costs one dispatch.
func BenchmarkChanHandoff(b *testing.B) {
	e := NewEnv()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(func() {
		ch := NewChan[int](e, 0)
		e.Go(func() {
			for i := 0; i < b.N; i++ {
				ch.Send(i)
			}
			ch.Close()
		})
		for {
			if _, ok := ch.Recv(); !ok {
				break
			}
		}
	})
	b.StopTimer()
	e.Wait()
}
