package sim

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv()
	var got Time
	e.Run(func() {
		e.Sleep(5 * time.Millisecond)
		got = e.Now()
	})
	if got != Time(5*time.Millisecond) {
		t.Fatalf("Now = %d, want %d", got, 5*time.Millisecond)
	}
}

func TestConcurrentSleepersShareVirtualTime(t *testing.T) {
	// 10 entities each sleeping 1ms concurrently must finish at t=1ms,
	// not 10ms: virtual time models parallelism regardless of host cores.
	e := NewEnv()
	var done atomic.Int32
	e.Run(func() {
		wg := NewWaitGroup(e)
		for i := 0; i < 10; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				e.Sleep(time.Millisecond)
				done.Add(1)
			})
		}
		wg.Wait()
		if now := e.Now(); now != Time(time.Millisecond) {
			t.Errorf("Now = %v, want 1ms", now)
		}
	})
	e.Wait()
	if done.Load() != 10 {
		t.Fatalf("done = %d, want 10", done.Load())
	}
}

func TestWaitUntilPastIsNoop(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		e.Sleep(time.Millisecond)
		e.WaitUntil(0) // already passed
		if e.Now() != Time(time.Millisecond) {
			t.Errorf("Now moved backwards or stalled: %v", e.Now())
		}
	})
}

func TestMutexMutualExclusion(t *testing.T) {
	e := NewEnv()
	var inside, max atomic.Int32
	e.Run(func() {
		m := NewMutex(e)
		wg := NewWaitGroup(e)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					m.Lock()
					n := inside.Add(1)
					for {
						old := max.Load()
						if n <= old || max.CompareAndSwap(old, n) {
							break
						}
					}
					e.Sleep(time.Microsecond)
					inside.Add(-1)
					m.Unlock()
				}
			})
		}
		wg.Wait()
	})
	e.Wait()
	if max.Load() != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", max.Load())
	}
}

func TestMutexTryLock(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		m := NewMutex(e)
		if !m.TryLock() {
			t.Fatal("TryLock on free mutex failed")
		}
		if m.TryLock() {
			t.Fatal("TryLock on held mutex succeeded")
		}
		m.Unlock()
		if !m.TryLock() {
			t.Fatal("TryLock after unlock failed")
		}
		m.Unlock()
	})
}

func TestCondSignalWakesWaiter(t *testing.T) {
	e := NewEnv()
	var woke bool
	e.Run(func() {
		m := NewMutex(e)
		c := NewCond(e, m)
		ready := false
		e.Go(func() {
			e.Sleep(time.Millisecond)
			m.Lock()
			ready = true
			m.Unlock()
			c.Signal()
		})
		m.Lock()
		for !ready {
			c.Wait()
		}
		woke = true
		m.Unlock()
	})
	e.Wait()
	if !woke {
		t.Fatal("waiter never woke")
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEnv()
	var woke atomic.Int32
	e.Run(func() {
		m := NewMutex(e)
		c := NewCond(e, m)
		go_ := false
		wg := NewWaitGroup(e)
		for i := 0; i < 5; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				m.Lock()
				for !go_ {
					c.Wait()
				}
				m.Unlock()
				woke.Add(1)
			})
		}
		e.Sleep(time.Millisecond)
		m.Lock()
		go_ = true
		m.Unlock()
		c.Broadcast()
		wg.Wait()
	})
	e.Wait()
	if woke.Load() != 5 {
		t.Fatalf("woke = %d, want 5", woke.Load())
	}
}

func TestChanFIFOAndBlocking(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Run(func() {
		ch := NewChan[int](e, 2)
		wg := NewWaitGroup(e)
		wg.Add(1)
		e.Go(func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ch.Send(i) // blocks when buffer full
			}
			ch.Close()
		})
		for {
			v, ok := ch.Recv()
			if !ok {
				break
			}
			got = append(got, v)
		}
		wg.Wait()
	})
	e.Wait()
	if len(got) != 10 {
		t.Fatalf("received %d values, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestChanRendezvous(t *testing.T) {
	e := NewEnv()
	var v int
	e.Run(func() {
		ch := NewChan[int](e, 0)
		e.Go(func() { ch.Send(42) })
		v, _ = ch.Recv()
	})
	e.Wait()
	if v != 42 {
		t.Fatalf("v = %d, want 42", v)
	}
}

func TestChanTryOps(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		ch := NewChan[int](e, 1)
		if _, ok := ch.TryRecv(); ok {
			t.Fatal("TryRecv on empty chan succeeded")
		}
		if !ch.TrySend(1) {
			t.Fatal("TrySend on empty chan failed")
		}
		if ch.TrySend(2) {
			t.Fatal("TrySend on full chan succeeded")
		}
		v, ok := ch.TryRecv()
		if !ok || v != 1 {
			t.Fatalf("TryRecv = (%d,%v), want (1,true)", v, ok)
		}
	})
}

func TestCPUSingleCoreSerializes(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		cpu := NewCPU(e, 1)
		wg := NewWaitGroup(e)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				cpu.Use(time.Millisecond)
			})
		}
		wg.Wait()
		if now := e.Now(); now != Time(4*time.Millisecond) {
			t.Errorf("1-core: Now = %v, want 4ms", time.Duration(now))
		}
	})
	e.Wait()
}

func TestCPUMultiCoreParallelizes(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		cpu := NewCPU(e, 4)
		wg := NewWaitGroup(e)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				cpu.Use(time.Millisecond)
			})
		}
		wg.Wait()
		if now := e.Now(); now != Time(time.Millisecond) {
			t.Errorf("4-core: Now = %v, want 1ms", time.Duration(now))
		}
	})
	e.Wait()
}

func TestCPUUtilization(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		cpu := NewCPU(e, 2)
		cpu.ResetStats()
		cpu.Use(time.Millisecond)
		// 1ms busy on one of two cores over a 1ms window => 50%.
		u := cpu.Utilization()
		if u < 0.49 || u > 0.51 {
			t.Errorf("utilization = %f, want 0.5", u)
		}
	})
	e.Wait()
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e.Run(func() {
		m := NewMutex(e)
		m.Lock()
		m.Lock() // self-deadlock: sole entity blocks forever
	})
}

func TestWaitGroupZeroWaitReturnsImmediately(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		wg := NewWaitGroup(e)
		wg.Wait() // must not block
	})
}

// TestSchedulerDeterministicTimeline pins the per-entity virtual finish
// times of a contended workload. With cooperative serial dispatch,
// same-instant contention — CPU core queueing, mutex handoff order,
// channel FIFO order — must resolve identically on every run, no matter
// how the host schedules the underlying goroutines. The expected times
// were recorded under the goroutine-per-entity kernel this coroutine
// kernel replaced, so a kernel that reorders dispatch consistently fails
// here too.
func TestSchedulerDeterministicTimeline(t *testing.T) {
	want := []Time{39000, 42000, 41000, 43000, 45000, 46000, 47000, 50000}
	run := func() []Time {
		e := NewEnv()
		const n = 8
		out := make([]Time, n)
		e.Run(func() {
			cpu := NewCPU(e, 2)
			mu := NewMutex(e)
			ch := NewChan[int](e, 2)
			wg := NewWaitGroup(e)
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				e.Go(func() {
					defer wg.Done()
					for j := 0; j < 4; j++ {
						cpu.Use(Duration(1+(i*7+j*3)%5) * time.Microsecond)
						mu.Lock()
						e.Sleep(time.Microsecond)
						mu.Unlock()
						ch.Send(i)
						ch.Recv()
					}
					out[i] = e.Now()
				})
			}
			wg.Wait()
		})
		e.Wait()
		return out
	}
	for r := 0; r < 2; r++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: entity %d finished at %d, want %d (all: %v)", r, i, got[i], want[i], got)
			}
		}
	}
}

// TestDispatchOrderGolden pins the order in which a contended CPU.Use /
// Mutex / Chan mix dispatches its entities. Each letter-digit pair is one
// event: c<i> entity i finished a CPU charge, m<i> it acquired the mutex,
// r<v> some entity received the value sent by entity v. The string was
// recorded under the goroutine-per-entity kernel.
func TestDispatchOrderGolden(t *testing.T) {
	const want = "c0m0c1r0m1r1c3m3r3c2m2c4r2m4r4c5m5r5c0m0r0c1m1r1c2m2r2c3m3c4r3m4r4c5m5c0c2r5m0r0m2c1c3r2m1r1m3r3c5m5r5c4m4r4"
	e := NewEnv()
	var log []byte
	mark := func(kind byte, i int) { log = append(log, kind, byte('0'+i)) }
	e.Run(func() {
		cpu := NewCPU(e, 2)
		mu := NewMutex(e)
		ch := NewChan[int](e, 1)
		wg := NewWaitGroup(e)
		for i := 0; i < 6; i++ {
			i := i
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				for j := 0; j < 3; j++ {
					cpu.Use(Duration(1+(i+2*j)%3) * time.Microsecond)
					mark('c', i)
					mu.Lock()
					mark('m', i)
					if (i+j)%2 == 0 {
						e.Sleep(time.Microsecond)
					}
					mu.Unlock()
					ch.Send(i)
					v, _ := ch.Recv()
					mark('r', v)
				}
			})
		}
		wg.Wait()
	})
	e.Wait()
	if got := string(log); got != want {
		t.Fatalf("dispatch order\n got %s\nwant %s", got, want)
	}
}

// TestAlarmCrossEntity creates an alarm in one entity, waits on it in a
// second and cancels it from a third: the owner binds at Wait, and the
// canceled deadline must not drag the clock forward.
func TestAlarmCrossEntity(t *testing.T) {
	e := NewEnv()
	var fired, end Time
	deadlineFired := true
	e.Run(func() {
		wg := NewWaitGroup(e)
		a := e.Clock().NewAlarm(Time(time.Second), "test.alarm")
		wg.Add(2)
		e.Go(func() { // waiter
			defer wg.Done()
			deadlineFired = a.Wait()
			fired = e.Now()
		})
		e.Go(func() { // canceler
			defer wg.Done()
			e.Sleep(time.Millisecond)
			a.Cancel()
		})
		wg.Wait()
		end = e.Now()

		// An alarm nobody cancels fires for a waiter other than its creator.
		b := e.Clock().NewAlarm(e.Now()+Time(time.Millisecond), "test.alarm")
		wg.Add(1)
		e.Go(func() {
			defer wg.Done()
			if !b.Wait() {
				t.Error("uncanceled alarm reported cancel")
			}
		})
		wg.Wait()
	})
	e.Wait()
	if deadlineFired {
		t.Fatal("canceled alarm's Wait reported the deadline fired")
	}
	if fired != Time(time.Millisecond) || end != Time(time.Millisecond) {
		t.Fatalf("waiter woke at %v, driver ended at %v; want both at 1ms", time.Duration(fired), time.Duration(end))
	}
	if now := e.Now(); now != Time(2*time.Millisecond) {
		t.Fatalf("Now = %v after second alarm, want 2ms", time.Duration(now))
	}
}

// TestRunPanicReachesCaller checks that a driver panic surfaces in Run's
// caller with its value reachable, and that the Env keeps working.
func TestRunPanicReachesCaller(t *testing.T) {
	e := NewEnv()
	errBoom := errors.New("boom")
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, errBoom) {
				t.Fatalf("recovered %v, want an error wrapping %v", r, errBoom)
			}
		}()
		e.Run(func() {
			e.Sleep(time.Millisecond)
			panic(errBoom)
		})
	}()
	checkEnvUsable(t, e, Time(time.Millisecond))
}

// TestRunGoexitReachesCaller checks that runtime.Goexit in a driver — what
// t.FailNow does — ends Run's caller the same way, while a background
// entity keeps its place in the simulation.
func TestRunGoexitReachesCaller(t *testing.T) {
	e := NewEnv()
	bg := NewChan[int](e, 0)
	e.Go(func() { bg.Recv() })
	returned := make(chan bool)
	go func() {
		normal := false
		defer func() { returned <- normal }()
		e.Run(func() {
			e.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		normal = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after its driver called Goexit")
	}
	e.Run(func() { bg.Send(1) })
	checkEnvUsable(t, e, Time(time.Millisecond))
	e.Wait()
}

// checkEnvUsable runs a fresh driver with a spawned sleeper on e, which
// must start at virtual time from.
func checkEnvUsable(t *testing.T, e *Env, from Time) {
	t.Helper()
	var got Time
	e.Run(func() {
		wg := NewWaitGroup(e)
		wg.Add(1)
		e.Go(func() {
			defer wg.Done()
			e.Sleep(time.Millisecond)
		})
		wg.Wait()
		got = e.Now()
	})
	if want := from + Time(time.Millisecond); got != want {
		t.Fatalf("later Run ended at %v, want %v", time.Duration(got), time.Duration(want))
	}
}

// TestHostGoBeforeRun spawns service entities from host code before any
// Run, the way memnode.Server.Start does, then drives them. Registering the
// driver must be atomic with queueing it, or an idle kernel could report a
// false deadlock in between.
func TestHostGoBeforeRun(t *testing.T) {
	e := NewEnv()
	const n = 4
	reqs := make([]*Chan[int], n)
	reply := NewChan[int](e, 0)
	for i := range reqs {
		reqs[i] = NewChan[int](e, 0)
		q := reqs[i]
		e.Go(func() {
			for {
				v, ok := q.Recv()
				if !ok {
					return
				}
				e.Sleep(time.Microsecond)
				reply.Send(v * 2)
			}
		})
	}
	sum := 0
	e.Run(func() {
		for i, q := range reqs {
			q.Send(i)
			v, _ := reply.Recv()
			sum += v
		}
		for _, q := range reqs {
			q.Close()
		}
	})
	e.Wait()
	if sum != 2*(0+1+2+3) {
		t.Fatalf("sum = %d, want 12", sum)
	}
}
