package sim

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Env is one simulation world: a virtual clock plus bookkeeping for the
// entities that live in it. All components of a simulated deployment
// (compute nodes, memory nodes, benchmark drivers) share one Env.
type Env struct {
	clock *Clock
	seed  int64
	wg    sync.WaitGroup
}

// NewEnv creates a fresh simulation world at virtual time zero with the
// default seed.
func NewEnv() *Env {
	return NewEnvSeed(DefaultSeed)
}

// NewEnvSeed creates a fresh simulation world whose injected faults and
// retry jitter derive deterministically from seed (see Mix64).
func NewEnvSeed(seed int64) *Env {
	return &Env{clock: NewClock(), seed: seed}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.clock.Now() }

// Sleep advances the calling entity by d of virtual time.
func (e *Env) Sleep(d Duration) { e.clock.Sleep(d) }

// WaitUntil blocks the calling entity until virtual time t.
func (e *Env) WaitUntil(t Time) { e.clock.WaitUntil(t) }

// Go spawns fn as a new simulated entity. The entity joins the scheduler's
// ready queue when Go returns and starts executing at its first dispatch
// (when the spawning entity next blocks, or at once if nothing runs). Host
// code may call Go too, before or between Runs.
func (e *Env) Go(fn func()) {
	e.wg.Add(1)
	e.clock.spawn(func() {
		defer e.wg.Done()
		defer recoverEntity()
		fn()
	})
}

// Run runs fn as a driver entity and returns when it does. Use it to drive
// a simulation from a test or main goroutine. A panic or runtime.Goexit
// (t.FailNow) in fn is re-raised in Run's caller, as is a deadlock the
// kernel finds while fn is running; the Env stays usable after a driver
// panic or Goexit. Deadlock detection is armed only while at least one
// driver is inside Run: service entities parked on empty queues between
// Runs are idle, not deadlocked.
func (e *Env) Run(fn func()) {
	r := &runState{done: make(chan struct{})}
	p := newProc(func() {
		finished := false
		defer func() {
			if !finished {
				if v := recover(); v != nil {
					r.failed = &entityPanic{val: v, stack: debug.Stack()}
				} else {
					r.goexit = true
				}
			}
			e.clock.endRun(r)
		}()
		fn()
		finished = true
	})
	if dead := e.clock.startRun(p, r); dead != "" {
		panic(dead)
	}
	<-r.done
	if r.failed != nil {
		panic(r.failed)
	}
	if r.goexit {
		runtime.Goexit()
	}
}

// Wait blocks the host goroutine until every entity spawned with Go has
// returned. It must be called from outside the simulation (not from an
// entity), typically after Run.
func (e *Env) Wait() { e.wg.Wait() }

// Clock exposes the underlying virtual clock.
func (e *Env) Clock() *Clock { return e.clock }
