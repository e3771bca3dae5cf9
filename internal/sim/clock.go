//go:build go1.23

// Package sim implements a discrete-event simulation kernel with a virtual
// clock. Simulated threads ("entities") execute real code; only *time* is
// virtual. An entity is either running (executing Go code on the host),
// ready (runnable, awaiting dispatch) or blocked (waiting on the virtual
// clock or on a sim-aware synchronization primitive).
//
// Each entity is a coroutine (iter.Pull) and each Clock has one kernel
// goroutine that resumes them one at a time. An entity blocks by yielding
// back to the kernel, which picks the next entity and switches to it
// directly: a dispatch costs two coroutine switches and no allocation,
// channel operation or trip through the Go scheduler. The kernel goroutine
// exists only while the simulation has work; host-side Env.Go, Env.Run and
// Ready start it again when it has gone idle.
//
// Scheduling is cooperative and serial: at most one entity executes at a
// time. Entities made runnable — woken by a primitive, newly spawned, or
// released by a canceled alarm — join a FIFO ready queue, and the next one
// is dispatched only when the current runner blocks or exits. When nothing
// is runnable the clock advances to the earliest pending wakeup and
// dispatches that single waiter. Serial dispatch makes every arrival order
// in the simulation — mutex queues, CPU core assignment, channel handoffs —
// a pure function of virtual state rather than of host scheduling, so a
// run's virtual timeline is reproducible on any host.
//
// A primitive parks and wakes entities through their Proc handle: the
// blocking entity records Clock.Current in the primitive's wait queue, then
// calls Clock.Block, which returns once a waker has passed that handle to
// Clock.Ready. The waker keeps running; the woken entity joins the ready
// queue.
//
// Rules for code running under the simulator:
//
//   - All cross-entity blocking must use sim primitives (Mutex, Cond, Chan,
//     WaitGroup) or clock waits. Host sync primitives may be used only for
//     critical sections that never block on a sim primitive while held.
//   - Every function that touches blocking sim primitives must run as an
//     entity: spawned with Env.Go or driven through Env.Run.
//
// Virtual time is int64 nanoseconds since simulation start.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = time.Duration

// Proc is the handle of one simulated entity. A primitive that parks the
// calling entity records Clock.Current, calls Clock.Block, and is woken by
// whoever passes the handle to Clock.Ready.
type Proc struct {
	next  func() (struct{}, bool) // resumes the coroutine until it yields or ends
	yield func(struct{}) bool     // suspends the coroutine back to the kernel
}

// runState carries a driver's outcome from its coroutine to Run's caller.
type runState struct {
	done   chan struct{}
	failed any  // panic value to re-raise in Run's caller
	goexit bool // the driver called runtime.Goexit (t.FailNow)
}

// park suspends the calling entity until the kernel resumes it.
func (p *Proc) park() { p.yield(struct{}{}) }

// entityPanic carries a panic out of an entity with the stack it was
// raised on, which re-raising on another goroutine would otherwise lose.
type entityPanic struct {
	val   any
	stack []byte
}

func (e *entityPanic) Error() string {
	return fmt.Sprintf("%v\n\nentity goroutine stack:\n%s", e.val, e.stack)
}

// Unwrap exposes an error panic value to errors.Is and errors.As.
func (e *entityPanic) Unwrap() error {
	err, _ := e.val.(error)
	return err
}

// newProc wraps body as a coroutine that starts at its first dispatch.
func newProc(body func()) *Proc {
	p := &Proc{}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body()
	})
	return p
}

// alarm states (guarded by Clock.mu).
const (
	alarmPending = iota
	alarmFired
	alarmCanceled
)

// waiter is one pending wakeup on the heap: a sleeping entity, or an
// alarm whose waiter (if any) is bound at Alarm.Wait.
type waiter struct {
	at    Time
	seq   uint64 // tie-break so equal timestamps wake FIFO
	p     *Proc  // the sleeper; nil for an alarm
	alarm *Alarm
}

// waitHeap is a binary min-heap of waiters ordered by (at, seq). Entries
// are values, so pushing a sleeper allocates nothing once the slice has
// grown.
type waitHeap []waiter

func (h waitHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *waitHeap) push(w waiter) {
	*h = append(*h, w)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *waitHeap) pop() waiter {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = waiter{}
	s = s[:n]
	for i := 0; ; {
		min, l := i, 2*i+1
		if l < n && s.less(l, min) {
			min = l
		}
		if r := l + 1; r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

// Clock is the virtual clock and scheduler shared by all entities of one
// simulation.
type Clock struct {
	mu      sync.Mutex
	now     Time
	cur     *Proc   // entity the kernel is running
	ready   []*Proc // FIFO of runnable entities; ready[head:] are queued
	head    int
	seq     uint64
	heap    waitHeap
	blocked int            // entities blocked on non-clock sim primitives
	stalled map[string]int // where -> count, for deadlock diagnostics
	drivers []*runState    // drivers currently inside Env.Run
	kernel  bool           // a kernel goroutine is running
	dead    string         // deadlock report, once the kernel found one
}

// NewClock returns a fresh virtual clock at time zero.
func NewClock() *Clock {
	return &Clock{stalled: make(map[string]int)}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Current returns the handle of the calling entity. Only an entity may
// call it, typically just before it parks with Block.
func (c *Clock) Current() *Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// enqueueLocked makes p runnable and makes sure a kernel will dispatch it.
// Caller holds c.mu.
func (c *Clock) enqueueLocked(p *Proc) {
	c.ready = append(c.ready, p)
	if !c.kernel && c.dead == "" {
		c.kernel = true
		go c.loop()
	}
}

// spawn queues a new entity running body.
func (c *Clock) spawn(body func()) {
	p := newProc(body)
	c.mu.Lock()
	c.enqueueLocked(p)
	c.mu.Unlock()
}

// loop is the kernel: it resumes one entity at a time until nothing is
// runnable, then exits. A runtime.Goexit raised by an entity (t.FailNow in
// a driver) unwinds through p.next and ends this goroutine; a replacement
// kernel then takes over, so the simulation survives a failing driver.
func (c *Clock) loop() {
	clean := false
	defer func() {
		if !clean {
			go c.loop()
		}
	}()
	c.mu.Lock()
	for {
		p := c.pickLocked()
		c.cur = p
		if p == nil {
			c.kernel = false
			c.mu.Unlock()
			clean = true
			return
		}
		c.mu.Unlock()
		p.next()
		c.mu.Lock()
	}
}

// pickLocked returns the next entity to run: the longest-ready one, else
// the earliest heap waiter (advancing virtual time to its deadline), else
// nil. With nothing runnable or scheduled while a driver is inside Run
// and entities are parked on primitives, the simulation can never make
// progress: pickLocked records the deadlock and fails every driver.
// (With no active driver, parked service entities are just idle.)
// Caller holds c.mu.
func (c *Clock) pickLocked() *Proc {
	if c.dead != "" {
		return nil
	}
	if c.head < len(c.ready) {
		p := c.ready[c.head]
		c.ready[c.head] = nil
		c.head++
		if c.head == len(c.ready) {
			c.ready, c.head = c.ready[:0], 0
		}
		return p
	}
	for len(c.heap) > 0 {
		w := c.heap.pop()
		if a := w.alarm; a != nil {
			if a.state == alarmCanceled {
				continue // heap garbage left by Cancel
			}
			a.state = alarmFired
			c.now = w.at
			if a.owner == nil {
				continue // fired before anyone waited; Wait returns at once
			}
			return a.owner
		}
		c.now = w.at
		return w.p
	}
	if c.blocked > 0 && len(c.drivers) > 0 {
		c.dead = "sim: deadlock — all entities blocked: " + c.stallReportLocked()
		for _, r := range c.drivers {
			r.failed = c.dead
			close(r.done)
		}
		c.drivers = nil
	}
	return nil
}

// Sleep blocks the calling entity for d of virtual time.
func (c *Clock) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.sleepUntilLocked(c.now + Time(d))
}

// WaitUntil blocks the calling entity until virtual time t.
func (c *Clock) WaitUntil(t Time) {
	c.mu.Lock()
	if t <= c.now {
		c.mu.Unlock()
		return
	}
	c.sleepUntilLocked(t)
}

// sleepUntilLocked puts the caller on the wait heap, releases the clock
// lock and parks. The caller must hold c.mu.
func (c *Clock) sleepUntilLocked(t Time) {
	p := c.cur
	c.heap.push(waiter{at: t, seq: c.seq, p: p})
	c.seq++
	c.mu.Unlock()
	p.park()
}

// Block parks the calling entity on an external primitive (mutex queue,
// channel, ...) and returns once the primitive hands it back with Ready.
// The caller must have recorded its Current handle where the waker will
// find it. where describes the wait site for deadlock reports.
func (c *Clock) Block(where string) {
	c.mu.Lock()
	c.blocked++
	c.stalled[where]++
	p := c.cur
	c.mu.Unlock()
	p.park()
}

// Ready marks an entity previously parked with Block as runnable: it joins
// the dispatch queue and its Block returns when it is dispatched. The
// waker keeps the run slot and continues; this is what keeps wake order a
// function of program order rather than of host scheduling. Host code may
// call Ready too, including while the simulation is idle.
func (c *Clock) Ready(where string, p *Proc) {
	c.mu.Lock()
	c.blocked--
	c.stalled[where]--
	if c.stalled[where] == 0 {
		delete(c.stalled, where)
	}
	c.enqueueLocked(p)
	c.mu.Unlock()
}

// startRun registers driver p (reporting to r) as active and queues it in
// one critical section, so an idle kernel can never observe the driver
// half-registered and report a false deadlock. It returns the deadlock
// report instead if the simulation is already dead.
func (c *Clock) startRun(p *Proc, r *runState) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != "" {
		return c.dead
	}
	c.drivers = append(c.drivers, r)
	c.enqueueLocked(p)
	return ""
}

// endRun deregisters a driver and releases Run's caller, unless a
// deadlock already did. Called from the driver's coroutine as it finishes.
func (c *Clock) endRun(r *runState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, d := range c.drivers {
		if d == r {
			c.drivers = append(c.drivers[:i], c.drivers[i+1:]...)
			close(r.done)
			return
		}
	}
}

// Alarm is a cancellable virtual-time wakeup. NewAlarm schedules it; any
// one entity may then park in Wait — not necessarily the one that created
// it — and any other entity may Cancel it early, waking the waiter before
// the deadline. Unlike spawning a timer entity, a canceled alarm leaves no
// pending wakeup behind, so it never drags the virtual clock out to its
// deadline.
type Alarm struct {
	c     *Clock
	state int   // pending / fired / canceled, guarded by c.mu
	owner *Proc // entity parked in Wait; bound there, not at NewAlarm
}

// NewAlarm schedules a wakeup at virtual time t (clamped to now). where
// names the wait site.
func (c *Clock) NewAlarm(t Time, where string) *Alarm {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.now {
		t = c.now
	}
	a := &Alarm{c: c}
	c.heap.push(waiter{at: t, seq: c.seq, alarm: a})
	c.seq++
	return a
}

// Wait parks the calling entity until the alarm fires or is canceled. It
// returns true if the deadline fired, false if Cancel woke it early.
func (a *Alarm) Wait() bool {
	c := a.c
	c.mu.Lock()
	if a.state != alarmPending {
		// Settled before anyone parked: return without leaving the run
		// slot; a canceled heap entry is dropped as garbage.
		fired := a.state == alarmFired
		c.mu.Unlock()
		return fired
	}
	a.owner = c.cur
	c.mu.Unlock()
	a.owner.park()
	c.mu.Lock()
	defer c.mu.Unlock()
	return a.state == alarmFired
}

// Cancel wakes the alarm's waiter before the deadline. Calling it after
// the alarm fired (or cancelling twice) is a no-op. Cancel may be called
// before anyone reaches Wait; Wait then returns false at once.
func (a *Alarm) Cancel() {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if a.state != alarmPending {
		return
	}
	a.state = alarmCanceled
	if a.owner != nil {
		c.enqueueLocked(a.owner)
	}
}

func (c *Clock) stallReportLocked() string {
	keys := make([]string, 0, len(c.stalled))
	for k := range c.stalled {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s×%d ", k, c.stalled[k])
	}
	return b.String()
}

// recoverEntity turns a panic in an entity into an entityPanic carrying
// the entity's stack; call it deferred, directly.
func recoverEntity() {
	if r := recover(); r != nil {
		panic(&entityPanic{val: r, stack: debug.Stack()})
	}
}
