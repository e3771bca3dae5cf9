package sim

import "sync"

// popFront removes and returns the head of a wait queue. A queue that
// drains keeps its backing array, so a steady one-waiter handoff appends
// without allocating.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	var zero T
	s[0] = zero
	if len(s) == 1 {
		*q = s[:0]
	} else {
		*q = s[1:]
	}
	return v
}

// Mutex is a mutual-exclusion lock for simulated entities. Waiting on a
// contended Mutex parks the entity in virtual time (FIFO handoff), so lock
// waits are invisible to the virtual clock until the holder releases.
type Mutex struct {
	clock *Clock
	mu    sync.Mutex
	held  bool
	queue []*Proc
}

// NewMutex returns a Mutex bound to the environment's clock.
func NewMutex(e *Env) *Mutex { return &Mutex{clock: e.clock} }

// Lock acquires m, blocking the calling entity until it is available.
func (m *Mutex) Lock() {
	m.mu.Lock()
	if !m.held {
		m.held = true
		m.mu.Unlock()
		return
	}
	m.queue = append(m.queue, m.clock.Current())
	m.mu.Unlock()
	m.clock.Block("mutex")
}

// TryLock acquires m if it is free, reporting whether it did.
func (m *Mutex) TryLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Unlock releases m, handing it directly to the longest waiter if any.
func (m *Mutex) Unlock() {
	m.mu.Lock()
	if !m.held {
		m.mu.Unlock()
		panic("sim: unlock of unlocked Mutex")
	}
	if len(m.queue) == 0 {
		m.held = false
		m.mu.Unlock()
		return
	}
	p := popFront(&m.queue)
	m.mu.Unlock()
	m.clock.Ready("mutex", p) // ownership hands off; held stays true
}

// Cond is a condition variable whose waiters are simulated entities.
// L must be a *Mutex from the same environment.
type Cond struct {
	L     *Mutex
	clock *Clock
	name  string
	mu    sync.Mutex
	queue []*Proc
}

// NewCond returns a condition variable using l as its lock.
func NewCond(e *Env, l *Mutex) *Cond { return &Cond{L: l, clock: e.clock, name: "cond"} }

// NewNamedCond returns a condition variable whose waiters show up under
// name in deadlock reports.
func NewNamedCond(e *Env, l *Mutex, name string) *Cond {
	return &Cond{L: l, clock: e.clock, name: name}
}

// Wait atomically releases c.L, parks the entity until Signal/Broadcast,
// then reacquires c.L before returning.
func (c *Cond) Wait() {
	c.mu.Lock()
	c.queue = append(c.queue, c.clock.Current())
	c.mu.Unlock()
	c.L.Unlock()
	c.clock.Block(c.name)
	c.L.Lock()
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal() {
	c.mu.Lock()
	if len(c.queue) == 0 {
		c.mu.Unlock()
		return
	}
	p := popFront(&c.queue)
	c.mu.Unlock()
	c.clock.Ready(c.name, p)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	q := c.queue
	c.queue = nil
	c.mu.Unlock()
	for _, p := range q {
		c.clock.Ready(c.name, p)
	}
}

// WaitGroup mirrors sync.WaitGroup for simulated entities.
type WaitGroup struct {
	clock *Clock
	mu    sync.Mutex
	n     int
	queue []*Proc
}

// NewWaitGroup returns a WaitGroup bound to the environment's clock.
func NewWaitGroup(e *Env) *WaitGroup { return &WaitGroup{clock: e.clock} }

// Add adds delta to the counter, waking waiters if it reaches zero.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.mu.Unlock()
		panic("sim: negative WaitGroup counter")
	}
	var q []*Proc
	if w.n == 0 {
		q = w.queue
		w.queue = nil
	}
	w.mu.Unlock()
	for _, p := range q {
		w.clock.Ready("waitgroup", p)
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the entity until the counter is zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return
	}
	w.queue = append(w.queue, w.clock.Current())
	w.mu.Unlock()
	w.clock.Block("waitgroup")
}
