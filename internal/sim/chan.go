package sim

import "sync"

// Chan is a bounded FIFO queue whose Send/Recv park simulated entities.
// A capacity of zero makes it a rendezvous channel. Chan[T] is the sim
// analog of a buffered Go channel and is safe for many senders/receivers.
type Chan[T any] struct {
	clock  *Clock
	mu     sync.Mutex
	buf    []T
	cap    int
	closed bool
	recvq  []*chanWaiter[T]
	sendq  []*chanSender[T]
}

type chanWaiter[T any] struct {
	p  *Proc
	v  T
	ok bool
}

type chanSender[T any] struct {
	p *Proc
	v T
}

// NewChan returns a channel with the given buffer capacity.
func NewChan[T any](e *Env, capacity int) *Chan[T] {
	return &Chan[T]{clock: e.clock, cap: capacity}
}

// Send enqueues v, parking the entity while the buffer is full.
// Send on a closed channel silently drops the value: channels here model
// hardware queues torn down during shutdown, where in-flight work is
// discarded rather than crashing the machine.
func (c *Chan[T]) Send(v T) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	// Direct handoff to a parked receiver if one exists.
	if len(c.recvq) > 0 {
		w := popFront(&c.recvq)
		w.v, w.ok = v, true
		c.mu.Unlock()
		c.clock.Ready("chan.recv", w.p)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		c.mu.Unlock()
		return
	}
	c.sendq = append(c.sendq, &chanSender[T]{p: c.clock.Current(), v: v})
	c.mu.Unlock()
	c.clock.Block("chan.send")
}

// TrySend enqueues v without blocking, reporting whether it was accepted.
func (c *Chan[T]) TrySend(v T) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return true // dropped, as in Send
	}
	if len(c.recvq) > 0 {
		w := popFront(&c.recvq)
		w.v, w.ok = v, true
		c.mu.Unlock()
		c.clock.Ready("chan.recv", w.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()
	return false
}

// Recv dequeues a value, parking the entity while the channel is empty.
// ok is false if the channel is closed and drained.
func (c *Chan[T]) Recv() (v T, ok bool) {
	c.mu.Lock()
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// A parked sender can now take the freed slot.
		if len(c.sendq) > 0 {
			s := popFront(&c.sendq)
			c.buf = append(c.buf, s.v)
			c.mu.Unlock()
			c.clock.Ready("chan.send", s.p)
			return v, true
		}
		c.mu.Unlock()
		return v, true
	}
	if len(c.sendq) > 0 { // zero-capacity rendezvous
		s := popFront(&c.sendq)
		c.mu.Unlock()
		c.clock.Ready("chan.send", s.p)
		return s.v, true
	}
	if c.closed {
		c.mu.Unlock()
		return v, false
	}
	w := &chanWaiter[T]{p: c.clock.Current()}
	c.recvq = append(c.recvq, w)
	c.mu.Unlock()
	c.clock.Block("chan.recv")
	return w.v, w.ok
}

// TryRecv dequeues a value without blocking. ok is false if nothing was
// available (empty, or closed and drained).
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		if len(c.sendq) > 0 {
			s := popFront(&c.sendq)
			c.buf = append(c.buf, s.v)
			c.clock.Ready("chan.send", s.p)
		}
		return v, true
	}
	return v, false
}

// Close closes the channel; parked receivers wake with ok=false.
func (c *Chan[T]) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	q := c.recvq
	c.recvq = nil
	sq := c.sendq
	c.sendq = nil
	c.mu.Unlock()
	for _, w := range q {
		c.clock.Ready("chan.recv", w.p)
	}
	// Parked senders wake with their values discarded.
	for _, s := range sq {
		c.clock.Ready("chan.send", s.p)
	}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}
