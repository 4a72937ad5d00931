package platform

import "time"

// DelayedSender is the optional Conn extension implemented by VirtualPipe
// endpoints: it schedules a message for delivery in the virtual future.
// Fault injectors use it to model latency, duplication and reordering
// without touching the transport itself.
type DelayedSender interface {
	// SendDelayed enqueues m for delivery after delay of virtual time.
	SendDelayed(m Message, delay time.Duration) error
}

// VirtualPipe returns the two endpoints of an in-process connection pair
// driven by the given virtual clock: the Pipe equivalent for
// deterministic tests. Queues are unbounded, so sends never block (a
// blocking send at quiescence would deadlock the simulated time);
// receives block in virtual time. Messages become deliverable at their
// scheduled virtual instant — Send delivers "now", SendDelayed in the
// future — and are received in (delivery time, send order) order, which
// is what lets injected delays reorder traffic deterministically.
//
// Closing either endpoint closes the pair: deliverable messages drain
// first, afterwards Recv returns ErrClosed; messages still in flight
// (scheduled after the close) are lost. Each endpoint must have a single
// receiver, the same discipline Pipe's channel semantics imply.
func VirtualPipe(clk *VirtualClock) (Conn, Conn) {
	p := &vpipe{clk: clk}
	return &virtualConn{p: p, dir: 0}, &virtualConn{p: p, dir: 1}
}

// vmsg is one queued message with its virtual delivery time and a pipe-
// wide sequence number breaking delivery-time ties in send order.
type vmsg struct {
	at  time.Time
	seq int
	msg Message
}

// vpipe is the shared state of a virtual connection pair, guarded by the
// clock's lock so waiter readiness can inspect it consistently.
type vpipe struct {
	clk    *VirtualClock
	closed bool
	seq    int
	// q[d] holds the messages destined for endpoint d.
	q [2][]vmsg
}

// virtualConn is one endpoint: it reads q[dir] and writes q[1-dir].
type virtualConn struct {
	p   *vpipe
	dir int
}

// Send implements Conn.
func (c *virtualConn) Send(m Message) error { return c.SendDelayed(m, 0) }

// SendDelayed implements DelayedSender.
func (c *virtualConn) SendDelayed(m Message, delay time.Duration) error {
	if err := m.Validate(); err != nil {
		return err
	}
	clk := c.p.clk
	clk.mu.Lock()
	defer clk.mu.Unlock()
	if c.p.closed {
		return ErrClosed
	}
	if delay < 0 {
		delay = 0
	}
	at := clk.now.Add(delay)
	c.p.seq++
	c.p.q[1-c.dir] = append(c.p.q[1-c.dir], vmsg{at: at, seq: c.p.seq, msg: m})
	if delay > 0 {
		clk.addAlarmLocked(at)
	}
	clk.cond.Broadcast()
	return nil
}

// deliverableLocked returns the index of the next receivable message —
// earliest (delivery time, sequence) among those due — or -1.
func (c *virtualConn) deliverableLocked() int {
	best := -1
	q := c.p.q[c.dir]
	for i := range q {
		if q[i].at.After(c.p.clk.now) {
			continue
		}
		if best < 0 || q[i].at.Before(q[best].at) ||
			(q[i].at.Equal(q[best].at) && q[i].seq < q[best].seq) {
			best = i
		}
	}
	return best
}

// Recv implements Conn. The calling goroutine must be a party registered
// with the clock's Go.
func (c *virtualConn) Recv(timeout time.Duration) (Message, error) {
	clk := c.p.clk
	if !clk.wait(timeout, func() bool {
		return c.deliverableLocked() >= 0 || c.p.closed
	}) {
		// The clock's verdict is final: a message sent after the deadline
		// fired waits for the next Recv.
		return Message{}, ErrTimeout
	}
	// Consume under the lock. Single-receiver discipline makes this safe:
	// nothing else can have taken the message between wait and here.
	clk.mu.Lock()
	defer clk.mu.Unlock()
	if i := c.deliverableLocked(); i >= 0 {
		q := c.p.q[c.dir]
		m := q[i].msg
		c.p.q[c.dir] = append(q[:i], q[i+1:]...)
		return m, nil
	}
	return Message{}, ErrClosed
}

// Close implements Conn. Closing either endpoint closes the pair.
func (c *virtualConn) Close() error {
	clk := c.p.clk
	clk.mu.Lock()
	defer clk.mu.Unlock()
	c.p.closed = true
	clk.cond.Broadcast()
	return nil
}
