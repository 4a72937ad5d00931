package platform

import (
	"sync"
	"time"
)

// VirtualClock is a deterministic simulated clock: no test driven by it
// depends on wall time, scheduler latency or CI machine speed.
//
// Goroutines that participate in the simulation register through Go.
// Virtual time never passes while any registered party is runnable; it
// advances only at quiescence — every party blocked in a virtual wait
// (Sleep, or Recv on a VirtualPipe connection) with nothing deliverable —
// and then jumps straight to the earliest pending waiter deadline or
// scheduled message delivery. At equal times delivery beats deadline: a
// waiter whose message materializes exactly at its deadline receives the
// message, which keeps timeout races deterministic.
//
// Both decisions are taken only at quiescence, so neither depends on how
// many CPUs run the parties or in which order the scheduler wakes them:
//
//   - Virtual time stays frozen until the driver calls Wait. Parties
//     started one by one with Go may run (and block) before the rest are
//     registered; none of them can make time pass until all have joined.
//   - A deadline fires only when nothing else can happen at the current
//     instant: every party is blocked and no delivery is consumable. All
//     waiters whose deadlines have been reached then time out together,
//     and the verdict is final. A message sent at that instant before
//     quiescence is therefore always delivered in time, and one sent
//     afterwards by a party that has just timed out is left for the
//     receiver's next Recv.
//
// Only registered parties may block on the clock; the driving test
// goroutine observes the simulation through Wait.
//
// The zero value is unusable; call NewVirtualClock.
type VirtualClock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	parties int
	blocked int
	// driving is true while the driver is inside Wait; time is frozen
	// otherwise.
	driving bool
	waiters map[*vWaiter]struct{}
	// alarms holds future event times the clock may advance to (delayed
	// message deliveries); stale entries are dropped lazily.
	alarms []time.Time
}

// vWaiter is one party blocked in a virtual wait. ready must be a pure
// predicate over clock-lock-protected state: it is evaluated under the
// lock by arbitrary goroutines deciding whether time may advance, so it
// must not consume anything.
type vWaiter struct {
	deadline    time.Time
	hasDeadline bool
	ready       func() bool
	// expired is the clock's final timeout verdict, set at quiescence.
	expired bool
}

// NewVirtualClock returns a virtual clock starting at the Unix epoch.
// The absolute origin is immaterial; only durations matter.
func NewVirtualClock() *VirtualClock {
	c := &VirtualClock{
		now:     time.Unix(0, 0).UTC(),
		waiters: make(map[*vWaiter]struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock: it blocks the calling party for d of virtual
// time. The caller must be a registered party.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.wait(d, nil)
}

// Go registers fn as a simulation party and runs it on its own
// goroutine. The party stays registered until fn returns. Parties may
// start further parties; the driver starts the first ones and then calls
// Wait, before which virtual time does not pass.
func (c *VirtualClock) Go(fn func()) {
	c.mu.Lock()
	c.parties++
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			c.parties--
			c.cond.Broadcast()
			c.mu.Unlock()
		}()
		fn()
	}()
}

// Wait releases virtual time and blocks the caller — which must NOT be a
// registered party — until every party started with Go has returned.
// Time freezes again when Wait returns, so the clock can drive several
// simulations one after another.
func (c *VirtualClock) Wait() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.driving = true
	c.cond.Broadcast() // parties already blocked re-check for quiescence
	for c.parties > 0 {
		c.cond.Wait()
	}
	c.driving = false
}

// wait blocks the calling party until ready reports true or timeout of
// virtual time elapses (timeout < 0 waits without deadline). It returns
// whether ready fired before the deadline; false is the clock's final
// verdict even if ready has turned true since. ready is evaluated under
// the clock lock and must be pure; the caller consumes whatever made it
// true after wait returns, which is race-free as long as each consumable
// resource has a single consumer (true for VirtualPipe endpoints).
func (c *VirtualClock) wait(timeout time.Duration, ready func() bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &vWaiter{ready: ready}
	if timeout >= 0 {
		w.deadline = c.now.Add(timeout)
		w.hasDeadline = true
	}
	c.waiters[w] = struct{}{}
	c.blocked++
	defer func() {
		delete(c.waiters, w)
		c.blocked--
	}()
	for {
		if w.expired {
			return false
		}
		if w.ready != nil && w.ready() {
			return true
		}
		if !c.advanceLocked() {
			c.cond.Wait()
		}
	}
}

// addAlarmLocked schedules a future instant the clock may advance to.
func (c *VirtualClock) addAlarmLocked(at time.Time) {
	c.alarms = append(c.alarms, at)
}

// advanceLocked moves the simulation on when it is quiescent: the driver
// is in Wait, every registered party is blocked, no waiter can consume a
// delivery and no timeout verdict is still waiting for its owner to
// return. If some deadlines have been reached, every such waiter is
// marked expired at once. Otherwise time jumps to the earliest pending
// alarm or waiter deadline. Every waiter is then woken to re-check.
// Reports whether anything changed.
func (c *VirtualClock) advanceLocked() bool {
	if !c.driving || c.parties == 0 || c.blocked < c.parties {
		return false
	}
	var next time.Time
	have, due := false, false
	for w := range c.waiters {
		if w.expired || (w.ready != nil && w.ready()) {
			return false // its owner runs first
		}
		if w.hasDeadline {
			if !c.now.Before(w.deadline) {
				due = true
				continue
			}
			if !have || w.deadline.Before(next) {
				next, have = w.deadline, true
			}
		}
	}
	if due {
		for w := range c.waiters {
			if w.hasDeadline && !c.now.Before(w.deadline) {
				w.expired = true
			}
		}
		c.cond.Broadcast()
		return true
	}
	keep := c.alarms[:0]
	for _, at := range c.alarms {
		if !c.now.Before(at) {
			continue // stale: already reachable, nothing left to trigger
		}
		keep = append(keep, at)
		if !have || at.Before(next) {
			next, have = at, true
		}
	}
	c.alarms = keep
	if !have {
		panic("platform: virtual clock deadlock — every party is blocked with no pending deadline or delivery")
	}
	c.now = next
	c.cond.Broadcast()
	return true
}
