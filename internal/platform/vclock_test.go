package platform

import (
	"errors"
	"testing"
	"time"
)

func TestVirtualClockSleepAdvancesDeterministically(t *testing.T) {
	clk := NewVirtualClock()
	start := clk.Now()
	var wake3, wake5 time.Time
	clk.Go(func() {
		clk.Sleep(5 * time.Second)
		wake5 = clk.Now()
	})
	clk.Go(func() {
		clk.Sleep(3 * time.Second)
		wake3 = clk.Now()
		clk.Sleep(10 * time.Second)
	})
	clk.Wait()
	if got := wake3.Sub(start); got != 3*time.Second {
		t.Fatalf("3s sleeper woke after %v", got)
	}
	if got := wake5.Sub(start); got != 5*time.Second {
		t.Fatalf("5s sleeper woke after %v", got)
	}
	if got := clk.Now().Sub(start); got != 13*time.Second {
		t.Fatalf("clock ended at +%v, want +13s", got)
	}
}

func TestVirtualPipeDeliversInOrder(t *testing.T) {
	clk := NewVirtualClock()
	a, b := VirtualPipe(clk)
	var got []int
	clk.Go(func() {
		for i := 1; i <= 3; i++ {
			_ = a.Send(Message{Type: MsgRound, Round: &Round{Iteration: i}})
		}
	})
	clk.Go(func() {
		for range 3 {
			m, err := b.Recv(time.Second)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = append(got, m.Round.Iteration)
		}
	})
	clk.Wait()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("messages out of order: %v", got)
	}
}

func TestVirtualPipeDelayReorders(t *testing.T) {
	clk := NewVirtualClock()
	a, b := VirtualPipe(clk)
	ds := a.(DelayedSender)
	var got []int
	clk.Go(func() {
		_ = ds.SendDelayed(Message{Type: MsgRound, Round: &Round{Iteration: 1}}, 10*time.Millisecond)
		_ = a.Send(Message{Type: MsgRound, Round: &Round{Iteration: 2}})
	})
	clk.Go(func() {
		for range 2 {
			m, err := b.Recv(time.Second)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = append(got, m.Round.Iteration)
		}
	})
	clk.Wait()
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("delayed message should arrive second: %v", got)
	}
}

func TestVirtualPipeTimeoutAndTieBreak(t *testing.T) {
	clk := NewVirtualClock()
	a, b := VirtualPipe(clk)
	ds := a.(DelayedSender)

	// A message landing exactly at the receive deadline is delivered:
	// delivery beats deadline at ties.
	_ = ds.SendDelayed(Message{Type: MsgBye}, 5*time.Second)
	var tieMsg Message
	var tieErr error
	clk.Go(func() {
		tieMsg, tieErr = b.Recv(5 * time.Second)
	})
	clk.Wait()
	if tieErr != nil || tieMsg.Type != MsgBye {
		t.Fatalf("tie should deliver the message, got (%v, %v)", tieMsg.Type, tieErr)
	}

	// With nothing in flight the receive times out at its virtual deadline.
	start := clk.Now()
	var toErr error
	clk.Go(func() {
		_, toErr = b.Recv(2 * time.Second)
	})
	clk.Wait()
	if !errors.Is(toErr, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", toErr)
	}
	if got := clk.Now().Sub(start); got != 2*time.Second {
		t.Fatalf("timeout consumed %v of virtual time, want 2s", got)
	}
}

func TestVirtualPipeCloseDrainsThenFails(t *testing.T) {
	clk := NewVirtualClock()
	a, b := VirtualPipe(clk)
	_ = a.Send(Message{Type: MsgBye})
	_ = a.Close()
	var first, second error
	clk.Go(func() {
		_, first = b.Recv(time.Second)
		_, second = b.Recv(time.Second)
	})
	clk.Wait()
	if first != nil {
		t.Fatalf("queued message should drain after close, got %v", first)
	}
	if !errors.Is(second, ErrClosed) {
		t.Fatalf("want ErrClosed after drain, got %v", second)
	}
	if err := a.Send(Message{Type: MsgBye}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed pipe: want ErrClosed, got %v", err)
	}
}

// TestVirtualClockFrozenUntilWait registers parties one at a time, as
// session drivers do, and lets the first block before the second joins.
// Time must not pass on the first party's deadline alone: the second
// party's message reaches it at the start instant.
func TestVirtualClockFrozenUntilWait(t *testing.T) {
	for range 20 {
		clk := NewVirtualClock()
		a, b := VirtualPipe(clk)
		var got Message
		var err error
		clk.Go(func() { got, err = b.Recv(time.Second) })
		for {
			clk.mu.Lock()
			settled := clk.blocked == 1 || clk.parties == 0
			clk.mu.Unlock()
			if settled {
				break
			}
			time.Sleep(time.Millisecond)
		}
		clk.Go(func() { _ = a.Send(Message{Type: MsgBye}) })
		clk.Wait()
		if err != nil || got.Type != MsgBye {
			t.Fatalf("early party timed out before the rest joined: (%v, %v)", got.Type, err)
		}
		if d := clk.Now().Sub(time.Unix(0, 0)); d != 0 {
			t.Fatalf("clock moved %v before the message was sent", d)
		}
	}
}

// TestVirtualClockSameInstantReplyBeatsDeadline wakes one party by a
// delivery at the very instant another party's receive deadline falls.
// The woken party's reply is sent at that instant, before quiescence, so
// it must be delivered rather than lose a race with the deadline.
func TestVirtualClockSameInstantReplyBeatsDeadline(t *testing.T) {
	for range 50 {
		clk := NewVirtualClock()
		in, relay := VirtualPipe(clk)
		out, sink := VirtualPipe(clk)
		_ = in.(DelayedSender).SendDelayed(Message{Type: MsgBye}, time.Second)
		var err error
		clk.Go(func() {
			if _, rerr := relay.Recv(time.Minute); rerr == nil {
				_ = out.Send(Message{Type: MsgBye})
			}
		})
		clk.Go(func() { _, err = sink.Recv(time.Second) })
		clk.Wait()
		if err != nil {
			t.Fatalf("reply sent at the deadline instant was not delivered: %v", err)
		}
	}
}

// TestVirtualClockSimultaneousTimeoutsAreFinal expires two waits at the
// same instant. Both time out together; a message one party sends right
// after its own timeout is left for the other's next receive instead of
// racing the other's verdict.
func TestVirtualClockSimultaneousTimeoutsAreFinal(t *testing.T) {
	for range 50 {
		clk := NewVirtualClock()
		a, b := VirtualPipe(clk)
		var first, second error
		clk.Go(func() {
			clk.Sleep(time.Second)
			_ = a.Send(Message{Type: MsgBye})
		})
		clk.Go(func() {
			_, first = b.Recv(time.Second)
			_, second = b.Recv(time.Second)
		})
		clk.Wait()
		if !errors.Is(first, ErrTimeout) || second != nil {
			t.Fatalf("want (timeout, delivery), got (%v, %v)", first, second)
		}
		if d := clk.Now().Sub(time.Unix(0, 0)); d != time.Second {
			t.Fatalf("clock ended at +%v, want +1s", d)
		}
	}
}
