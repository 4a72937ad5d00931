package platform

import (
	"fmt"
	"time"

	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/fl"
)

// AgentBehavior injects client-side faults and strategies for experiments.
type AgentBehavior struct {
	// Silent clients never answer the announcement (connection loss
	// before bidding).
	Silent bool
	// DropAfterRounds, when positive, makes the agent stop answering
	// round requests after completing that many rounds — the unreliable
	// client of the paper's future-work discussion.
	DropAfterRounds int
	// UnavailableAfter, when positive, makes the agent ignore round
	// requests for global iterations beyond it — a client whose *claimed*
	// availability window overstated its true one. The server's
	// settlement rule (no payment for broken schedules) is what makes
	// window misreports unprofitable in the paper's Theorem 1 argument.
	UnavailableAfter int
}

// AgentReport captures what the agent observed during a session.
type AgentReport struct {
	Won        bool
	Award      Award
	RoundsRun  int
	LocalIters int
	Paid       float64
	PayReason  string
}

// Agent is a mobile client: it bids in the auction and, when it wins,
// trains its local model on the rounds it was scheduled for.
type Agent struct {
	// ID must match the server's connection map key.
	ID int
	// Bids are submitted verbatim (the server overrides Client/Index).
	Bids []core.Bid
	// Learner holds the local dataset, θ and learning rate.
	Learner *fl.Client
	// L2 must match the server's objective.
	L2 float64
	// Behavior injects faults.
	Behavior AgentBehavior
	// RecvTimeout bounds each blocking receive. Zero means 10s.
	RecvTimeout time.Duration
}

func (a *Agent) recvTimeout() time.Duration {
	if a.RecvTimeout <= 0 {
		return 10 * time.Second
	}
	return a.RecvTimeout
}

// Run participates in one session over the connection and returns the
// agent's view of it. It returns when the server says goodbye, the
// connection closes, or a receive times out. A reply that finds the
// connection already closed is not an error: the server has ended the
// session, and the agent drains what was delivered before the close.
func (a *Agent) Run(conn Conn) (AgentReport, error) {
	report := AgentReport{}
	send := func(m Message) error {
		if err := conn.Send(m); err != nil && err != ErrClosed {
			return err
		}
		return nil
	}
	// sent caches the update produced for each iteration so duplicated or
	// retried round requests (the server re-sends after a timeout, and a
	// faulty network may duplicate messages outright) are answered
	// idempotently: the cached update is re-sent without retraining, so
	// retries can neither double-count local work nor skew RoundsRun.
	sent := make(map[int]*Update)
	for {
		msg, err := conn.Recv(a.recvTimeout())
		if err != nil {
			if err == ErrClosed || err == ErrTimeout {
				return report, nil
			}
			return report, err
		}
		switch msg.Type {
		case MsgAnnounce:
			if a.Behavior.Silent {
				continue
			}
			if err := send(Message{Type: MsgBids, ClientID: a.ID, Bids: a.Bids}); err != nil {
				return report, fmt.Errorf("agent %d: submit bids: %w", a.ID, err)
			}
		case MsgAward:
			report.Won = msg.Award.Won
			report.Award = *msg.Award
		case MsgRound:
			if a.Behavior.DropAfterRounds > 0 && report.RoundsRun >= a.Behavior.DropAfterRounds {
				continue // gone dark: never answer again
			}
			if a.Behavior.UnavailableAfter > 0 && msg.Round.Iteration > a.Behavior.UnavailableAfter {
				continue // truly unavailable despite the claimed window
			}
			if a.Learner == nil {
				continue
			}
			if u, ok := sent[msg.Round.Iteration]; ok {
				if err := send(Message{Type: MsgUpdate, ClientID: a.ID, Update: u}); err != nil {
					return report, fmt.Errorf("agent %d: resend update: %w", a.ID, err)
				}
				continue
			}
			w, iters, achieved := a.Learner.LocalUpdateAchieved(msg.Round.Weights, a.L2)
			report.RoundsRun++
			report.LocalIters += iters
			update := &Update{
				Iteration:     msg.Round.Iteration,
				Weights:       w,
				Samples:       a.Learner.Data.Len(),
				LocalIters:    iters,
				AchievedTheta: achieved,
			}
			sent[msg.Round.Iteration] = update
			if err := send(Message{Type: MsgUpdate, ClientID: a.ID, Update: update}); err != nil {
				return report, fmt.Errorf("agent %d: send update: %w", a.ID, err)
			}
		case MsgPayment:
			report.Paid = msg.Payment.Amount
			report.PayReason = msg.Payment.Reason
		case MsgBye:
			return report, nil
		}
	}
}
