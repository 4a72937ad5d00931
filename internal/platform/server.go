package platform

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/fedauction/afl/internal/colgen"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/fl"
	"github.com/fedauction/afl/internal/obs"
)

// ErrUnderCoverage and ErrInfeasible re-export the shared sentinels so
// platform callers can errors.Is against session degradation without
// importing core.
var (
	ErrUnderCoverage = core.ErrUnderCoverage
	ErrInfeasible    = core.ErrInfeasible
)

// ServerConfig configures an auctioneer session.
type ServerConfig struct {
	// Job is announced to every connected client.
	Job Job
	// Auction parameterizes A_FL. Job.T/K/TMax take precedence when set.
	Auction core.Config
	// Solver selects the winner-determination tier of the session's
	// auction sweep. The zero value (SolverExact) solves every candidate
	// T̂_g — the historical behaviour, bit-identical. Approximate tiers
	// attach a dual certificate to SessionReport.Auction.Cert bounding
	// the session's social cost against the full-enumeration optimum;
	// awards, payments and the training schedule then derive from the
	// approximately-selected T̂_g.
	Solver core.Solver
	// Stride is the base coarse stride of the approximate solver tiers
	// (zero selects the default; 1 is bit-identical to exact). It has no
	// effect under SolverExact.
	Stride int
	// L2 is the ridge penalty of the global objective.
	L2 float64
	// Eval is the server-side evaluation set for reporting loss/accuracy.
	Eval fl.Dataset
	// RecvTimeout bounds every per-client receive. Zero means 5s.
	RecvTimeout time.Duration
	// Retry bounds re-delivery of round requests to unresponsive winners.
	// The zero value grants a single attempt (no retry), the historical
	// behaviour.
	Retry RetryPolicy
	// Clock supplies time for receive deadlines and retry backoff. Nil
	// means the wall clock; sessions driven over VirtualPipe connections
	// must share the connections' VirtualClock.
	Clock Clock
	// DisableRepair switches off mid-session coverage repair: rounds a
	// dropped winner leaves short of K then simply run under-covered
	// (and are flagged in their RoundReport).
	DisableRepair bool
	// ThetaTolerance is the audit slack: a winner whose reported achieved
	// accuracy exceeds its promised θ by more than this (additively) in
	// any round forfeits payment. Zero means 0.05; negative disables the
	// audit.
	ThetaTolerance float64
	// Transcript, when non-nil, receives one JSON line per protocol
	// message the server sends or receives (payload bodies elided). Use
	// ReadTranscript to parse it back.
	Transcript io.Writer
	// Observer, when non-nil, receives structured phase events for the
	// session: the auction sweep (via the engine), retries fired,
	// stragglers and dropouts detected, coverage repairs, and per-round
	// completion. Phase latencies are timed on the session Clock, so
	// traces taken on a VirtualClock are deterministic. The observer
	// must be safe for concurrent use; nil costs nothing.
	Observer obs.Observer
}

// RetryPolicy governs per-message fault tolerance on the server side: an
// unresponsive winner gets Attempts deliveries of each round request,
// each with a full RecvTimeout to answer, separated by a backoff that
// doubles after every failure. A client that answers only after a retry
// is counted as a straggler; one that exhausts all attempts is declared
// dropped and triggers coverage repair.
type RetryPolicy struct {
	// Attempts is the total number of delivery attempts per round request
	// (1 = no retry). Zero means 1.
	Attempts int
	// Backoff is the pause before the second attempt, doubling on each
	// further one. Zero retries immediately.
	Backoff time.Duration
}

func (r RetryPolicy) attempts() int {
	if r.Attempts < 1 {
		return 1
	}
	return r.Attempts
}

func (c ServerConfig) thetaTolerance() float64 {
	if c.ThetaTolerance == 0 {
		return 0.05
	}
	return c.ThetaTolerance
}

func (c ServerConfig) recvTimeout() time.Duration {
	if c.RecvTimeout <= 0 {
		return 5 * time.Second
	}
	return c.RecvTimeout
}

func (c ServerConfig) clock() Clock {
	if c.Clock == nil {
		return WallClock{}
	}
	return c.Clock
}

// RoundReport summarizes one global iteration of a session.
type RoundReport struct {
	Iteration int
	Scheduled []int
	Responded []int
	Failed    []int
	// Violations lists clients whose reported achieved accuracy broke
	// their promised θ this round (their updates are still aggregated,
	// but they forfeit payment at settlement).
	Violations []int
	// Stragglers lists clients that answered only after at least one
	// retried round request.
	Stragglers []int
	// Promoted lists clients first scheduled into this round by a
	// coverage repair (replacements for dropped winners).
	Promoted []int
	// UnderCovered marks a round that closed with fewer than K
	// aggregated updates: a winner dropped and no repair existed.
	UnderCovered bool
	GradNorm     float64
	Loss         float64
	Accuracy     float64
}

// RepairRecord documents one mid-session coverage repair attempt.
type RepairRecord struct {
	// Round is the iteration in which the drop was detected.
	Round int
	// Dropped lists the clients newly declared dropped this round.
	Dropped []int
	// Promoted lists clients awarded replacement schedules.
	Promoted []int
	// Awards are the replacement awards: critical-value payments in the
	// residual market, slots within [CoveredFrom, Tg].
	Awards []core.Winner
	// Payments is the total replacement payment volume.
	Payments float64
	// Repaired reports whether a replacement set restored coverage.
	// False means the affected rounds run under-covered and flagged.
	Repaired bool
	// CoveredFrom is the first iteration from which coverage is restored:
	// Round itself when the current round could still be repaired,
	// Round+1 when only future rounds could, 0 when none.
	CoveredFrom int
}

// SessionReport is the outcome of Server.RunSession.
type SessionReport struct {
	// Auction is the A_FL result over the received bids.
	Auction core.Result
	// Rounds reports every executed global iteration.
	Rounds []RoundReport
	// FinalWeights is the aggregated model after the last round.
	FinalWeights []float64
	// Ledger records all settlements.
	Ledger *Ledger
	// ClientsBid counts clients that submitted bids in time.
	ClientsBid int
	// Repairs documents every mid-session coverage repair attempt, in
	// detection order.
	Repairs []RepairRecord
}

// Err summarizes session degradation on the shared sentinel surface: nil
// for a clean session, an ErrInfeasible-matching error when the auction
// selected no feasible T̂_g (so no training ran), and an
// ErrUnderCoverage-matching error naming the rounds that closed with
// fewer than K aggregated updates otherwise. Both match under errors.Is.
func (r SessionReport) Err() error {
	if !r.Auction.Feasible {
		return fmt.Errorf("session: %w: no T̂_g admits full coverage", ErrInfeasible)
	}
	var short []int
	for _, rr := range r.Rounds {
		if rr.UnderCovered {
			short = append(short, rr.Iteration)
		}
	}
	if len(short) > 0 {
		return fmt.Errorf("session: %w: rounds %v closed under-covered", ErrUnderCoverage, short)
	}
	return nil
}

// Server is the cloud auctioneer of Fig. 1.
type Server struct {
	cfg ServerConfig
}

// NewServer returns a server for one session configuration.
func NewServer(cfg ServerConfig) *Server {
	return &Server{cfg: cfg}
}

// RunSession drives a full auction + training session over the given
// client connections (client ID → connection). It always returns a report
// (possibly partial) alongside any fatal error.
func (s *Server) RunSession(conns map[int]Conn) (SessionReport, error) {
	report := SessionReport{Ledger: &Ledger{}}
	cfg := s.auctionConfig()
	timeout := s.cfg.recvTimeout()
	clk := s.cfg.clock()

	if tr := newTranscript(s.cfg.Transcript); tr != nil {
		wrapped := make(map[int]Conn, len(conns))
		for id, c := range conns {
			wrapped[id] = recordedConn{Conn: c, id: id, tr: tr}
		}
		conns = wrapped
	}

	ids := make([]int, 0, len(conns))
	for id := range conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Phase 1: announce.
	job := s.cfg.Job
	for _, id := range ids {
		if err := conns[id].Send(Message{Type: MsgAnnounce, Job: &job}); err != nil {
			return report, fmt.Errorf("announce to client %d: %w", id, err)
		}
	}

	// Phase 2: collect sealed bids. Silent or malformed clients are
	// excluded, not fatal.
	var bids []core.Bid
	for _, id := range ids {
		msg, err := recvType(conns[id], clk, MsgBids, timeout)
		if err != nil {
			continue
		}
		for j, b := range msg.Bids {
			b.Client = id // the transport endpoint is authoritative
			b.Index = j
			if err := b.Validate(cfg.T); err != nil {
				continue
			}
			bids = append(bids, b)
		}
		report.ClientsBid++
	}

	// Phase 3: run A_FL. The engine is retained for mid-session coverage
	// repair: re-awards reuse its precomputed qualification context, so
	// replacement payments stay critical values. The sweep and the
	// repairs time their phases on the session clock: deterministic under
	// a VirtualClock, wall time otherwise.
	ro := core.RunOptions{
		Observer: s.cfg.Observer, Now: clk.Now,
		Solver: s.cfg.Solver, Stride: s.cfg.Stride,
	}
	if s.cfg.Solver == core.SolverLPRound {
		ro.LP = colgen.Certifier{}
	}
	var eng *core.Engine
	if len(bids) > 0 {
		var err error
		eng, err = core.NewEngine(bids, cfg)
		if err != nil {
			return report, fmt.Errorf("auction: %w", err)
		}
		// Infeasibility is not fatal here: the report carries the full
		// sweep diagnostics and SessionReport.Err surfaces the sentinel.
		report.Auction, _ = eng.RunCtx(context.Background(), ro)
	}
	winners := make(map[int]core.Winner)
	for _, w := range report.Auction.Winners {
		winners[w.Bid.Client] = w
	}
	for _, id := range ids {
		award := &Award{Won: false, Tg: report.Auction.Tg}
		if w, ok := winners[id]; ok {
			award = &Award{Won: true, BidIndex: w.Bid.Index, Slots: w.Slots, Payment: w.Payment, Tg: report.Auction.Tg}
		}
		_ = conns[id].Send(Message{Type: MsgAward, Award: award})
	}
	if !report.Auction.Feasible {
		s.settle(conns, ids, winners, nil, &report)
		return report, nil
	}

	// Phase 4: training rounds.
	schedule := make([][]int, report.Auction.Tg)
	for id, w := range winners {
		for _, t := range w.Slots {
			schedule[t-1] = append(schedule[t-1], id)
		}
	}
	weights := make([]float64, s.cfg.Job.Dim)
	failed := make(map[int]string) // client → forfeiture reason
	tol := s.cfg.thetaTolerance()
	for t := 1; t <= report.Auction.Tg; t++ {
		var roundStart time.Time
		if s.cfg.Observer != nil {
			roundStart = clk.Now()
		}
		rr := RoundReport{Iteration: t}
		scheduled := schedule[t-1]
		sort.Ints(scheduled)
		rr.Scheduled = scheduled
		for _, id := range scheduled {
			if failed[id] == "dropped out" {
				rr.Failed = append(rr.Failed, id)
				continue
			}
			_ = conns[id].Send(Message{Type: MsgRound, Round: &Round{Iteration: t, Weights: weights}})
		}
		// Collect updates; when a winner exhausts its delivery attempts it
		// is declared dropped and the lost coverage is re-bought from the
		// losing bids (replacements scheduled for this very round are
		// asked immediately and collected on the next pass).
		updates := make(map[int]*Update, len(scheduled))
		pending := scheduled
		for len(pending) > 0 {
			var droppedNow []int
			for _, id := range pending {
				if failed[id] == "dropped out" {
					continue
				}
				msg, attempts, err := s.collectUpdate(conns[id], clk, id, t, weights, timeout)
				if err != nil {
					failed[id] = "dropped out"
					rr.Failed = append(rr.Failed, id)
					droppedNow = append(droppedNow, id)
					if s.cfg.Observer != nil {
						s.cfg.Observer.Observe(obs.Event{
							Kind: obs.EvDropDetected, Round: t, Client: id,
							Bid: -1, Value: float64(attempts),
						})
					}
					continue
				}
				if attempts > 1 {
					rr.Stragglers = append(rr.Stragglers, id)
					if s.cfg.Observer != nil {
						s.cfg.Observer.Observe(obs.Event{
							Kind: obs.EvStragglerDetected, Round: t, Client: id,
							Bid: -1, Value: float64(attempts), OK: true,
						})
					}
				}
				rr.Responded = append(rr.Responded, id)
				// Audit the achieved local accuracy against the promise.
				if tol >= 0 && msg.Update.AchievedTheta > winners[id].Bid.Theta+tol {
					if failed[id] == "" {
						failed[id] = "accuracy violated"
					}
					rr.Violations = append(rr.Violations, id)
				}
				updates[id] = msg.Update
			}
			if len(droppedNow) == 0 || eng == nil || s.cfg.DisableRepair {
				break
			}
			pending = s.repairCoverage(t, droppedNow, eng, ro, conns, winners, failed, schedule, weights, &report)
			rr.Promoted = append(rr.Promoted, pending...)
		}
		// Aggregate (FedAvg) in responder order: originally scheduled
		// clients first, then promoted replacements, both deterministic.
		sumW := make([]float64, len(weights))
		var total float64
		for _, id := range rr.Responded {
			upd := updates[id]
			n := float64(upd.Samples)
			if n <= 0 {
				n = 1
			}
			for j := range sumW {
				sumW[j] += n * upd.Weights[j]
			}
			total += n
		}
		if total > 0 {
			for j := range weights {
				weights[j] = sumW[j] / total
			}
		}
		rr.UnderCovered = len(rr.Responded) < cfg.K
		if s.cfg.Observer != nil {
			s.cfg.Observer.Observe(obs.Event{
				Kind: obs.EvRoundDone, Tg: report.Auction.Tg, Round: t,
				Client: -1, Bid: -1, Value: float64(len(rr.Responded)),
				OK: !rr.UnderCovered, Dur: clk.Now().Sub(roundStart),
			})
		}
		if s.cfg.Eval.Len() > 0 {
			rr.GradNorm = fl.Norm(fl.Grad(weights, s.cfg.Eval, s.cfg.L2))
			rr.Loss = fl.Loss(weights, s.cfg.Eval, s.cfg.L2)
			rr.Accuracy = fl.Accuracy(weights, s.cfg.Eval)
		}
		report.Rounds = append(report.Rounds, rr)
	}
	report.FinalWeights = weights

	// Phase 5: settlement.
	s.settle(conns, ids, winners, failed, &report)
	return report, nil
}

// settle pays reliable winners, refuses dropouts and accuracy violators,
// notifies losers, and says goodbye.
func (s *Server) settle(conns map[int]Conn, ids []int, winners map[int]core.Winner, failed map[int]string, report *SessionReport) {
	for _, id := range ids {
		var pay Payment
		switch {
		case !report.Auction.Feasible:
			pay = Payment{Amount: 0, Reason: "auction infeasible"}
		case failed[id] != "":
			pay = Payment{Amount: 0, Reason: failed[id]}
			report.Ledger.Record(id, 0, failed[id])
		default:
			if w, ok := winners[id]; ok {
				pay = Payment{Amount: w.Payment}
				report.Ledger.Record(id, w.Payment, "schedule honored")
			} else {
				pay = Payment{Amount: 0, Reason: "lost auction"}
			}
		}
		_ = conns[id].Send(Message{Type: MsgPayment, Payment: &pay})
		_ = conns[id].Send(Message{Type: MsgBye})
	}
}

func (s *Server) auctionConfig() core.Config {
	cfg := s.cfg.Auction
	if s.cfg.Job.T > 0 {
		cfg.T = s.cfg.Job.T
	}
	if s.cfg.Job.K > 0 {
		cfg.K = s.cfg.Job.K
	}
	if s.cfg.Job.TMax > 0 {
		cfg.TMax = s.cfg.Job.TMax
	}
	return cfg
}

// collectUpdate waits for client id's update for iteration t, re-sending
// the round request per the retry policy with doubling backoff. It
// returns the update alongside the number of delivery attempts consumed
// (> 1 marks the client a straggler).
func (s *Server) collectUpdate(c Conn, clk Clock, id, t int, weights []float64, timeout time.Duration) (Message, int, error) {
	attempts := s.cfg.Retry.attempts()
	backoff := s.cfg.Retry.Backoff
	for a := 1; ; a++ {
		msg, err := recvUpdate(c, clk, t, timeout)
		if err == nil {
			return msg, a, nil
		}
		if a >= attempts {
			return Message{}, a, err
		}
		if backoff > 0 {
			clk.Sleep(backoff)
			backoff *= 2
		}
		if s.cfg.Observer != nil {
			s.cfg.Observer.Observe(obs.Event{
				Kind: obs.EvRetryFired, Round: t, Client: id, Bid: -1,
				Value: float64(a + 1),
			})
		}
		_ = c.Send(Message{Type: MsgRound, Round: &Round{Iteration: t, Weights: weights}})
	}
}

// repairCoverage runs the graceful-degradation path after the clients in
// dropped exhausted their delivery attempts at round t: it asks the
// auction engine for a critical-value-consistent re-award on the residual
// market (losing bids clamped to the remaining horizon, surviving
// coverage pre-committed), notifies the promoted replacements, splices
// them into the schedule, and records the attempt in the session report.
// When no replacement set restores coverage — not even conceding the
// current round — nothing is promoted and the short rounds run flagged.
// It returns the promoted clients whose replacement schedule includes
// round t itself; the caller collects their updates next.
func (s *Server) repairCoverage(t int, dropped []int, eng *core.Engine, ro core.RunOptions, conns map[int]Conn, winners map[int]core.Winner, failed map[int]string, schedule [][]int, weights []float64, report *SessionReport) []int {
	tg := report.Auction.Tg
	k := s.auctionConfig().K
	rec := RepairRecord{Round: t, Dropped: append([]int(nil), dropped...)}
	sort.Ints(rec.Dropped)

	base := make([]int, tg)
	for i := 0; i < t-1; i++ {
		base[i] = k // history cannot be re-covered; treat it as satisfied
	}
	for id, w := range winners {
		if failed[id] == "dropped out" {
			continue
		}
		for _, slot := range w.Slots {
			if slot >= t {
				base[slot-1]++
			}
		}
	}
	exclude := make(map[int]bool, len(winners)+len(failed))
	for id := range winners {
		exclude[id] = true
	}
	for id := range failed {
		exclude[id] = true
	}

	req := core.RepairRequest{Tg: tg, From: t, Base: base, Exclude: exclude}
	res, err := eng.RepairCtx(context.Background(), req, ro)
	coveredFrom := t
	if err == nil && !res.Feasible && t < tg {
		// The current round may be unrepairable (its collection window is
		// nearly over) while the future is not: concede round t — it will
		// be flagged under-covered — and repair from t+1.
		next := append([]int(nil), base...)
		next[t-1] = k
		req.From, req.Base = t+1, next
		if res2, err2 := eng.RepairCtx(context.Background(), req, ro); err2 == nil && res2.Feasible {
			res, coveredFrom = res2, t+1
		}
	}
	if err != nil || !res.Feasible {
		report.Repairs = append(report.Repairs, rec)
		return nil
	}
	rec.Repaired = true
	rec.CoveredFrom = coveredFrom
	rec.Awards = res.Winners
	var now []int
	for _, w := range res.Winners {
		id := w.Bid.Client
		winners[id] = w
		rec.Promoted = append(rec.Promoted, id)
		rec.Payments += w.Payment
		_ = conns[id].Send(Message{Type: MsgAward, Award: &Award{
			Won: true, BidIndex: w.Bid.Index, Slots: w.Slots,
			Payment: w.Payment, Tg: tg, Repair: true,
		}})
		for _, slot := range w.Slots {
			switch {
			case slot == t:
				now = append(now, id)
			case slot > t:
				schedule[slot-1] = append(schedule[slot-1], id)
			}
		}
	}
	for _, id := range now {
		_ = conns[id].Send(Message{Type: MsgRound, Round: &Round{Iteration: t, Weights: weights}})
	}
	report.Repairs = append(report.Repairs, rec)
	return now
}

// recvType reads until a message of the wanted type arrives (discarding
// stale messages) or the timeout budget of clock time is spent.
func recvType(c Conn, clk Clock, want MsgType, timeout time.Duration) (Message, error) {
	deadline := clk.Now().Add(timeout)
	for {
		remain := deadline.Sub(clk.Now())
		if remain <= 0 {
			return Message{}, ErrTimeout
		}
		msg, err := c.Recv(remain)
		if err != nil {
			return Message{}, err
		}
		if msg.Type == want {
			return msg, nil
		}
	}
}

// recvUpdate reads until an update for the given iteration arrives,
// discarding stale traffic (duplicated or late updates of earlier
// iterations, re-sent bids) within the same deadline budget.
func recvUpdate(c Conn, clk Clock, iteration int, timeout time.Duration) (Message, error) {
	deadline := clk.Now().Add(timeout)
	for {
		remain := deadline.Sub(clk.Now())
		if remain <= 0 {
			return Message{}, ErrTimeout
		}
		msg, err := c.Recv(remain)
		if err != nil {
			return Message{}, err
		}
		if msg.Type == MsgUpdate && msg.Update.Iteration == iteration {
			return msg, nil
		}
	}
}
