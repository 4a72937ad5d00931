package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"

	"github.com/fedauction/afl"
)

// smallPool is a set of small feasible auctions with their reference
// outcomes, the inputs of market-http and restart.
type smallPool struct {
	bids   [][]afl.Bid
	cfg    afl.Config
	refs   []afl.Result
	bodies [][]byte // pre-encoded POST /v1/auctions bodies, one rate-limit key each
}

// small auction shape: 50 clients x 2 bids, T=10, K=3, RuleCritical.
const (
	smallClients = 50
	smallBidsPer = 2
	smallT       = 10
	smallK       = 3
)

type wireCfg struct {
	T    int     `json:"t"`
	K    int     `json:"k"`
	TMax float64 `json:"t_max,omitempty"`
}

type submitBody struct {
	Client string    `json:"client"`
	Bids   []afl.Bid `json:"bids"`
	Cfg    wireCfg   `json:"cfg"`
}

// newSmallPool draws n feasible small auctions from seed and solves each
// once with afl.Run for its reference outcome. Draws the solver reports
// infeasible are skipped, so every pooled instance commits a real
// outcome.
func newSmallPool(ctx context.Context, seed int64, n int) (*smallPool, error) {
	p := &smallPool{}
	for draw := int64(0); len(p.bids) < n; draw++ {
		if draw > int64(4*n) {
			return nil, fmt.Errorf("small pool: only %d of %d draws feasible", len(p.bids), n)
		}
		wp := afl.DefaultWorkloadParams()
		wp.Clients, wp.BidsPerUser, wp.T, wp.K = smallClients, smallBidsPer, smallT, smallK
		wp.Seed = seed*1_000_003 + draw
		bids, err := afl.GenerateWorkload(wp)
		if err != nil {
			return nil, err
		}
		cfg := wp.Config()
		ref, err := afl.Run(ctx, bids, cfg)
		if errors.Is(err, afl.ErrInfeasible) {
			continue
		}
		if err != nil {
			return nil, err
		}
		client := fmt.Sprintf("tenant-%04d", len(p.bids))
		body, err := json.Marshal(submitBody{Client: client, Bids: bids, Cfg: wireCfg{cfg.T, cfg.K, cfg.TMax}})
		if err != nil {
			return nil, err
		}
		p.cfg = cfg
		p.bids = append(p.bids, bids)
		p.refs = append(p.refs, ref)
		p.bodies = append(p.bodies, body)
	}
	return p, nil
}

func (p *smallPool) instance(i int) afl.Instance {
	return afl.Instance{Bids: p.bids[i%len(p.bids)], Cfg: p.cfg}
}

// corruptRef perturbs one reference payment by one ulp: the self-test's
// proof that the output checks compare bit for bit.
func corruptRef(ref *afl.Result) {
	w := ref.Winners
	if len(w) == 0 {
		ref.Cost = math.Nextafter(ref.Cost, math.Inf(1))
		return
	}
	w[0].Payment = math.Nextafter(w[0].Payment, math.Inf(1))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkOutcome compares a committed market outcome with the reference
// afl.Run result of the same instance: feasibility, T_g, cost, every
// winner (identity, schedule, payment) and the total, floats bit for bit.
func checkOutcome(rec afl.MarketOutcome, ref afl.Result) error {
	if rec.Err != "" {
		return fmt.Errorf("seq %d: outcome carries error %q", rec.Seq, rec.Err)
	}
	if rec.Feasible != ref.Feasible || rec.Tg != ref.Tg || !sameBits(rec.Cost, ref.Cost) {
		return fmt.Errorf("seq %d: (feasible %v, tg %d, cost %v), want (%v, %d, %v)",
			rec.Seq, rec.Feasible, rec.Tg, rec.Cost, ref.Feasible, ref.Tg, ref.Cost)
	}
	if len(rec.Winners) != len(ref.Winners) {
		return fmt.Errorf("seq %d: %d winners, want %d", rec.Seq, len(rec.Winners), len(ref.Winners))
	}
	var total float64
	for i, w := range ref.Winners {
		got := rec.Winners[i]
		if got.BidIndex != w.BidIndex || got.Client != w.Bid.Client || got.Index != w.Bid.Index ||
			!sameBits(got.Price, w.Bid.Price) || !sameBits(got.Theta, w.Bid.Theta) ||
			!reflect.DeepEqual(got.Slots, w.Slots) || !sameBits(got.Payment, w.Payment) {
			return fmt.Errorf("seq %d: winner %d is %+v, want bid %d of client %d paid %v",
				rec.Seq, i, got, w.BidIndex, w.Bid.Client, w.Payment)
		}
		total += w.Payment
	}
	if !sameBits(rec.Total, total) {
		return fmt.Errorf("seq %d: total payment %v, want %v", rec.Seq, rec.Total, total)
	}
	return nil
}
