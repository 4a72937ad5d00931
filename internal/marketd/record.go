package marketd

import (
	"fmt"
	"math"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
)

// WAL record vocabulary. A submission's life in the log is
//
//	bid(seq) … outcome(seq)
//
// where the outcome record is the commit marker and carries every
// winner's payment: replay applies a submission's ledger effects only
// when its outcome record is present, so a crash anywhere between the
// solve and that one append re-solves the bid instead of half-paying
// it. Logs written before the outcome record was the whole commit also
// hold one pay(seq) record per winner between the two; replay
// recognises and skips them.
const (
	recBid     = "bid"
	recPay     = "pay"
	recOutcome = "outcome"
)

// ConfigWire is the JSON form of a core.Config shared by the HTTP API
// and the WAL. It covers every serializable auction parameter;
// LocalIters (a function) has no wire form — durable markets run the
// paper's default T_l(θ), which is what a nil func selects.
type ConfigWire struct {
	T              int     `json:"t"`
	K              int     `json:"k"`
	TMax           float64 `json:"t_max,omitempty"`
	PaymentRule    int     `json:"payment_rule,omitempty"`
	ReservePrice   float64 `json:"reserve_price,omitempty"`
	ScheduleRule   int     `json:"schedule_rule,omitempty"`
	ExcludeOwnBids bool    `json:"exclude_own_bids,omitempty"`
}

// FromConfig converts a core.Config to its wire form. The error names
// the one field that cannot travel: a non-nil LocalIters.
func FromConfig(cfg core.Config) (ConfigWire, error) {
	if cfg.LocalIters != nil {
		return ConfigWire{}, fmt.Errorf("marketd: Config.LocalIters is a function and has no wire form; use the default (nil)")
	}
	return ConfigWire{
		T:              cfg.T,
		K:              cfg.K,
		TMax:           cfg.TMax,
		PaymentRule:    int(cfg.PaymentRule),
		ReservePrice:   cfg.ReservePrice,
		ScheduleRule:   int(cfg.ScheduleRule),
		ExcludeOwnBids: cfg.ExcludeOwnBids,
	}, nil
}

// ToConfig converts the wire form back to a core.Config.
func (c ConfigWire) ToConfig() core.Config {
	return core.Config{
		T:              c.T,
		K:              c.K,
		TMax:           c.TMax,
		PaymentRule:    core.PaymentRule(c.PaymentRule),
		ReservePrice:   c.ReservePrice,
		ScheduleRule:   core.ScheduleRule(c.ScheduleRule),
		ExcludeOwnBids: c.ExcludeOwnBids,
	}
}

// WinnerRecord is the committed view of one accepted bid: identity,
// schedule, and remuneration. It is embedded in OutcomeRecord, so the
// commit marker is self-contained — replay rebuilds the ledger from it
// alone.
type WinnerRecord struct {
	BidIndex int     `json:"bid_index"`
	Client   int     `json:"client"`
	Index    int     `json:"index"`
	Price    float64 `json:"price"`
	Theta    float64 `json:"theta"`
	Slots    []int   `json:"slots"`
	Payment  float64 `json:"payment"`
}

// OutcomeRecord is the durable, servable form of one solved submission.
// It is what the WAL stores, what recovery replays, and what the HTTP
// API returns — one representation, so an outcome read before a crash
// and the same outcome read after recovery are byte-identical.
type OutcomeRecord struct {
	Seq      int            `json:"seq"`
	Err      string         `json:"err,omitempty"`
	Feasible bool           `json:"feasible"`
	Tg       int            `json:"tg,omitempty"`
	Cost     float64        `json:"cost,omitempty"`
	Winners  []WinnerRecord `json:"winners,omitempty"`
	Total    float64        `json:"total_payment,omitempty"`
	// Approximate-solver provenance: the tier that produced the outcome
	// and its certified bound and ratio. All three are omitted for exact
	// solves (Result.Cert nil), so historical records and exact markets
	// keep their byte-identical wire form.
	Solver         string  `json:"solver,omitempty"`
	CertLowerBound float64 `json:"cert_lower_bound,omitempty"`
	CertRatio      float64 `json:"cert_ratio,omitempty"`
}

// recordFromOutcome flattens a batch outcome into its durable form.
func recordFromOutcome(oc batch.Outcome) OutcomeRecord {
	rec := OutcomeRecord{Seq: oc.Index}
	if oc.Err != nil {
		rec.Err = oc.Err.Error()
	}
	res := oc.Result
	rec.Feasible = res.Feasible
	if !res.Feasible {
		return rec
	}
	rec.Tg = res.Tg
	rec.Cost = res.Cost
	if c := res.Cert; c != nil {
		rec.Solver = c.Solver.String()
		rec.CertLowerBound = c.LowerBound
		if !math.IsInf(c.Ratio, 1) {
			rec.CertRatio = c.Ratio
		}
	}
	rec.Winners = make([]WinnerRecord, len(res.Winners))
	for i, w := range res.Winners {
		rec.Winners[i] = WinnerRecord{
			BidIndex: w.BidIndex,
			Client:   w.Bid.Client,
			Index:    w.Bid.Index,
			Price:    w.Bid.Price,
			Theta:    w.Bid.Theta,
			Slots:    w.Slots,
			Payment:  w.Payment,
		}
		rec.Total += w.Payment
	}
	return rec
}

// walRecord is the envelope every WAL payload decodes into; Type
// selects which of the optional bodies is populated.
type walRecord struct {
	Type string `json:"type"`
	Seq  int    `json:"seq"`

	// recBid fields. Solver is the submission's solver tier wire name;
	// empty (omitted) means exact, so records written before solver
	// tiers existed replay unchanged. Persisting it in the bid record —
	// not just the outcome — is what makes recovery bit-identical: a
	// pending bid re-solved after a crash runs under the tier the
	// original solve would have used, whatever the reopened market's
	// own configuration says.
	Client string      `json:"client,omitempty"`
	Bids   []core.Bid  `json:"bids,omitempty"`
	Cfg    *ConfigWire `json:"cfg,omitempty"`
	Solver string      `json:"solver,omitempty"`

	// recOutcome field.
	Outcome *OutcomeRecord `json:"outcome,omitempty"`
}
