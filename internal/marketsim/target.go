package marketsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/marketd"
)

// Target is the market service a fleet hammers: one auction instance in,
// one committed outcome back. Implementations must be safe for
// concurrent use — the whole point of the fleet is thousands of sessions
// submitting at once.
type Target interface {
	// Solve submits one instance under the given client key and blocks
	// until its outcome commits.
	Solve(ctx context.Context, client string, inst batch.Instance) (marketd.OutcomeRecord, error)
	// Rejected reports the rate-limit and admission rejections the
	// target observed while serving the fleet.
	Rejected() (rateLimited, admission int64)
}

// MarketTarget drives an in-process marketd.Market — the real service
// stack (batch scheduler, pooled engines, commit protocol) minus the
// HTTP edge.
type MarketTarget struct {
	M *marketd.Market
}

// Solve implements Target.
func (t MarketTarget) Solve(ctx context.Context, client string, inst batch.Instance) (marketd.OutcomeRecord, error) {
	seq, err := t.M.Submit(ctx, client, inst)
	if err != nil {
		return marketd.OutcomeRecord{}, err
	}
	return t.M.Wait(ctx, seq)
}

// Rejected implements Target; an in-process market has no HTTP edge, so
// nothing is ever turned away.
func (MarketTarget) Rejected() (int64, int64) { return 0, 0 }

// HTTPTarget drives a marketd daemon over its real HTTP API: POST the
// submission (honoring Retry-After on 429/503 like a compliant client),
// then poll the outcome to commitment. Its counters record how often the
// edge pushed back.
type HTTPTarget struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client; nil selects http.DefaultClient.
	Client *http.Client
	// PollInterval is the outcome polling cadence (default 2ms — the
	// fleet's sessions are sub-millisecond solves).
	PollInterval time.Duration
	// RetryWait, when positive, overrides the server's Retry-After advice
	// on 429/503 — a test knob keeping deliberately saturated fleets
	// snappy. Zero (production) honors the header.
	RetryWait time.Duration

	rateLimited atomic.Int64
	admission   atomic.Int64
}

func (t *HTTPTarget) httpClient() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// Solve implements Target.
func (t *HTTPTarget) Solve(ctx context.Context, client string, inst batch.Instance) (marketd.OutcomeRecord, error) {
	seq, err := t.submit(ctx, client, inst)
	if err != nil {
		return marketd.OutcomeRecord{}, err
	}
	return t.poll(ctx, seq)
}

// submit POSTs until the edge admits the submission, sleeping out each
// Retry-After. The retry loop is bounded by ctx, not a count: a loaded
// market sheds by delaying, not by losing sessions.
func (t *HTTPTarget) submit(ctx context.Context, client string, inst batch.Instance) (int, error) {
	cw, err := marketd.FromConfig(inst.Cfg)
	if err != nil {
		return -1, err
	}
	body, err := json.Marshal(marketd.SubmitRequest{Client: client, Bids: inst.Bids, Cfg: cw})
	if err != nil {
		return -1, err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+"/v1/auctions", bytes.NewReader(body))
		if err != nil {
			return -1, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := t.httpClient().Do(req)
		if err != nil {
			return -1, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return -1, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var ack marketd.SubmitResponse
			if err := json.Unmarshal(data, &ack); err != nil {
				return -1, fmt.Errorf("marketsim: undecodable ack %q: %v", data, err)
			}
			return ack.Seq, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if resp.StatusCode == http.StatusTooManyRequests {
				t.rateLimited.Add(1)
			} else {
				t.admission.Add(1)
			}
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			if t.RetryWait > 0 {
				wait = t.RetryWait
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return -1, context.Cause(ctx)
			}
		default:
			return -1, fmt.Errorf("marketsim: submit rejected: %d %s", resp.StatusCode, data)
		}
	}
}

// poll GETs the outcome until it commits (200; 202 means still pending).
func (t *HTTPTarget) poll(ctx context.Context, seq int) (marketd.OutcomeRecord, error) {
	interval := t.PollInterval
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	url := fmt.Sprintf("%s/v1/auctions/%d", t.BaseURL, seq)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return marketd.OutcomeRecord{}, err
		}
		resp, err := t.httpClient().Do(req)
		if err != nil {
			return marketd.OutcomeRecord{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return marketd.OutcomeRecord{}, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var rec marketd.OutcomeRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				return rec, fmt.Errorf("marketsim: undecodable outcome %q: %v", data, err)
			}
			return rec, nil
		case http.StatusAccepted:
			select {
			case <-time.After(interval):
			case <-ctx.Done():
				return marketd.OutcomeRecord{}, context.Cause(ctx)
			}
		default:
			return marketd.OutcomeRecord{}, fmt.Errorf("marketsim: outcome %d: %d %s", seq, resp.StatusCode, data)
		}
	}
}

// Rejected implements Target.
func (t *HTTPTarget) Rejected() (int64, int64) {
	return t.rateLimited.Load(), t.admission.Load()
}

// winsFromRecord flattens a committed outcome into the mechanism-
// independent winner view.
func winsFromRecord(rec marketd.OutcomeRecord) []winRec {
	out := make([]winRec, len(rec.Winners))
	for i, w := range rec.Winners {
		out[i] = winRec{BidIndex: w.BidIndex, Client: w.Client, Slots: w.Slots, Payment: w.Payment}
	}
	return out
}

// EngineTarget solves instances inline with core.Engine — no service in
// the loop. It is the fuzzing and unit-test target: byte-for-byte the
// economics of the service path (the service solves with the same
// engine), minus the concurrency.
type EngineTarget struct{}

// Solve implements Target.
func (EngineTarget) Solve(_ context.Context, _ string, inst batch.Instance) (marketd.OutcomeRecord, error) {
	var (
		eng *core.Engine
		err error
	)
	if inst.Set != nil {
		eng, err = core.NewEngineSet(inst.Set, inst.Cfg)
	} else {
		eng, err = core.NewEngine(inst.Bids, inst.Cfg)
	}
	if err != nil {
		return marketd.OutcomeRecord{}, err
	}
	// A Background context never cancels, so the only error is
	// ErrInfeasible, which res.Feasible reports.
	res, _ := eng.RunCtx(context.Background(), core.RunOptions{})
	rec := marketd.OutcomeRecord{Feasible: res.Feasible}
	if !res.Feasible {
		return rec, nil
	}
	rec.Tg = res.Tg
	rec.Cost = res.Cost
	rec.Winners = make([]marketd.WinnerRecord, len(res.Winners))
	for i, w := range res.Winners {
		rec.Winners[i] = marketd.WinnerRecord{
			BidIndex: w.BidIndex, Client: w.Bid.Client, Index: w.Bid.Index,
			Price: w.Bid.Price, Theta: w.Bid.Theta, Slots: w.Slots, Payment: w.Payment,
		}
		rec.Total += w.Payment
	}
	return rec, nil
}

// Rejected implements Target.
func (EngineTarget) Rejected() (int64, int64) { return 0, 0 }
