package marketd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// TestHandlerErrorTable pins the daemon's whole error surface in one
// table: wrong methods (405 from the pattern router), unknown and
// malformed sequence numbers, malformed bid JSON, rate-limit 429s with a
// concrete Retry-After value, and admission 503s at MaxPending. Each row
// builds its own market so the rows are independent and order-free.
func TestHandlerErrorTable(t *testing.T) {
	goodBody := func(t *testing.T) *bytes.Reader {
		return submitBody(t, "alice", marketInstances(t, 1)[0])
	}
	cases := []struct {
		name string
		// setup returns a configured handler; nil means a plain open
		// market with one worker.
		setup func(t *testing.T) http.Handler
		// method, path, body form the request; a nil body sends none.
		method string
		path   string
		body   func(t *testing.T) *bytes.Reader
		// want is the status; wantRetryAfter the exact header value ("" =
		// must be absent); wantError a substring of the JSON error body
		// ("" = body unchecked).
		want           int
		wantRetryAfter string
		wantError      string
	}{
		{
			name:   "submit with GET is 405",
			method: http.MethodGet, path: "/v1/auctions",
			want: http.StatusMethodNotAllowed,
		},
		{
			name:   "outcome with POST is 405",
			method: http.MethodPost, path: "/v1/auctions/0", body: goodBody,
			want: http.StatusMethodNotAllowed,
		},
		{
			name:   "ledger with DELETE is 405",
			method: http.MethodDelete, path: "/v1/ledger",
			want: http.StatusMethodNotAllowed,
		},
		{
			name:   "unknown sequence is 404",
			method: http.MethodGet, path: "/v1/auctions/9000",
			want: http.StatusNotFound, wantError: "unknown",
		},
		{
			name:   "non-numeric sequence is 400",
			method: http.MethodGet, path: "/v1/auctions/latest",
			want: http.StatusBadRequest, wantError: "bad sequence",
		},
		{
			name:   "truncated JSON is 400",
			method: http.MethodPost, path: "/v1/auctions",
			body: func(*testing.T) *bytes.Reader { return bytes.NewReader([]byte(`{"client":"a","bids":[{`)) },
			want: http.StatusBadRequest, wantError: "bad request body",
		},
		{
			name:   "mistyped bid field is 400",
			method: http.MethodPost, path: "/v1/auctions",
			body: func(*testing.T) *bytes.Reader {
				return bytes.NewReader([]byte(`{"client":"a","bids":[{"client":0,"price":"expensive"}]}`))
			},
			want: http.StatusBadRequest, wantError: "bad request body",
		},
		{
			name:   "empty bid list is 400",
			method: http.MethodPost, path: "/v1/auctions",
			body: func(*testing.T) *bytes.Reader { return bytes.NewReader([]byte(`{"client":"a","bids":[]}`)) },
			want: http.StatusBadRequest, wantError: "no bids",
		},
		{
			name: "over-burst submission is 429 with whole-second advice",
			setup: func(t *testing.T) http.Handler {
				clk := &fakeClock{t: time.Unix(1000, 0)}
				m := openMarket(t, Config{Workers: 1, RatePerSec: 0.5, Burst: 1, Now: clk.now})
				h := Handler(m)
				if rr := doJSON(t, h, http.MethodPost, "/v1/auctions", goodBody(t), nil); rr.Code != http.StatusOK {
					t.Fatalf("burst-exhausting submit = %d", rr.Code)
				}
				return h
			},
			method: http.MethodPost, path: "/v1/auctions", body: goodBody,
			// At 0.5 tokens/s the bucket is 2s from refill: Retry-After
			// must carry the computed wait, not a constant.
			want: http.StatusTooManyRequests, wantRetryAfter: "2", wantError: "rate limit",
		},
		{
			name: "saturated market is 503 with retry advice",
			setup: func(t *testing.T) http.Handler {
				gate := make(chan struct{})
				gated := marketInstances(t, 1)[0]
				gated.Cfg.LocalIters = func(float64) float64 { <-gate; return 1 }
				m := openMarket(t, Config{Workers: 1, Queue: 8, MaxPending: 1})
				// Cleanups run last in, first out: registered after
				// openMarket's, the gate opens before m.Close waits on the
				// gated solve.
				t.Cleanup(func() { close(gate) })
				ctx, cancel := context.WithCancel(context.Background())
				t.Cleanup(cancel)
				if _, err := m.Submit(ctx, "seed", gated); err != nil {
					t.Fatal(err)
				}
				return Handler(m)
			},
			method: http.MethodPost, path: "/v1/auctions", body: goodBody,
			want: http.StatusServiceUnavailable, wantRetryAfter: "1", wantError: "saturated",
		},
		{
			name: "closed market is 503",
			setup: func(t *testing.T) http.Handler {
				m := openMarket(t, Config{Workers: 1})
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				return Handler(m)
			},
			method: http.MethodPost, path: "/v1/auctions", body: goodBody,
			want: http.StatusServiceUnavailable, wantError: "closed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h http.Handler
			if tc.setup != nil {
				h = tc.setup(t)
			} else {
				h = Handler(openMarket(t, Config{Workers: 1}))
			}
			var body *bytes.Reader
			if tc.body != nil {
				body = tc.body(t)
			}
			rr := doJSON(t, h, tc.method, tc.path, body, nil)
			if rr.Code != tc.want {
				t.Fatalf("status = %d, want %d; body %s", rr.Code, tc.want, rr.Body.String())
			}
			if got := rr.Header().Get("Retry-After"); got != tc.wantRetryAfter {
				t.Fatalf("Retry-After = %q, want %q", got, tc.wantRetryAfter)
			}
			if tc.wantRetryAfter != "" {
				if s, err := strconv.Atoi(tc.wantRetryAfter); err != nil || s < 1 {
					t.Fatalf("test wants non-integral Retry-After %q", tc.wantRetryAfter)
				}
			}
			if tc.wantError != "" {
				var eb errorBody
				if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
					t.Fatalf("error body not JSON: %q", rr.Body.String())
				}
				if !bytes.Contains([]byte(eb.Error), []byte(tc.wantError)) {
					t.Fatalf("error %q does not mention %q", eb.Error, tc.wantError)
				}
			}
		})
	}
}

// TestInvalidBidAcknowledgedThenFailed pins the durable-queue contract
// for semantically invalid bids: a negative price survives JSON decoding,
// so the edge acknowledges it (200 — it is durably logged like any other
// submission) and the validation failure surfaces in the committed
// outcome's Err instead of an HTTP status.
func TestInvalidBidAcknowledgedThenFailed(t *testing.T) {
	m := openMarket(t, Config{Workers: 1})
	h := Handler(m)
	inst := marketInstances(t, 1)[0]
	inst.Bids[0].Price = -5

	var ack SubmitResponse
	rr := doJSON(t, h, http.MethodPost, "/v1/auctions", submitBody(t, "alice", inst), &ack)
	if rr.Code != http.StatusOK {
		t.Fatalf("invalid-bid submit = %d, want 200 (ack-then-fail); body %s", rr.Code, rr.Body.String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rec, err := m.Wait(ctx, ack.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Err == "" {
		t.Fatalf("invalid bid committed without error: %+v", rec)
	}
	if rec.Feasible || len(rec.Winners) != 0 {
		t.Fatalf("invalid bid produced winners: %+v", rec)
	}
}

// openMarket opens a market bound to the test's lifetime.
func openMarket(t *testing.T, cfg Config) *Market {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	m, err := Open(ctx, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	// Registered after Close, so it runs first: the market's context is
	// canceled before Close waits, as the test's own context would be.
	t.Cleanup(cancel)
	return m
}
