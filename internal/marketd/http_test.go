package marketd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/fedauction/afl/internal/batch"
)

func submitBody(t testing.TB, client string, inst batch.Instance) *bytes.Reader {
	t.Helper()
	cw, err := FromConfig(inst.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(SubmitRequest{Client: client, Bids: inst.Bids, Cfg: cw})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func doJSON(t testing.TB, h http.Handler, method, path string, body *bytes.Reader, out any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, body)
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if out != nil && rr.Code < 300 || rr.Code == http.StatusAccepted {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil && out != nil {
			t.Fatalf("%s %s: undecodable body %q: %v", method, path, rr.Body.String(), err)
		}
	}
	return rr
}

// TestHandlerSubmitAndQuery walks the happy path end to end over the
// HTTP surface: submit, poll to commitment, read the ledger and stats.
func TestHandlerSubmitAndQuery(t *testing.T) {
	insts := marketInstances(t, 2)
	m, err := Open(context.Background(), Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := Handler(m)

	var ack SubmitResponse
	rr := doJSON(t, h, "POST", "/v1/auctions", submitBody(t, "alice", insts[0]), &ack)
	if rr.Code != http.StatusOK {
		t.Fatalf("submit status = %d, body %s", rr.Code, rr.Body.String())
	}
	if ack.Seq != 0 {
		t.Fatalf("first seq = %d, want 0", ack.Seq)
	}
	if _, err := m.Wait(context.Background(), ack.Seq); err != nil {
		t.Fatal(err)
	}

	var rec OutcomeRecord
	rr = doJSON(t, h, "GET", "/v1/auctions/0", nil, &rec)
	if rr.Code != http.StatusOK {
		t.Fatalf("outcome status = %d", rr.Code)
	}
	want, _, err := m.Outcome(0)
	if err != nil {
		t.Fatal(err)
	}
	assertRecordEqual(t, rec, want)

	var ledger map[string]float64
	if rr := doJSON(t, h, "GET", "/v1/ledger", nil, &ledger); rr.Code != http.StatusOK {
		t.Fatalf("ledger status = %d", rr.Code)
	}
	var total float64
	for _, p := range ledger {
		total += p
	}
	// Summation order differs (per-client map vs winner slice), so the
	// totals agree to rounding, not bit-exactly.
	if diff := total - want.Total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ledger total = %v, want %v", total, want.Total)
	}

	var stats StatsResponse
	if rr := doJSON(t, h, "GET", "/v1/stats", nil, &stats); rr.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rr.Code)
	}
	if stats.Next != 1 || stats.Committed != 1 || stats.Killed {
		t.Fatalf("stats = %+v, want next 1 committed 1 alive", stats)
	}

	if rr := doJSON(t, h, "GET", "/healthz", nil, nil); rr.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rr.Code)
	}
}

// TestHandlerStatusCodes pins the error surface: pending 202, unknown
// 404, malformed 400s.
func TestHandlerStatusCodes(t *testing.T) {
	m, err := Open(context.Background(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := Handler(m)

	if rr := doJSON(t, h, "GET", "/v1/auctions/99", nil, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown seq = %d, want 404", rr.Code)
	}
	if rr := doJSON(t, h, "GET", "/v1/auctions/xyz", nil, nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad seq = %d, want 400", rr.Code)
	}
	if rr := doJSON(t, h, "POST", "/v1/auctions", bytes.NewReader([]byte("{")), nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("truncated body = %d, want 400", rr.Code)
	}
	if rr := doJSON(t, h, "POST", "/v1/auctions", bytes.NewReader([]byte(`{"client":"a"}`)), nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("no bids = %d, want 400", rr.Code)
	}
}

// TestHandlerRateLimit pins the 429 contract on a virtual clock: a
// client past its burst is rejected with a Retry-After that, when
// honored, readmits it; other clients are unaffected throughout.
func TestHandlerRateLimit(t *testing.T) {
	insts := marketInstances(t, 1)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m, err := Open(context.Background(), Config{
		Workers: 1, RatePerSec: 1, Burst: 2, Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := Handler(m)

	for i := 0; i < 2; i++ {
		if rr := doJSON(t, h, "POST", "/v1/auctions", submitBody(t, "alice", insts[0]), nil); rr.Code != http.StatusOK {
			t.Fatalf("burst submit %d = %d", i, rr.Code)
		}
	}
	rr := doJSON(t, h, "POST", "/v1/auctions", submitBody(t, "alice", insts[0]), nil)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst = %d, want 429", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	// A different client key has its own bucket.
	if rr := doJSON(t, h, "POST", "/v1/auctions", submitBody(t, "bob", insts[0]), nil); rr.Code != http.StatusOK {
		t.Fatalf("isolated client = %d, want 200", rr.Code)
	}
	// Honoring the advisory readmits alice.
	clk.advance(time.Second)
	if rr := doJSON(t, h, "POST", "/v1/auctions", submitBody(t, "alice", insts[0]), nil); rr.Code != http.StatusOK {
		t.Fatalf("post-wait submit = %d, want 200", rr.Code)
	}
}

// TestHandlerAdmissionControl pins the 503 contract: while more than
// MaxPending acknowledged submissions await outcomes, the edge turns
// submissions away instead of queueing unboundedly.
func TestHandlerAdmissionControl(t *testing.T) {
	inst := marketInstances(t, 1)[0]
	// A solver gate: workers block until the test releases them, so the
	// pending count is fully under test control.
	gate := make(chan struct{})
	gated := inst
	gated.Cfg.LocalIters = func(theta float64) float64 {
		<-gate
		return 1
	}

	m, err := Open(context.Background(), Config{Workers: 1, Queue: 8, MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(gate)
	h := Handler(m)

	// Gated instances cannot travel the wire (LocalIters is a func), so
	// seed the pending depth through the facade, then probe the edge.
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(context.Background(), "seed", gated); err != nil {
			t.Fatal(err)
		}
	}
	rr := doJSON(t, h, "POST", "/v1/auctions", submitBody(t, "alice", inst), nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit = %d, want 503; body %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestHandlerClosedMarket pins that a closed market answers 503, not a
// hang or a panic.
func TestHandlerClosedMarket(t *testing.T) {
	inst := marketInstances(t, 1)[0]
	m, err := Open(context.Background(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	h := Handler(m)
	if rr := doJSON(t, h, "POST", "/v1/auctions", submitBody(t, "a", inst), nil); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed submit = %d, want 503", rr.Code)
	}
}

// TestHandlerBatchSubmit drives POST /v1/auctions:batch: one request,
// consecutive seqs, every outcome committed and byte-identical to the
// pooled single-outcome responses writeJSON would have produced.
func TestHandlerBatchSubmit(t *testing.T) {
	insts := marketInstances(t, 3)
	m, err := Open(context.Background(), Config{Dir: t.TempDir(), Workers: 1, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := Handler(m)

	req := BatchSubmitRequest{Client: "alice"}
	for _, inst := range insts {
		cw, err := FromConfig(inst.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		req.Instances = append(req.Instances, BatchInstance{Bids: inst.Bids, Cfg: cw})
	}
	body, _ := json.Marshal(req)
	var ack BatchSubmitResponse
	rr := doJSON(t, h, "POST", "/v1/auctions:batch", bytes.NewReader(body), &ack)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch submit status = %d, body %s", rr.Code, rr.Body.String())
	}
	if len(ack.Seqs) != len(insts) {
		t.Fatalf("batch returned %d seqs, want %d", len(ack.Seqs), len(insts))
	}
	for i, seq := range ack.Seqs {
		if seq != i {
			t.Fatalf("seqs[%d] = %d, want consecutive from 0", i, seq)
		}
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
		var rec OutcomeRecord
		if rr := doJSON(t, h, "GET", "/v1/auctions/"+strconv.Itoa(seq), nil, &rec); rr.Code != http.StatusOK {
			t.Fatalf("outcome %d status = %d", seq, rr.Code)
		}
		assertRecordEqual(t, rec, solveRecord(t, seq, insts[i]))
	}

	// Empty batch and an instance without bids are both rejected.
	for _, bad := range []string{
		`{"client":"a","instances":[]}`,
		`{"client":"a","instances":[{"bids":[],"cfg":{"t":4,"k":1}}]}`,
	} {
		rr := doJSON(t, h, "POST", "/v1/auctions:batch", bytes.NewReader([]byte(bad)), nil)
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("bad batch %q status = %d, want 400", bad, rr.Code)
		}
	}
}

// TestHandlerPooledResponsesMatchJSON pins the pooled append-encoder
// response bodies byte-for-byte against the json.Encoder rendering the
// handlers used before.
func TestHandlerPooledResponsesMatchJSON(t *testing.T) {
	insts := marketInstances(t, 1)
	m, err := Open(context.Background(), Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := Handler(m)

	var ack SubmitResponse
	rr := doJSON(t, h, "POST", "/v1/auctions", submitBody(t, "alice", insts[0]), &ack)
	wantAck, _ := json.Marshal(SubmitResponse{Seq: ack.Seq})
	if got := rr.Body.String(); got != string(wantAck)+"\n" {
		t.Fatalf("submit ack body %q, want %q", got, string(wantAck)+"\n")
	}
	if _, err := m.Wait(context.Background(), ack.Seq); err != nil {
		t.Fatal(err)
	}

	rr = doJSON(t, h, "GET", "/v1/auctions/0", nil, nil)
	rec, _, err := m.Outcome(0)
	if err != nil {
		t.Fatal(err)
	}
	var wantBody bytes.Buffer
	if err := json.NewEncoder(&wantBody).Encode(rec); err != nil {
		t.Fatal(err)
	}
	if rr.Body.String() != wantBody.String() {
		t.Fatalf("outcome body diverges from json.Encoder:\n got %q\nwant %q", rr.Body.String(), wantBody.String())
	}

	batchBody, err := json.Marshal(BatchSubmitRequest{Client: "alice", Instances: []BatchInstance{
		{Bids: insts[0].Bids, Cfg: ConfigWire{T: insts[0].Cfg.T, K: insts[0].Cfg.K}},
		{Bids: insts[0].Bids, Cfg: ConfigWire{T: insts[0].Cfg.T, K: insts[0].Cfg.K}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var batchAck BatchSubmitResponse
	rr = doJSON(t, h, "POST", "/v1/auctions:batch", bytes.NewReader(batchBody), &batchAck)
	if rr.Code != http.StatusOK || len(batchAck.Seqs) != 2 {
		t.Fatalf("batch submit = %d %q, want 200 with two seqs", rr.Code, rr.Body.String())
	}
	wantBody.Reset()
	if err := json.NewEncoder(&wantBody).Encode(BatchSubmitResponse{Seqs: batchAck.Seqs}); err != nil {
		t.Fatal(err)
	}
	if rr.Body.String() != wantBody.String() {
		t.Fatalf("batch ack body diverges from json.Encoder:\n got %q\nwant %q", rr.Body.String(), wantBody.String())
	}
}

// TestHandlerFailedCommitIs503: a submission whose WAL commit fails was
// never acknowledged, and the failure kills the market. Both submit
// routes must answer 503 for it, never an ack and never a 400. The
// commit is failed while it waits out the group-commit window: the
// bid record is appended, then the log is aborted under it.
func TestHandlerFailedCommitIs503(t *testing.T) {
	inst := marketInstances(t, 1)[0]
	cw, err := FromConfig(inst.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		route string
		req   any
	}{
		{"/v1/auctions", SubmitRequest{Client: "alice", Bids: inst.Bids, Cfg: cw}},
		{"/v1/auctions:batch", BatchSubmitRequest{Client: "alice", Instances: []BatchInstance{{Bids: inst.Bids, Cfg: cw}}}},
	} {
		route, req := c.route, c.req
		t.Run(strings.TrimPrefix(route, "/v1/"), func(t *testing.T) {
			m := openMarket(t, Config{
				Dir: t.TempDir(), Workers: 1, GroupCommit: true, SyncInterval: 200 * time.Millisecond,
			})
			h := Handler(m)
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
				done <- rr
			}()
			deadline := time.Now().Add(10 * time.Second)
			for m.log.Stats().Records == 0 {
				if time.Now().After(deadline) {
					t.Fatal("bid record never appended")
				}
				time.Sleep(100 * time.Microsecond)
			}
			m.log.Abort()
			rr := <-done
			if rr.Code != http.StatusServiceUnavailable {
				t.Fatalf("failed commit answered %d %q, want 503", rr.Code, rr.Body.String())
			}
			if !m.Killed() {
				t.Fatal("failed commit left the market alive")
			}
		})
	}
}

// TestHandlerPrunedAndStats covers the retention-facing HTTP surface:
// 410 for pruned outcomes and the WAL footprint in /v1/stats.
func TestHandlerPrunedAndStats(t *testing.T) {
	insts := marketInstances(t, 5)
	m, err := Open(context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, CheckpointEvery: 2, RetainOutcomes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := Handler(m)
	for _, inst := range insts {
		seq, err := m.Submit(context.Background(), "c", inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), seq); err != nil {
			t.Fatal(err)
		}
	}

	rr := doJSON(t, h, "GET", "/v1/auctions/0", nil, nil)
	if rr.Code != http.StatusGone {
		t.Fatalf("pruned outcome status = %d, want 410", rr.Code)
	}
	if !bytes.Contains(rr.Body.Bytes(), []byte("pruned")) {
		t.Fatalf("410 body %q does not mention pruning", rr.Body.String())
	}
	if rr := doJSON(t, h, "GET", "/v1/auctions/99", nil, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown outcome status = %d, want 404", rr.Code)
	}

	var stats StatsResponse
	if rr := doJSON(t, h, "GET", "/v1/stats", nil, &stats); rr.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rr.Code)
	}
	if stats.Committed != 5 || stats.Bytes == 0 || stats.Segments == 0 {
		t.Fatalf("stats = %+v, want committed 5 with a WAL footprint", stats)
	}
	if stats.LastCheckpointSeq < 2 {
		t.Fatalf("stats.LastCheckpointSeq = %d, want a checkpoint", stats.LastCheckpointSeq)
	}
}
