package marketd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/obs"
)

// SubmitRequest is the POST /v1/auctions body: one auction instance
// plus the submitting client's key (the rate-limit identity).
type SubmitRequest struct {
	Client string     `json:"client"`
	Bids   []core.Bid `json:"bids"`
	Cfg    ConfigWire `json:"cfg"`
}

// SubmitResponse acknowledges a durably logged submission.
type SubmitResponse struct {
	Seq int `json:"seq"`
}

// BatchSubmitRequest is the POST /v1/auctions:batch body: several
// auction instances from one client, made durable under a single group
// commit (one fsync for the whole batch).
type BatchSubmitRequest struct {
	Client    string          `json:"client"`
	Instances []BatchInstance `json:"instances"`
}

// BatchInstance is one auction inside a batch submission.
type BatchInstance struct {
	Bids []core.Bid `json:"bids"`
	Cfg  ConfigWire `json:"cfg"`
}

// BatchSubmitResponse acknowledges a durably logged batch; Seqs are in
// instance order.
type BatchSubmitResponse struct {
	Seqs []int `json:"seqs"`
}

// StatsResponse is the GET /v1/stats body. The embedded WALInfo fields
// are zero for a volatile market (LastCheckpointSeq is -1 when no
// checkpoint exists).
type StatsResponse struct {
	Next       int  `json:"next_seq"`
	Committed  int  `json:"committed"`
	Pending    int  `json:"pending"`
	QueueDepth int  `json:"queue_depth"`
	Faults     int  `json:"recovered_faults"`
	Killed     bool `json:"killed"`
	WALInfo
}

type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the market's HTTP API:
//
//	POST /v1/auctions        submit one auction; 200 {"seq":n} once the
//	                         bid record is durable, 429 + Retry-After
//	                         when the client's token bucket is empty,
//	                         503 + Retry-After when admission control
//	                         rejects on pending depth, 503 when the
//	                         market is closed or died (a failed WAL
//	                         commit kills it), 400 on a bad body
//	POST /v1/auctions:batch  submit several auctions at once; 200
//	                         {"seqs":[...]} once every bid record is
//	                         durable — the whole batch rides one group
//	                         commit, so it costs one fsync — and never
//	                         for part of a batch; the other statuses as
//	                         for a single submission. Admission (rate
//	                         limit, pending depth) is charged per
//	                         request, not per instance.
//	GET  /v1/auctions/{seq}  200 with the committed OutcomeRecord,
//	                         202 {"seq":n} while still pending,
//	                         410 for an outcome the retention policy
//	                         pruned from history (its payments remain in
//	                         the ledger),
//	                         404 for a never-issued sequence number
//	GET  /v1/ledger          200 with the per-client cumulative payments
//	GET  /v1/stats           200 with load and recovery counters plus
//	                         the WAL footprint (bytes, segments, last
//	                         checkpoint, tail replayed at last restart)
//	GET  /healthz            200 "ok", 503 after a kill
//
// Rate limiting is keyed by the request's client field, and both reject
// paths set Retry-After in whole seconds (rounded up), so a compliant
// client that honors it is admitted on its next attempt.
//
// The submit bodies are read into pooled buffers and decoded by the
// reflection-free reader in decode.go, which accepts, rejects and fills
// exactly what json.Decoder would. Hot responses (single and batch
// submit acks, committed outcomes) are rendered by the append-style
// encoders in encode.go through a buffer pool instead of per-request
// json.Marshal; the bytes are identical.
func Handler(m *Market) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/auctions", m.handleSubmit)
	mux.HandleFunc("POST /v1/auctions:batch", m.handleSubmitBatch)
	mux.HandleFunc("GET /v1/auctions/{seq}", m.handleOutcome)
	mux.HandleFunc("GET /v1/ledger", m.handleLedger)
	mux.HandleFunc("GET /v1/stats", m.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if m.Killed() {
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// respBufPool recycles response-encoding buffers across requests so the
// hot handlers (submit ack, committed outcome) write through the
// append encoders without a per-request allocation.
var respBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// writeBuf sends buf as a JSON response body (a trailing newline keeps
// the bytes identical to writeJSON's json.Encoder output).
func writeBuf(w http.ResponseWriter, status int, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
}

// writeSeq renders {"seq":n} through the buffer pool.
func writeSeq(w http.ResponseWriter, status, seq int) {
	bp := respBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(seq), 10)
	buf = append(buf, '}', '\n')
	writeBuf(w, status, buf)
	*bp = buf[:0]
	respBufPool.Put(bp)
}

// writeSeqs renders the batch ack {"seqs":[…]} through the buffer pool.
func writeSeqs(w http.ResponseWriter, seqs []int) {
	bp := respBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], `{"seqs":[`...)
	for i, seq := range seqs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(seq), 10)
	}
	buf = append(buf, ']', '}', '\n')
	writeBuf(w, http.StatusOK, buf)
	*bp = buf[:0]
	respBufPool.Put(bp)
}

// writeOutcome renders a committed OutcomeRecord through the buffer
// pool, byte-identical to the json.Marshal form the WAL pins.
func writeOutcome(w http.ResponseWriter, rec OutcomeRecord) {
	bp := respBufPool.Get().(*[]byte)
	buf, err := appendOutcomeBody((*bp)[:0], &rec)
	if err != nil {
		// Unreachable for committed records (non-finite floats cannot
		// commit), but fall back rather than drop the response.
		respBufPool.Put(bp)
		writeJSON(w, http.StatusOK, rec)
		return
	}
	buf = append(buf, '\n')
	writeBuf(w, http.StatusOK, buf)
	*bp = buf[:0]
	respBufPool.Put(bp)
}

// retryAfterSeconds renders a wait as the integral Retry-After header
// value: whole seconds, rounded up, at least 1.
func retryAfterSeconds(wait float64) string {
	s := int(math.Ceil(wait))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// admit runs the shared admission checks (rate limit, pending depth)
// and writes the reject response itself; callers proceed only on true.
func (m *Market) admit(w http.ResponseWriter, r *http.Request, client string) bool {
	if m.limiter != nil {
		key := client
		if key == "" {
			key = r.RemoteAddr
		}
		if ok, wait := m.limiter.allow(key); !ok {
			if o := m.cfg.Observer; o != nil {
				o.Observe(obs.Event{
					Kind: obs.EvRateLimited, Client: -1, Bid: -1,
					Label: key, Value: wait.Seconds(),
				})
			}
			w.Header().Set("Retry-After", retryAfterSeconds(wait.Seconds()))
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "rate limit exceeded"})
			return false
		}
	}

	if max := m.cfg.MaxPending; max > 0 {
		if _, _, pending, _ := m.Counts(); pending >= max {
			if o := m.cfg.Observer; o != nil {
				o.Observe(obs.Event{
					Kind: obs.EvAdmissionRejected, Client: -1, Bid: -1,
					Value: float64(pending),
				})
			}
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "market saturated"})
			return false
		}
	}
	return true
}

// bodyBufPool recycles request-body buffers: the submit handlers read
// the whole body and decode it where it lies. The decoded request copies
// everything it keeps, so the buffer goes back as soon as it is decoded.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers bodyBufPool keeps, so one huge request
// does not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

// decodeBody reads the request body into a pooled buffer and decodes it
// with decode.
func decodeBody(r *http.Request, decode func(body []byte) error) error {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		err = decode(buf.Bytes())
	}
	if buf.Cap() <= maxPooledBody {
		bodyBufPool.Put(buf)
	}
	return err
}

// submitFailed answers a submission that was not acknowledged: 503 when
// the market is closed or died (a failing WAL commit kills it), else
// 400.
func (m *Market) submitFailed(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrClosed) || m.Killed() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (m *Market) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(r, func(body []byte) error { return decodeSubmitRequest(body, &req) }); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if len(req.Bids) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "no bids"})
		return
	}
	if !m.admit(w, r, req.Client) {
		return
	}

	seq, err := m.Submit(r.Context(), req.Client, batch.Instance{Bids: req.Bids, Cfg: req.Cfg.ToConfig()})
	if err != nil && seq < 0 {
		m.submitFailed(w, err)
		return
	}
	// A non-nil error with a sequence number means the bid is durably
	// logged but was not queued in this lifetime (e.g. the request context
	// expired under backpressure): still an ack, and the next Open solves
	// it.
	writeSeq(w, http.StatusOK, seq)
}

func (m *Market) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmitRequest
	if err := decodeBody(r, func(body []byte) error { return decodeBatchSubmitRequest(body, &req) }); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if len(req.Instances) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "no bids"})
		return
	}
	insts := make([]batch.Instance, len(req.Instances))
	for i, in := range req.Instances {
		if len(in.Bids) == 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "no bids"})
			return
		}
		insts[i] = batch.Instance{Bids: in.Bids, Cfg: in.Cfg.ToConfig()}
	}
	if !m.admit(w, r, req.Client) {
		return
	}

	seqs, err := m.SubmitBatch(r.Context(), req.Client, insts)
	if err != nil && !allLogged(seqs, len(insts)) {
		// No partial acks: the whole batch is acknowledged or none of it.
		m.submitFailed(w, err)
		return
	}
	// Every bid record is durably logged; an error was a queueing-lifetime
	// problem (see handleSubmit), so this is still an ack.
	writeSeqs(w, seqs)
}

// allLogged reports whether SubmitBatch durably logged all n submissions.
func allLogged(seqs []int, n int) bool {
	if len(seqs) != n {
		return false
	}
	for _, seq := range seqs {
		if seq < 0 {
			return false
		}
	}
	return true
}

func (m *Market) handleOutcome(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.Atoi(r.PathValue("seq"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad sequence number"})
		return
	}
	rec, done, err := m.Outcome(seq)
	switch {
	case errors.Is(err, ErrPruned):
		// The outcome was committed, folded into the ledger, and then
		// evicted by the retention policy; history before the floor is
		// permanently gone, which is what 410 means.
		writeJSON(w, http.StatusGone, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case !done:
		writeSeq(w, http.StatusAccepted, seq)
	default:
		writeOutcome(w, rec)
	}
}

func (m *Market) handleLedger(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Ledger())
}

func (m *Market) handleStats(w http.ResponseWriter, r *http.Request) {
	next, committed, pending, depth := m.Counts()
	writeJSON(w, http.StatusOK, StatsResponse{
		Next: next, Committed: committed, Pending: pending,
		QueueDepth: depth, Faults: m.RecoveredFaults(), Killed: m.Killed(),
		WALInfo: m.WALInfo(),
	})
}
