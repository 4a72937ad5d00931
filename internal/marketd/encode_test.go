package marketd

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
)

// hostileStrings exercise every escape class of encoding/json's default
// string encoder.
var hostileStrings = []string{
	"", "alice", "a b c", `quote"back\slash`, "tab\tnew\nline\rret",
	"ctrl\x01\x1f", "html<&>", "utf8 ✓ θ", "bad\xffutf8", "sep and ",
}

// hostileFloats cross the 'f'/'e' format boundary and the exponent
// cleanup path of encoding/json's float encoder.
var hostileFloats = []float64{
	0, 1, -1, 0.5, 1.0 / 3.0, 3.1415926535897932, 1e-6, 9.999e-7, 1e-7,
	-2.5e-8, 1e20, 1e21, 1.5e21, -7e300, 123456789.125, math.SmallestNonzeroFloat64,
	math.MaxFloat64, math.Copysign(0, -1),
}

// encodeBidRecord and encodeOutcomeRecord are the json.Marshal
// reference encoders of the two record kinds: the commit path uses the
// append-style encoders in encode.go, which TestEncodeDifferential pins
// byte-for-byte against these. Tests use them where allocation does not
// matter.
func encodeBidRecord(seq int, client string, inst batch.Instance) ([]byte, error) {
	cw, err := FromConfig(inst.Cfg)
	if err != nil {
		return nil, err
	}
	sv := ""
	if inst.Solver != core.SolverExact {
		sv = inst.Solver.String()
	}
	return json.Marshal(walRecord{
		Type: recBid, Seq: seq, Client: client, Bids: inst.Bids, Cfg: &cw, Solver: sv,
	})
}

func encodeOutcomeRecord(rec OutcomeRecord) ([]byte, error) {
	return json.Marshal(walRecord{Type: recOutcome, Seq: rec.Seq, Outcome: &rec})
}

// encodeCheckpoint is the json.Marshal reference of appendCheckpoint.
func encodeCheckpoint(rec checkpointRecord) ([]byte, error) {
	return json.Marshal(rec)
}

// checkDecode requires decode to invert an encoder's output exactly as
// json.Unmarshal does, and to reject trailing non-whitespace as
// json.Unmarshal does.
func checkDecode[T any](t *testing.T, payload []byte, decode func([]byte) (T, error)) {
	t.Helper()
	var want T
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatalf("json.Unmarshal(%s): %v", payload, err)
	}
	got, err := decode(payload)
	if err != nil {
		t.Fatalf("decode(%s): %v", payload, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode diverges from json.Unmarshal on %s:\n got %#v\nwant %#v", payload, got, want)
	}
	spaced := append(append([]byte(" \n"), payload...), " \t\r\n"...)
	if _, err := decode(spaced); err != nil {
		t.Fatalf("decode rejected surrounding whitespace: %v", err)
	}
	for _, tail := range []string{"x", "{}", ",", "0"} {
		trailing := append(append([]byte(nil), payload...), tail...)
		if json.Unmarshal(trailing, new(T)) == nil {
			t.Fatalf("json.Unmarshal accepted trailing %q", tail)
		}
		if _, err := decode(trailing); err == nil {
			t.Fatalf("decode accepted trailing %q after %s", tail, payload)
		}
	}
}

func decodeFullCheckpoint(payload []byte) (checkpointRecord, error) {
	return decodeCheckpoint(payload, nil)
}

// TestEncodeDifferential locks the append encoders to encoding/json:
// for a spread of hostile values, every record kind must byte-match
// json.Marshal on the walRecord envelope the reference encoders build.
func TestEncodeDifferential(t *testing.T) {
	bid := func(i int) core.Bid {
		f := hostileFloats[i%len(hostileFloats)]
		return core.Bid{
			Client: i, Index: -i, Price: f, TrueCost: f / 2, Theta: 0.5,
			Start: 1, End: 10, Rounds: 3, CompTime: f * 3, CommTime: 1e-7,
		}
	}

	t.Run("bid", func(t *testing.T) {
		for i, client := range hostileStrings {
			cfg := core.Config{T: 10, K: 2}
			if i%2 == 1 {
				cfg = core.Config{
					T: 10, K: 2, TMax: hostileFloats[i%len(hostileFloats)],
					PaymentRule: core.PaymentRule(1), ReservePrice: 2.5,
					ScheduleRule: core.ScheduleRule(1), ExcludeOwnBids: true,
				}
			}
			inst := batch.Instance{Bids: []core.Bid{bid(i), bid(i + 1)}, Cfg: cfg}
			if i%3 == 2 {
				inst.Solver = core.SolverCoarseFine
			}
			if i == 0 {
				inst.Bids = nil
			}
			got, err := appendBidRecord(nil, i, client, inst)
			if err != nil {
				t.Fatalf("appendBidRecord(%d): %v", i, err)
			}
			want, err := encodeBidRecord(i, client, inst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("bid record %d diverges:\n got %s\nwant %s", i, got, want)
			}
			checkDecode(t, got, decodeRecord)
		}
	})

	t.Run("outcome", func(t *testing.T) {
		recs := []OutcomeRecord{
			{Seq: 0, Feasible: false},
			{Seq: 1, Err: `no "bids" <found>`, Feasible: false},
			{Seq: 2, Feasible: true, Tg: 7, Cost: 1.0 / 3.0, Total: 12.5,
				Winners: []WinnerRecord{
					{BidIndex: 0, Client: 1, Index: 2, Price: 3.5, Theta: 0.25, Slots: []int{1, 2, 3}, Payment: 4.75},
					{BidIndex: 4, Client: 0, Index: 0, Price: 1e-7, Theta: 0.9, Slots: nil, Payment: 1e21},
					{Slots: []int{}},
				}},
			{Seq: 3, Feasible: true, Tg: 1, Cost: 2, Solver: "lp-round",
				CertLowerBound: 1.5, CertRatio: 1.333333, Winners: []WinnerRecord{{Slots: []int{9}}}},
		}
		for _, rec := range recs {
			rec := rec
			got, err := appendOutcomeRecord(nil, &rec)
			if err != nil {
				t.Fatalf("appendOutcomeRecord(%d): %v", rec.Seq, err)
			}
			want, err := encodeOutcomeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("outcome record %d diverges:\n got %s\nwant %s", rec.Seq, got, want)
			}
			checkDecode(t, got, decodeRecord)
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		cfg := ConfigWire{T: 10, K: 2}
		hostileCfg := ConfigWire{
			T: 10, K: 2, TMax: 1e-7, PaymentRule: 1, ReservePrice: 1e21,
			ScheduleRule: 1, ExcludeOwnBids: true,
		}
		var ledger []ledgerEntry
		for i, f := range hostileFloats {
			ledger = append(ledger, ledgerEntry{Client: i * 7, Payment: f})
		}
		var outcomes []OutcomeRecord
		for i, s := range hostileStrings {
			f := hostileFloats[i%len(hostileFloats)]
			oc := OutcomeRecord{
				Seq: 40 + i, Err: s, Feasible: i%2 == 0, Tg: i, Cost: f, Total: -f,
				Solver: hostileStrings[len(hostileStrings)-1-i], CertLowerBound: f / 3, CertRatio: f,
			}
			if i%3 != 2 {
				oc.Winners = []WinnerRecord{
					{BidIndex: i, Client: i, Index: 1, Price: f, Theta: 0.5, Slots: []int{1, i}, Payment: f * 2},
					{Slots: nil, Payment: f},
					{Slots: []int{}, Price: -f},
				}
			}
			outcomes = append(outcomes, oc)
		}
		pending := []pendingEntry{
			{Seq: 60, Bids: []core.Bid{bid(1), bid(2), bid(3)}, Cfg: &cfg},
			{Seq: 61, Bids: []core.Bid{bid(4)}, Cfg: &hostileCfg, Solver: "coarse-fine"},
			{Seq: 62, Cfg: &cfg, Solver: "lp-round"},
			{Seq: 63, Bids: []core.Bid{bid(5), bid(6)}, Cfg: &hostileCfg},
		}
		recs := []checkpointRecord{
			{Type: recCheckpoint},
			{Type: recCheckpoint, Seq: 64, Base: 40, FoldedNext: 55},
			{Type: recCheckpoint, Seq: 64, Base: 40, FoldedNext: 55, Ledger: ledger},
			{Type: recCheckpoint, Seq: 64, Base: 40, FoldedNext: 55, Outcomes: outcomes},
			{Type: recCheckpoint, Seq: 64, Base: 40, FoldedNext: 55, Pending: pending},
			{Type: recCheckpoint, Seq: 64, Base: 40, FoldedNext: 55, Ledger: ledger, Outcomes: outcomes, Pending: pending},
		}
		for i, rec := range recs {
			got, err := appendCheckpoint(nil, &rec)
			if err != nil {
				t.Fatalf("appendCheckpoint(%d): %v", i, err)
			}
			want, err := encodeCheckpoint(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint %d diverges:\n got %s\nwant %s", i, got, want)
			}
			checkDecode(t, got, decodeFullCheckpoint)

			// Recovery's variant hands each pending entry over undecoded;
			// decoded later, the raw bytes give back the entry.
			var raws [][]byte
			if _, err := decodeCheckpoint(got, func(seq int, raw []byte) {
				if seq != rec.Pending[len(raws)].Seq {
					t.Fatalf("pending entry %d reported seq %d, want %d", len(raws), seq, rec.Pending[len(raws)].Seq)
				}
				raws = append(raws, raw)
			}); err != nil {
				t.Fatal(err)
			}
			if len(raws) != len(rec.Pending) {
				t.Fatalf("checkpoint %d handed over %d pending entries, want %d", i, len(raws), len(rec.Pending))
			}
			for j, raw := range raws {
				inst, err := decodePending(raw)
				if err != nil {
					t.Fatal(err)
				}
				p := rec.Pending[j]
				solver, _ := core.ParseSolver(p.Solver)
				want := batch.Instance{Bids: p.Bids, Cfg: p.Cfg.ToConfig(), Solver: solver}
				if !reflect.DeepEqual(inst, want) {
					t.Fatalf("pending entry %d decoded to %#v, want %#v", j, inst, want)
				}
			}
		}
	})

	t.Run("strings", func(t *testing.T) {
		for _, s := range hostileStrings {
			got := appendJSONString(nil, s)
			want, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("string %q diverges:\n got %s\nwant %s", s, got, want)
			}
		}
	})

	t.Run("nonfinite-rejected", func(t *testing.T) {
		for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			rec := OutcomeRecord{Seq: 1, Feasible: true, Winners: []WinnerRecord{{Client: 1, Payment: f}}}
			if _, err := appendOutcomeRecord(nil, &rec); err == nil {
				t.Fatalf("appendOutcomeRecord accepted payment %v", f)
			}
		}
	})
}

// TestPeekEnvelope checks the allocation-free type/seq scan on every
// record kind, including the pay record older logs carry, plus
// rejection of malformed input.
func TestPeekEnvelope(t *testing.T) {
	inst := batch.Instance{
		Bids: []core.Bid{{Client: 1, Price: 2.5, Theta: 0.5, Start: 1, End: 4, Rounds: 2}},
		Cfg:  core.Config{T: 4, K: 1},
	}
	bidRec, err := appendBidRecord(nil, 17, `tricky "client", {with} [json]`, inst)
	if err != nil {
		t.Fatal(err)
	}
	// A pay record as logs written before the outcome record carried the
	// whole commit hold them; replay must still recognise one.
	payRec := []byte(`{"type":"pay","seq":18,"pay_client":3,"bid_index":7,"amount":2}`)
	oc := OutcomeRecord{Seq: 19, Feasible: true, Tg: 4, Cost: 1, Winners: []WinnerRecord{{Slots: []int{1}}}}
	ocRec, _ := appendOutcomeRecord(nil, &oc)
	cases := []struct {
		payload []byte
		typ     string
		seq     int
	}{
		{bidRec, recBid, 17},
		{payRec, recPay, 18},
		{ocRec, recOutcome, 19},
		{[]byte(`{"outcome":{"seq":5,"type":"x"},"type":"outcome","seq":6}`), recOutcome, 6},
		{[]byte(` { "a" : [1,{"seq":9}] , "seq" : -4 , "type" : "bid" } `), recBid, -4},
	}
	for _, c := range cases {
		typ, seq, err := peekEnvelope(c.payload)
		if err != nil {
			t.Fatalf("peekEnvelope(%s): %v", c.payload, err)
		}
		if typ != c.typ || seq != c.seq {
			t.Fatalf("peekEnvelope(%s) = (%q,%d), want (%q,%d)", c.payload, typ, seq, c.typ, c.seq)
		}
	}
	for _, bad := range []string{
		``, `[]`, `{"type":"bid"}`, `{"seq":1}`, `{"type":`, `{"seq":"x","type":"bid"}`, `{bad}`,
	} {
		if _, _, err := peekEnvelope([]byte(bad)); err == nil {
			t.Fatalf("peekEnvelope(%q) accepted malformed input", bad)
		}
	}
}

// TestEncodeAllocGuard: the append encoders on a reused buffer must
// allocate at least 5× less per committed auction (bid + outcome
// record) than the json.Marshal-based reference encoders.
func TestEncodeAllocGuard(t *testing.T) {
	inst := batch.Instance{
		Bids: []core.Bid{
			{Client: 0, Price: 2.5, Theta: 0.5, Start: 1, End: 8, Rounds: 4, CompTime: 0.1, CommTime: 0.2},
			{Client: 1, Price: 3.25, Theta: 0.4, Start: 1, End: 8, Rounds: 4, CompTime: 0.3, CommTime: 0.1},
		},
		Cfg: core.Config{T: 8, K: 1},
	}
	w := WinnerRecord{BidIndex: 1, Client: 1, Index: 0, Price: 3.25, Theta: 0.4, Slots: []int{1, 2, 3, 4}, Payment: 4.5}
	oc := OutcomeRecord{Seq: 42, Feasible: true, Tg: 8, Cost: 3.25, Winners: []WinnerRecord{w}, Total: 4.5}

	buf := make([]byte, 0, 4096)
	newAllocs := testing.AllocsPerRun(200, func() {
		var err error
		buf = buf[:0]
		if buf, err = appendBidRecord(buf, 42, "alice", inst); err != nil {
			t.Fatal(err)
		}
		if buf, err = appendOutcomeRecord(buf, &oc); err != nil {
			t.Fatal(err)
		}
	})

	oldAllocs := testing.AllocsPerRun(200, func() {
		if _, err := encodeBidRecord(42, "alice", inst); err != nil {
			t.Fatal(err)
		}
		if _, err := encodeOutcomeRecord(oc); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("allocs per committed auction: append path %.1f, json.Marshal path %.1f", newAllocs, oldAllocs)
	if newAllocs*5 > oldAllocs {
		t.Fatalf("append encoders allocate %.1f/auction vs %.1f for json.Marshal — less than the required 5x reduction", newAllocs, oldAllocs)
	}
	if newAllocs > 2 {
		t.Fatalf("append encoders allocate %.1f/auction on a reused buffer; want a small constant", newAllocs)
	}
}

// TestDecodeFieldTables checks each decoder's key table against the
// JSON names encoding/json derives from the struct, so a field added to
// a wire struct cannot be silently skipped by its decoder.
func TestDecodeFieldTables(t *testing.T) {
	for _, c := range []struct {
		v     any
		names []string
	}{
		{core.Bid{}, bidFields},
		{ConfigWire{}, configFields},
		{WinnerRecord{}, winnerFields},
		{OutcomeRecord{}, outcomeFields},
		{walRecord{}, recordFields},
		{ledgerEntry{}, ledgerFields},
		{pendingEntry{}, pendingFields},
		{checkpointRecord{}, checkpointFields},
		{SubmitRequest{}, submitFields},
		{BatchSubmitRequest{}, batchFields},
		{BatchInstance{}, instanceFields},
	} {
		typ := reflect.TypeOf(c.v)
		var want []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			want = append(want, name)
		}
		if !reflect.DeepEqual(c.names, want) {
			t.Errorf("%s decoder keys %q, want %q", typ, c.names, want)
		}
	}
}

// TestDecodeAllocGuard pins the allocations of the two hot decodes: a
// 100-bid submit body, and a committed outcome record as replay meets
// it. Each must stay below what encoding/json allocates on the same
// bytes and within a small bound of its own: the kept strings, one
// growing slice per array and the outcome's pointer.
func TestDecodeAllocGuard(t *testing.T) {
	bids := make([]core.Bid, 100)
	for i := range bids {
		bids[i] = core.Bid{
			Client: i / 2, Index: i % 2, Price: 1 + float64(i)/7, Theta: 0.3 + float64(i%5)/10,
			Start: 1, End: 10, Rounds: 1 + i%4, CompTime: 0.125, CommTime: 1.0 / 3,
		}
	}
	body, err := json.Marshal(SubmitRequest{Client: "tenant-0042", Bids: bids, Cfg: ConfigWire{T: 10, K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	oc := OutcomeRecord{Seq: 42, Feasible: true, Tg: 8, Cost: 3.25, Total: 9.5, Winners: []WinnerRecord{
		{BidIndex: 1, Client: 1, Price: 3.25, Theta: 0.4, Slots: []int{1, 2, 3, 4}, Payment: 4.5},
		{BidIndex: 7, Client: 3, Index: 1, Price: 2.5, Theta: 0.6, Slots: []int{5, 6, 7, 8}, Payment: 5},
	}}
	record, err := appendOutcomeRecord(nil, &oc)
	if err != nil {
		t.Fatal(err)
	}

	bodyNew := testing.AllocsPerRun(100, func() {
		var req SubmitRequest
		if err := decodeSubmitRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	bodyOld := testing.AllocsPerRun(100, func() {
		var req SubmitRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatal(err)
		}
	})
	recordNew := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecord(record); err != nil {
			t.Fatal(err)
		}
	})
	recordOld := testing.AllocsPerRun(100, func() {
		var rec walRecord
		if err := json.Unmarshal(record, &rec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs: 100-bid body %.0f (encoding/json %.0f), outcome record %.0f (encoding/json %.0f)",
		bodyNew, bodyOld, recordNew, recordOld)
	if bodyNew >= bodyOld || recordNew >= recordOld {
		t.Fatalf("decoding allocates no less than encoding/json on the same bytes")
	}
	if raceEnabled {
		// Race instrumentation adds allocations of its own; CI enforces
		// the absolute bounds without -race.
		return
	}
	// The body keeps the client string and grows the bid slice by
	// doubling from 4 to 128 elements: 7 allocations.
	if bodyNew > 7 {
		t.Fatalf("decoding a 100-bid body allocates %.0f times; want at most 7", bodyNew)
	}
	// The record allocates its outcome, the winner slice and each
	// winner's slot slice.
	if recordNew > 4 {
		t.Fatalf("decoding an outcome record allocates %.0f times; want at most 4", recordNew)
	}
}
