package marketd

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fedauction/afl/internal/batch"
	"github.com/fedauction/afl/internal/core"
	"github.com/fedauction/afl/internal/obs"
)

// packRows is the reference packing, built from encoding/binary
// independently of the codec's own field tables: per bid, Client and
// Index as varints, Price, TrueCost and Theta as little-endian float
// bits, Start, End and Rounds as varints, CompTime and CommTime as float
// bits, all base64-encoded.
func packRows(bids []core.Bid) string {
	var raw []byte
	for _, b := range bids {
		raw = binary.AppendVarint(binary.AppendVarint(raw, int64(b.Client)), int64(b.Index))
		for _, f := range []float64{b.Price, b.TrueCost, b.Theta} {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(f))
		}
		for _, n := range []int{b.Start, b.End, b.Rounds} {
			raw = binary.AppendVarint(raw, int64(n))
		}
		for _, f := range []float64{b.CompTime, b.CommTime} {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(f))
		}
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// packPairs is the reference payments member, built from
// encoding/binary independently of the codec's row layouts: per winner,
// Client as a varint and Payment as little-endian float bits, all
// base64-encoded.
func packPairs(winners []WinnerRecord) string {
	var raw []byte
	for _, w := range winners {
		raw = binary.LittleEndian.AppendUint64(binary.AppendVarint(raw, int64(w.Client)), math.Float64bits(w.Payment))
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// bidsFromBytes reads raw as whole 80-byte records of ten 8-byte
// fields, in core.Bid's order, with no check on the values: a way to
// draw arbitrary bids from fuzz input.
func bidsFromBytes(raw []byte) []core.Bid {
	rows := make([]struct {
		Client, Index          int64
		Price, TrueCost, Theta float64
		Start, End, Rounds     int64
		CompTime, CommTime     float64
	}, len(raw)/80)
	binary.Read(bytes.NewReader(raw), binary.LittleEndian, rows)
	bids := make([]core.Bid, len(rows))
	for i, r := range rows {
		bids[i] = core.Bid{
			Client: int(r.Client), Index: int(r.Index), Price: r.Price, TrueCost: r.TrueCost, Theta: r.Theta,
			Start: int(r.Start), End: int(r.End), Rounds: int(r.Rounds), CompTime: r.CompTime, CommTime: r.CommTime,
		}
	}
	return bids
}

// packedVerdict is what the packed bids member must decode s to: the
// bids when s is strict base64, without line breaks, of whole rows
// whose varints are the ones binary.AppendVarint writes for ints that
// fit an int and whose floats are finite; else a rejection.
func packedVerdict(s string) ([]core.Bid, bool) {
	raw, err := base64.StdEncoding.Strict().DecodeString(s)
	if err != nil || strings.ContainsAny(s, "\r\n") {
		return nil, false
	}
	var bids []core.Bid
	for ok := true; len(raw) > 0; {
		varint := func(dst *int) {
			v, k := binary.Varint(raw)
			if !ok || k <= 0 || !bytes.Equal(raw[:k], binary.AppendVarint(nil, v)) || int64(int(v)) != v {
				ok = false
				return
			}
			*dst, raw = int(v), raw[k:]
		}
		float := func(dst *float64) {
			if !ok || len(raw) < 8 {
				ok = false
				return
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			*dst, raw, ok = f, raw[8:], !math.IsInf(f, 0) && !math.IsNaN(f)
		}
		var b core.Bid
		varint(&b.Client)
		varint(&b.Index)
		float(&b.Price)
		float(&b.TrueCost)
		float(&b.Theta)
		varint(&b.Start)
		varint(&b.End)
		varint(&b.Rounds)
		float(&b.CompTime)
		float(&b.CommTime)
		if !ok {
			return nil, false
		}
		bids = append(bids, b)
	}
	return bids, true
}

// sameBids requires got to hold want's bids, floats bit for bit.
func sameBids(t *testing.T, what string, got, want []core.Bid) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bids, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		same := g.Client == w.Client && g.Index == w.Index && g.Start == w.Start && g.End == w.End && g.Rounds == w.Rounds
		for _, p := range [][2]float64{{g.Price, w.Price}, {g.TrueCost, w.TrueCost}, {g.Theta, w.Theta}, {g.CompTime, w.CompTime}, {g.CommTime, w.CommTime}} {
			same = same && math.Float64bits(p[0]) == math.Float64bits(p[1])
		}
		if !same {
			t.Fatalf("%s: bid %d is %#v, want %#v", what, i, g, w)
		}
	}
}

// TestPackedBidsLayout pins the packed form to its reference layout,
// extreme ints and floats included, and its size: a 100-bid record of
// small-auction bids is at most 40% of its size with the bids as row
// objects.
func TestPackedBidsLayout(t *testing.T) {
	bids := []core.Bid{
		{Client: 3, Index: -1, Price: 2.5, TrueCost: 1e-7, Theta: 0.5, Start: 1, End: 9, Rounds: 4, CompTime: math.Copysign(0, -1), CommTime: math.MaxFloat64},
		{Client: math.MaxInt, Index: math.MinInt, Price: math.SmallestNonzeroFloat64},
	}
	got, err := appendPackedBids(nil, bids)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"` + packRows(bids) + `"`; string(got) != want {
		t.Fatalf("packed bids %s, want %s", got, want)
	}

	big := make([]core.Bid, 100)
	for i := range big {
		big[i] = core.Bid{
			Client: i / 2, Index: i % 2, Price: 10 + float64(i)/7, TrueCost: 10 + float64(i)/9, Theta: 0.3 + float64(i%5)/11,
			Start: 1 + i%5, End: 6 + i%5, Rounds: 1 + i%4, CompTime: 1.0 / 3, CommTime: 0.1 + float64(i)/13,
		}
	}
	inst := batch.Instance{Bids: big, Cfg: core.Config{T: 10, K: 3}}
	packed, err := appendBidRecord(nil, 1, "tenant-0001", inst)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := json.Marshal(struct {
		Type string     `json:"type"`
		Seq  int        `json:"seq"`
		Bids []core.Bid `json:"bids"`
	}{recBid, 1, big})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("100-bid record: %d bytes packed, %d as row objects", len(packed), len(rows))
	if 10*len(packed) > 4*len(rows) {
		t.Fatalf("a packed 100-bid record is %d bytes, over 40%% of its %d-byte row form", len(packed), len(rows))
	}
}

// FuzzPackedBids holds the packed bids member to its contract. Bids
// built from arbitrary row bytes round-trip bit for bit through a bid
// record and through a checkpoint's pending entry when their floats are
// finite, and fail to encode when one is not. An arbitrary string in
// the member of a bid record and of a pending entry decodes, with the
// reader and with encoding/json, exactly when it is strict base64 of
// whole rows with finite floats and ints that fit an int; an accepted
// string is the one the encoder writes for its rows. With the string's
// bytes unescaped between the quotes, the reader reaches
// encoding/json's verdict and value (checkRawMember).
func FuzzPackedBids(f *testing.F) {
	bid := func(i int) core.Bid {
		p := hostileFloats[i%len(hostileFloats)]
		return core.Bid{
			Client: i, Index: -i, Price: p, TrueCost: p / 2, Theta: 0.5,
			Start: 1, End: 10, Rounds: 3, CompTime: p * 3, CommTime: 1e-7,
		}
	}
	seed := func(bids ...core.Bid) {
		member := packRows(bids)
		raw, _ := base64.StdEncoding.DecodeString(member)
		f.Add(raw, member)
	}
	// The bid records of TestEncodeDifferential, then one bid per
	// hostile float (the largest overflows CompTime to +Inf).
	seed()
	for i := 1; i < len(hostileStrings); i++ {
		seed(bid(i), bid(i+1))
	}
	for i := range hostileFloats {
		seed(bid(i))
	}
	seed(core.Bid{Price: math.NaN()}, core.Bid{Theta: math.Inf(-1)})
	// Damaged strings: truncated, padded, broken by a line break or a
	// changed character, padded after non-zero trailing bits (a 46-byte
	// row ends in one byte and two pad characters); rows cut short, with
	// an overlong zero varint (0x80 0x00) or a varint past 64 bits.
	one := packRows([]core.Bid{bid(3)})
	row, _ := base64.StdEncoding.DecodeString(packRows([]core.Bid{{Price: 1, Theta: 0.5, End: 3, Rounds: 2}}))
	padded := packRows([]core.Bid{{Client: 100, Price: 1, Theta: 0.5, End: 3, Rounds: 2}})
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	last := strings.IndexByte(alphabet, padded[len(padded)-3])
	for _, member := range []string{
		one[:len(one)-4], one + "AAAA", one[:40] + "\n" + one[40:], one[:40] + "A" + one[41:],
		one + "==", one[:len(one)-3] + "B==", "====", "AAAA", `AAAA"`, `AA\"AA`,
		padded, padded[:len(padded)-3] + alphabet[last+1:last+2] + "==",
		base64.StdEncoding.EncodeToString(row[:len(row)-1]),
		base64.StdEncoding.EncodeToString(append([]byte{0x80}, row...)),
		base64.StdEncoding.EncodeToString(append(bytes.Repeat([]byte{0xff}, 10), row...)),
	} {
		f.Add([]byte(nil), member)
	}
	for _, member := range hostileStrings {
		f.Add([]byte(nil), member)
	}
	f.Fuzz(func(t *testing.T, raw []byte, member string) {
		bids := bidsFromBytes(raw)
		finite := true
		for _, b := range bids {
			for _, p := range []float64{b.Price, b.TrueCost, b.Theta, b.CompTime, b.CommTime} {
				finite = finite && !math.IsInf(p, 0) && !math.IsNaN(p)
			}
		}
		cw := ConfigWire{T: 4, K: 1}
		record, rerr := appendBidRecord(nil, 7, "c", batch.Instance{Bids: bids, Cfg: cw.ToConfig()})
		ckpt, cerr := appendCheckpoint(nil, &checkpointRecord{
			Type: recCheckpoint, Seq: 8, Pending: []pendingEntry{{Seq: 7, Bids: bids, Cfg: &cw}},
		})
		switch {
		case !finite && (rerr == nil || cerr == nil):
			t.Fatalf("a non-finite float encoded: bid record error %v, checkpoint error %v", rerr, cerr)
		case finite && (rerr != nil || cerr != nil):
			t.Fatalf("finite bids failed to encode: bid record error %v, checkpoint error %v", rerr, cerr)
		case finite:
			rec, err := decodeRecord(record)
			if err != nil {
				t.Fatalf("decodeRecord(%s): %v", record, err)
			}
			sameBids(t, "bid record", rec.Bids, bids)
			inst, err := decodePending(record)
			if err != nil {
				t.Fatalf("decodePending(%s): %v", record, err)
			}
			sameBids(t, "pending bid record", inst.Bids, bids)
			entries := 0
			if _, err := decodeCheckpoint(ckpt, func(seq int, entry []byte) {
				entries++
				inst, err := decodePending(entry)
				if err != nil {
					t.Fatalf("decodePending(%s): %v", entry, err)
				}
				sameBids(t, "pending entry", inst.Bids, bids)
			}); err != nil || entries != 1 {
				t.Fatalf("decodeCheckpoint(%s) handed over %d entries: %v", ckpt, entries, err)
			}
		}

		checkRawMember(t, member)
		want, ok := packedVerdict(member)
		quoted := appendJSONString(nil, member)
		record = append(append([]byte(`{"type":"bid","seq":1,"bids":`), quoted...), '}')
		entry := append(append([]byte(`{"seq":1,"bids":`), quoted...), '}')
		rec, err := decodeRecord(record)
		var ref walRecord
		refErr := json.Unmarshal(record, &ref)
		inst, perr := decodePending(entry)
		if (err == nil) != ok || (refErr == nil) != ok || (perr == nil) != ok {
			t.Fatalf("bids member %q: decodeRecord %v, json.Unmarshal %v, decodePending %v; want accepted %v",
				member, err, refErr, perr, ok)
		}
		if !ok {
			return
		}
		sameBids(t, "decodeRecord", rec.Bids, want)
		sameBids(t, "json.Unmarshal", ref.Bids, want)
		sameBids(t, "decodePending", inst.Bids, want)
		if again, err := appendPackedBids(nil, rec.Bids); err != nil || string(again) != string(quoted) {
			t.Fatalf("bids member %q re-encodes to %s (%v)", member, again, err)
		}
	})
}

// checkRawMember decodes a bid record whose bids member is member between
// quotes, unescaped, so its bytes (quotes, backslashes and control
// characters included) reach the reader as written, and requires the
// reader's verdict and value to be encoding/json's.
func checkRawMember(t *testing.T, member string) {
	t.Helper()
	record := []byte(`{"type":"bid","seq":1,"bids":"` + member + `"}`)
	got, err := decodeRecord(record)
	var want walRecord
	wantErr := json.Unmarshal(record, &want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %q: decodeRecord %v, json.Unmarshal %v", record, err, wantErr)
	}
	if err == nil {
		sameBids(t, "unescaped member", got.Bids, want.Bids)
	}
}

// TestPackedUpgradeAndDowngrade opens a log of row-form bids with the
// packed codec and keeps writing it, then checks what an older binary
// makes of the packed records.
//
// Upgrade: the checkpoint fixture (row-form pending entries for seqs 6
// and 7, row-form bid records for seqs 8 and 9) is reopened with seq
// 7's re-solve held, four more instances are logged packed as seqs
// 10–13, and the market is killed right after seq 11 commits. The next
// recovery re-solves seq 7 from its row-form entry and seqs 12 and 13
// from packed records, and the drained state equals that of a copy of
// the fixture run through the same submissions without a kill.
//
// Downgrade: the row decoder, as a binary from before packing ran it on
// a bid record or a pending entry, rejects a packed member with a type
// error, and so does encoding/json decoding into rows: such a binary
// refuses the log instead of replaying empty bid sets.
func TestPackedUpgradeAndDowngrade(t *testing.T) {
	ctx := context.Background()
	extra := marketInstances(t, 14)[10:]
	drain := func(m *Market, upTo int) []byte {
		t.Helper()
		for seq := 2; seq < upTo; seq++ {
			if _, err := m.Wait(ctx, seq); err != nil {
				t.Fatalf("Wait(%d): %v", seq, err)
			}
		}
		return m.Snapshot()
	}

	ref, err := Open(ctx, Config{Dir: copyFixture(t, "checkpoint_market"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	drain(ref, 10)
	if _, err := ref.SubmitBatch(ctx, "c", extra); err != nil {
		t.Fatal(err)
	}
	want := drain(ref, 14)
	ref.Close()

	dir := copyFixture(t, "checkpoint_market")
	gate := make(chan struct{})
	m1, err := Open(ctx, Config{
		Dir: dir, Workers: 2,
		Observer: obs.ObserverFunc(func(e obs.Event) {
			if e.Kind == obs.EvAuctionDequeued && e.Bid == 7 {
				<-gate
			}
		}),
		Crash: func(p string, seq int) bool { return p == CrashPostCommit && seq == 11 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The kill may race the batch's enqueue, which then errs; all four
	// bid records are durably logged either way.
	if seqs, err := m1.SubmitBatch(ctx, "c", extra); fmt.Sprint(seqs) != "[10 11 12 13]" {
		t.Fatalf("SubmitBatch = %v, %v; want seqs 10–13", seqs, err)
	}
	<-m1.Dead()
	if _, committed, pending, _ := m1.Counts(); committed != 11 || pending != 3 {
		t.Fatalf("killed market holds %d committed and %d pending; want 11 (0–6, 8–11) and 3 (7, 12, 13)", committed, pending)
	}
	close(gate)
	m1.Close()

	var log []byte
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		log = append(log, readFile(t, filepath.Join(dir, e.Name()))...)
	}
	lastRows, firstPacked := bytes.LastIndex(log, []byte(`"bids":[{`)), bytes.Index(log, []byte(`"bids":"`))
	if lastRows < 0 || firstPacked < lastRows {
		t.Fatalf("log holds row-form bids up to offset %d and packed bids from %d; want packed after rows", lastRows, firstPacked)
	}

	m2, err := Open(ctx, Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := drain(m2, 14); !bytes.Equal(got, want) {
		t.Fatalf("recovery over row-form and packed records diverged:\n got %s\nwant %s", got, want)
	}

	record, err := appendBidRecord(nil, 10, "c", extra[0])
	if err != nil {
		t.Fatal(err)
	}
	cw := ConfigWire{T: 4, K: 1}
	entry, err := appendCheckpoint(nil, &checkpointRecord{
		Type: recCheckpoint, Seq: 11, Pending: []pendingEntry{{Seq: 10, Bids: extra[0].Bids, Cfg: &cw}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{record, entry} {
		var rows []core.Bid
		r := reader{p: payload}
		var member func(string)
		member = func(name string) {
			switch name {
			case "bids":
				r.bids(&rows)
			case "pending":
				r.array("[]pendingEntry", func(int) { r.object("pendingEntry", pendingFields, member) })
			default:
				r.skip()
			}
		}
		r.object("record", []string{"bids", "pending"}, member)
		if r.err == nil || !strings.Contains(r.err.Error(), "cannot decode string into []core.Bid") {
			t.Fatalf("the row decoder read %s with error %v; want a type error", payload, r.err)
		}
		var old struct {
			Bids    []core.Bid `json:"bids"`
			Pending []struct {
				Bids []core.Bid `json:"bids"`
			} `json:"pending"`
		}
		var typeErr *json.UnmarshalTypeError
		if err := json.Unmarshal(payload, &old); !errors.As(err, &typeErr) || typeErr.Value != "string" {
			t.Fatalf("encoding/json read %s into rows with error %v; want a type error", payload, err)
		}
	}
}

// winnersFromBytes reads raw as whole 16-byte records of a client
// (int64) and a payment (float64 bits), with no check on the values: a
// way to draw arbitrary winners from fuzz input. Each winner's other
// members are filled from the same values, so the outcome body differs
// from winner to winner.
func winnersFromBytes(raw []byte) []WinnerRecord {
	pairs := make([]struct {
		Client  int64
		Payment float64
	}, len(raw)/16)
	binary.Read(bytes.NewReader(raw), binary.LittleEndian, pairs)
	winners := make([]WinnerRecord, len(pairs))
	for i, p := range pairs {
		winners[i] = WinnerRecord{
			BidIndex: i, Client: int(p.Client), Index: i % 3, Price: 1 + float64(i)/7, Theta: 0.5,
			Slots: []int{1, 1 + i%4}, Payment: p.Payment,
		}
	}
	return winners
}

// winnerBytes is the inverse of winnersFromBytes on clients and payments.
func winnerBytes(winners []WinnerRecord) []byte {
	var raw []byte
	for _, w := range winners {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(w.Client))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(w.Payment))
	}
	return raw
}

// paymentsVerdict is what the payments member must decode s to: the
// (client, payment) pairs when s is strict base64, without line breaks,
// of whole pairs whose varint is the one binary.AppendVarint writes for
// an int and whose payment is finite; else a rejection.
func paymentsVerdict(s string) ([]WinnerRecord, bool) {
	raw, err := base64.StdEncoding.Strict().DecodeString(s)
	if err != nil || strings.ContainsAny(s, "\r\n") {
		return nil, false
	}
	var winners []WinnerRecord
	for len(raw) > 0 {
		v, k := binary.Varint(raw)
		if k <= 0 || !bytes.Equal(raw[:k], binary.AppendVarint(nil, v)) || int64(int(v)) != v || len(raw) < k+8 {
			return nil, false
		}
		p := math.Float64frombits(binary.LittleEndian.Uint64(raw[k:]))
		if math.IsInf(p, 0) || math.IsNaN(p) {
			return nil, false
		}
		winners = append(winners, WinnerRecord{Client: int(v), Payment: p})
		raw = raw[k+8:]
	}
	return winners, true
}

// samePayments requires got to hold want's clients and payments, the
// payments bit for bit.
func samePayments(t *testing.T, what string, got, want []WinnerRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d winners, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Client != want[i].Client || math.Float64bits(got[i].Payment) != math.Float64bits(want[i].Payment) {
			t.Fatalf("%s: winner %d is (%d, %v), want (%d, %v)", what, i, got[i].Client, got[i].Payment, want[i].Client, want[i].Payment)
		}
	}
}

// replayRead reads payload as replay does: the envelope, then the
// payments.
func replayRead(payload []byte) (OutcomeRecord, error) {
	_, seq, end, err := peekEnvelope(payload)
	if err != nil {
		return OutcomeRecord{}, err
	}
	var scratch []byte
	return replayPayments(payload, seq, end, &scratch)
}

// TestPackedPaymentsLayout pins the payments member to its reference
// layout, extreme clients and hostile payments included: right after
// the envelope's seq, the base64 of each winner's client as a varint
// and payment as float bits. An outcome without winners has no member.
// Replay reads the member alone: with the body's winners removed from
// the record, it still folds the member's pairs.
func TestPackedPaymentsLayout(t *testing.T) {
	winners := []WinnerRecord{{Client: math.MaxInt, Payment: math.SmallestNonzeroFloat64}, {Client: math.MinInt, Payment: math.Copysign(0, -1)}}
	for i, f := range hostileFloats {
		winners = append(winners, WinnerRecord{Client: i - 3, Slots: []int{i}, Payment: f})
	}
	rec := OutcomeRecord{Seq: 12, Feasible: true, Tg: 3, Cost: 2, Winners: winners, Total: 1}
	got, err := appendOutcomeRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	prefix := `{"type":"outcome","seq":12,"payments":"` + packPairs(winners) + `","outcome":{"seq":12,`
	if !bytes.HasPrefix(got, []byte(prefix)) {
		t.Fatalf("outcome record %s, want it to start %s", got, prefix)
	}
	read, err := replayRead(got)
	if err != nil {
		t.Fatal(err)
	}
	samePayments(t, "replay read", read.Winners, winners)

	body := bytes.Index(got, []byte(`"winners":[`))
	stripped := append(append([]byte(nil), got[:body]...), `"x":1}}`...)
	if read, err = replayRead(stripped); err != nil {
		t.Fatalf("replay read of %s: %v", stripped, err)
	}
	samePayments(t, "replay read without the body's winners", read.Winners, winners)

	none, err := appendOutcomeRecord(nil, &OutcomeRecord{Seq: 13})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"type":"outcome","seq":13,"outcome":{"seq":13,"feasible":false}}`; string(none) != want {
		t.Fatalf("outcome without winners %s, want %s", none, want)
	}
	if read, err = replayRead(none); err != nil || read.Seq != 13 || read.Winners != nil {
		t.Fatalf("replay read of %s = %+v, %v", none, read, err)
	}
}

// FuzzPackedPayments holds the payments member to its contract. For an
// outcome record built from arbitrary winners, the record encodes
// exactly when every payment is finite, and then the replay read
// returns each winner's client and payment bit for bit from the member,
// and decodePayments, which is how a binary from before the member reads
// the record, returns the same from the body. An arbitrary string in
// the member (escaped as JSON) is accepted by the replay read exactly
// when the encoding/binary oracle calls it canonical; an accepted string
// yields the oracle's pairs and re-encodes to itself.
func FuzzPackedPayments(f *testing.F) {
	seed := func(winners []WinnerRecord) {
		f.Add(winnerBytes(winners), packPairs(winners))
	}
	for _, rec := range differentialOutcomes() {
		seed(rec.Winners)
	}
	for _, rec := range hostileOutcomes() {
		seed(rec.Winners)
	}
	for i, p := range hostileFloats {
		seed([]WinnerRecord{{Client: i, Payment: p}})
	}
	seed([]WinnerRecord{{Client: 1, Payment: math.NaN()}, {Client: 2, Payment: math.Inf(1)}})
	// Damaged strings: truncated, padded, broken by a line break or a
	// changed character, padded after non-zero trailing bits (a 10-byte
	// pair ends in one byte and two pad characters); a pair cut short,
	// with an overlong zero varint (0x80 0x00), a varint past 64 bits or
	// a non-finite payment.
	one := packPairs([]WinnerRecord{{Client: 300, Payment: 2.5}, {Client: -7, Payment: 1e21}})
	pair, _ := base64.StdEncoding.DecodeString(packPairs([]WinnerRecord{{Client: 1, Payment: 0.5}}))
	padded := packPairs([]WinnerRecord{{Client: 100, Payment: 1}})
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	last := strings.IndexByte(alphabet, padded[len(padded)-3])
	for _, member := range []string{
		one[:len(one)-4], one + "AAAA", one[:8] + "\n" + one[8:], one[:8] + "\r\n" + one[8:], one[:9] + "A" + one[10:],
		one + "==", "====", "AAAA", `AA\"AA`, `AAAA"`,
		padded, padded[:len(padded)-3] + alphabet[last+1:last+2] + "==",
		base64.StdEncoding.EncodeToString(pair[:len(pair)-1]),
		base64.StdEncoding.EncodeToString(append([]byte{0x80, 0x00}, pair[1:]...)),
		base64.StdEncoding.EncodeToString(append(bytes.Repeat([]byte{0xff}, 10), pair...)),
		base64.StdEncoding.EncodeToString(binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(math.Inf(-1)))),
	} {
		f.Add([]byte(nil), member)
	}
	for _, member := range hostileStrings {
		f.Add([]byte(nil), member)
	}
	f.Fuzz(func(t *testing.T, raw []byte, member string) {
		winners := winnersFromBytes(raw)
		finite := true
		for _, w := range winners {
			finite = finite && !math.IsInf(w.Payment, 0) && !math.IsNaN(w.Payment)
		}
		rec := OutcomeRecord{Seq: 5, Feasible: len(winners) > 0, Tg: 2, Winners: winners}
		payload, err := appendOutcomeRecord(nil, &rec)
		switch {
		case !finite && err == nil:
			t.Fatalf("a non-finite payment encoded: %s", payload)
		case finite && err != nil:
			t.Fatalf("finite payments failed to encode: %v", err)
		case finite:
			_, seq, end, err := peekEnvelope(payload)
			if err != nil {
				t.Fatal(err)
			}
			if member := bytes.HasPrefix(payload[end:], []byte(paymentsKey+`"`)); member != (len(winners) > 0) {
				t.Fatalf("record %s has a payments member after seq: %v; want %v", payload, member, len(winners) > 0)
			}
			var scratch []byte
			got, err := replayPayments(payload, seq, end, &scratch)
			if err != nil {
				t.Fatalf("replay read of %s: %v", payload, err)
			}
			samePayments(t, "replay read", got.Winners, winners)
			old, err := decodePayments(payload)
			if err != nil || old == nil || old.Seq != 5 {
				t.Fatalf("decodePayments(%s) = %v, %v", payload, old, err)
			}
			samePayments(t, "decodePayments", old.Winners, winners)
		}

		want, ok := paymentsVerdict(member)
		record := []byte(`{"type":"outcome","seq":1` + paymentsKey)
		record = appendJSONString(record, member)
		record = append(record, `,"outcome":{"seq":1,"feasible":false}}`...)
		got, err := replayRead(record)
		if (err == nil) != ok {
			t.Fatalf("payments member %q: replay read error %v, want accepted %v", member, err, ok)
		}
		if !ok {
			return
		}
		samePayments(t, "replay read", got.Winners, want)
		if again, err := appendRows(nil, paymentRow, got.Winners, paymentWords); err != nil || string(again) != `"`+member+`"` {
			t.Fatalf("payments member %q re-encodes to %s (%v)", member, again, err)
		}
	})
}

// TestPaymentsUpgrade reopens a log whose tail holds outcome records
// without a payments member and keeps writing it with the member, then
// kills the market mid-tail. The checkpoint fixture's tail holds seq 6's
// outcome record from before the member; reopened, the market re-solves
// seqs 7–9 and commits them with the member, four more instances are
// logged as seqs 10–13, and the market is killed right after seq 11
// commits. The next recovery folds seqs 6–11 from the tail, from both
// kinds of outcome record, re-queues seqs 12 and 13, and drains to the
// state of a copy of the fixture run through the same submissions
// without a kill.
func TestPaymentsUpgrade(t *testing.T) {
	ctx := context.Background()
	extra := marketInstances(t, 14)[10:]
	drain := func(m *Market, upTo int) []byte {
		t.Helper()
		for seq := 2; seq < upTo; seq++ {
			if _, err := m.Wait(ctx, seq); err != nil {
				t.Fatalf("Wait(%d): %v", seq, err)
			}
		}
		return m.Snapshot()
	}

	ref, err := Open(ctx, Config{Dir: copyFixture(t, "checkpoint_market"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	drain(ref, 10)
	if _, err := ref.SubmitBatch(ctx, "c", extra); err != nil {
		t.Fatal(err)
	}
	want := drain(ref, 14)
	ref.Close()

	dir := copyFixture(t, "checkpoint_market")
	m1, err := Open(ctx, Config{
		Dir: dir, Workers: 1,
		Crash: func(p string, seq int) bool { return p == CrashPostCommit && seq == 11 },
	})
	if err != nil {
		t.Fatal(err)
	}
	drain(m1, 10)
	// The kill may race the batch's enqueue, which then errs; all four
	// bid records are durably logged either way.
	if seqs, err := m1.SubmitBatch(ctx, "c", extra); fmt.Sprint(seqs) != "[10 11 12 13]" {
		t.Fatalf("SubmitBatch = %v, %v; want seqs 10–13", seqs, err)
	}
	<-m1.Dead()
	m1.Close()

	var tail []byte
	segs, err := filepath.Glob(filepath.Join(dir, "market-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		tail = append(tail, readFile(t, seg)...)
	}
	legacy := bytes.Count(tail, []byte(`{"type":"outcome","seq":6,"outcome":`))
	var packed []int
	for seq := 6; seq < 14; seq++ {
		if bytes.Contains(tail, []byte(fmt.Sprintf(`{"type":"outcome","seq":%d%s"`, seq, paymentsKey))) {
			packed = append(packed, seq)
		}
	}
	t.Logf("outcome records with a payments member: seqs %v", packed)
	if legacy != 1 || len(packed) == 0 {
		t.Fatalf("tail holds %d outcome records of seq 6 without a payments member and members for seqs %v; want 1 and some of 7–11", legacy, packed)
	}

	var recovered []obs.Event
	m2, err := Open(ctx, Config{Dir: dir, Workers: 1, Observer: obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.EvMarketRecovered {
			recovered = append(recovered, e)
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// Retained at recovery: seqs 2–11, all folded. Re-queued: 12 and 13.
	if len(recovered) != 1 || recovered[0].Value != 10 || recovered[0].Round != 2 || !recovered[0].OK {
		t.Fatalf("market_recovered events %+v, want one with Value 10, Round 2 and no fault", recovered)
	}
	if got := drain(m2, 14); !bytes.Equal(got, want) {
		t.Fatalf("recovery over outcome records with and without payments diverged:\n got %s\nwant %s", got, want)
	}
}
