package marketd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// submitBodyCorpus seeds FuzzSubmitBody. Each body is decoded into both
// request types, so one body exercises both top-level decoders.
var submitBodyCorpus = []string{
	// Well-formed bodies: core.Bid's own field names, the lower-case
	// names the CLI's bid files use, and a batch.
	`{"client":"alice","bids":[{"Client":0,"Index":0,"Price":2.5,"TrueCost":0,"Theta":0.5,"Start":1,"End":4,"Rounds":2,"CompTime":0.1,"CommTime":0.2}],"cfg":{"t":4,"k":1}}`,
	`{"client":"a","bids":[{"client":1,"price":5,"theta":0.5,"start":1,"end":3,"rounds":2}],"cfg":{"t":3,"k":1,"t_max":9.5,"payment_rule":1,"reserve_price":2,"schedule_rule":1,"exclude_own_bids":true}}`,
	`{"client":"b","instances":[{"bids":[{"Price":1,"Client":2}],"cfg":{"t":4,"k":1}},{"bids":[{"Price":3}],"cfg":{"k":2}}]}`,

	// Whitespace, key order, unknown keys with nested values.
	" \n\t{ \"client\" : \"a\" ,\r\n \"bids\" : [ { \"Price\" : 1 , \"Theta\":0.25 } ] , \"cfg\" : { \"k\" : 1 , \"t\" : 4 } }\r\n",
	`{"cfg":{"k":1,"t":4},"bids":[{"Theta":0.5,"Price":1,"Client":2}],"client":"x"}`,
	`{"x":{"y":[1,{"z":null}],"w":"s","v":[true,false,-1.5e3]},"client":"a","bids":[{"Extra":[[],{}],"Price":1}],"cfg":{"zz":{"t":99},"t":4}}`,
	`{"instances":[{"x":[1,2],"bids":[{"Price":1}]}],"extra":{"instances":[]}}`,

	// Keys that differ in case or use escapes, including the Kelvin sign
	// (U+212A, folds to k) and the long s (U+017F, folds to s).
	`{"CLIENT":"a","BIDS":[{"price":1,"cLiEnT":3,"COMPTIME":2}],"Cfg":{"T":4,"K":1}}`,
	`{"\u0063lient":"a","bids":[{"\u0050rice":1,"\u0054heta":0.5}],"\u0063fg":{"\u0074":4}}`,
	`{"cfg":{"\u212a":2,"t":4}}`,
	"{\"cfg\":{\"\u212a\":2,\"T\":4},\"bids\":[{\"\u017ftart\":3,\"End\":4}]}",
	`{"INSTANCES":[{"BIDS":[{"price":1}],"CFG":{"K":3}}],"Client":"c"}`,
	`{"client\u0000":"a","cl\u0069ent":"b"}`,

	// null for every field and for the whole body; [] vs null bids.
	`{"client":null,"bids":null,"cfg":null}`,
	`{"bids":[null,{"Price":1},null]}`,
	`{"bids":[{"Price":null,"Client":null,"Theta":null,"Start":null}],"cfg":{"t":null,"exclude_own_bids":null,"t_max":null}}`,
	`null`,
	` null `,
	`{"bids":[]}`,
	`{"bids":null}`,
	`{"instances":null}`,
	`{"instances":[null,{"bids":null,"cfg":null}]}`,
	`{"instances":[]}`,

	// Repeated keys: objects merge, arrays decode in place and truncate.
	`{"client":"a","client":"b"}`,
	`{"cfg":{"t":4},"cfg":{"k":2}}`,
	`{"bids":[{"Price":1,"Client":1},{"Price":2}],"bids":[{"Theta":0.5}]}`,
	`{"bids":[{"Price":1},{"Price":2},{"Price":3}],"bids":[{"Client":9}],"bids":[{"Index":1},{"Index":2},{"Index":3},{"Index":4},{"Index":5}]}`,
	`{"bids":[{"Price":1}],"bids":[]}`,
	`{"bids":[{"Price":1}],"bids":[],"bids":[{"Client":4}]}`,
	`{"bids":[{"Price":1}],"bids":null,"bids":[{}]}`,
	`{"bids":[{"Price":1,"Price":2}]}`,
	`{"instances":[{"bids":[{"Price":1},{"Price":2}]},{"bids":[{"Price":7}]}],"instances":[{"bids":[{"Client":3}]}],"instances":[{},{}]}`,

	// Ints written as floats, exponents or -0, and out of range; floats
	// out of range and subnormal.
	`{"bids":[{"Client":1.0}]}`,
	`{"bids":[{"Client":1e2}]}`,
	`{"bids":[{"Client":-0}]}`,
	`{"bids":[{"Client":9223372036854775807,"Index":-9223372036854775808}]}`,
	`{"bids":[{"Client":9223372036854775808}]}`,
	`{"bids":[{"Index":-9223372036854775809}]}`,
	`{"bids":[{"Start":123456789012345678901234567890}]}`,
	`{"bids":[{"Start":123456789012345678}]}`,
	`{"bids":[{"Price":1e400}]}`,
	`{"bids":[{"Price":-1e400}]}`,
	`{"bids":[{"Price":5e-324,"Theta":1e-400,"CommTime":2.2250738585072011e-308}]}`,
	`{"bids":[{"Price":-0,"Theta":-0.0,"TrueCost":0.1e1,"CompTime":1E+2,"CommTime":12345678901234567890123}]}`,
	`{"cfg":{"t_max":1e308,"reserve_price":1.7976931348623159e308}}`,

	// Invalid number grammar.
	`{"bids":[{"Price":01}]}`,
	`{"bids":[{"Price":+1}]}`,
	`{"bids":[{"Price":.5}]}`,
	`{"bids":[{"Price":1.}]}`,
	`{"bids":[{"Price":NaN}]}`,
	`{"bids":[{"Price":-}]}`,
	`{"bids":[{"Price":1e}]}`,
	`{"bids":[{"Price":1e+}]}`,
	`{"bids":[{"Price":Infinity}]}`,
	`{"bids":[{"Price":0x10}]}`,
	`{"x":01}`,
	`{"x":-01}`,

	// Strings: invalid UTF-8, lone and paired surrogates, raw control
	// characters, every escape, and invalid escapes, in keys and values.
	"{\"client\":\"a\xffb\xc0\"}",
	"{\"client\":\"\xed\xa0\x80\"}",
	`{"client":"\ud800"}`,
	`{"client":"\udc00x"}`,
	`{"client":"\ud800\u0041"}`,
	`{"client":"\ud83d\ude00 \uD83D\uDE00"}`,
	`{"client":"\ud800\ud800\udc00"}`,
	`{"client":"\/\b\f\n\r\t\"\\ \u00e9\u2028"}`,
	"{\"client\":\"a\x01b\"}",
	"{\"client\":\"a\tb\"}",
	`{"client":"\x"}`,
	`{"client":"\'"}`,
	`{"client":"\u12"}`,
	`{"client":"\u12G4"}`,
	"{\"x\":\"\xff\",\"cli\xffent\":\"a\"}",
	`{"x\ud800":1,"client":"\u0000"}`,

	// Type errors.
	`{"client":1}`,
	`{"client":true}`,
	`{"bids":{}}`,
	`{"bids":"x"}`,
	`{"bids":[1]}`,
	`{"bids":[[]]}`,
	`{"bids":[{"Price":"1"}]}`,
	`{"bids":[{"Client":true}]}`,
	`{"cfg":[]}`,
	`{"cfg":{"exclude_own_bids":1}}`,
	`{"cfg":{"exclude_own_bids":"true"}}`,
	`{"cfg":{"t":false}}`,
	`{"instances":{}}`,
	`{"instances":[1]}`,
	`[]`,
	`"x"`,
	`1`,
	`true`,

	// Syntax errors.
	`{"client":"a",}`,
	`{"client" "a"}`,
	`{,}`,
	`{"a":1 "b":2}`,
	`{"bids":[{"Price":1},]}`,
	`{"bids":[,]}`,
	`{"client":"a"`,
	`{"client":"a`,
	`{"bids":[{"Price":1}`,
	`{"client":tru}`,
	`{"client":nul}`,
	`{1:2}`,
	`{"client":"a"]`,
	`{"x":[1}`,
	"\xef\xbb\xbf{}",

	// Trailing bytes after the first value are left unread.
	`{"client":"a"} garbage`,
	`{"client":"a"}{`,
	`{"client":"a"}]`,
	`null x`,
	`nullx`,
	`{}`,

	// Empty and blank bodies.
	``,
	"   \n",

	// Nesting at encoding/json's limit and one level past it.
	deepNesting(maxNesting - 1),
	deepNesting(maxNesting),
}

// deepNesting wraps n arrays in an unknown member of an object, so the
// body nests n+1 levels deep.
func deepNesting(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"client":"deep"}`
}

// checkSubmitBody decodes body with json.Decoder and with the reader,
// into both request types, and requires the same verdict and, on
// accept, %#v-identical values.
func checkSubmitBody(t *testing.T, body []byte) {
	t.Helper()
	var want, got SubmitRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	gotErr := decodeSubmitRequest(body, &got)
	compareDecodes(t, "SubmitRequest", body, wantErr, gotErr, want, got)

	var wantB, gotB BatchSubmitRequest
	wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&wantB)
	gotErr = decodeBatchSubmitRequest(body, &gotB)
	compareDecodes(t, "BatchSubmitRequest", body, wantErr, gotErr, wantB, gotB)
}

func compareDecodes(t *testing.T, what string, body []byte, wantErr, gotErr error, want, got any) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s verdicts differ on %q:\n encoding/json: %v\n reader: %v", what, body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if w, g := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", got); w != g {
		t.Fatalf("%s values differ on %q:\n encoding/json: %s\n reader: %s", what, body, w, g)
	}
}

// TestSubmitBodyCorpus runs the differential check over FuzzSubmitBody's
// seed corpus deterministically and requires the corpus to exercise both
// verdicts and both sides of the nesting limit.
func TestSubmitBodyCorpus(t *testing.T) {
	accepted := 0
	for _, body := range submitBodyCorpus {
		checkSubmitBody(t, []byte(body))
		var req SubmitRequest
		if decodeSubmitRequest([]byte(body), &req) == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(submitBodyCorpus) {
		t.Fatalf("corpus accepted %d of %d bodies; it must exercise both verdicts", accepted, len(submitBodyCorpus))
	}
	var req SubmitRequest
	if err := decodeSubmitRequest([]byte(deepNesting(maxNesting-1)), &req); err != nil {
		t.Fatalf("body nested %d deep rejected: %v", maxNesting, err)
	}
	if err := decodeSubmitRequest([]byte(deepNesting(maxNesting)), &req); err == nil {
		t.Fatalf("body nested %d deep accepted", maxNesting+1)
	}
}

// FuzzSubmitBody pins the submit handlers' body decoders to
// encoding/json: the same verdict on every input and, on accept, the
// same value.
func FuzzSubmitBody(f *testing.F) {
	for _, body := range submitBodyCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSubmitBody(t, body)
	})
}

// FuzzTailOutcomePayments pins the payments decoder recovery folds tail
// outcome records with to decodeRecord, the full decoder that serves
// them: whenever decodeRecord accepts a record, decodePayments accepts
// it too, returns a body exactly when decodeRecord does, and that body
// holds decodeRecord's seq and (client, payment) pairs, payments equal
// bit for bit, and nothing else.
func FuzzTailOutcomePayments(f *testing.F) {
	seed := func(rec OutcomeRecord) {
		payload, err := appendOutcomeRecord(nil, &rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, rec := range differentialOutcomes() {
		seed(rec)
	}
	for _, rec := range hostileOutcomes() {
		seed(rec)
	}
	every := OutcomeRecord{Seq: 7, Feasible: true, Tg: 3}
	for i, p := range hostileFloats {
		every.Winners = append(every.Winners, WinnerRecord{Client: i, Slots: []int{i}, Payment: p})
	}
	seed(every)
	for _, payload := range []string{
		`{"type":"outcome","seq":5,"outcome":null}`,
		`{"type":"outcome","seq":5,"outcome":{"seq":5,"winners":[{"client":1,"payment":2}]},"outcome":null}`,
		// Repeated and case-folded keys: bodies merge, and a repeated
		// winners array decodes element by element over the earlier one.
		`{"type":"outcome","seq":6,"OUTCOME":{"seq":6,"winners":[{"client":1,"payment":2.5},{"client":2,"payment":3}]},` +
			`"outcome":{"Winners":[{"PAYMENT":7}],"Seq":6},"Type":"outcome","SEQ":6}`,
		`{"type":"outcome","seq":8,"outcome":{"seq":8,"winners":[{"client":1,"payment":1},{"client":2,"payment":2},{"client":3,"payment":3}],` +
			`"winners":[{"payment":4}],"WINNERS":[{},{"Client":5},{}],"seq":9,"sEq":8}}`,
		`{"type":"outcome","seq":9,"outcome":{"seq":9,"winners":[{"client":1,"payment":1}],"winners":[],"winners":[{}]}}`,
		`{"type":"outcome","seq":10,"outcome":{"seq":10,"winners":[{"client":1,"payment":1,"client":2,"Payment":-0}],"winners":null}}`,
		"{\"type\":\"outcome\",\"seq\":11,\"outcome\":{\"\u0073eq\":11,\"winners\":[{\"\u0063lient\":4,\"payment\":1e-320}]}}",
		// Members the payments decoder skips, with values of the wrong type.
		`{"type":"outcome","seq":12,"outcome":{"seq":12,"cost":"x","winners":[{"client":1,"price":"p","slots":{},"payment":5}]}}`,
	} {
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		full, err := decodeRecord(payload)
		if err != nil {
			return
		}
		got, err := decodePayments(payload)
		if err != nil {
			t.Fatalf("decodePayments rejects %q, which decodeRecord accepts: %v", payload, err)
		}
		want := full.Outcome
		if (got == nil) != (want == nil) {
			t.Fatalf("decodePayments body %v, decodeRecord body %v on %q", got, want, payload)
		}
		if got == nil {
			return
		}
		if got.Seq != want.Seq || len(got.Winners) != len(want.Winners) {
			t.Fatalf("decodePayments seq %d with %d winners, decodeRecord seq %d with %d on %q",
				got.Seq, len(got.Winners), want.Seq, len(want.Winners), payload)
		}
		for i, w := range want.Winners {
			g := got.Winners[i]
			if g.Client != w.Client || math.Float64bits(g.Payment) != math.Float64bits(w.Payment) {
				t.Fatalf("winner %d: decodePayments (%d, %v), decodeRecord (%d, %v) on %q",
					i, g.Client, g.Payment, w.Client, w.Payment, payload)
			}
		}
		bare := OutcomeRecord{Seq: want.Seq}
		if want.Winners != nil {
			bare.Winners = make([]WinnerRecord, len(want.Winners))
			for i, w := range want.Winners {
				bare.Winners[i] = WinnerRecord{Client: w.Client, Payment: w.Payment}
			}
		}
		if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", bare); g != w {
			t.Fatalf("decodePayments filled more than the seq and the payments:\n got %s\nwant %s", g, w)
		}
	})
}
