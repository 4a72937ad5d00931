package main

import (
	"bytes"
	"context"
	"testing"

	"github.com/fedauction/afl"
)

// FuzzBidJSON feeds arbitrary bytes through the CLI's input path: JSON
// decoding followed by bid validation. Neither stage may panic, and any
// population that survives both must run through the auction without
// panicking — the same guarantee the binary gives untrusted bid files.
func FuzzBidJSON(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"client":0,"price":2,"theta":0.5,"start":1,"end":2,"rounds":1}]`))
	f.Add([]byte(`[{"client":0,"price":2,"theta":0.5,"start":2,"end":1,"rounds":0}]`))
	f.Add([]byte(`[{"theta":1e308,"start":-5,"end":9999999,"rounds":-1}]`))
	f.Add([]byte(`{"not":"an array"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		bids, err := afl.ReadBidsJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		const maxT, k = 16, 2
		if err := afl.ValidateBids(bids, maxT, k); err != nil {
			return
		}
		res, err := afl.Run(context.Background(), bids, afl.Config{T: maxT, K: k})
		if err != nil {
			return
		}
		if err := afl.CheckSolution(bids, res, afl.Config{T: maxT, K: k}); err != nil {
			t.Fatalf("decoded bids produced an invalid solution: %v", err)
		}
	})
}
