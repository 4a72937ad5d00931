package main

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/fedauction/afl"
)

func TestAuctionOutputJSON(t *testing.T) {
	p := afl.DefaultWorkloadParams()
	p.Clients = 60
	p.T = 10
	p.K = 3
	bids, err := afl.GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := afl.Run(context.Background(), bids, p.Config())
	if err != nil {
		t.Fatalf("auction failed: %v", err)
	}
	out := auctionOutput(res)
	if !out.Feasible || out.Tg != res.Tg || out.Cost != res.Cost {
		t.Fatalf("output mismatch: %+v vs %+v", out, res)
	}
	if len(out.Winners) != len(res.Winners) {
		t.Fatalf("winners %d vs %d", len(out.Winners), len(res.Winners))
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var round output
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Cost != out.Cost || len(round.Winners) != len(out.Winners) {
		t.Fatal("JSON round trip lost data")
	}
}

func TestBidJSONRoundTrip(t *testing.T) {
	// The documented -input format is a plain JSON array of afl.Bid.
	in := []afl.Bid{{
		Client: 0, Price: 12.5, Theta: 0.5, Start: 1, End: 6,
		Rounds: 2, CompTime: 5, CommTime: 10,
	}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var got []afl.Bid
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != in[0] {
		t.Fatalf("round trip: %+v", got)
	}
}
