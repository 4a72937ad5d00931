package workload

import (
	"context"
	"testing"

	"github.com/fedauction/afl/internal/core"
)

func TestGenerateDefaults(t *testing.T) {
	p := NewDefaultParams()
	p.Clients = 50 // keep the test fast
	bids, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(bids) != p.Clients*p.BidsPerUser {
		t.Fatalf("got %d bids, want %d", len(bids), p.Clients*p.BidsPerUser)
	}
	if err := core.ValidateBids(bids, p.T, p.K); err != nil {
		t.Fatalf("generated bids invalid: %v", err)
	}
	perClient := map[int][]core.Bid{}
	for _, b := range bids {
		perClient[b.Client] = append(perClient[b.Client], b)
		if b.Theta < p.ThetaLo || b.Theta > p.ThetaHi {
			t.Fatalf("θ=%v outside [%v,%v]", b.Theta, p.ThetaLo, p.ThetaHi)
		}
		if b.Price < p.CostLo || b.Price > p.CostHi {
			t.Fatalf("price %v outside [%v,%v]", b.Price, p.CostLo, p.CostHi)
		}
		if b.CompTime < p.CompLo || b.CompTime >= p.CompHi {
			t.Fatalf("t_cmp %v outside range", b.CompTime)
		}
		if b.CommTime < p.CommLo || b.CommTime >= p.CommHi {
			t.Fatalf("t_com %v outside range", b.CommTime)
		}
		if b.TrueCost != b.Price {
			t.Fatal("generated bids must be truthful")
		}
		if b.Rounds < 1 || b.Rounds > b.End-b.Start {
			t.Fatalf("rounds %d outside [1, %d]", b.Rounds, b.End-b.Start)
		}
	}
	for c, cb := range perClient {
		if len(cb) != p.BidsPerUser {
			t.Fatalf("client %d has %d bids", c, len(cb))
		}
		// Windows are disjoint and ordered; per-client timing is shared.
		for j := 1; j < len(cb); j++ {
			if cb[j].Start <= cb[j-1].End {
				t.Fatalf("client %d windows overlap: %v then %v", c, cb[j-1], cb[j])
			}
			if cb[j].CompTime != cb[0].CompTime || cb[j].CommTime != cb[0].CommTime {
				t.Fatalf("client %d has inconsistent timing across bids", c)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	p := NewDefaultParams()
	p.Clients = 20
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bid %d differs between equal-seed runs", i)
		}
	}
	p.Seed = 2
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestGenerateResourceCosts(t *testing.T) {
	p := NewDefaultParams()
	p.Clients = 100
	p.CostModel = CostResource
	bids, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Resource costs must grow with rounds on average: compare mean cost
	// per round of 1-round vs ≥5-round bids.
	var lowSum, lowN, highSum, highN float64
	for _, b := range bids {
		if b.Rounds == 1 {
			lowSum += b.Price
			lowN++
		}
		if b.Rounds >= 5 {
			highSum += b.Price
			highN++
		}
	}
	if lowN == 0 || highN == 0 {
		t.Skip("degenerate population")
	}
	if highSum/highN <= lowSum/lowN {
		t.Fatalf("resource cost not increasing in rounds: %v vs %v", highSum/highN, lowSum/lowN)
	}
	if err := core.ValidateBids(bids, p.T, p.K); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.Clients = 0 },
		func(p *Params) { p.BidsPerUser = 0 },
		func(p *Params) { p.T = 1 },
		func(p *Params) { p.BidsPerUser = p.T }, // 2J > T
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.ThetaLo = 0 },
		func(p *Params) { p.ThetaHi = 1 },
		func(p *Params) { p.ThetaLo, p.ThetaHi = 0.8, 0.3 },
		func(p *Params) { p.CostLo = 0 },
		func(p *Params) { p.CostLo, p.CostHi = 50, 10 },
		func(p *Params) { p.CompLo, p.CompHi = 10, 5 },
		func(p *Params) { p.CommLo, p.CommHi = 15, 10 },
	}
	for i, mutate := range mutations {
		p := NewDefaultParams()
		mutate(&p)
		if _, err := Generate(p); err == nil {
			t.Fatalf("mutation %d: expected validation error", i)
		}
	}
}

func TestCostModelString(t *testing.T) {
	if CostUniform.String() != "uniform" || CostResource.String() != "resource" || CostModel(9).String() != "unknown" {
		t.Fatal("cost model names wrong")
	}
}

func TestGeneratedAuctionRunsEndToEnd(t *testing.T) {
	p := NewDefaultParams()
	p.Clients = 120
	p.T = 20
	p.K = 5
	bids, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), bids, p.Config(), core.RunOptions{})
	if err != nil {
		t.Fatalf("default-style population should be feasible: %v", err)
	}
	if err := core.CheckSolution(bids, res, p.Config()); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDiurnal(t *testing.T) {
	base := NewDefaultParams()
	base.Clients = 300
	diurnal := base
	diurnal.DiurnalPeak = 6

	uniformBids, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	diurnalBids, err := Generate(diurnal)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateBids(diurnalBids, diurnal.T, diurnal.K); err != nil {
		t.Fatal(err)
	}
	mid := func(bids []core.Bid) float64 {
		var sum float64
		for _, b := range bids {
			sum += float64(b.Start+b.End) / 2
		}
		return sum / float64(len(bids))
	}
	// The diurnal population's windows concentrate around ¾T, so their
	// mean midpoint must sit clearly later than the uniform population's.
	if mid(diurnalBids) < mid(uniformBids)+1 {
		t.Fatalf("diurnal midpoints %.2f not later than uniform %.2f",
			mid(diurnalBids), mid(uniformBids))
	}
}
