// Package core implements the A_FL procurement auction of
//
//	Zhou, Pang, Wang, Lui, Li. "A Truthful Procurement Auction for
//	Incentivizing Heterogeneous Clients in Federated Learning." ICDCS 2021.
//
// The auction is a reverse auction: a cloud server (the buyer) procures
// participation in a federated-learning job from mobile clients (the
// sellers). Each client submits up to J bids; a bid names a claimed cost, a
// local accuracy θ, an availability window of global iterations, and a
// number of participation rounds. The server must jointly decide
//
//   - T_g, the number of global iterations (coupled to the maximum local
//     accuracy among winners via T_g ≥ 1/(1−θ_max), Eq. (1) of the paper),
//   - which bids win (at most one per client, ILP (6)),
//   - how to schedule each winner's rounds so every global iteration has at
//     least K participants, and
//   - truthful critical-value payments.
//
// The entry point is Run (Algorithm 1, A_FL). It enumerates T̂_g,
// filters the qualified bid set for each candidate value, and solves the
// resulting winner-determination problem with SolveWDP (Algorithm 2,
// A_winner), which also produces the dual variables (g(t), λ, ω, H_{T̂_g})
// that certify the approximation ratio of Lemma 5 and serve as a lower
// bound on the WDP optimum. Payments follow the critical-value rule of
// Algorithm 3 (A_payment).
package core
