package exp

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// The scorecard is the repository's executable definition of "the
// reproduction holds": every check must pass at the test scale.
func TestScorecardAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("scorecard skipped in -short mode")
	}
	checkAllPass(t, Config{Scale: Small, Seed: 424242, Trials: 3})
}

// Trials 0 gives each claim its own trial count, the configuration
// cmd/experiments -verify runs.
func TestScorecardAllPassDefaultTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("scorecard skipped in -short mode")
	}
	checkAllPass(t, Config{Scale: Small, Seed: 424242})
}

func checkAllPass(t *testing.T, cfg Config) {
	t.Helper()
	checks := Scorecard(cfg)
	if len(checks) < 10 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if c.ID == "" || c.Claim == "" || c.Detail == "" {
			t.Fatalf("malformed check %+v", c)
		}
		if !c.Pass {
			t.Errorf("%s FAILED: %s — %s", c.ID, c.Claim, c.Detail)
		}
	}
}

func TestScorecardDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	cfg := Config{Scale: Small, Seed: 99, Trials: 2}
	a := Scorecard(cfg)
	b := Scorecard(cfg)
	if len(a) != len(b) {
		t.Fatal("scorecard length varies")
	}
	for i := range a {
		if a[i].Pass != b[i].Pass || a[i].Detail != b[i].Detail {
			t.Fatalf("check %s not deterministic:\n%s\n%s", a[i].ID, a[i].Detail, b[i].Detail)
		}
	}
}

// scorecardFingerprint pins the FNV-64a hash of every check's ID, pass
// flag and Detail of Scorecard(Config{Scale: Small, Seed: 2006}), the
// configuration CI's `cmd/experiments -verify -seed 2006` prints. Update
// it only for an intentional change to a check or its randomness.
const scorecardFingerprint uint64 = 0xba0c8d078c0ac903

func TestScorecardFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("scorecard skipped in -short mode")
	}
	h := fnv.New64a()
	for _, c := range Scorecard(Config{Scale: Small, Seed: 2006}) {
		fmt.Fprintf(h, "%s\x00%t\x00%s\x00", c.ID, c.Pass, c.Detail)
	}
	if got := h.Sum64(); got != scorecardFingerprint {
		t.Errorf("scorecard fingerprint = %#016x, want %#016x (the -verify output drifted)", got, scorecardFingerprint)
	}
}
