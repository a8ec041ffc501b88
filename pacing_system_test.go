package eternal_test

import (
	"testing"
	"time"

	"eternal"
	"eternal/internal/totem"
)

// pacedSystem builds a system with explicit totem pacing knobs — larger
// ticks than fastSystem so pacing windows and wake-up latencies are
// measurable against scheduler noise.
func pacedSystem(t *testing.T, tick, audit time.Duration, nodes ...string) *eternal.System {
	t.Helper()
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Totem: totem.Config{
			TokenLossTimeout: 100 * tick,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        20 * time.Millisecond,
			Tick:             tick,
		},
		ManagerTick:    10 * time.Millisecond,
		AuditInterval:  audit,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	sys.RegisterFactory("Register", newRegister)
	return sys
}

// TestAuditKeepsIdleRingPaced proves the background-traffic invariant at
// the system level: with the consistency audit running every 50ms on an
// otherwise idle domain, audit epochs keep advancing on every node while
// the token stays paced — the marks ride the paced token instead of
// resetting its idle counter.
func TestAuditKeepsIdleRingPaced(t *testing.T) {
	const auditInterval = 50 * time.Millisecond
	sys := pacedSystem(t, time.Millisecond, auditInterval, "n1", "n2")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1}, "n1", "n1", "n2")
	setVal(t, obj, "seed")

	// Let the post-write grace expire and pacing engage.
	time.Sleep(100 * time.Millisecond)

	n1 := sys.Node("n1")
	holds := n1.Metrics().FindHistogram("eternal_totem_token_hold_seconds")
	if holds == nil {
		t.Fatal("totem token metrics not registered")
	}
	s1, ok := n1.AuditSummary()
	if !ok {
		t.Fatal("audit disabled on n1")
	}
	visits1 := holds.Count()
	time.Sleep(500 * time.Millisecond)
	visits2 := holds.Count()
	s2, _ := n1.AuditSummary()

	// ~10 audit epochs passed. The audit must have progressed...
	if s2.LastEpoch <= s1.LastEpoch || s2.Observations <= s1.Observations {
		t.Fatalf("audit stalled while idle: %+v -> %+v", s1, s2)
	}
	if s2.Diverged || s2.Divergences+s2.Lags > 0 {
		t.Fatalf("audit alarms on an idle ring: %+v", s2)
	}
	// ...and the ring must have stayed paced: a 2-member paced rotation
	// costs >= 2 ticks (2ms), so 500ms fits ~250 visits plus slack for
	// the post-epoch activity bursts. An un-paced ring would log tens of
	// thousands.
	if visits := visits2 - visits1; visits > 3000 {
		t.Fatalf("token visited n1 %d times in 500ms: audit traffic keeps the ring spinning", visits)
	}
	var sawPaced bool
	for _, r := range n1.TokenRotations(0) {
		if r.Paced && r.PaceTicks > 0 {
			sawPaced = true
			break
		}
	}
	if !sawPaced {
		t.Fatal("no paced token visits while idle under audit traffic")
	}
}

// TestFirstInvocationAfterIdleLatency is the regression guard for the
// idle-wakeup cliff: after the ring has gone fully idle (deep pacing at
// a 20ms tick), the next invocation must not wait out the pacing backoff
// — the hurry nudge keeps it orders of magnitude below the worst-case
// parked rotation.
func TestFirstInvocationAfterIdleLatency(t *testing.T) {
	const tick = 20 * time.Millisecond
	sys := pacedSystem(t, tick, -1, "n1", "n2")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1}, "n2", "n1", "n2")
	setVal(t, obj, "warm")
	// Deep idle: several fully paced rotations at up to
	// maxPaceTicks×tick = 80ms per hop.
	time.Sleep(600 * time.Millisecond)

	start := time.Now()
	setVal(t, obj, "wake")
	elapsed := time.Since(start)
	// A single fully paced 2-member rotation is up to 320ms; an
	// invocation needs request and reply rounds, so an un-nudged
	// stack pays most of a rotation. 150ms proves the wake path
	// short-circuited pacing with a wide scheduler margin.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("first invocation after idle took %v", elapsed)
	}
}
