package obs

import (
	"fmt"
	"reflect"
	"testing"
)

func countKind(alarms []AuditAlarm, kind string) int {
	n := 0
	for _, a := range alarms {
		if a.Kind == kind {
			n++
		}
	}
	return n
}

func obsAt(group, node string, epoch uint64, digest uint32) AuditObservation {
	return AuditObservation{Group: group, Node: node, Epoch: epoch, Digest: digest}
}

func TestAuditDivergenceRaiseLatchClear(t *testing.T) {
	c := NewAuditCollector()
	c.BeginEpoch("g", 10, []string{"a", "b"})
	if got := c.Observe(obsAt("g", "a", 10, 1)); len(got) != 0 {
		t.Fatalf("single report alarmed: %+v", got)
	}
	got := c.Observe(obsAt("g", "b", 10, 2))
	if countKind(got, AuditDivergence) != 1 {
		t.Fatalf("mismatched digests raised %d divergence alarms, want 1: %+v", countKind(got, AuditDivergence), got)
	}
	if s := c.Summary(); !s.Diverged || s.Divergences != 1 {
		t.Fatalf("summary after divergence = %+v", s)
	}

	// The alarm latches: another diverged epoch stays silent.
	c.BeginEpoch("g", 20, []string{"a", "b"})
	c.Observe(obsAt("g", "a", 20, 3))
	if got := c.Observe(obsAt("g", "b", 20, 4)); len(got) != 0 {
		t.Fatalf("latched divergence re-alarmed: %+v", got)
	}

	// A complete, uniform epoch clears the episode silently...
	c.BeginEpoch("g", 30, []string{"a", "b"})
	c.Observe(obsAt("g", "a", 30, 5))
	if got := c.Observe(obsAt("g", "b", 30, 5)); len(got) != 0 {
		t.Fatalf("clean epoch alarmed: %+v", got)
	}
	if s := c.Summary(); s.Diverged {
		t.Fatal("divergence did not clear on a clean complete epoch")
	}

	// ...and a fresh divergence is a fresh episode.
	c.BeginEpoch("g", 40, []string{"a", "b"})
	c.Observe(obsAt("g", "a", 40, 6))
	got = c.Observe(obsAt("g", "b", 40, 7))
	if countKind(got, AuditDivergence) != 1 {
		t.Fatalf("new episode raised %d alarms, want 1", countKind(got, AuditDivergence))
	}
	if s := c.Summary(); s.Divergences != 2 {
		t.Fatalf("cumulative divergences = %d, want 2", s.Divergences)
	}
}

func TestAuditLagRaiseAndClear(t *testing.T) {
	c := NewAuditCollector() // alarm beyond 3 missed epochs
	var epoch uint64
	for i := 0; i < 4; i++ {
		epoch += 10
		if got := c.BeginEpoch("g", epoch, []string{"a", "b"}); len(got) != 0 {
			t.Fatalf("epoch %d alarmed early: %+v", epoch, got)
		}
		c.Observe(obsAt("g", "a", epoch, 1))
	}
	// b has now missed 4 completed epochs; the next mark pushes it over.
	got := c.BeginEpoch("g", epoch+10, []string{"a", "b"})
	if countKind(got, AuditLag) != 1 || got[0].Node != "b" {
		t.Fatalf("lag alarms = %+v, want one for b", got)
	}
	// Latched: the following mark stays silent.
	if got := c.BeginEpoch("g", epoch+20, []string{"a", "b"}); len(got) != 0 {
		t.Fatalf("latched lag re-alarmed: %+v", got)
	}
	s := c.Summary()
	if s.Lags != 1 || !s.Groups[0].Members[1].Lagging {
		t.Fatalf("summary after lag = %+v", s)
	}
	// b catches up on the missed epochs: the latch clears.
	for e := uint64(10); e <= epoch; e += 10 {
		c.Observe(obsAt("g", "b", e, 1))
	}
	if s := c.Summary(); s.Groups[0].Members[1].Lagging {
		t.Fatalf("lag did not clear after catch-up: %+v", s)
	}
}

// TestAuditStall: a member silent in four completed epochs raises lag at
// the fifth mark even when nobody else reports — a sole expected member,
// such as a passive primary whose get_state raises NoStateAvailable.
func TestAuditStall(t *testing.T) {
	c := NewAuditCollector()
	for epoch := uint64(10); epoch <= 40; epoch += 10 {
		if got := c.BeginEpoch("g", epoch, []string{"p"}); len(got) != 0 {
			t.Fatalf("epoch %d alarmed early: %+v", epoch, got)
		}
	}
	got := c.BeginEpoch("g", 50, []string{"p"})
	if countKind(got, AuditLag) != 1 || got[0].Node != "p" || got[0].Epoch != 50 {
		t.Fatalf("lag alarms at the fifth mark = %+v, want one for p", got)
	}
	// Latched until p reports enough of the missed epochs.
	if got := c.BeginEpoch("g", 60, []string{"p"}); len(got) != 0 {
		t.Fatalf("latched lag re-alarmed: %+v", got)
	}
	for epoch := uint64(30); epoch <= 60; epoch += 10 {
		c.Observe(obsAt("g", "p", epoch, 1))
	}
	if s := c.Summary(); s.Lags != 1 || s.Groups[0].Members[0].Lagging {
		t.Fatalf("summary after catch-up = %+v", s)
	}
}

// A member that reported later epochs is not lagging on an older one it
// missed — e.g. a replica that joined mid-stream.
func TestAuditStallSkipsLaterReporter(t *testing.T) {
	c := NewAuditCollector()
	c.BeginEpoch("g", 10, []string{"a", "b"})
	c.Observe(obsAt("g", "a", 10, 1))
	for epoch := uint64(20); epoch <= 80; epoch += 10 {
		if got := c.BeginEpoch("g", epoch, []string{"a", "b"}); len(got) != 0 {
			t.Fatalf("lagged a member that reported later epochs: %+v", got)
		}
		c.Observe(obsAt("g", "a", epoch, 1))
		c.Observe(obsAt("g", "b", epoch, 1))
	}
	if s := c.Summary(); s.Lags != 0 || s.Groups[0].Members[1].Lagging {
		t.Fatalf("summary = %+v, want b not lagging", s)
	}
}

// MemberRemoved cancels expectations: a killed replica's silence raises
// no lag.
func TestAuditMemberRemoved(t *testing.T) {
	c := NewAuditCollector()
	// b misses 3 epochs — at the threshold, not yet over it.
	for i := uint64(1); i <= 4; i++ {
		if got := c.BeginEpoch("g", i*10, []string{"a", "b"}); len(got) != 0 {
			t.Fatalf("epoch %d alarmed before removal: %+v", i*10, got)
		}
		c.Observe(obsAt("g", "a", i*10, 1))
	}
	c.MemberRemoved("g", "b")
	if got := c.BeginEpoch("g", 50, []string{"a"}); len(got) != 0 {
		t.Fatalf("removed member lagged: %+v", got)
	}
	if s := c.Summary(); s.Lags != 0 {
		t.Fatalf("alarms for a removed member: %+v", s)
	}
}

// A collector that never saw a mark (the node synchronized later) opens an
// implicit epoch from the first report: matching still applies.
func TestAuditImplicitEpoch(t *testing.T) {
	c := NewAuditCollector()
	if got := c.Observe(obsAt("g", "a", 100, 1)); len(got) != 0 {
		t.Fatalf("implicit epoch alarmed: %+v", got)
	}
	got := c.Observe(obsAt("g", "b", 100, 2))
	if countKind(got, AuditDivergence) != 1 {
		t.Fatalf("implicit epoch missed a divergence: %+v", got)
	}
	if s := c.Summary(); s.LastEpoch != 100 {
		t.Fatalf("last epoch = %d, want 100", s.LastEpoch)
	}
	// No expectations means no lag: later marks stay silent.
	for epoch := uint64(110); epoch <= 160; epoch += 10 {
		if got := c.BeginEpoch("g", epoch, nil); len(got) != 0 {
			t.Fatalf("implicit epoch raised lag: %+v", got)
		}
	}
}

// Marks regress or duplicate only through bugs or replays; both are inert.
func TestAuditEpochRegression(t *testing.T) {
	c := NewAuditCollector()
	c.BeginEpoch("g", 50, []string{"a"})
	c.BeginEpoch("g", 50, []string{"a", "b"})
	c.BeginEpoch("g", 40, []string{"a", "b"})
	c.Observe(obsAt("g", "a", 50, 1))
	// An observation for an epoch below the window floor is counted only.
	if got := c.Observe(obsAt("g", "b", 40, 2)); len(got) != 0 {
		t.Fatalf("stale observation alarmed: %+v", got)
	}
	if s := c.Summary(); s.Diverged || s.LastEpoch != 50 {
		t.Fatalf("summary = %+v", s)
	}
}

// TestAuditEpochWindow: the summary publishes the collector's retained
// window as rows, at most auditEpochWindow per group and ascending, with
// each row's sorted expectations, digests and divergence; an implicit
// epoch (a report whose mark the collector never saw) expects nobody.
func TestAuditEpochWindow(t *testing.T) {
	c := NewAuditCollector()
	c.Observe(obsAt("g", "b", 5, 7)) // implicit: no mark for epoch 5
	for epoch := uint64(10); epoch <= 400; epoch += 10 {
		c.BeginEpoch("g", epoch, []string{"b", "a"})
		c.Observe(obsAt("g", "a", epoch, 1))
		c.Observe(obsAt("g", "b", epoch, 1))
	}
	c.Observe(obsAt("g", "a", 401, 2)) // implicit again, after the marks
	c.Observe(obsAt("g", "b", 401, 3))

	rows := c.Summary().Groups[0].Epochs
	if len(rows) != auditEpochWindow {
		t.Fatalf("%d rows, want the window's %d", len(rows), auditEpochWindow)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Epoch <= rows[i-1].Epoch {
			t.Fatalf("rows not ascending at %d: %d after %d", i, rows[i].Epoch, rows[i-1].Epoch)
		}
	}
	if first := rows[0].Epoch; first != 100 {
		t.Fatalf("oldest retained epoch = %d, want 100 (the newest 32 of 42)", first)
	}
	want := AuditEpochRow{Epoch: 400, Expected: []string{"a", "b"}, Digests: map[string]uint32{"a": 1, "b": 1}}
	if got := rows[len(rows)-2]; !reflect.DeepEqual(got, want) {
		t.Fatalf("marked row = %+v, want %+v", got, want)
	}
	want = AuditEpochRow{Epoch: 401, Digests: map[string]uint32{"a": 2, "b": 3}, Diverged: true}
	if got := rows[len(rows)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("implicit row = %+v, want %+v", got, want)
	}
	s := c.Summary()
	if s.Observations != 83 {
		t.Fatalf("observations = %d, want 83", s.Observations)
	}
	// Totals is the same summary without the per-group state.
	s.Groups = nil
	if tot := c.Totals(); !reflect.DeepEqual(tot, s) || !tot.Diverged {
		t.Fatalf("totals = %+v, want %+v (diverged at epoch 401)", tot, s)
	}
}

// TestAuditEachAlarmReturnedOnceAndCounted: the collector keeps no alarm
// journal. Each alarm goes to the caller whose report raised it, once and
// in order, and the summary counts it.
func TestAuditEachAlarmReturnedOnceAndCounted(t *testing.T) {
	c := NewAuditCollector()
	var got []AuditAlarm
	for _, o := range []AuditObservation{
		obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 2),
		obsAt("h", "a", 12, 1), obsAt("h", "b", 12, 2),
		obsAt("h", "c", 12, 3), // h is latched: no second alarm
	} {
		got = append(got, c.Observe(o)...)
	}
	if len(got) != 2 || got[0].Group != "g" || got[0].Epoch != 10 || got[1].Group != "h" || got[1].Epoch != 12 {
		t.Fatalf("alarms = %+v, want g at epoch 10 then h at 12", got)
	}
	if s := c.Summary(); s.Divergences != 2 || s.Lags != 0 {
		t.Fatalf("summary = %+v, want two divergences", s)
	}
}

// Every method must be a no-op on a nil collector (the audit-disabled
// configuration).
func TestAuditNilCollector(t *testing.T) {
	var c *AuditCollector
	if got := c.BeginEpoch("g", 1, []string{"a"}); got != nil {
		t.Fatal("nil BeginEpoch")
	}
	if got := c.Observe(obsAt("g", "a", 1, 1)); got != nil {
		t.Fatal("nil Observe")
	}
	c.MemberRemoved("g", "a")
	if tot := c.Totals(); tot.LastEpoch != 0 || tot.Observations != 0 {
		t.Fatalf("nil totals = %+v", tot)
	}
	if s := c.Summary(); s.Diverged || s.Observations != 0 {
		t.Fatalf("nil summary = %+v", s)
	}
}

// collectorsSaw feeds each node's collector its observations, as the
// node's delivery loop would, and returns the nodes' summaries.
func collectorsSaw(seen map[string][]AuditObservation) map[string]AuditSummary {
	out := make(map[string]AuditSummary, len(seen))
	for node, observations := range seen {
		c := NewAuditCollector()
		for _, o := range observations {
			c.Observe(o)
		}
		out[node] = c.Summary()
	}
	return out
}

// rowDiverged reports whether any node's row for (group, epoch) is
// diverged.
func rowDiverged(summaries map[string]AuditSummary, group string, epoch uint64) bool {
	for _, s := range summaries {
		for _, g := range s.Groups {
			for _, row := range g.Epochs {
				if g.Group == group && row.Epoch == epoch && row.Diverged {
					return true
				}
			}
		}
	}
	return false
}

// TestAuditConflicts: two collectors agree on one epoch, disagree about
// one member at the next, and only one of them holds a second group. The
// disagreement is the one conflict; the epoch whose members differ in a
// node's own row is diverged there; the rest is clean.
func TestAuditConflicts(t *testing.T) {
	summaries := collectorsSaw(map[string][]AuditObservation{
		"n1": {
			obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 1),
			obsAt("g", "a", 20, 2), obsAt("g", "b", 20, 3),
			obsAt("h", "a", 15, 9),
		},
		"n2": {
			obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 1),
			// n2 holds a different digest for a@20 than n1 does.
			obsAt("g", "a", 20, 7),
		},
	})
	got := AuditConflicts(summaries)
	want := []AuditConflict{{Group: "g", Epoch: 20, Member: "a", Digests: map[string]uint32{"n1": 2, "n2": 7}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("conflicts = %+v, want %+v", got, want)
	}
	if rowDiverged(summaries, "g", 10) || rowDiverged(summaries, "h", 15) {
		t.Fatal("a clean epoch diverged")
	}
	if !rowDiverged(summaries, "g", 20) {
		t.Fatal("n1's row for epoch 20 (a=2, b=3) is not diverged")
	}
}

// TestAuditConflictsStaleMinority: a collector from an isolated minority
// holds a stale digest for one member. Its disagreement with the majority
// is a conflict, never a divergence — divergence is two members' digests
// in one collector's row.
func TestAuditConflictsStaleMinority(t *testing.T) {
	summaries := collectorsSaw(map[string][]AuditObservation{
		// Majority nodes agree: a, b and c all digest 5 at epoch 30.
		"maj1": {obsAt("g", "a", 30, 5), obsAt("g", "b", 30, 5), obsAt("g", "c", 30, 5)},
		"maj2": {obsAt("g", "a", 30, 5), obsAt("g", "b", 30, 5), obsAt("g", "c", 30, 5)},
		// The isolated node's collector saw a stale digest for itself at
		// the same epoch (recorded while cut off).
		"iso": {obsAt("g", "c", 30, 9)},
	})
	got := AuditConflicts(summaries)
	want := []AuditConflict{{Group: "g", Epoch: 30, Member: "c",
		Digests: map[string]uint32{"maj1": 5, "maj2": 5, "iso": 9}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("conflicts = %+v, want %+v", got, want)
	}
	if rowDiverged(summaries, "g", 30) {
		t.Fatal("a conflict about one member reads as a divergence")
	}
}

// TestAuditConflictsLateSyncedNode: a node that synchronized late holds
// only some epochs, and of those only some members. It conflicts with
// nobody, and no row diverges.
func TestAuditConflictsLateSyncedNode(t *testing.T) {
	summaries := collectorsSaw(map[string][]AuditObservation{
		"maj1": {
			obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 1),
			obsAt("g", "a", 20, 2), obsAt("g", "b", 20, 2),
		},
		"maj2": {
			obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 1),
			obsAt("g", "a", 20, 2), obsAt("g", "b", 20, 2),
		},
		// The late node saw only b's report for epoch 20.
		"late": {obsAt("g", "b", 20, 2)},
	})
	if got := AuditConflicts(summaries); len(got) != 0 {
		t.Fatalf("conflicts = %+v, want none", got)
	}
	for _, epoch := range []uint64{10, 20} {
		if rowDiverged(summaries, "g", epoch) {
			t.Fatalf("epoch %d diverged on consistent partial windows", epoch)
		}
	}
}

// TestAuditConflictsGenuineDivergence: when every collector agrees about
// each member but the members disagree among themselves, that is a real
// state divergence: Diverged in every node's row, and no conflict.
func TestAuditConflictsGenuineDivergence(t *testing.T) {
	summaries := collectorsSaw(map[string][]AuditObservation{
		"n1": {obsAt("g", "a", 40, 5), obsAt("g", "b", 40, 8)},
		"n2": {obsAt("g", "a", 40, 5), obsAt("g", "b", 40, 8)},
	})
	if got := AuditConflicts(summaries); len(got) != 0 {
		t.Fatalf("conflicts = %+v, want none", got)
	}
	for node, s := range summaries {
		if rows := s.Groups[0].Epochs; len(rows) != 1 || !rows[0].Diverged {
			t.Fatalf("%s rows = %+v, want one diverged row", node, rows)
		}
	}
}

// TestAuditConflictsDeterministic: the same summaries give the same
// conflicts every time, sorted by group, epoch and member, whatever the
// order maps iterate in.
func TestAuditConflictsDeterministic(t *testing.T) {
	summaries := collectorsSaw(map[string][]AuditObservation{
		"n1": {obsAt("h", "a", 30, 5), obsAt("g", "c", 20, 1), obsAt("g", "d", 30, 5), obsAt("g", "c", 30, 5)},
		"n2": {obsAt("h", "a", 30, 6), obsAt("g", "c", 20, 2), obsAt("g", "d", 30, 6), obsAt("g", "c", 30, 5)},
		"n3": {obsAt("g", "d", 30, 7)},
	})
	base := AuditConflicts(summaries)
	var cells []string
	for _, c := range base {
		cells = append(cells, fmt.Sprintf("%s/%s@%d", c.Group, c.Member, c.Epoch))
	}
	if want := []string{"g/c@20", "g/d@30", "h/a@30"}; !reflect.DeepEqual(cells, want) {
		t.Fatalf("conflicts at %v, want %v", cells, want)
	}
	for i := 0; i < 50; i++ {
		if got := AuditConflicts(summaries); !reflect.DeepEqual(got, base) {
			t.Fatalf("iteration %d: %+v, want %+v", i, got, base)
		}
	}
}
