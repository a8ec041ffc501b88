package obs

import "testing"

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
	return AuditObservation{Group: group, Node: node, Epoch: epoch, Seq: epoch + 1, Digest: digest}
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
	// An observation for an epoch below the window floor is journal-only.
	if got := c.Observe(obsAt("g", "b", 40, 2)); len(got) != 0 {
		t.Fatalf("stale observation alarmed: %+v", got)
	}
	if s := c.Summary(); s.Diverged || s.LastEpoch != 50 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestAuditRingPagination(t *testing.T) {
	c := NewAuditCollector()
	c.obsRing = newJournal[AuditObservation](4)
	for i := uint64(1); i <= 6; i++ {
		c.Observe(obsAt("g", "a", i*10, 1))
	}
	if c.Total() != 6 || c.Dropped() != 2 {
		t.Fatalf("total=%d dropped=%d, want 6/2", c.Total(), c.Dropped())
	}
	all := c.Since(0, 0)
	if len(all) != 4 || all[0].Index != 3 || all[3].Index != 6 {
		t.Fatalf("since(0) = %+v", all)
	}
	page := c.Since(all[1].Index, 1)
	if len(page) != 1 || page[0].Index != 5 {
		t.Fatalf("paged since = %+v", page)
	}
	if rest := c.Since(6, 0); len(rest) != 0 {
		t.Fatalf("past the end = %+v", rest)
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
	if c.Since(0, 0) != nil {
		t.Fatal("nil journal")
	}
	if c.Total() != 0 || c.Dropped() != 0 || c.LastEpoch() != 0 {
		t.Fatal("nil counters")
	}
	if s := c.Summary(); s.Diverged || s.Observations != 0 {
		t.Fatalf("nil summary = %+v", s)
	}
}

func TestMergeAudits(t *testing.T) {
	feeds := map[string][]AuditObservation{
		"n1": {
			obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 1),
			obsAt("g", "a", 20, 2), obsAt("g", "b", 20, 3),
			obsAt("h", "a", 15, 9),
		},
		"n2": {
			obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 1),
			// n2 saw a different digest for a@20 than n1 did: feed conflict.
			obsAt("g", "a", 20, 7),
		},
	}
	rows := MergeAudits(feeds)
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Group != "g" || rows[0].Epoch != 10 || rows[0].Diverged || rows[0].Conflicted {
		t.Fatalf("clean row = %+v", rows[0])
	}
	if !rows[1].Diverged || !rows[1].Conflicted {
		t.Fatalf("bad row not flagged = %+v", rows[1])
	}
	if rows[2].Group != "h" || rows[2].Diverged {
		t.Fatalf("h row = %+v", rows[2])
	}
}

// TestMergeAuditsPartitionedMinorityFeed covers merging with feeds
// scraped from an isolated minority: a member whose digest differs
// BETWEEN feeds (the isolated node's stale view of itself vs the
// majority's) must surface as a feed conflict, never as a false
// divergence — divergence is reserved for members whose candidate
// digest sets cannot be reconciled under any reading of the feeds.
func TestMergeAuditsPartitionedMinorityFeed(t *testing.T) {
	feeds := map[string][]AuditObservation{
		// Majority nodes agree: a, b and c all digest 5 at epoch 30.
		"maj1": {obsAt("g", "a", 30, 5), obsAt("g", "b", 30, 5), obsAt("g", "c", 30, 5)},
		"maj2": {obsAt("g", "a", 30, 5), obsAt("g", "b", 30, 5), obsAt("g", "c", 30, 5)},
		// The isolated node's scrape has a stale digest for itself
		// at the same epoch (recorded while cut off).
		"iso": {obsAt("g", "c", 30, 9)},
	}
	rows := MergeAudits(feeds)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	row := rows[0]
	if !row.Conflicted {
		t.Errorf("stale minority feed must flag a conflict: %+v", row)
	}
	if row.Diverged {
		t.Errorf("feed conflict about one member must not read as member divergence: %+v", row)
	}
	// The consensus digest is the majority's, not whichever feed the
	// map iterated last.
	if row.Digests["c"] != 5 {
		t.Errorf("Digests[c] = %d, want the 2-feed majority digest 5", row.Digests["c"])
	}
}

// TestMergeAuditsPartialMinorityFeed: a minority node that simply
// missed epochs (partial feed) must not poison the merge — rows it
// covers merge cleanly, rows it missed stay clean without it.
func TestMergeAuditsPartialMinorityFeed(t *testing.T) {
	feeds := map[string][]AuditObservation{
		"maj1": {
			obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 1),
			obsAt("g", "a", 20, 2), obsAt("g", "b", 20, 2),
		},
		"maj2": {
			obsAt("g", "a", 10, 1), obsAt("g", "b", 10, 1),
			obsAt("g", "a", 20, 2), obsAt("g", "b", 20, 2),
		},
		// The minority node rejoined late: it only has epoch 20.
		"iso": {obsAt("g", "a", 20, 2), obsAt("g", "b", 20, 2)},
	}
	for i, row := range MergeAudits(feeds) {
		if row.Diverged || row.Conflicted {
			t.Errorf("row %d flagged despite consistent partial feeds: %+v", i, row)
		}
		if len(row.Digests) != 2 {
			t.Errorf("row %d digests = %+v, want both members", i, row.Digests)
		}
	}
}

// TestMergeAuditsGenuineDivergenceStillFlagged: when every feed agrees
// about each member but the members disagree among themselves, that is
// real state divergence, with no conflict.
func TestMergeAuditsGenuineDivergenceStillFlagged(t *testing.T) {
	feeds := map[string][]AuditObservation{
		"n1": {obsAt("g", "a", 40, 5), obsAt("g", "b", 40, 8)},
		"n2": {obsAt("g", "a", 40, 5), obsAt("g", "b", 40, 8)},
	}
	rows := MergeAudits(feeds)
	if len(rows) != 1 || !rows[0].Diverged || rows[0].Conflicted {
		t.Fatalf("rows = %+v, want exactly one diverged, unconflicted row", rows)
	}
}

// TestMergeAuditsDeterministic: merging the same feeds repeatedly must
// produce identical rows — the consensus pick may not depend on map
// iteration order (the scenario harness compares runs by these rows).
func TestMergeAuditsDeterministic(t *testing.T) {
	feeds := map[string][]AuditObservation{
		"n1": {obsAt("g", "a", 30, 5), obsAt("g", "b", 30, 5), obsAt("g", "c", 30, 5)},
		"n2": {obsAt("g", "a", 30, 5), obsAt("g", "b", 30, 5), obsAt("g", "c", 30, 5)},
		"n3": {obsAt("g", "c", 30, 9)},
		// A pure 1-vs-1 tie about d's digest: smaller value must win.
		"n4": {obsAt("g", "d", 30, 7)},
		"n5": {obsAt("g", "d", 30, 3)},
	}
	base := MergeAudits(feeds)
	if got := base[0].Digests["d"]; got != 3 {
		t.Fatalf("tie-break published %d for d, want the smallest digest 3", got)
	}
	for i := 0; i < 50; i++ {
		rows := MergeAudits(feeds)
		if len(rows) != len(base) {
			t.Fatalf("iteration %d: %d rows, want %d", i, len(rows), len(base))
		}
		for j := range rows {
			if rows[j].Diverged != base[j].Diverged || rows[j].Conflicted != base[j].Conflicted {
				t.Fatalf("iteration %d row %d flags changed: %+v vs %+v", i, j, rows[j], base[j])
			}
			for n, d := range rows[j].Digests {
				if base[j].Digests[n] != d {
					t.Fatalf("iteration %d row %d digest for %s changed: %d vs %d",
						i, j, n, d, base[j].Digests[n])
				}
			}
		}
	}
}
