package scenario

import (
	"fmt"
	"time"

	"eternal"
	"eternal/internal/history"
	"eternal/internal/replication"
)

// quiesceOracle is the no-stuck-recovery check: within the budget, the
// group must hold a full operational membership (MinReplicas members,
// none recovering) stably across consecutive polls. A recovering
// replica whose transfer wedged, or a Resource Manager that never
// re-replicated, parks the membership short of this and fails here
// instead of hanging the suite.
func (r *runner) quiesceOracle(phase string) {
	deadline := time.Now().Add(quiesceBudget)
	stable := 0
	var last string
	for time.Now().Before(deadline) {
		ok := false
		n := r.sys.Node(r.anchor)
		if n != nil {
			members, err := n.GroupMembers(Group)
			if err == nil {
				operational := 0
				recovering := 0
				for _, m := range members {
					switch m.State {
					case replication.MemberOperational:
						operational++
					case replication.MemberRecovering:
						recovering++
					}
				}
				last = fmt.Sprintf("%d operational, %d recovering of %d wanted", operational, recovering, r.sc.Replicas)
				ok = operational >= r.sc.Replicas && recovering == 0
			} else {
				last = err.Error()
			}
		}
		if ok {
			if stable++; stable >= 3 {
				return
			}
		} else {
			stable = 0
		}
		time.Sleep(50 * time.Millisecond)
	}
	r.fail(phase, "stuck recovery: group never re-stabilized within %s (%s)", quiesceBudget, last)
}

// scrapeAudits gathers every live node's audit observation feed, the
// input shape MergeAudits wants.
func (r *runner) scrapeAudits() map[string][]eternal.AuditObservation {
	feeds := make(map[string][]eternal.AuditObservation)
	for _, m := range r.sched.Members {
		if n := r.sys.Node(m); n != nil {
			if obs := n.Audits(0, 0); len(obs) > 0 {
				feeds[m] = obs
			}
		}
	}
	return feeds
}

// auditOracle demands a spotless MergeAudits matrix within the epoch
// budget: a digest row covering every operational member, with no
// divergence (members disagreeing) and no feed conflict (scraped nodes
// disagreeing about one member), at an epoch struck after the phase's
// faults healed. Matching digests at a totally-ordered audit mark are
// the proof that all members hold identical object state, so this is
// also the identical-final-state oracle. Returns how many audit epochs
// convergence took (epochsToClean on the phase's log line).
func (r *runner) auditOracle(phase string) int {
	n := r.sys.Node(r.anchor)
	if n == nil {
		r.fail(phase, "audit oracle: anchor %s is not running", r.anchor)
		return 0
	}
	members, err := n.GroupMembers(Group)
	if err != nil {
		r.fail(phase, "audit oracle: %v", err)
		return 0
	}
	expect := make(map[string]bool, len(members))
	for _, m := range members {
		expect[m.Node] = true
	}
	// Only epochs struck after this point reflect the healed cluster.
	floor := uint64(0)
	for _, row := range eternal.MergeAudits(r.scrapeAudits()) {
		if row.Group == Group && row.Epoch > floor {
			floor = row.Epoch
		}
	}
	complete := func(row eternal.AuditEpochRow) bool {
		for m := range expect {
			if _, ok := row.Digests[m]; !ok {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(auditEpochBudget*auditInterval + 5*time.Second)
	var lastRow string
	for time.Now().Before(deadline) {
		rows := eternal.MergeAudits(r.scrapeAudits())
		// Distinct post-floor epochs, ascending (MergeAudits sorts).
		clean := 0
		epochsSeen := 0
		firstCleanIdx := 0
		for _, row := range rows {
			if row.Group != Group || row.Epoch <= floor {
				continue
			}
			epochsSeen++
			if !complete(row) {
				continue // stragglers' reports may still be in flight
			}
			lastRow = fmt.Sprintf("epoch %d digests=%v diverged=%v conflicted=%v",
				row.Epoch, row.Digests, row.Diverged, row.Conflicted)
			if row.Diverged || row.Conflicted {
				clean = 0
				continue
			}
			if clean == 0 {
				firstCleanIdx = epochsSeen
			}
			if clean++; clean >= 2 {
				return firstCleanIdx
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	r.fail(phase, "audit matrix never came clean within %d epochs (last complete row: %s)",
		auditEpochBudget, lastRow)
	return auditEpochBudget
}

// eventOracle merges each live node's flight-recorder window since the
// previous phase boundary and counts ordered-event divergences. For
// normal phases any divergence fails the scenario — every node must
// have recorded the same membership/recovery events at the same
// sequence numbers. Split phases skip the assertion: while the medium
// is partitioned, both ring sides keep ordering events at overlapping
// sequence numbers, which is exactly the condition MergeEvents exists
// to flag; the post-heal window (the next phase's) is asserted spotless.
func (r *runner) eventOracle(phase string, split bool) int {
	feeds := make(map[string][]eternal.Event)
	for _, m := range r.sched.Members {
		n := r.sys.Node(m)
		if n == nil {
			continue
		}
		evs := n.Events(r.watermarks[m], 0)
		if len(evs) > 0 {
			r.watermarks[m] = evs[len(evs)-1].Index
			feeds[m] = evs
		}
	}
	tl := eternal.MergeEvents(feeds)
	if len(tl.Divergences) > 0 && !split {
		d := tl.Divergences[0]
		r.fail(phase, "%d ordered-event divergences; first at seq %d: %v",
			len(tl.Divergences), d.Seq, d.Keys)
	}
	return len(tl.Divergences)
}

// finalStateOracle holds the replicated history against the writer's
// attempts once the writer has stopped (history.Check): every acked write
// is there, in issue order, and nothing is there twice or was never
// written. Cross-member state identity is already covered by the audit
// oracle's digest row.
func (r *runner) finalStateOracle(obj *eternal.ObjectRef) {
	var hist []string
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if hist, err = history.Read(obj, invokeTimeout); err == nil {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		r.fail("final", "reading history: %v", err)
		return
	}
	r.mu.Lock()
	err = history.Check(r.ops, hist)
	r.mu.Unlock()
	if err != nil {
		r.fail("final", "%v", err)
	}
}
