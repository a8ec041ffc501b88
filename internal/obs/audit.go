package obs

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Audit alarm kinds (AuditAlarm.Kind).
const (
	// AuditDivergence: two members reported different digests for the
	// same audit epoch — the paper's byte-identical-state claim failed.
	AuditDivergence = "divergence"
	// AuditLag: a member was expected in more than auditLag completed
	// retained epochs and reported none of them, whether or not its peers
	// reported.
	AuditLag = "lag"
)

// auditJournal bounds the observation journal.
const auditJournal = 1024

// auditLag is the lag threshold: a member missing more than this many
// completed epochs raises a lag alarm at the next mark.
const auditLag = 3

// auditEpochWindow bounds the per-group epoch history the matcher keeps,
// and with it the lag a collector can measure.
const auditEpochWindow = 32

// AuditObservation is one member's digest for one audit epoch, as
// evaluated at the report's agreed position in the delivery order. Every
// synchronized node's collector receives the same observations in the
// same order, so their matching verdicts agree.
type AuditObservation struct {
	// Index is the collector-assigned monotonic id (from 1); /audit
	// paginates by it.
	Index uint64 `json:"index"`
	// Group and Node identify the reporting member.
	Group string `json:"group"`
	Node  string `json:"node"`
	// Epoch is the audit mark's delivery sequence number.
	Epoch uint64 `json:"epoch"`
	// Seq is the report's own delivery position.
	Seq uint64 `json:"seq"`
	// Digest is the member's state digest for the epoch.
	Digest uint32 `json:"digest"`
	// LSN is the member's checkpoint-log position (diagnostic).
	LSN uint64 `json:"lsn"`
	// StateBytes is the digested application-state size.
	StateBytes uint32 `json:"state_bytes"`
}

// AuditAlarm is one raised audit condition. Alarms latch: a diverged
// group or lagging member alarms once, and the condition clears
// silently when a later epoch is clean. The collector hands each alarm to
// its caller once and keeps only the count; the node records it in its
// flight recorder.
type AuditAlarm struct {
	// Kind is AuditDivergence or AuditLag.
	Kind  string `json:"kind"`
	Group string `json:"group"`
	// Node is the trailing member for a lag alarm (empty for divergence,
	// which indicts the group).
	Node string `json:"node,omitempty"`
	// Epoch is the epoch at which the condition was detected.
	Epoch  uint64 `json:"epoch"`
	Detail string `json:"detail,omitempty"`
}

// AuditSummary is the collector's condensed live state, embedded in
// /healthz and /audit.
type AuditSummary struct {
	// LastEpoch is the most recent audit epoch observed on any group.
	LastEpoch uint64 `json:"last_epoch"`
	// Observations counts digests ever collected.
	Observations uint64 `json:"observations"`
	// Diverged reports whether any group is currently diverged.
	Diverged bool `json:"diverged"`
	// Cumulative alarm counts by kind.
	Divergences uint64 `json:"divergences"`
	Lags        uint64 `json:"lags"`
	// Groups is the per-group digest state, sorted by name.
	Groups []AuditGroupStatus `json:"groups,omitempty"`
}

// AuditGroupStatus is one group's audit state in the summary.
type AuditGroupStatus struct {
	Group string `json:"group"`
	// Epoch is the group's most recent audit epoch.
	Epoch uint64 `json:"epoch"`
	// Diverged reports whether the group is currently diverged (latched
	// until a complete clean epoch).
	Diverged bool                `json:"diverged"`
	Members  []AuditMemberStatus `json:"members,omitempty"`
}

// AuditMemberStatus is one member's most recent digest and trail state.
type AuditMemberStatus struct {
	Node string `json:"node"`
	// Epoch and Digest are the member's last reported epoch and digest.
	Epoch  uint64 `json:"epoch"`
	Digest uint32 `json:"digest"`
	// Lag counts completed retained epochs the member was expected in but
	// has not reported.
	Lag int `json:"lag"`
	// Lagging is the latched lag alarm state.
	Lagging bool `json:"lagging,omitempty"`
}

// auditEpoch is one epoch's matching state for one group.
type auditEpoch struct {
	epoch uint64
	// expected lists the members whose report this epoch awaits:
	// operational at the mark's position (recovering members are exempt
	// until their sync point) and, for passive styles, only the primary
	// (backups legitimately hold checkpoint-stale state).
	expected map[string]bool
	// reports maps reporting member -> digest. Reports from non-expected
	// members (a recovering replica draining its held queue) still
	// participate: their digests are computed at the same agreed position
	// and must match.
	reports map[string]uint32
}

// auditMember is one member's trail state within a group.
type auditMember struct {
	lastEpoch  uint64
	lastDigest uint32
	lagging    bool
}

// auditGroup is one group's live matching state.
type auditGroup struct {
	epochs    []*auditEpoch // ascending, at most auditEpochWindow
	members   map[string]*auditMember
	diverged  bool
	lastEpoch uint64
}

// missed counts completed retained epochs (all but the newest) in which
// node was expected but has not reported — the lag measure. An epoch in
// which nobody reported counts too: a sole expected member (a passive
// primary) or a group whose servants all fail get_state lags like any
// other.
func (g *auditGroup) missed(node string) int {
	count := 0
	for i := 0; i < len(g.epochs)-1; i++ {
		ep := g.epochs[i]
		if _, ok := ep.reports[node]; ep.expected[node] && !ok {
			count++
		}
	}
	return count
}

func (g *auditGroup) member(node string) *auditMember {
	m, ok := g.members[node]
	if !ok {
		m = &auditMember{}
		g.members[node] = m
	}
	return m
}

// AuditCollector matches audit digests epoch-by-epoch and runs the
// divergence and lag state machines. It reads no clock: every verdict is
// a function of the delivered sequence of marks and reports. One collector
// per node; all methods are safe from any goroutine, and all are
// nil-receiver no-ops so a disabled audit costs nothing.
type AuditCollector struct {
	mu sync.Mutex

	obsRing journal[AuditObservation]

	groups    map[string]*auditGroup
	lastEpoch uint64

	divergences uint64
	lags        uint64
}

// NewAuditCollector creates a collector retaining up to auditJournal
// observations.
func NewAuditCollector() *AuditCollector {
	return &AuditCollector{
		obsRing: newJournal[AuditObservation](auditJournal),
		groups:  make(map[string]*auditGroup),
	}
}

func (c *AuditCollector) group(name string) *auditGroup {
	g, ok := c.groups[name]
	if !ok {
		g = &auditGroup{members: make(map[string]*auditMember)}
		c.groups[name] = g
	}
	return g
}

// raise counts one alarm by kind and returns it (c.mu held).
func (c *AuditCollector) raise(kind, group, node string, epoch uint64, detail string) AuditAlarm {
	if kind == AuditDivergence {
		c.divergences++
	} else {
		c.lags++
	}
	return AuditAlarm{Kind: kind, Group: group, Node: node, Epoch: epoch, Detail: detail}
}

// BeginEpoch opens an audit epoch for a group at the mark's delivery:
// epoch is the mark's sequence number and expected lists the members
// whose reports the matcher awaits. It returns any lag alarms the new
// epoch pushes members over the threshold of.
func (c *AuditCollector) BeginEpoch(group string, epoch uint64, expected []string) []AuditAlarm {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.group(group)
	if len(g.epochs) > 0 && epoch <= g.lastEpoch {
		return nil // duplicate or regressed mark
	}
	ep := &auditEpoch{
		epoch:    epoch,
		expected: make(map[string]bool, len(expected)),
		reports:  make(map[string]uint32),
	}
	for _, node := range expected {
		ep.expected[node] = true
	}
	g.epochs = append(g.epochs, ep)
	if len(g.epochs) > auditEpochWindow {
		g.epochs = g.epochs[1:]
	}
	g.lastEpoch = epoch
	if epoch > c.lastEpoch {
		c.lastEpoch = epoch
	}
	var alarms []AuditAlarm
	for _, node := range expected {
		m := g.member(node)
		missed := g.missed(node)
		if missed > auditLag && !m.lagging {
			m.lagging = true
			alarms = append(alarms, c.raise(AuditLag, group, node, epoch,
				fmt.Sprintf("missed %d epochs, last report epoch=%d", missed, m.lastEpoch)))
		}
	}
	return alarms
}

// Observe records one member's digest report and returns any divergence
// alarm the report triggers. A report for an epoch the collector never
// saw the mark of (it joined the domain later) opens an implicit epoch
// with no expectations: matching still applies, the lag rule does not.
func (c *AuditCollector) Observe(o AuditObservation) []AuditAlarm {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.group(o.Group)
	var ep *auditEpoch
	for _, e := range g.epochs {
		if e.epoch == o.Epoch {
			ep = e
			break
		}
	}
	if ep == nil && (len(g.epochs) == 0 || o.Epoch > g.lastEpoch) {
		// A report whose mark this collector never saw (it synchronized
		// after the mark's position): open an implicit epoch.
		ep = &auditEpoch{epoch: o.Epoch,
			expected: make(map[string]bool), reports: make(map[string]uint32)}
		g.epochs = append(g.epochs, ep)
		if len(g.epochs) > auditEpochWindow {
			g.epochs = g.epochs[1:]
		}
		g.lastEpoch = o.Epoch
	}
	// Otherwise ep may stay nil: the epoch was evicted from the window —
	// journal the observation but skip matching.
	if o.Epoch > c.lastEpoch {
		c.lastEpoch = o.Epoch
	}
	o.Index = c.obsRing.next
	c.obsRing.add(o)

	m := g.member(o.Node)
	if o.Epoch >= m.lastEpoch {
		m.lastEpoch = o.Epoch
		m.lastDigest = o.Digest
	}
	if m.lagging && g.missed(o.Node) <= auditLag {
		m.lagging = false
	}
	if ep == nil {
		return nil
	}
	ep.reports[o.Node] = o.Digest

	// Divergence matching for this epoch.
	distinct := make(map[uint32]bool, len(ep.reports))
	for _, d := range ep.reports {
		distinct[d] = true
	}
	var alarms []AuditAlarm
	if len(distinct) > 1 {
		if !g.diverged {
			g.diverged = true
			alarms = append(alarms, c.raise(AuditDivergence, o.Group, "", o.Epoch, divergenceDetail(ep)))
		}
	} else if g.diverged && len(ep.expected) > 0 && complete(ep) {
		// A later epoch came back clean and complete: the episode is over.
		g.diverged = false
	}
	return alarms
}

// complete reports whether every expected member has reported (c.mu held).
func complete(ep *auditEpoch) bool {
	for node := range ep.expected {
		if _, ok := ep.reports[node]; !ok {
			return false
		}
	}
	return true
}

// divergenceDetail renders an epoch's digests deterministically.
func divergenceDetail(ep *auditEpoch) string {
	nodes := slices.Sorted(maps.Keys(ep.reports))
	parts := make([]string, 0, len(nodes))
	for _, node := range nodes {
		parts = append(parts, fmt.Sprintf("%s=%08x", node, ep.reports[node]))
	}
	return strings.Join(parts, " ")
}

// MemberRemoved cancels a member's expectations (replica kill, processor
// failure, fault reaction): pending epochs stop awaiting it, so its
// silence raises no lag alarm.
func (c *AuditCollector) MemberRemoved(group, node string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[group]
	if !ok {
		return
	}
	for _, ep := range g.epochs {
		delete(ep.expected, node)
	}
	delete(g.members, node)
}

// Since returns up to max journalled observations with Index > after,
// oldest first (max <= 0 returns all retained).
func (c *AuditCollector) Since(after uint64, max int) []AuditObservation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.obsRing.since(after, max)
}

// Total reports how many observations were ever collected.
func (c *AuditCollector) Total() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.obsRing.total()
}

// Dropped reports how many observations were evicted to bound the ring.
func (c *AuditCollector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.obsRing.dropped
}

// LastEpoch reports the most recent epoch observed on any group.
func (c *AuditCollector) LastEpoch() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEpoch
}

// Summary condenses the collector's live state.
func (c *AuditCollector) Summary() AuditSummary {
	if c == nil {
		return AuditSummary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := AuditSummary{
		LastEpoch:    c.lastEpoch,
		Observations: c.obsRing.total(),
		Divergences:  c.divergences,
		Lags:         c.lags,
	}
	for _, name := range slices.Sorted(maps.Keys(c.groups)) {
		g := c.groups[name]
		gs := AuditGroupStatus{Group: name, Epoch: g.lastEpoch, Diverged: g.diverged}
		if g.diverged {
			s.Diverged = true
		}
		for _, node := range slices.Sorted(maps.Keys(g.members)) {
			m := g.members[node]
			gs.Members = append(gs.Members, AuditMemberStatus{
				Node: node, Epoch: m.lastEpoch, Digest: m.lastDigest,
				Lag: g.missed(node), Lagging: m.lagging,
			})
		}
		s.Groups = append(s.Groups, gs)
	}
	return s
}

// AuditEpochRow is one (group, epoch) cell of a cluster-merged digest
// matrix: every node's digest for that epoch, cross-checked across the
// scraped feeds.
type AuditEpochRow struct {
	Group string
	Epoch uint64
	// Digests maps reporting node -> consensus digest: when scraped
	// feeds disagree about a member (Conflicted), the digest most
	// feeds reported wins, ties broken toward the smallest value, so
	// the published row does not depend on feed iteration order.
	Digests map[string]uint32
	// Diverged: two members reported different digests for this epoch
	// under every consistent reading of the feeds — their candidate
	// digest sets share no value. A member whose digest merely differs
	// across feeds (a stale scrape from a partitioned minority, say)
	// raises Conflicted alone, never a false divergence.
	Diverged bool
	// Conflicted: two scraped feeds disagree about one member's digest
	// for this epoch — a scrape- or transport-level inconsistency, which
	// the total order should make impossible on a healthy medium (a
	// partitioned minority's stale feed is the benign cause).
	Conflicted bool
}

// MergeAudits merges audit observation feeds scraped from several nodes
// into per-(group, epoch) rows, sorted by group then epoch. Every node's
// feed carries all members' reports (they travel the total order), so
// merging both widens the window and cross-checks the feeds against each
// other.
func MergeAudits(feeds map[string][]AuditObservation) []AuditEpochRow {
	type key struct {
		group string
		epoch uint64
	}
	// Per (group, epoch, member): every digest any feed reported, with
	// its observation count — the member's candidate set.
	cand := make(map[key]map[string]map[uint32]int)
	for _, feed := range feeds {
		for _, o := range feed {
			k := key{o.Group, o.Epoch}
			members, ok := cand[k]
			if !ok {
				members = make(map[string]map[uint32]int)
				cand[k] = members
			}
			digests, ok := members[o.Node]
			if !ok {
				digests = make(map[uint32]int)
				members[o.Node] = digests
			}
			digests[o.Digest]++
		}
	}
	out := make([]AuditEpochRow, 0, len(cand))
	for k, members := range cand {
		row := AuditEpochRow{Group: k.group, Epoch: k.epoch, Digests: make(map[string]uint32, len(members))}
		sets := make([]map[uint32]int, 0, len(members))
		for node, digests := range members {
			if len(digests) > 1 {
				row.Conflicted = true
			}
			// Publish the consensus digest: most observations win,
			// ties break toward the smallest value, so the row is
			// independent of feed iteration order.
			bestN := -1
			var best uint32
			for d, n := range digests {
				if n > bestN || (n == bestN && d < best) {
					best, bestN = d, n
				}
			}
			row.Digests[node] = best
			sets = append(sets, digests)
		}
		// Two members diverge only when no consistent reading of the
		// feeds can reconcile them: their candidate sets are disjoint.
		for i := 0; i < len(sets) && !row.Diverged; i++ {
			for j := i + 1; j < len(sets); j++ {
				if disjointDigests(sets[i], sets[j]) {
					row.Diverged = true
					break
				}
			}
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		return out[i].Epoch < out[j].Epoch
	})
	return out
}

func disjointDigests(a, b map[uint32]int) bool {
	for d := range a {
		if _, ok := b[d]; ok {
			return false
		}
	}
	return true
}
