package obs

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
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

// auditLag is the lag threshold: a member missing more than this many
// completed epochs raises a lag alarm at the next mark.
const auditLag = 3

// auditEpochWindow bounds the per-group epoch history the matcher keeps,
// and with it the lag a collector can measure and the rows its summary
// publishes.
const auditEpochWindow = 32

// AuditObservation is one member's digest for one audit epoch, as
// evaluated at the report's agreed position in the delivery order: the
// collector's input. Every synchronized node's collector receives the same
// observations in the same order, so their matching verdicts agree.
type AuditObservation struct {
	// Group and Node identify the reporting member.
	Group string
	Node  string
	// Epoch is the audit mark's delivery sequence number.
	Epoch uint64
	// Digest is the member's state digest for the epoch.
	Digest uint32
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
// /healthz.
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
	// Epochs is the collector's retained window, ascending: at most
	// auditEpochWindow rows of the group's digest matrix.
	Epochs []AuditEpochRow `json:"epochs,omitempty"`
}

// AuditEpochRow is one retained audit epoch of a group as this node's
// collector matched it. Every synchronized node's collector matches the
// same reports at the same positions, so where two nodes' windows overlap
// their rows agree; AuditConflicts finds where they do not.
type AuditEpochRow struct {
	Epoch uint64 `json:"epoch"`
	// Expected lists, sorted, the members the epoch's mark awaited; empty
	// for an implicit epoch (a report whose mark this node never saw).
	Expected []string `json:"expected,omitempty"`
	// Digests maps reporting member -> digest.
	Digests map[string]uint32 `json:"digests"`
	// Diverged: two members reported different digests for this epoch.
	Diverged bool `json:"diverged,omitempty"`
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

// mixed reports whether digests holds two different values.
func mixed(digests map[string]uint32) bool {
	first := true
	var digest uint32
	for _, d := range digests {
		if !first && d != digest {
			return true
		}
		first, digest = false, d
	}
	return false
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

	groups    map[string]*auditGroup
	lastEpoch uint64

	observations uint64
	divergences  uint64
	lags         uint64
}

// NewAuditCollector creates a collector with no groups.
func NewAuditCollector() *AuditCollector {
	return &AuditCollector{groups: make(map[string]*auditGroup)}
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
	// count the observation but skip matching.
	if o.Epoch > c.lastEpoch {
		c.lastEpoch = o.Epoch
	}
	c.observations++

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
	var alarms []AuditAlarm
	if mixed(ep.reports) {
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

// Totals reports the summary without its per-group state: last epoch,
// observation and alarm counts, and whether any group is diverged.
func (c *AuditCollector) Totals() AuditSummary {
	if c == nil {
		return AuditSummary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals()
}

// totals builds Totals (c.mu held).
func (c *AuditCollector) totals() AuditSummary {
	s := AuditSummary{
		LastEpoch:    c.lastEpoch,
		Observations: c.observations,
		Divergences:  c.divergences,
		Lags:         c.lags,
	}
	for _, g := range c.groups {
		s.Diverged = s.Diverged || g.diverged
	}
	return s
}

// Summary condenses the collector's live state.
func (c *AuditCollector) Summary() AuditSummary {
	if c == nil {
		return AuditSummary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.totals()
	for _, name := range slices.Sorted(maps.Keys(c.groups)) {
		g := c.groups[name]
		gs := AuditGroupStatus{Group: name, Epoch: g.lastEpoch, Diverged: g.diverged}
		for _, node := range slices.Sorted(maps.Keys(g.members)) {
			m := g.members[node]
			gs.Members = append(gs.Members, AuditMemberStatus{
				Node: node, Epoch: m.lastEpoch, Digest: m.lastDigest,
				Lag: g.missed(node), Lagging: m.lagging,
			})
		}
		for _, ep := range g.epochs {
			gs.Epochs = append(gs.Epochs, AuditEpochRow{
				Epoch: ep.epoch, Expected: slices.Sorted(maps.Keys(ep.expected)),
				Digests: maps.Clone(ep.reports), Diverged: mixed(ep.reports),
			})
		}
		s.Groups = append(s.Groups, gs)
	}
	return s
}

// AuditConflict is one member's digest at one epoch that two nodes'
// collectors hold differently.
type AuditConflict struct {
	Group  string
	Epoch  uint64
	Member string
	// Digests maps collector node -> the digest its row holds.
	Digests map[string]uint32
}

// AuditConflicts compares nodes' summaries, keyed by node, and returns
// every (group, epoch, member) whose digest two collectors hold
// differently, sorted by group, epoch and member. The total order forbids
// one on a healthy medium; a stale collector from a partitioned minority
// is the benign cause. A collector that lacks an epoch or a member (it
// synchronized late, or the epoch left its window) conflicts with nobody.
// A conflict is never a divergence: that is two members' digests in one
// collector's row.
func AuditConflicts(summaries map[string]AuditSummary) []AuditConflict {
	type cell struct {
		group  string
		epoch  uint64
		member string
	}
	held := make(map[cell]map[string]uint32)
	for node, s := range summaries {
		for _, g := range s.Groups {
			for _, row := range g.Epochs {
				for member, d := range row.Digests {
					k := cell{g.Group, row.Epoch, member}
					if held[k] == nil {
						held[k] = make(map[string]uint32)
					}
					held[k][node] = d
				}
			}
		}
	}
	var out []AuditConflict
	for k, byNode := range held {
		if mixed(byNode) {
			out = append(out, AuditConflict{Group: k.group, Epoch: k.epoch, Member: k.member, Digests: byNode})
		}
	}
	slices.SortFunc(out, func(a, b AuditConflict) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Member, b.Member))
	})
	return out
}
