package replication

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
)

// GroupSpec is the control payload of KCreateGroup: everything the
// Replication Manager fixes at deployment time (paper §2: "user-specified
// fault tolerance properties").
type GroupSpec struct {
	Name     string
	TypeName string
	Props    ftcorba.Properties
	// Nodes are the member nodes, in placement order (the first
	// operational one is the primary under passive replication).
	Nodes []string
}

// EncodeSpec serializes a group spec.
func EncodeSpec(s *GroupSpec) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString(s.Name)
	e.WriteString(s.TypeName)
	e.WriteULong(uint32(s.Props.Style))
	e.WriteULong(uint32(s.Props.InitialReplicas))
	e.WriteULong(uint32(s.Props.MinReplicas))
	e.WriteULongLong(uint64(s.Props.CheckpointInterval))
	e.WriteULong(uint32(s.Props.CheckpointEveryN))
	e.WriteULongLong(uint64(s.Props.FaultMonitoringInterval))
	e.WriteULong(uint32(len(s.Nodes)))
	for _, n := range s.Nodes {
		e.WriteString(n)
	}
	return e.Bytes()
}

// DecodeSpec parses a group spec.
func DecodeSpec(buf []byte) (*GroupSpec, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	var s GroupSpec
	var err error
	if s.Name, err = d.ReadString(); err != nil {
		return nil, err
	}
	if s.TypeName, err = d.ReadString(); err != nil {
		return nil, err
	}
	style, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	s.Props.Style = ftcorba.ReplicationStyle(style)
	ir, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	mr, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	s.Props.InitialReplicas = int(ir)
	s.Props.MinReplicas = int(mr)
	ci, err := d.ReadULongLong()
	if err != nil {
		return nil, err
	}
	cn, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	s.Props.CheckpointEveryN = int(cn)
	fi, err := d.ReadULongLong()
	if err != nil {
		return nil, err
	}
	s.Props.CheckpointInterval = time.Duration(ci)
	s.Props.FaultMonitoringInterval = time.Duration(fi)
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		node, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, node)
	}
	return &s, nil
}

// MemberState is one replica's standing within its group.
type MemberState int

const (
	// MemberOperational replicas process (active) or log (passive backup)
	// the invocation stream.
	MemberOperational MemberState = iota
	// MemberRecovering replicas enqueue the invocation stream while
	// waiting for their state transfer (paper §3.3, §5.1).
	MemberRecovering
)

// Member is one replica of a group.
type Member struct {
	Node  string
	State MemberState
}

// Group is the replicated metadata of one object group. Every node holds
// an identical copy, updated only by envelopes and view changes delivered
// in the total order, so decisions derived from it (primary election,
// donor selection, recovery placement) agree everywhere without further
// coordination.
type Group struct {
	Spec GroupSpec
	// Members in deterministic order: creation placement order, with
	// recovered members appended in recovery order.
	Members []Member
	// NextXferID generates transfer ids deterministically.
	NextXferID uint64
}

// Clone deep-copies the group.
func (g *Group) Clone() *Group {
	out := *g
	out.Members = slices.Clone(g.Members)
	out.Spec.Nodes = slices.Clone(g.Spec.Nodes)
	return &out
}

// HasMember reports whether node hosts a replica (any state).
func (g *Group) HasMember(node string) bool {
	return g.memberIndex(node) >= 0
}

// IsOperational reports whether node hosts an operational replica.
func (g *Group) IsOperational(node string) bool {
	i := g.memberIndex(node)
	return i >= 0 && g.Members[i].State == MemberOperational
}

func (g *Group) memberIndex(node string) int {
	for i, m := range g.Members {
		if m.Node == node {
			return i
		}
	}
	return -1
}

// OperationalMembers lists nodes with operational replicas, in order.
func (g *Group) OperationalMembers() []string {
	var out []string
	for _, m := range g.Members {
		if m.State == MemberOperational {
			out = append(out, m.Node)
		}
	}
	return out
}

// Primary returns the primary's node under passive replication (the first
// operational member), or the designated state donor under active
// replication. ok is false when no operational member remains.
func (g *Group) Primary() (string, bool) {
	for _, m := range g.Members {
		if m.State == MemberOperational {
			return m.Node, true
		}
	}
	return "", false
}

// IsPrimary reports whether node is the group's primary/donor.
func (g *Group) IsPrimary(node string) bool {
	p, ok := g.Primary()
	return ok && p == node
}

// Errors from the group table.
var (
	ErrGroupExists  = errors.New("replication: group already exists")
	ErrGroupUnknown = errors.New("replication: unknown group")
	ErrMemberExists = errors.New("replication: node already hosts a replica")
)

// Table is the group-metadata state machine. It is not safe for
// concurrent use: the owning node mutates it only from its single
// delivery-processing goroutine, mirroring how the state is defined by
// the total order.
type Table struct {
	groups map[string]*Group
}

// NewTable creates an empty table.
func NewTable() *Table {
	return &Table{groups: make(map[string]*Group)}
}

// Get returns a group by name.
func (t *Table) Get(name string) (*Group, bool) {
	g, ok := t.groups[name]
	return g, ok
}

// Names lists group names (sorted, for deterministic iteration).
func (t *Table) Names() []string {
	out := make([]string, 0, len(t.groups))
	for n := range t.groups {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Create applies a KCreateGroup.
func (t *Table) Create(spec *GroupSpec) (*Group, error) {
	if _, ok := t.groups[spec.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrGroupExists, spec.Name)
	}
	if err := spec.Props.Validate(); err != nil {
		return nil, err
	}
	g := &Group{Spec: *spec}
	g.Spec.Nodes = slices.Clone(spec.Nodes)
	// All placement nodes are members. Whether a member node actually
	// instantiates a replica object is a per-style decision made by the
	// hosting node (cold-passive backups keep only a log, paper §3); the
	// membership list itself must be agreed regardless, so the promotion
	// order and log placement are consistent.
	for _, n := range spec.Nodes {
		g.Members = append(g.Members, Member{Node: n, State: MemberOperational})
	}
	t.groups[spec.Name] = g
	return g, nil
}

// RemoveMember applies a KRemoveMember (replica kill) or a node failure.
// It reports whether the node actually hosted a member.
func (t *Table) RemoveMember(group, node string) (bool, error) {
	g, ok := t.groups[group]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrGroupUnknown, group)
	}
	i := g.memberIndex(node)
	if i < 0 {
		return false, nil
	}
	g.Members = slices.Delete(g.Members, i, i+1)
	return true, nil
}

// AddRecovering applies a KAddMember: the node joins in Recovering state
// and starts enqueueing at this point in the total order.
func (t *Table) AddRecovering(group, node string) (*Group, error) {
	g, ok := t.groups[group]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGroupUnknown, group)
	}
	if g.memberIndex(node) >= 0 {
		return nil, fmt.Errorf("%w: %s in %s", ErrMemberExists, node, group)
	}
	g.Members = append(g.Members, Member{Node: node, State: MemberRecovering})
	return g, nil
}

// MarkOperational applies the completion of a state transfer
// (KStateManifest delivered): the recovering member becomes operational.
func (t *Table) MarkOperational(group, node string) error {
	g, ok := t.groups[group]
	if !ok {
		return fmt.Errorf("%w: %q", ErrGroupUnknown, group)
	}
	i := g.memberIndex(node)
	if i < 0 {
		return fmt.Errorf("replication: %s is not a member of %s", node, group)
	}
	g.Members[i].State = MemberOperational
	return nil
}

// NodeFailed removes the failed node from every group and returns the
// names of groups that lost a member (sorted).
func (t *Table) NodeFailed(node string) []string {
	var affected []string
	for name, g := range t.groups {
		if i := g.memberIndex(node); i >= 0 {
			g.Members = slices.Delete(g.Members, i, i+1)
			affected = append(affected, name)
		}
	}
	slices.Sort(affected)
	return affected
}

// EncodeTable serializes the whole table — the KSyncState payload that
// brings a joining node's metadata up to the snapshot position.
func (t *Table) EncodeTable() []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	names := t.Names()
	e.WriteULong(uint32(len(names)))
	for _, name := range names {
		g := t.groups[name]
		e.WriteOctetSeq(EncodeSpec(&g.Spec))
		e.WriteULong(uint32(len(g.Members)))
		for _, m := range g.Members {
			e.WriteString(m.Node)
			e.WriteULong(uint32(m.State))
		}
		e.WriteULongLong(g.NextXferID)
	}
	return e.Bytes()
}

// DecodeTable parses a table snapshot.
func DecodeTable(buf []byte) (*Table, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	t := NewTable()
	for i := uint32(0); i < n; i++ {
		raw, err := d.ReadOctetSeq()
		if err != nil {
			return nil, err
		}
		spec, err := DecodeSpec(raw)
		if err != nil {
			return nil, err
		}
		g := &Group{Spec: *spec}
		nm, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < nm; j++ {
			node, err := d.ReadString()
			if err != nil {
				return nil, err
			}
			st, err := d.ReadULong()
			if err != nil {
				return nil, err
			}
			g.Members = append(g.Members, Member{Node: node, State: MemberState(st)})
		}
		if g.NextXferID, err = d.ReadULongLong(); err != nil {
			return nil, err
		}
		t.groups[spec.Name] = g
	}
	return t, nil
}

// RecoveryTarget picks the node that should host a replacement replica
// for the group: the first node in the (sorted) live-node list that does
// not already host a member. Deterministic given identical table state
// and an identical live-node list, so every node agrees which one of them
// must act. ok is false when no eligible node exists.
func (g *Group) RecoveryTarget(liveNodes []string) (string, bool) {
	// Prefer the group's own configured placement order, then any other
	// live node.
	for _, n := range g.Spec.Nodes {
		if slices.Contains(liveNodes, n) && !g.HasMember(n) {
			return n, true
		}
	}
	sorted := slices.Clone(liveNodes)
	slices.Sort(sorted)
	for _, n := range sorted {
		if !g.HasMember(n) {
			return n, true
		}
	}
	return "", false
}
