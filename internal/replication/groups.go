package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"eternal/internal/codec"
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

// ErrBadTable reports an undecodable group spec or table.
var ErrBadTable = errors.New("replication: bad group spec or table")

// EncodeSpec serializes a group spec: Name and TypeName length-prefixed, the
// five properties as uvarints (a negative one as its 64-bit two's
// complement), the nodes as a list.
func EncodeSpec(s *GroupSpec) []byte { return appendSpec(nil, s) }

func appendSpec(b []byte, s *GroupSpec) []byte {
	b = codec.AppendBytes(codec.AppendBytes(b, s.Name), s.TypeName)
	p := &s.Props
	for _, v := range []int64{int64(p.Style), int64(p.InitialReplicas), int64(p.MinReplicas),
		int64(p.CheckpointInterval), int64(p.FaultMonitoringInterval)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return codec.AppendStrings(b, s.Nodes)
}

// DecodeSpec parses a group spec, and nothing after it.
func DecodeSpec(buf []byte) (*GroupSpec, error) {
	r := codec.NewReader(buf)
	s := readSpec(&r)
	if err := r.Done(ErrBadTable); err != nil {
		return nil, err
	}
	return &s, nil
}

func readSpec(r *codec.Reader) GroupSpec {
	return GroupSpec{Name: r.Str(), TypeName: r.Str(), Props: ftcorba.Properties{
		Style: ftcorba.ReplicationStyle(r.U64()), InitialReplicas: int(r.U64()), MinReplicas: int(r.U64()),
		CheckpointInterval: time.Duration(r.U64()), FaultMonitoringInterval: time.Duration(r.U64()),
	}, Nodes: r.Strs()}
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
	// XferID names the state transfer of the KAddMember that admitted the
	// member (0 for one placed at creation): the one transfer whose
	// manifest cures it, since only a capture taken at its own add covers
	// the queue it holds from there.
	XferID uint64
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

// AddRecovering applies a KAddMember naming transfer xferID: the node joins
// in Recovering state and starts enqueueing at this point in the total
// order.
func (t *Table) AddRecovering(group, node string, xferID uint64) (*Group, error) {
	g, ok := t.groups[group]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGroupUnknown, group)
	}
	if g.memberIndex(node) >= 0 {
		return nil, fmt.Errorf("%w: %s in %s", ErrMemberExists, node, group)
	}
	g.Members = append(g.Members, Member{Node: node, State: MemberRecovering, XferID: xferID})
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
// brings a joining node's metadata up to the snapshot position: a count of
// groups, then in name order each group's spec and its members (node,
// state, transfer id) as a list.
func (t *Table) EncodeTable() []byte {
	names := t.Names()
	b := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		g := t.groups[name]
		b = binary.AppendUvarint(appendSpec(b, &g.Spec), uint64(len(g.Members)))
		for _, m := range g.Members {
			b = binary.AppendUvarint(codec.AppendBytes(b, m.Node), uint64(m.State))
			b = binary.AppendUvarint(b, m.XferID)
		}
	}
	return b
}

// DecodeTable parses a table snapshot. It accepts exactly what EncodeTable
// writes: groups strictly in name order, so none twice; member states this
// node knows; no trailing bytes.
func DecodeTable(buf []byte) (*Table, error) {
	r := codec.NewReader(buf)
	t := NewTable()
	// A group is at least nine bytes: two empty names, five properties and
	// two empty counts.
	prev := ""
	for i, n := 0, r.Count(9); i < n && r.Err() == nil; i++ {
		g := &Group{Spec: readSpec(&r)}
		if i > 0 && g.Spec.Name <= prev {
			r.Fail(errors.New("groups out of name order or repeated"))
		}
		g.Members = make([]Member, r.Count(3)) // a node name's length, a state and a transfer id
		for j := range g.Members {
			node, st, xfer := r.Str(), r.U64(), r.U64()
			if st > uint64(MemberRecovering) {
				r.Fail(errors.New("unknown member state"))
			}
			g.Members[j] = Member{Node: node, State: MemberState(st), XferID: xfer}
		}
		t.groups[g.Spec.Name], prev = g, g.Spec.Name
	}
	if err := r.Done(ErrBadTable); err != nil {
		return nil, err
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
