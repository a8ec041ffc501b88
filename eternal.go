// Package eternal is a Go reproduction of the Eternal system — transparent
// fault tolerance for CORBA applications through replication over a
// totally-ordered multicast — as described in:
//
//	P. Narasimhan, L. E. Moser, P. M. Melliar-Smith,
//	"State Synchronization and Recovery for Strongly Consistent
//	Replicated CORBA Objects", DSN 2001.
//
// The library implements the full stack the paper relies on, from scratch:
// CDR marshaling and the GIOP/IIOP protocol (internal/cdr, internal/giop),
// interoperable object references and FT-CORBA object group references
// (internal/ior), a miniature but genuine ORB with per-connection GIOP
// request_id counters and a VisiBroker-style negotiated handshake
// (internal/orb), a Totem-style token-ring totally-ordered reliable
// multicast (internal/totem) over a simulated Ethernet segment
// (internal/simnet), socket-level IIOP interception (internal/interceptor),
// and the Replication and Recovery Mechanisms themselves
// (internal/replication, internal/recovery, internal/core): active, warm
// passive and cold passive replication, duplicate suppression by
// Eternal-generated operation identifiers, checkpoint + message logging,
// and the paper's three-kind state transfer (application-level state via
// the Checkpointable interface, ORB/POA-level state via request-id
// synchronization and handshake replay, and infrastructure-level state
// piggybacked on the fabricated set_state).
//
// # Programming model
//
// An application object that wants fault tolerance implements Replica:
// its operations (Servant) and its Checkpointable state accessors. The
// object is deployed as a replicated group with user-chosen fault
// tolerance properties; clients talk to the group through a completely
// ordinary ORB object reference — the interception layer makes the
// replication invisible, exactly as the paper's Eternal does for
// unmodified CORBA applications.
//
//	sys, _ := eternal.NewSystem(eternal.SystemConfig{Nodes: []string{"n1", "n2", "n3"}})
//	sys.RegisterFactory("Counter", func(oid string) eternal.Replica { return &Counter{} })
//	sys.CreateGroup(eternal.GroupSpec{
//		Name: "ctr", TypeName: "Counter",
//		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2},
//		Nodes: []string{"n1", "n2", "n3"},
//	})
//	obj, _ := sys.Client("n1", "driver").Resolve("ctr")
//	out, _ := obj.Invoke("add", args)   // totally ordered, duplicate-free, fault-masked
package eternal

import (
	"eternal/internal/core"
	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/replication"
)

// Replication styles (paper §3).
const (
	// Active replication: every replica performs every operation.
	Active = ftcorba.Active
	// WarmPassive replication: the primary executes; backups are
	// periodically synchronized to its checkpoints.
	WarmPassive = ftcorba.WarmPassive
	// ColdPassive replication: backups exist only as logs until promoted.
	ColdPassive = ftcorba.ColdPassive
)

// ReplicationStyle selects how a group's replicas are coordinated.
type ReplicationStyle = ftcorba.ReplicationStyle

// Properties are the FT-CORBA fault-tolerance properties fixed at
// deployment (replication style, replica counts, checkpointing interval).
type Properties = ftcorba.Properties

// Checkpointable is the state-access interface every replicated object
// implements (get_state/set_state, paper Figure 3).
type Checkpointable = ftcorba.Checkpointable

// Replica is an invocable, checkpointable application object.
type Replica = ftcorba.Replica

// Factory creates replica instances (the FT-CORBA GenericFactory).
type Factory = ftcorba.Factory

// Servant handles operations addressed to an object.
type Servant = orb.Servant

// ServantFunc adapts a function to the Servant interface.
type ServantFunc = orb.ServantFunc

// GroupSpec describes a replicated object group: name, type, properties
// and replica placement.
type GroupSpec = replication.GroupSpec

// Node is one Eternal processor: group communication endpoint,
// Replication/Recovery Mechanisms, interceptor, and manager logic.
type Node = core.Node

// NodeConfig configures a Node started directly (most applications use
// NewSystem instead).
type NodeConfig = core.Config

// StartNode starts a single Eternal node on the given transport. Most
// applications and all examples use NewSystem, which wires a whole
// multi-node domain over a simulated LAN; StartNode is the building block
// for custom transports (e.g. cmd/eternald's UDP deployment).
func StartNode(cfg NodeConfig) (*Node, error) { return core.Start(cfg) }

// Observability surface (see doc/OBSERVABILITY.md): each Node carries a
// metrics Registry (Node.Metrics, scrapeable via Node.AdminHandler), a
// per-invocation span journal (Node.Spans), and a flight recorder
// (Node.Events) whose recovered events are the per-phase recovery
// timelines (Node.RecoveryTimelines).
type (
	// MetricsRegistry is a node's named collection of counters, gauges and
	// latency histograms.
	MetricsRegistry = obs.Registry
	// RecoveryTimeline is one recovery's per-phase decomposition (capture,
	// transfer, apply, replay) — the live form of the paper's Figure 6.
	RecoveryTimeline = obs.RecoveryTimeline
	// Event is one flight-recorder entry: a membership, recovery or fault
	// event stamped with its Totem sequence number (Node.Events, /events).
	Event = obs.Event
	// Span is one node's phase-timestamp view of one traced invocation
	// (Node.Spans, /spans).
	Span = obs.Span
	// MergedTrace is one invocation's cluster-wide span set, merged by
	// trace id with the Totem sequence cross-checked (eternalctl trace).
	MergedTrace = obs.MergedTrace
	// PhaseAttribution decomposes end-to-end invocation latency into named
	// pipeline phases with per-phase quantiles (eternalctl critical-path).
	PhaseAttribution = obs.PhaseAttribution
	// TokenRotation is one token-visit profile from the totem rotation
	// profiler: hold time, retransmission service, pending-queue drain.
	TokenRotation = obs.TokenRotation
	// AuditSummary is a node's live consistency verdict, with each group's
	// retained digest rows (Node.AuditSummary, /healthz).
	AuditSummary = obs.AuditSummary
	// AuditGroupStatus is one group's per-member audit standing.
	AuditGroupStatus = obs.AuditGroupStatus
	// AuditMemberStatus is one member's last digest, lag and alarm state.
	AuditMemberStatus = obs.AuditMemberStatus
	// AuditEpochRow is one retained audit epoch of a group as a node's
	// collector matched it: expected members, digests, divergence.
	AuditEpochRow = obs.AuditEpochRow
)

// MergeSpans merges per-node span feeds into per-invocation cross-node
// traces; AttributePhases reduces merged traces to a per-phase latency
// decomposition. Both are re-exported for eternalctl and the benchmarks.
var (
	MergeSpans      = obs.MergeSpans
	AttributePhases = obs.AttributePhases
	MergeEvents     = obs.MergeEvents
	// AuditConflicts compares nodes' audit summaries and lists every
	// member digest two collectors hold differently for one epoch.
	AuditConflicts = obs.AuditConflicts
)

// ParseLogLevel parses "debug", "info", "warn" or "error" into a
// slog.Level (eternald's -log-level flag).
var ParseLogLevel = obs.ParseLevel

// Checkpointable sentinel errors (the standard's exceptions).
var (
	ErrNoStateAvailable = ftcorba.ErrNoStateAvailable
	ErrInvalidState     = ftcorba.ErrInvalidState
)

// UserException and SystemException are CORBA exceptions surfaced by
// invocations.
type (
	UserException   = orb.UserException
	SystemException = orb.SystemException
)

// AsUserException and AsSystemException unwrap invocation errors.
var (
	AsUserException   = orb.AsUserException
	AsSystemException = orb.AsSystemException
)
