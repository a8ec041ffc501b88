package eternal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eternal/internal/core"
	"eternal/internal/orb"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// SystemConfig describes a whole Eternal domain: the set of processors
// and the physical properties of the LAN connecting them. The zero value
// of Network models the paper's testbed medium (Ethernet MTU 1518); set
// BandwidthBps/Latency to add serialization and propagation delays when
// reproducing timing experiments.
type SystemConfig struct {
	// Nodes are the processor addresses; one Eternal node runs per entry.
	Nodes []string
	// Network is the simulated LAN (see internal/simnet).
	Network simnet.Config
	// Totem tunes the multicast protocol (timeouts, token pacing).
	Totem totem.Config
	// ManagerTick is the resource-manager/checkpoint scheduler period.
	ManagerTick time.Duration
	// AuditInterval is the period of the consistency-audit marks each
	// group primary multicasts (0 = default 1s; negative disables the
	// audit subsystem).
	AuditInterval time.Duration
	// DefaultTimeout bounds the System's administrative operations
	// (default 30s).
	DefaultTimeout time.Duration
}

// System is a running multi-node Eternal domain over a simulated LAN —
// the in-process equivalent of the paper's cluster of workstations. It is
// the deployment harness used by the examples, tests and benchmarks;
// production-style one-process-per-node deployments use StartNode with a
// real transport instead (see cmd/eternald).
type System struct {
	cfg SystemConfig
	net *simnet.Network

	mu    sync.Mutex
	nodes map[string]*core.Node
}

// NewSystem starts all configured nodes and waits until the domain's
// group metadata is synchronized everywhere.
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("eternal: SystemConfig.Nodes is empty")
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	s := &System{
		cfg:   cfg,
		net:   simnet.New(cfg.Network),
		nodes: make(map[string]*core.Node),
	}
	for _, addr := range cfg.Nodes {
		if _, err := s.startNode(addr); err != nil {
			s.Shutdown()
			return nil, err
		}
	}
	// One view of the whole domain first: rings formed on the way there
	// synchronized on their own, and the merge resets one side.
	for _, addr := range cfg.Nodes {
		if err := s.Node(addr).AwaitView(cfg.Nodes, cfg.DefaultTimeout); err != nil {
			s.Shutdown()
			return nil, fmt.Errorf("eternal: node %s never saw the whole domain: %w", addr, err)
		}
	}
	for _, addr := range cfg.Nodes {
		if err := s.Node(addr).AwaitSynced(cfg.DefaultTimeout); err != nil {
			s.Shutdown()
			return nil, fmt.Errorf("eternal: node %s never synchronized: %w", addr, err)
		}
	}
	return s, nil
}

func (s *System) startNode(addr string) (*core.Node, error) {
	ep, err := s.net.Join(addr)
	if err != nil {
		return nil, err
	}
	// Membership learns the configured domain, so the ring forms the
	// moment every node has joined.
	tc := s.cfg.Totem
	tc.Nodes = s.cfg.Nodes
	n, err := core.Start(core.Config{
		Transport:     totem.NewSimnetTransport(ep),
		Totem:         tc,
		ManagerTick:   s.cfg.ManagerTick,
		AuditInterval: s.cfg.AuditInterval,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nodes[addr] = n
	s.mu.Unlock()
	return n, nil
}

// Node returns the node with the given address (nil if absent/crashed).
func (s *System) Node(addr string) *core.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[addr]
}

// Nodes lists the currently running node addresses.
func (s *System) Nodes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.nodes))
	for a := range s.nodes {
		out = append(out, a)
	}
	return out
}

// Network exposes the simulated LAN (partitions, loss, statistics).
func (s *System) Network() *simnet.Network { return s.net }

// RegisterFactory installs a replica factory on every node.
func (s *System) RegisterFactory(typeName string, f Factory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.nodes {
		n.RegisterFactory(typeName, f)
	}
}

// CreateGroup deploys a replicated object group and waits until every
// placement node hosts its replica.
func (s *System) CreateGroup(spec GroupSpec) error {
	first := s.Node(spec.Nodes[0])
	if first == nil {
		return fmt.Errorf("eternal: placement node %q is not running", spec.Nodes[0])
	}
	if err := first.CreateGroup(spec, s.cfg.DefaultTimeout); err != nil {
		return err
	}
	for _, addr := range spec.Nodes {
		if n := s.Node(addr); n != nil {
			if err := n.AwaitGroup(spec.Name, s.cfg.DefaultTimeout); err != nil {
				return err
			}
		}
	}
	return nil
}

// CrashNode stops a node abruptly: its replicas die with it, the ring
// reforms, and the managers react (failover, re-replication).
func (s *System) CrashNode(addr string) {
	s.mu.Lock()
	n := s.nodes[addr]
	delete(s.nodes, addr)
	s.mu.Unlock()
	if n != nil {
		n.Stop()
	}
}

// RestartNode brings a crashed node back: it rejoins the domain, learns
// the group metadata from a peer, and becomes eligible for re-replication.
// It returns when the node is synchronized in whatever view it found, not
// (as NewSystem) once every configured node is in it: others may be down.
func (s *System) RestartNode(addr string) (*core.Node, error) {
	if s.Node(addr) != nil {
		return nil, fmt.Errorf("eternal: node %q is already running", addr)
	}
	n, err := s.startNode(addr)
	if err != nil {
		return nil, err
	}
	if err := n.AwaitSynced(s.cfg.DefaultTimeout); err != nil {
		return nil, err
	}
	return n, nil
}

// UpgradeGroup performs a live upgrade of a replicated object — the
// paper's Evolution Manager (§2), which "exploits object replication to
// support upgrades to the CORBA application objects". Re-register the
// type's factory with the new implementation first (its SetState must
// accept the old implementation's GetState format), then call this: each
// replica is replaced in turn — killed, re-launched from the new factory,
// and brought up to date by the ordinary three-kind state transfer —
// while the remaining replicas keep serving, so the group is upgraded
// with no downtime.
func (s *System) UpgradeGroup(group string) error {
	// Any running node's metadata will do: it is identical everywhere.
	var any *core.Node
	s.mu.Lock()
	for _, n := range s.nodes {
		any = n
		break
	}
	s.mu.Unlock()
	if any == nil {
		return errors.New("eternal: no running nodes")
	}
	members, err := any.GroupMembers(group)
	if err != nil {
		return err
	}
	if len(members) < 2 {
		return fmt.Errorf("eternal: group %q needs at least 2 replicas for a live upgrade", group)
	}
	for _, m := range members {
		n := s.Node(m.Node)
		if n == nil {
			continue // a crashed node's member will be handled by the managers
		}
		if err := n.KillReplica(group, s.cfg.DefaultTimeout); err != nil {
			return fmt.Errorf("eternal: upgrading %s on %s (kill): %w", group, m.Node, err)
		}
		if err := n.RecoverReplica(group, s.cfg.DefaultTimeout); err != nil {
			return fmt.Errorf("eternal: upgrading %s on %s (relaunch): %w", group, m.Node, err)
		}
	}
	return nil
}

// Shutdown stops every node.
func (s *System) Shutdown() {
	s.mu.Lock()
	nodes := make([]*core.Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.nodes = make(map[string]*core.Node)
	s.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
}

// Client is a fault-tolerance-transparent client attachment: an ordinary
// ORB whose connections the node's mechanisms intercept.
type Client struct {
	node *core.Node
	orb  *orb.ORB
	sys  *System
}

// Client attaches a client entity at the given node. Entities that are
// replicas of a replicated client use their group name on every node;
// independent clients use any unique name.
func (s *System) Client(nodeAddr, entity string) (*Client, error) {
	n := s.Node(nodeAddr)
	if n == nil {
		return nil, fmt.Errorf("eternal: node %q is not running", nodeAddr)
	}
	o := n.ClientORB(entity, orb.Options{RequestTimeout: s.cfg.DefaultTimeout})
	return &Client{node: n, orb: o, sys: s}, nil
}

// ObjectRef is an invocable reference to a (replicated) object.
type ObjectRef = orb.ObjectRef

// Resolve returns an invocable reference to a replicated group.
func (c *Client) Resolve(group string) (*ObjectRef, error) {
	if err := c.node.AwaitGroup(group, c.sys.cfg.DefaultTimeout); err != nil {
		return nil, err
	}
	ref, err := c.node.GroupIOR(group)
	if err != nil {
		return nil, err
	}
	return c.orb.Object(ref)
}

// Close shuts the client's connections down.
func (c *Client) Close() { c.orb.Close() }
