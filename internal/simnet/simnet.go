// Package simnet simulates the broadcast LAN the paper's testbed ran on:
// a shared-medium Ethernet with bounded frame size, finite bandwidth,
// propagation latency, probabilistic frame loss, and partitions.
//
// The paper's Figure 6 depends on two physical properties that simnet
// models explicitly: the 1518-byte maximum Ethernet frame (any IIOP message
// larger than one frame must travel as multiple multicast messages) and the
// 100 Mbps shared medium (serialization delay grows linearly with bytes on
// the wire). Latency is applied per frame; serialization time is accounted
// on a single shared wire, so concurrent senders queue behind each other
// exactly as on a real half-duplex segment.
//
// Endpoints expose unicast Send and Broadcast with an MTU; payloads larger
// than the MTU are rejected — fragmentation is the upper layer's job (the
// Totem layer fragments large messages into multiple ordered multicasts,
// matching the paper's description).
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EthernetMTU is the classic maximum Ethernet frame size the paper cites.
const EthernetMTU = 1518

const (
	// inboxDepth is the per-endpoint receive queue depth; frames arriving
	// at a full inbox are dropped (NIC overrun) and counted.
	inboxDepth = 4096
	// frameOverhead is the per-frame header bytes (Ethernet+IP+UDP)
	// charged against bandwidth.
	frameOverhead = 54
)

// Errors reported by endpoints.
var (
	ErrTooLarge     = errors.New("simnet: payload exceeds MTU")
	ErrClosed       = errors.New("simnet: endpoint closed")
	ErrUnknownAddr  = errors.New("simnet: unknown address")
	ErrDuplicateAdr = errors.New("simnet: address already joined")
)

// Config describes the physical medium.
type Config struct {
	// Latency is the propagation delay applied to every frame.
	Latency time.Duration
	// BandwidthBps is the shared wire speed in bits per second;
	// 0 means infinite (no serialization delay).
	BandwidthBps int64
	// MTU is the maximum frame payload; 0 means EthernetMTU.
	MTU int
	// LossRate is the probability in [0,1) that any individual frame is
	// dropped, decided by a deterministic PRNG.
	LossRate float64
	// Seed seeds the loss PRNG; 0 means a fixed default, keeping runs
	// reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = EthernetMTU
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Stats are cumulative medium counters.
type Stats struct {
	FramesSent      uint64
	FramesDelivered uint64
	FramesLost      uint64
	FramesOverrun   uint64
	BytesOnWire     uint64
}

// Packet is one delivered frame.
type Packet struct {
	From    string
	Payload []byte
}

// LinkOverride reshapes one directed link src→dst, layered on top of the
// medium's global parameters. Overrides compose with partitions: a frame
// travels only when the partition map allows it AND the link does.
type LinkOverride struct {
	// Drop discards every frame on the link — a one-way partition
	// (src's frames never reach dst; the reverse link is unaffected).
	Drop bool
	// LossRate is an additional per-link loss probability in [0,1),
	// applied on top of the global Config.LossRate by the same seeded
	// PRNG (destinations are drawn in address order, so runs replay).
	LossRate float64
	// ExtraLatency delays the link's deliveries beyond the shared-wire
	// serialization and global propagation latency — a slow or congested
	// path to one receiver.
	ExtraLatency time.Duration
}

// zero reports whether the override changes nothing (ClearLink sugar).
func (o LinkOverride) zero() bool {
	return !o.Drop && o.LossRate == 0 && o.ExtraLatency == 0
}

// linkKey identifies a directed link.
type linkKey struct{ src, dst string }

// Network is a simulated broadcast segment.
//
// All methods are safe for concurrent use.
type Network struct {
	cfg Config

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	partition map[string]int // addr -> partition id; absent means 0
	links     map[linkKey]LinkOverride
	isolated  map[string]bool
	lossRate  float64 // runtime-reconfigurable global loss (Config.LossRate initially)
	rng       *rand.Rand
	// wireFree is the earliest time the shared wire is idle again.
	wireFree time.Time

	framesSent      atomic.Uint64
	framesDelivered atomic.Uint64
	framesLost      atomic.Uint64
	framesOverrun   atomic.Uint64
	bytesOnWire     atomic.Uint64
}

// New creates a network with the given physical parameters.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		cfg:       cfg,
		endpoints: make(map[string]*Endpoint),
		partition: make(map[string]int),
		links:     make(map[linkKey]LinkOverride),
		isolated:  make(map[string]bool),
		lossRate:  cfg.LossRate,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
}

// MTU reports the medium's maximum frame payload.
func (n *Network) MTU() int { return n.cfg.MTU }

// Stats returns a snapshot of the medium counters.
func (n *Network) Stats() Stats {
	return Stats{
		FramesSent:      n.framesSent.Load(),
		FramesDelivered: n.framesDelivered.Load(),
		FramesLost:      n.framesLost.Load(),
		FramesOverrun:   n.framesOverrun.Load(),
		BytesOnWire:     n.bytesOnWire.Load(),
	}
}

// Join attaches a new endpoint with the given address.
func (n *Network) Join(addr string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateAdr, addr)
	}
	ep := &Endpoint{
		net:   n,
		addr:  addr,
		inbox: make(chan Packet, inboxDepth),
	}
	n.endpoints[addr] = ep
	return ep, nil
}

// Remove detaches an endpoint, closing its inbox. Removing an absent
// address is a no-op, so crash tests can kill nodes idempotently.
func (n *Network) Remove(addr string) {
	n.mu.Lock()
	ep, ok := n.endpoints[addr]
	if ok {
		delete(n.endpoints, addr)
	}
	n.mu.Unlock()
	if ok {
		ep.markClosed()
	}
}

// Partition splits the segment into symmetric groups: addresses within
// one group still hear each other (in both directions); across groups
// nothing is delivered, broadcast or unicast. Every address NOT named in
// any group — including endpoints that join later — forms one implicit
// extra group that keeps communicating among itself, so Partition([a])
// cuts a off from everyone else while the rest stay connected. Each call
// replaces the previous partition wholesale (calls do not compose);
// Heal() restores full connectivity. Partitions are symmetric by
// construction — for one-way faults use SetLink or Isolate, which compose
// with (and survive) Partition calls.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
	for i, g := range groups {
		for _, a := range g {
			n.partition[a] = i + 1
		}
	}
}

// SetLink installs (or replaces) the override shaping the directed link
// src→dst: frames sent by src and addressed to — or broadcast toward —
// dst are dropped, additionally lossy, or delayed per the override. The
// reverse link dst→src is untouched, which is what makes asymmetric
// faults expressible: SetLink(b, a, LinkOverride{Drop: true}) gives
// "a hears b… nothing" while b still hears a. A zero override clears the
// link. Takes effect immediately; safe while traffic is in flight.
func (n *Network) SetLink(src, dst string, o LinkOverride) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey{src, dst}
	if o.zero() {
		delete(n.links, k)
		return
	}
	n.links[k] = o
}

// ClearLink removes the src→dst override, if any.
func (n *Network) ClearLink(src, dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, linkKey{src, dst})
}

// Isolate severs addr from the segment in both directions: nothing it
// sends is delivered anywhere (loopback aside) and nothing reaches it.
// Unlike Partition, isolation composes: isolating several addresses cuts
// each off individually (they do not hear each other either), and the
// rest of the segment is unaffected. Undo with Heal.
func (n *Network) Isolate(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[addr] = true
}

// SetLossRate reconfigures the global frame-loss probability at runtime
// (the flapping-quality-medium knob). Per-link LossRate overrides stack
// on top of it.
func (n *Network) SetLossRate(rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossRate = rate
}

// Heal restores full connectivity: all partitions, link overrides and
// isolations are removed. The global loss rate is left as configured
// (use SetLossRate to change it).
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
	n.links = make(map[linkKey]LinkOverride)
	n.isolated = make(map[string]bool)
}

// transmit schedules one frame from src to the given destinations.
// Returns the delivery delay that was applied.
func (n *Network) transmit(src string, dsts []*Endpoint, payload []byte) time.Duration {
	n.framesSent.Add(1)
	wireBytes := len(payload) + frameOverhead
	n.bytesOnWire.Add(uint64(wireBytes))

	n.mu.Lock()
	lost := n.lossRate > 0 && n.rng.Float64() < n.lossRate
	var delay time.Duration
	now := time.Now()
	if n.cfg.BandwidthBps > 0 {
		ser := time.Duration(int64(wireBytes) * 8 * int64(time.Second) / n.cfg.BandwidthBps)
		start := n.wireFree
		if start.Before(now) {
			start = now
		}
		end := start.Add(ser)
		n.wireFree = end
		delay = end.Sub(now) + n.cfg.Latency
	} else {
		delay = n.cfg.Latency
	}
	// Per-link shaping: loss rolls happen here, under the lock and in the
	// destinations' address order (see destinations), so the PRNG stream —
	// and with it every seeded replay — stays deterministic. plan groups
	// the survivors by their extra link latency; with no overrides in
	// force it stays nil and the common path below delivers like always.
	var plan map[time.Duration][]*Endpoint
	var perLinkLost uint64
	if !lost && len(n.links) > 0 {
		plan = make(map[time.Duration][]*Endpoint, 1)
		for _, ep := range dsts {
			o := n.links[linkKey{src, ep.addr}]
			if o.LossRate > 0 && n.rng.Float64() < o.LossRate {
				perLinkLost++
				continue
			}
			plan[o.ExtraLatency] = append(plan[o.ExtraLatency], ep)
		}
	}
	n.mu.Unlock()

	if lost {
		n.framesLost.Add(1)
		return delay
	}
	n.framesLost.Add(perLinkLost)

	deliverTo := func(eps []*Endpoint) func() {
		return func() {
			pkt := Packet{From: src, Payload: payload}
			for _, ep := range eps {
				if ep.deliver(pkt) {
					n.framesDelivered.Add(1)
				} else {
					n.framesOverrun.Add(1)
				}
			}
		}
	}
	// Go's runtime timers have roughly millisecond granularity; a timer
	// for a 50µs propagation delay fires a millisecond late, which would
	// quantize every frame hop to the timer floor and swamp the model.
	// Sub-floor delays are therefore delivered synchronously: the shared
	// wireFree accounting above still throttles *throughput* exactly (the
	// cumulative serialization of a large transfer exceeds the floor and
	// uses real timers), only the per-frame propagation of lightly loaded
	// links is optimistic by less than the timer error it avoids.
	schedule := func(d time.Duration, deliver func()) {
		if d < timerFloor {
			deliver()
		} else {
			time.AfterFunc(d, deliver)
		}
	}
	if plan == nil {
		schedule(delay, deliverTo(dsts))
	} else {
		for extra, eps := range plan {
			schedule(delay+extra, deliverTo(eps))
		}
	}
	return delay
}

// timerFloor is the assumed granularity of runtime timers.
const timerFloor = 2 * time.Millisecond

// destinations returns live endpoints reachable from src: all in src's
// partition minus dropped links and isolated nodes (for broadcast), or
// just the named target when reachable (for unicast).
func (n *Network) destinations(src, to string, broadcast bool) ([]*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[src]; !ok {
		return nil, fmt.Errorf("%w: sender %q", ErrUnknownAddr, src)
	}
	if broadcast {
		dsts := make([]*Endpoint, 0, len(n.endpoints))
		for a, ep := range n.endpoints {
			if n.reachableLocked(src, a) {
				dsts = append(dsts, ep)
			}
		}
		if len(n.links) > 0 {
			// Per-link loss rolls in transmit consume the seeded PRNG per
			// destination; a stable order keeps replays deterministic.
			sort.Slice(dsts, func(i, j int) bool { return dsts[i].addr < dsts[j].addr })
		}
		return dsts, nil
	}
	ep, ok := n.endpoints[to]
	if !ok || !n.reachableLocked(src, to) {
		// Silently dropped, like a LAN with a dead host: the frame goes on
		// the wire and nobody picks it up.
		return nil, nil
	}
	return []*Endpoint{ep}, nil
}

// reachableLocked decides whether a frame from src may reach dst under
// the current partition, isolation and link-drop state. Loopback to the
// sender itself is always allowed — an isolated node's NIC still loops
// its own multicasts back. Caller holds n.mu.
func (n *Network) reachableLocked(src, dst string) bool {
	if dst == src {
		return true
	}
	if n.isolated[src] || n.isolated[dst] {
		return false
	}
	if n.partition[dst] != n.partition[src] {
		return false
	}
	return !n.links[linkKey{src, dst}].Drop
}

// Endpoint is one attached node.
type Endpoint struct {
	net  *Network
	addr string

	// mu orders deliveries against close so that no frame is ever sent on
	// a closed inbox channel.
	mu     sync.RWMutex
	inbox  chan Packet
	closed bool
}

// Addr returns the endpoint's address.
func (ep *Endpoint) Addr() string { return ep.addr }

// MTU reports the medium MTU.
func (ep *Endpoint) MTU() int { return ep.net.cfg.MTU }

// Recv returns the endpoint's delivery channel. The channel is closed when
// the endpoint is removed from the network or Close is called.
func (ep *Endpoint) Recv() <-chan Packet { return ep.inbox }

// Send transmits one frame to the named address. Sending to an absent,
// partitioned-away, isolated, or link-dropped address silently drops the
// frame (LAN semantics).
func (ep *Endpoint) Send(to string, payload []byte) error {
	return ep.send(to, payload, false)
}

// Broadcast transmits one frame to every endpoint in the sender's
// partition, including the sender itself (multicast loopback).
func (ep *Endpoint) Broadcast(payload []byte) error {
	return ep.send("", payload, true)
}

func (ep *Endpoint) send(to string, payload []byte, broadcast bool) error {
	ep.mu.RLock()
	closed := ep.closed
	ep.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if len(payload) > ep.net.cfg.MTU {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), ep.net.cfg.MTU)
	}
	// Copy at the boundary: the caller may reuse its buffer.
	p := make([]byte, len(payload))
	copy(p, payload)
	dsts, err := ep.net.destinations(ep.addr, to, broadcast)
	if err != nil {
		return err
	}
	ep.net.transmit(ep.addr, dsts, p)
	return nil
}

// Close detaches the endpoint from the network.
func (ep *Endpoint) Close() error {
	ep.net.Remove(ep.addr)
	return nil
}

func (ep *Endpoint) deliver(pkt Packet) bool {
	ep.mu.RLock()
	defer ep.mu.RUnlock()
	if ep.closed {
		return false
	}
	select {
	case ep.inbox <- pkt:
		return true
	default:
		return false
	}
}

func (ep *Endpoint) markClosed() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed {
		ep.closed = true
		close(ep.inbox)
	}
}
