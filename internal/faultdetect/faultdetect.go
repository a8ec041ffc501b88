// Package faultdetect implements Eternal's fault detectors and fault
// notifier (paper Figure 1; FT-CORBA's PullMonitorable model).
//
// Two fault classes are detected by different layers:
//
//   - Processor (node) faults are detected by the group-communication
//     substrate — a crashed node stops forwarding the token and the ring
//     reforms (internal/totem). That path needs no polling.
//   - Replica faults (a hung or broken object on a live node) are
//     detected here: a per-replica pull monitor invokes is_alive() at the
//     object's FaultMonitoringInterval (a user-chosen FT-CORBA property,
//     paper §2) and reports objects that stop answering.
//
// Detected faults are published through the Notifier, the moral
// equivalent of the FT-CORBA FaultNotifier's event fan-out: the node's
// Replication Manager subscribes and reacts (removing the replica so the
// Resource Manager can re-launch it).
package faultdetect

import (
	"sync"
	"time"

	"eternal/internal/obs"
)

// Fault is one detected fault event.
type Fault struct {
	// Group is the replicated object whose replica faulted.
	Group string
	// Node hosts the faulted replica.
	Node string
	// Reason is a human-readable cause ("is_alive timeout", ...).
	Reason string
	// Detected is when the monitor concluded the replica is faulty.
	Detected time.Time
}

// Notifier fans fault events out to subscribers — the FT-CORBA
// FaultNotifier reduced to its essence.
type Notifier struct {
	mu   sync.Mutex
	subs []chan Fault
	rec  *obs.Recorder
}

// AttachRecorder routes every published fault into the flight recorder as
// a suspicion event (a local event: suspicions are one detector's view,
// not an agreed position in the total order).
func (n *Notifier) AttachRecorder(rec *obs.Recorder) {
	n.mu.Lock()
	n.rec = rec
	n.mu.Unlock()
}

// NewNotifier creates an empty notifier.
func NewNotifier() *Notifier {
	return &Notifier{}
}

// Subscribe returns a channel receiving all subsequent fault events.
// Slow subscribers lose events rather than blocking detection.
func (n *Notifier) Subscribe() <-chan Fault {
	ch := make(chan Fault, 64)
	n.mu.Lock()
	n.subs = append(n.subs, ch)
	n.mu.Unlock()
	return ch
}

// Publish delivers a fault event to every subscriber.
func (n *Notifier) Publish(f Fault) {
	n.mu.Lock()
	subs := make([]chan Fault, len(n.subs))
	copy(subs, n.subs)
	rec := n.rec
	n.mu.Unlock()
	rec.Record(obs.Event{
		Type: obs.EventSuspicion, At: f.Detected,
		Group: f.Group, Node: f.Node, Detail: f.Reason,
	})
	for _, ch := range subs {
		select {
		case ch <- f:
		default:
		}
	}
}

// Pinger performs one liveness probe of a monitored replica; it returns
// false (or blocks past the monitoring interval) when the replica is
// faulty. In Eternal this is an is_alive() invocation injected through
// the replica's own ORB, so a wedged servant fails the probe exactly as
// it would fail a client.
type Pinger func() bool

// Monitor pull-monitors one replica.
type Monitor struct {
	group    string
	node     string
	interval time.Duration
	ping     Pinger
	notifier *Notifier

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// StartMonitor begins pull-monitoring. interval is the FT-CORBA
// FaultMonitoringInterval, which also bounds one probe. The monitor
// reports at most one fault, then stops itself — the managers replace
// the replica, and the replacement gets a fresh monitor.
func StartMonitor(group, node string, interval time.Duration, ping Pinger, notifier *Notifier) *Monitor {
	m := &Monitor{
		group:    group,
		node:     node,
		interval: interval,
		ping:     ping,
		notifier: notifier,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	go m.run()
	return m
}

// Stop cancels the monitor (replica removed for other reasons).
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	<-m.done
}

func (m *Monitor) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-ticker.C:
			if !m.probe() {
				m.notifier.Publish(Fault{
					Group:    m.group,
					Node:     m.node,
					Reason:   "is_alive probe failed",
					Detected: time.Now(),
				})
				return
			}
		}
	}
}

// probe runs one bounded liveness check.
func (m *Monitor) probe() bool {
	result := make(chan bool, 1)
	go func() { result <- m.ping() }()
	select {
	case ok := <-result:
		return ok
	case <-time.After(m.interval):
		return false // a hung replica is a faulty replica
	case <-m.stopCh:
		return true
	}
}
