// Package faultdetect implements Eternal's replica fault detector (paper
// Figure 1; FT-CORBA's PullMonitorable model).
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
// A monitor reports the fault it detects through the callback it was
// started with: the node's Replication Manager, which removes the replica
// so the Resource Manager can re-launch it. That callback is all that is
// left of the FT-CORBA FaultNotifier, since each monitor has exactly one
// party to tell.
package faultdetect

import (
	"sync"
	"time"
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
	report   func(Fault)

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// StartMonitor begins pull-monitoring. interval is the FT-CORBA
// FaultMonitoringInterval, which also bounds one probe. The monitor
// reports at most one fault, calling report on its own goroutine, then
// stops itself — the managers replace the replica, and the replacement
// gets a fresh monitor.
func StartMonitor(group, node string, interval time.Duration, ping Pinger, report func(Fault)) *Monitor {
	m := &Monitor{
		group:    group,
		node:     node,
		interval: interval,
		ping:     ping,
		report:   report,
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
				m.report(Fault{
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
