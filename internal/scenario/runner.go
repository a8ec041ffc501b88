package scenario

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"eternal"
	"eternal/internal/history"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// The replicated object every scenario drives is a history.Register, so
// the final-state oracle can check every acked write survived in issue
// order, once.
const (
	// Group is the replicated group name every scenario creates.
	Group    = "chaos-reg"
	typeName = "scenario.Register"
)

// Runner budgets. Phases that exceed them fail their scenario rather
// than hanging the suite.
const (
	invokeTimeout    = 5 * time.Second
	writeRetryBudget = 6
	writeRetryPause  = 100 * time.Millisecond
	quotaBudget      = 30 * time.Second
	quiesceBudget    = 25 * time.Second
	// auditEpochBudget bounds how many post-quiesce audit epochs a
	// phase may take to produce a complete clean digest row.
	auditEpochBudget = 40
	auditInterval    = 150 * time.Millisecond
	// writeInterval paces the load writer.
	writeInterval = 3 * time.Millisecond
)

// Config tunes a scenario run.
type Config struct {
	// Logf receives progress lines (t.Logf in tests); nil is silent.
	Logf func(format string, args ...any)
}

// PhaseResult is one phase's oracle outcome.
type PhaseResult struct {
	Name  string `json:"name"`
	Split bool   `json:"split,omitempty"`
	// WritesAcked is the number of client writes acked inside the phase.
	WritesAcked int `json:"writes_acked"`
	// Divergences is the MergeEvents divergence count over the
	// phase's flight-recorder window (always 0 on a pass; reported
	// but not asserted for Split phases).
	Divergences int `json:"divergences"`
	// EpochsToClean is how many audit epochs after quiesce the first
	// complete clean digest row took — the recovery-convergence cost.
	EpochsToClean int `json:"epochs_to_clean"`
	// OracleMs is the wall time the phase-boundary oracles took.
	OracleMs float64 `json:"oracle_ms"`
}

// Result is one scenario run's machine-readable outcome; the verdict
// line the runner logs is its summary.
type Result struct {
	Scenario string   `json:"scenario"`
	Seed     int64    `json:"seed"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
	Nodes    int      `json:"nodes"`
	Replicas int      `json:"replicas"`

	ElapsedMs    float64 `json:"elapsed_ms"`
	WritesIssued int     `json:"writes_issued"`
	WritesAcked  int     `json:"writes_acked"`
	WriteRetries int     `json:"write_retries"`
	WriteP50Ms   float64 `json:"write_p50_ms"`
	WriteP95Ms   float64 `json:"write_p95_ms"`
	WriteP99Ms   float64 `json:"write_p99_ms"`

	Kills      int `json:"kills"`
	Restarts   int `json:"restarts"`
	Partitions int `json:"partitions"`
	LinkFaults int `json:"link_faults"`
	// MaxRecoveryEpochs is the worst per-phase EpochsToClean — the
	// scenario's recovery-convergence headline.
	MaxRecoveryEpochs int `json:"max_recovery_epochs"`

	Phases []PhaseResult `json:"phases"`
}

type runner struct {
	sc    Scenario
	cfg   Config
	sched *Schedule
	sys   *eternal.System
	net   *simnet.Network
	res   *Result

	anchor string
	// watermarks holds each node's last-scraped flight-recorder index;
	// a restart resets the node's recorder, so its watermark drops to 0.
	watermarks map[string]uint64
	// down tracks killed-and-not-yet-restarted nodes.
	down map[string]bool
	// lossDirty notes a StepLoss so the phase boundary restores the base rate.
	lossDirty bool

	mu sync.Mutex
	// ops is every write attempt, in issue order; writes and acked count
	// the writes themselves (a write is acked if one of its attempts was).
	ops       []history.Op
	writes    int
	acked     int
	latencies []time.Duration
	retries   int

	stopWriter chan struct{}
	writerDone chan struct{}
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

func (r *runner) fail(phase, format string, args ...any) {
	msg := fmt.Sprintf("[%s/%s seed=%d] %s", r.sc.Name, phase, r.sched.Seed, fmt.Sprintf(format, args...))
	r.res.Failures = append(r.res.Failures, msg)
	r.logf("FAIL %s", msg)
}

// Run executes a scenario end to end and reports the oracle outcome.
// Oracle violations land in Result.Failures (Pass=false); the error is
// reserved for harness problems (bad scenario, cluster won't start).
func Run(sc Scenario, cfg Config) (*Result, error) {
	sched, err := Render(sc, sc.Seed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		sc: sc, cfg: cfg, sched: sched,
		anchor:     sched.Members[0],
		watermarks: make(map[string]uint64),
		down:       make(map[string]bool),
		stopWriter: make(chan struct{}),
		writerDone: make(chan struct{}),
		res: &Result{
			Scenario: sc.Name, Seed: sc.Seed,
			Nodes: sc.Nodes, Replicas: sc.Replicas,
		},
	}
	r.logf("scenario %s seed=%d nodes=%d replicas=%d (replay: same seed renders the identical schedule)",
		sc.Name, sc.Seed, sc.Nodes, sc.Replicas)
	for _, line := range schedLines(sched) {
		r.logf("  %s", line)
	}
	start := time.Now()
	if err := r.start(); err != nil {
		return nil, err
	}
	defer r.sys.Shutdown()

	client, err := r.sys.Client(r.anchor, "chaos-driver")
	if err != nil {
		return nil, err
	}
	defer client.Close()
	obj, err := client.Resolve(Group)
	if err != nil {
		return nil, err
	}
	go r.writer(obj)

	for i := range sched.Phases {
		r.runPhase(i)
		if len(r.res.Failures) > 0 {
			break // a broken phase invalidates the ones after it
		}
	}
	close(r.stopWriter)
	<-r.writerDone
	if len(r.res.Failures) == 0 {
		r.finalStateOracle(obj)
	}

	r.res.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	r.res.WritesIssued = r.writes
	r.res.WritesAcked = r.acked
	r.res.WriteRetries = r.retries
	r.res.WriteP50Ms = quantileMs(r.latencies, 0.50)
	r.res.WriteP95Ms = quantileMs(r.latencies, 0.95)
	r.res.WriteP99Ms = quantileMs(r.latencies, 0.99)
	r.res.Pass = len(r.res.Failures) == 0
	r.logf("scenario %s: pass=%v acked=%d/%d retries=%d p50=%.1fms p95=%.1fms maxRecoveryEpochs=%d in %.1fs",
		sc.Name, r.res.Pass, r.res.WritesAcked, r.res.WritesIssued, r.res.WriteRetries,
		r.res.WriteP50Ms, r.res.WriteP95Ms, r.res.MaxRecoveryEpochs, time.Since(start).Seconds())
	return r.res, nil
}

func schedLines(s *Schedule) []string {
	var out []string
	for _, p := range s.Phases {
		split := ""
		if p.Split {
			split = " [split]"
		}
		out = append(out, fmt.Sprintf("phase %s writes>=%d%s", p.Name, p.Writes, split))
		for _, a := range p.Actions {
			out = append(out, "  "+a.String())
		}
	}
	return out
}

func (r *runner) start() error {
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes:   r.sched.Members,
		Network: simnet.Config{Seed: r.sched.Seed},
		Totem: totem.Config{
			// Large rings reform through the same gather protocol as
			// small ones; the token-loss timeout just needs headroom
			// for rotation under load and recovery chunking.
			TokenLossTimeout: 250 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        30 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    10 * time.Millisecond,
		AuditInterval:  auditInterval,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	r.sys = sys
	r.net = sys.Network()
	sys.RegisterFactory(typeName, func(oid string) eternal.Replica { return &history.Register{} })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: Group, TypeName: typeName,
		Props: eternal.Properties{
			Style:           eternal.Active,
			InitialReplicas: r.sc.Replicas,
			// MinReplicas == InitialReplicas keeps the Resource
			// Manager aggressive: every lost replica triggers
			// re-replication onto a spare node.
			MinReplicas: r.sc.Replicas,
		},
		Nodes: r.sched.Replicas,
	}); err != nil {
		sys.Shutdown()
		return err
	}
	return nil
}

// writer is the sustained client load: sequential string writes through
// the anchor node, each retried through fault windows until acked or out
// of budget. Every attempt writes a value of its own (w00042.1, w00042.2,
// …), so the final-state oracle can tell a retry that also executed from
// one executed twice.
func (r *runner) writer(obj *eternal.ObjectRef) {
	defer close(r.writerDone)
	for i := 0; ; i++ {
		select {
		case <-r.stopWriter:
			return
		default:
		}
		r.mu.Lock()
		r.writes++
		r.mu.Unlock()
		start := time.Now()
		for attempt := 1; attempt <= writeRetryBudget; attempt++ {
			if attempt > 1 {
				r.mu.Lock()
				r.retries++
				r.mu.Unlock()
				select {
				case <-r.stopWriter:
					return
				case <-time.After(writeRetryPause):
				}
			}
			op := history.Op{Client: "writer", Value: fmt.Sprintf("w%05d.%d", i, attempt)}
			e := eternal.NewEncoder(eternal.BigEndian)
			e.WriteString(op.Value)
			_, err := obj.InvokeTimeout("set", e.Bytes(), invokeTimeout)
			op.Acked = err == nil
			r.mu.Lock()
			r.ops = append(r.ops, op)
			if op.Acked {
				r.acked++
				r.latencies = append(r.latencies, time.Since(start))
			}
			r.mu.Unlock()
			if op.Acked {
				break
			}
		}
		select {
		case <-r.stopWriter:
			return
		case <-time.After(writeInterval):
		}
	}
}

func (r *runner) ackedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked
}

func (r *runner) runPhase(idx int) {
	ph := r.sched.Phases[idx]
	r.logf("phase %s: %d actions, writes>=%d", ph.Name, len(ph.Actions), ph.Writes)
	ackedBase := r.ackedCount()
	phaseStart := time.Now()
	for _, a := range ph.Actions {
		if wait := a.At - time.Since(phaseStart); wait > 0 {
			time.Sleep(wait)
		}
		r.execute(ph.Name, a)
		if len(r.res.Failures) > 0 {
			return
		}
	}
	// Sustain the load quota before ending the phase.
	quotaDeadline := time.Now().Add(quotaBudget)
	for r.ackedCount()-ackedBase < ph.Writes {
		if time.Now().After(quotaDeadline) {
			r.fail(ph.Name, "write quota stalled: %d/%d acked within %s",
				r.ackedCount()-ackedBase, ph.Writes, quotaBudget)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Phase boundary: heal the medium, bring every node back, then
	// hold the cluster to the convergence oracles.
	r.net.Heal()
	if r.lossDirty {
		r.net.SetLossRate(0)
		r.lossDirty = false
	}
	for _, m := range r.sched.Members {
		if r.down[m] {
			r.restartNode(ph.Name, m)
		}
	}
	if len(r.res.Failures) > 0 {
		return
	}
	oracleStart := time.Now()
	pr := PhaseResult{Name: ph.Name, Split: ph.Split, WritesAcked: r.ackedCount() - ackedBase}
	r.quiesceOracle(ph.Name)
	if len(r.res.Failures) == 0 {
		pr.EpochsToClean = r.auditOracle(ph.Name)
		if pr.EpochsToClean > r.res.MaxRecoveryEpochs {
			r.res.MaxRecoveryEpochs = pr.EpochsToClean
		}
	}
	pr.Divergences = r.eventOracle(ph.Name, ph.Split)
	pr.OracleMs = float64(time.Since(oracleStart)) / float64(time.Millisecond)
	r.res.Phases = append(r.res.Phases, pr)
	r.logf("phase %s done: acked=%d epochsToClean=%d divergences=%d oracle=%.0fms",
		ph.Name, pr.WritesAcked, pr.EpochsToClean, pr.Divergences, pr.OracleMs)
}

func (r *runner) execute(phase string, a Action) {
	r.logf("  %s", a)
	switch a.Kind {
	case StepKill:
		r.killNode(a.Node)
	case StepRestart:
		r.restartNode(phase, a.Node)
	case StepRolling:
		for _, n := range a.Nodes {
			r.killNode(n)
			// Wait for the group to re-stabilize (the Resource
			// Manager re-replicates onto a spare) before the next
			// casualty, as a real rolling upgrade would.
			r.quiesceOracle(phase)
			if len(r.res.Failures) > 0 {
				return
			}
			r.restartNode(phase, n)
			if len(r.res.Failures) > 0 {
				return
			}
		}
	case StepPartition:
		r.net.Partition(a.Nodes)
		r.res.Partitions++
	case StepAsym:
		for _, m := range r.sched.Members {
			if m != a.Node {
				r.net.SetLink(a.Node, m, simnet.LinkOverride{Drop: true})
			}
		}
		r.res.Partitions++
	case StepHeal:
		r.net.Heal()
	case StepSlow:
		for _, m := range r.sched.Members {
			if m != a.Node {
				r.net.SetLink(a.Node, m, simnet.LinkOverride{ExtraLatency: a.Latency})
				r.net.SetLink(m, a.Node, simnet.LinkOverride{ExtraLatency: a.Latency})
			}
		}
		r.res.LinkFaults++
	case StepFlap:
		for i := 0; i < a.Count; i++ {
			r.net.SetLink(a.Node, a.Peer, simnet.LinkOverride{Drop: true})
			r.net.SetLink(a.Peer, a.Node, simnet.LinkOverride{Drop: true})
			time.Sleep(a.Gap)
			r.net.ClearLink(a.Node, a.Peer)
			r.net.ClearLink(a.Peer, a.Node)
			time.Sleep(a.Gap)
		}
		r.res.LinkFaults++
	case StepLoss:
		r.net.SetLossRate(a.Loss)
		r.lossDirty = true
	}
}

func (r *runner) killNode(addr string) {
	r.sys.CrashNode(addr)
	r.down[addr] = true
	delete(r.watermarks, addr)
	r.res.Kills++
}

func (r *runner) restartNode(phase, addr string) {
	n, err := r.sys.RestartNode(addr)
	if err != nil {
		r.fail(phase, "restart %s: %v", addr, err)
		return
	}
	// A fresh node means a fresh flight recorder and a fresh factory
	// table; the event watermark restarts with it.
	n.RegisterFactory(typeName, func(oid string) eternal.Replica { return &history.Register{} })
	delete(r.down, addr)
	r.watermarks[addr] = 0
	r.res.Restarts++
}

func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return float64(s[i]) / float64(time.Millisecond)
}
