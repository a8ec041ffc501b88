package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"eternal/internal/anyval"
	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/replication"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// newAuditCluster is newTestCluster with a fast audit cadence, so tests
// observe several epochs in milliseconds instead of the 1s default.
func newAuditCluster(t *testing.T, interval time.Duration, addrs ...string) *testCluster {
	t.Helper()
	c := &testCluster{t: t, net: simnet.New(simnet.Config{}), nodes: make(map[string]*Node)}
	for _, a := range addrs {
		ep, err := c.net.Join(a)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Start(Config{
			Transport:     totem.NewSimnetTransport(ep),
			Totem:         fastTotem(),
			ManagerTick:   10 * time.Millisecond,
			AuditInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.RegisterFactory("Counter", func(oid string) ftcorba.Replica { return &counter{} })
		c.nodes[a] = n
	}
	c.awaitDomain(addrs)
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
	})
	return c
}

// awaitAudits polls until every node has collected at least want
// observations (the marks flow through the total order, so all nodes'
// collectors fill together).
func awaitAudits(t *testing.T, c *testCluster, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for addr, n := range c.nodes {
			s, ok := n.AuditSummary()
			if !ok {
				t.Fatalf("audit disabled on %s", addr)
			}
			if s.Observations < want {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("audit observations never accumulated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAuditClusterMatchingDigests is the happy path: a 3-way active group
// under writes audits clean — every node's collector holds the same
// digests (no conflict between them), no row diverges, and no alarms fire.
func TestAuditClusterMatchingDigests(t *testing.T) {
	c := newAuditCluster(t, 25*time.Millisecond, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	for i := 0; i < 10; i++ {
		add(t, obj, 1)
	}
	awaitAudits(t, c, 6) // at least two full 3-member epochs everywhere

	summaries := make(map[string]obs.AuditSummary)
	var marks, reports uint64
	for addr, n := range c.nodes {
		s, _ := n.AuditSummary()
		if s.Diverged || s.Divergences+s.Lags > 0 {
			t.Fatalf("%s alarmed on a healthy cluster: %+v", addr, s)
		}
		if s.LastEpoch == 0 {
			t.Fatalf("%s has no audit epoch: %+v", addr, s)
		}
		summaries[addr] = s
		st := n.Stats()
		marks += st.AuditMarks
		reports += st.AuditReports
	}
	if marks == 0 || reports == 0 {
		t.Fatalf("marks=%d reports=%d, want both > 0", marks, reports)
	}
	if conflicts := obs.AuditConflicts(summaries); len(conflicts) != 0 {
		t.Fatalf("healthy cluster's collectors conflict: %+v", conflicts)
	}
	rows := 0
	for addr, s := range summaries {
		for _, g := range s.Groups {
			for _, row := range g.Epochs {
				rows++
				if row.Diverged {
					t.Fatalf("%s: healthy cluster diverged: %+v", addr, row)
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("no node holds an audit epoch")
	}
}

// TestAuditPassivePrimaryOnly: in a warm-passive group only the primary
// executes, so only the primary's digest is comparable — backups hold
// checkpoint-stale state and must neither report nor be expected.
func TestAuditPassivePrimaryOnly(t *testing.T) {
	c := newAuditCluster(t, 25*time.Millisecond, "n1", "n2", "n3")
	c.createGroup("wp", ftcorba.WarmPassive, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "wp")
	for i := 0; i < 5; i++ {
		add(t, obj, 1)
	}
	awaitAudits(t, c, 2)

	reporters := make(map[string]bool)
	for addr, n := range c.nodes {
		s, _ := n.AuditSummary()
		if s.Diverged || s.Divergences+s.Lags > 0 {
			t.Fatalf("%s alarmed on a healthy passive group: %+v", addr, s)
		}
		for _, g := range s.Groups {
			for _, row := range g.Epochs {
				for node := range row.Digests {
					if g.Group == "wp" {
						reporters[node] = true
					}
				}
			}
		}
	}
	if len(reporters) != 1 {
		t.Fatalf("passive group reporters = %v, want the primary only", reporters)
	}
}

// noStateCounter is a counter whose get_state raises NoStateAvailable, so
// its replica never reports an audit digest.
type noStateCounter struct{ counter }

func (*noStateCounter) GetState() (anyval.Any, error) {
	return anyval.Any{}, ftcorba.ErrNoStateAvailable
}

// TestAuditLagsSilentPassivePrimary: a warm-passive primary is its group's
// only expected reporter. When its get_state raises NoStateAvailable no
// epoch gets a report, and the lag rule still counts every one of them:
// each node raises lag for the primary at the fifth mark — within ten
// audit intervals, counted in marks — and nobody raises a divergence.
func TestAuditLagsSilentPassivePrimary(t *testing.T) {
	const interval = 50 * time.Millisecond
	c := newAuditCluster(t, interval, "n1", "n2", "n3")
	for _, n := range c.nodes {
		n.RegisterFactory("Counter", func(oid string) ftcorba.Replica { return &noStateCounter{} })
	}
	c.createGroup("wp", ftcorba.WarmPassive, []string{"n1", "n2", "n3"}, 1)

	lagged := func(n *Node) *obs.Event {
		for _, e := range n.Events(0, 0) {
			if e.Type == obs.EventAuditDivergence {
				t.Fatalf("divergence on a silent group: %+v", e)
			}
			if e.Type == obs.EventAuditLag && e.Group == "wp" {
				return &e
			}
		}
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var marks uint64
		done := true
		for _, n := range c.nodes {
			marks += n.Stats().AuditMarks
			if lagged(n) == nil {
				done = false
			}
		}
		if done {
			break
		}
		if marks >= 10 || time.Now().After(deadline) {
			t.Fatalf("no audit-lag on every node after %d marks", marks)
		}
		time.Sleep(interval / 5)
	}
	for addr, n := range c.nodes {
		e := lagged(n)
		if e.Node != "n1" || !strings.HasPrefix(e.Detail, "missed 4 epochs") {
			t.Fatalf("%s: lag event %+v, want n1 at its fifth mark", addr, e)
		}
		if s, _ := n.AuditSummary(); s.Diverged || s.Divergences != 0 || s.Lags != 1 {
			t.Fatalf("%s: summary %+v, want one lag and no divergence", addr, s)
		}
	}
}

// TestHealthzDivergence503: a latched divergence must turn /healthz into
// 503 while the body still carries the full report (the last audited
// epoch included), and a cleared divergence restores 200.
func TestHealthzDivergence503(t *testing.T) {
	c := newAuditCluster(t, 25*time.Millisecond, "a1")
	c.createGroup("grp", ftcorba.Active, []string{"a1"}, 1)
	awaitAudits(t, c, 1)
	srv := httptest.NewServer(c.nodes["a1"].AdminHandler())
	defer srv.Close()

	// Inject a diverged epoch straight into the collector: epoch matching
	// is position-independent, so two mismatched digests latch the group.
	col := c.nodes["a1"].audit
	s, _ := c.nodes["a1"].AuditSummary()
	bad := s.LastEpoch + 1000
	col.Observe(obs.AuditObservation{Group: "grp", Node: "x", Epoch: bad, Digest: 1})
	col.Observe(obs.AuditObservation{Group: "grp", Node: "y", Epoch: bad, Digest: 2})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Synced bool              `json:"synced"`
		Audit  *obs.AuditSummary `json:"audit"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with divergence = %d, want 503", resp.StatusCode)
	}
	if !rep.Synced || rep.Audit == nil || !rep.Audit.Diverged || rep.Audit.LastEpoch < bad {
		t.Fatalf("healthz body = %+v", rep)
	}

	// A clean complete epoch clears the episode and restores 200.
	col.BeginEpoch("grp", bad+1, []string{"x", "y"})
	col.Observe(obs.AuditObservation{Group: "grp", Node: "x", Epoch: bad + 1, Digest: 3})
	col.Observe(obs.AuditObservation{Group: "grp", Node: "y", Epoch: bad + 1, Digest: 3})
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after clean epoch = %d, want 200", resp.StatusCode)
	}
}

// TestNodeStartStopNoGoroutineLeak cycles a node (with the audit and span
// machinery running against a live group) and demands the goroutine count
// return to its baseline: tickers, sweepers and dispatchers must all stop
// with the node.
func TestNodeStartStopNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		net := simnet.New(simnet.Config{})
		ep, err := net.Join("leak")
		if err != nil {
			t.Fatal(err)
		}
		n, err := Start(Config{
			Transport:     totem.NewSimnetTransport(ep),
			Totem:         fastTotem(),
			ManagerTick:   10 * time.Millisecond,
			AuditInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.RegisterFactory("Counter", func(oid string) ftcorba.Replica { return &counter{} })
		if err := n.AwaitSynced(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		err = n.CreateGroup(replication.GroupSpec{
			Name: "g", TypeName: "Counter",
			Props: ftcorba.Properties{Style: ftcorba.Active, InitialReplicas: 1, MinReplicas: 1},
			Nodes: []string{"leak"},
		}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond) // let a few audit epochs run
		n.Stop()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			sz := runtime.Stack(buf, true)
			t.Fatalf("goroutines grew from %d to %d after 4 start/stop cycles:\n%s",
				base, runtime.NumGoroutine(), buf[:sz])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
