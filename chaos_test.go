package eternal_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"eternal"
	"eternal/internal/history"
	"eternal/internal/obs"
	"eternal/internal/totem"
)

// TestChaosSoak runs a replicated register through a randomized storm of
// replica kills, whole-node crashes and restarts, while a client keeps
// writing. The invariant (history.Check): every acknowledged write is
// present in the history, in order and once, at the end — strong replica
// consistency through arbitrary (crash-fault) failure sequences.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	rng := rand.New(rand.NewSource(2026))
	// The group lives on c1-c3; c4 hosts the client and acts as a spare.
	sys, obj := chaosRegister(t, 0, []string{"c1", "c2", "c3", "c4"}, "c4", nil)

	crashed := map[string]bool{}
	var ops []history.Op
	write := func(i int) {
		op := history.Op{Client: "chaos-driver", Value: fmt.Sprintf("w%03d", i), Acked: true}
		e := eternal.NewEncoder(eternal.BigEndian)
		e.WriteString(op.Value)
		if _, err := obj.InvokeTimeout("set", e.Bytes(), 20*time.Second); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		ops = append(ops, op)
	}

	const steps = 60
	for i := 0; i < steps; i++ {
		write(i)
		if i%12 != 7 {
			continue
		}
		// Periodically inject a fault. Never crash c4 (the client's node)
		// and keep at least two of c1-c3 alive so a quorum of replicas
		// and a state donor always exist.
		candidates := []string{"c1", "c2", "c3"}
		alive := 0
		for _, n := range candidates {
			if !crashed[n] {
				alive++
			}
		}
		switch {
		case alive > 2:
			victim := candidates[rng.Intn(len(candidates))]
			if crashed[victim] {
				break
			}
			t.Logf("step %d: crashing node %s", i, victim)
			sys.CrashNode(victim)
			crashed[victim] = true
		default:
			// Restart one crashed node; re-replication follows.
			for _, n := range candidates {
				if crashed[n] {
					t.Logf("step %d: restarting node %s", i, n)
					restarted, err := sys.RestartNode(n)
					if err != nil {
						t.Fatalf("restart %s: %v", n, err)
					}
					restarted.RegisterFactory("Register", newRegister)
					crashed[n] = false
					break
				}
			}
		}
	}
	// Let any in-flight recovery settle, then verify the full history.
	deadline := time.Now().Add(30 * time.Second)
	for {
		hs, err := history.Read(obj, 5*time.Second)
		if err == nil {
			err = history.Check(ops, hs)
		}
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("history of %d acked writes: %v", len(ops), err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestAuditDetectsCorruption injects the fault the consistency audit
// exists for: one replica's state is silently corrupted in place (no
// crash, no missed invocation), and the totally-ordered digest matching
// must flag the divergence within two audit epochs of the corruption.
func TestAuditDetectsCorruption(t *testing.T) {
	const auditInterval = 50 * time.Millisecond
	nodes := []string{"c1", "c2", "c3"}
	// c2's factory additionally hands us the live instance, so the test
	// can reach around the replication machinery and corrupt it.
	var (
		mu     sync.Mutex
		victim *history.Register
	)
	sys, obj := chaosRegister(t, auditInterval, nodes, "c1", func(sys *eternal.System) {
		sys.Node("c2").RegisterFactory("Register", func(oid string) eternal.Replica {
			r := &history.Register{}
			mu.Lock()
			victim = r
			mu.Unlock()
			return r
		})
	})
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteString("before")
	if _, err := obj.Invoke("set", e.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Wait for at least one fully-reported clean epoch, so the baseline is
	// established and the corruption's detection epoch is measurable.
	var baseline uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, ok := sys.Node("c1").AuditSummary()
		if !ok {
			t.Fatal("audit disabled on c1")
		}
		if s.Diverged || s.Divergences+s.Lags+s.Stalls > 0 {
			t.Fatalf("alarms before corruption: %+v", s)
		}
		if s.Observations >= 3 && s.LastEpoch > 0 {
			baseline = s.LastEpoch
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no clean audit epoch completed: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	r := victim
	mu.Unlock()
	if r == nil {
		t.Fatal("victim replica never instantiated on c2")
	}
	e = eternal.NewEncoder(eternal.BigEndian)
	e.WriteString("corrupted-in-place")
	if _, err := r.Invoke("set", e.Bytes(), eternal.BigEndian); err != nil {
		t.Fatal(err)
	}

	// The divergence must surface within two audit epochs everywhere.
	deadline = time.Now().Add(10 * time.Second)
	for {
		alarmed := 0
		for _, nd := range nodes {
			for _, ev := range sys.Node(nd).Events(0, 0) {
				if !strings.HasPrefix(ev.Type, "audit-") {
					continue
				}
				if ev.Type != obs.EventAuditDivergence {
					t.Fatalf("%s raised a non-divergence alarm: %+v", nd, ev)
				}
				alarmed++
				epochs := distinctEpochsAfter(sys.Node(nd).Audits(0, 0), baseline)
				pos := 0
				for i, ep := range epochs {
					if ep == uint64(ev.Value) {
						pos = i + 1
						break
					}
				}
				if pos == 0 || pos > 2 {
					t.Fatalf("%s detected at epoch %d, %d epoch(s) after baseline %d (want <= 2; epochs %v)",
						nd, ev.Value, pos, baseline, epochs)
				}
			}
		}
		if alarmed == len(nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d nodes flagged the corruption", alarmed, len(nodes))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s, _ := sys.Node("c1").AuditSummary(); !s.Diverged {
		t.Fatalf("summary not diverged after detection: %+v", s)
	}
}

// distinctEpochsAfter lists the distinct audit epochs > after in the
// observation feed, ascending (observations arrive in delivery order).
func distinctEpochsAfter(audits []eternal.AuditObservation, after uint64) []uint64 {
	var epochs []uint64
	for _, o := range audits {
		if o.Epoch <= after {
			continue
		}
		if len(epochs) == 0 || epochs[len(epochs)-1] != o.Epoch {
			epochs = append(epochs, o.Epoch)
		}
	}
	return epochs
}

// TestAuditNoFalseAlarmsKillRecover runs the audit at a fast cadence
// through a clean replica kill/recover and a whole-node crash/restart:
// recovery-window suppression and membership-change cancellation must keep
// the alarm count at exactly zero.
func TestAuditNoFalseAlarmsKillRecover(t *testing.T) {
	const auditInterval = 100 * time.Millisecond
	sys, obj := chaosRegister(t, auditInterval, []string{"c1", "c2", "c3", "c4"}, "c4", nil)
	write := func(i int) {
		e := eternal.NewEncoder(eternal.BigEndian)
		e.WriteString(fmt.Sprintf("w%03d", i))
		if _, err := obj.InvokeTimeout("set", e.Bytes(), 20*time.Second); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		write(i)
	}

	// Clean replica kill/recover on c2 with writes in between — the
	// recovering replica replays its held queue and its late audit reports
	// must still match.
	if err := sys.Node("c2").KillReplica("reg", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		write(i)
	}
	if err := sys.Node("c2").RecoverReplica("reg", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		write(i)
	}

	// Whole-node crash and restart of c3.
	sys.CrashNode("c3")
	for i := 15; i < 20; i++ {
		write(i)
	}
	restarted, err := sys.RestartNode("c3")
	if err != nil {
		t.Fatal(err)
	}
	restarted.RegisterFactory("Register", newRegister)
	for i := 20; i < 25; i++ {
		write(i)
	}

	// Let several audit epochs (and the stall sweep's 8x deadline) pass
	// after the last fault, then demand a spotless record everywhere.
	time.Sleep(12 * auditInterval)
	for _, nd := range sys.Nodes() {
		s, ok := sys.Node(nd).AuditSummary()
		if !ok {
			t.Fatalf("audit disabled on %s", nd)
		}
		if s.Diverged || s.Divergences+s.Lags+s.Stalls > 0 {
			t.Fatalf("%s raised false alarms: %+v", nd, s)
		}
		if s.Observations == 0 || s.LastEpoch == 0 {
			t.Fatalf("%s collected no audits: %+v", nd, s)
		}
	}
}

// chaosRegister starts a domain of nodes on the chaos tests' timers, with
// the audit every audit (0: the default), and returns it with a client's
// reference, from clientNode, to an active history.Register group "reg"
// on the first three nodes (MinReplicas 2). setup runs before the group
// is created.
func chaosRegister(t *testing.T, audit time.Duration, nodes []string, clientNode string, setup func(*eternal.System)) (*eternal.System, *eternal.ObjectRef) {
	t.Helper()
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Totem: totem.Config{
			TokenLossTimeout: 150 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        25 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    10 * time.Millisecond,
		AuditInterval:  audit,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	sys.RegisterFactory("Register", newRegister)
	if setup != nil {
		setup(sys)
	}
	props := eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2}
	return sys, registerGroup(t, sys, props, clientNode, nodes[:3]...)
}
