package eternal_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"eternal"
	"eternal/internal/obs"
	"eternal/internal/totem"
)

// TestChaosSoak runs a replicated register through a randomized storm of
// replica kills, whole-node crashes and restarts, while a client keeps
// writing. The invariant: every acknowledged write is present in the
// history, in order, at the end — strong replica consistency through
// arbitrary (crash-fault) failure sequences.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	rng := rand.New(rand.NewSource(2026))
	nodes := []string{"c1", "c2", "c3", "c4"}
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Totem: totem.Config{
			TokenLossTimeout: 150 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        25 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    10 * time.Millisecond,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	factory := func(oid string) eternal.Replica { return &register{} }
	sys.RegisterFactory("Register", factory)
	// The group lives on c1-c3; c4 hosts the client and acts as a spare.
	err = sys.CreateGroup(eternal.GroupSpec{
		Name: "reg", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2},
		Nodes: []string{"c1", "c2", "c3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Client("c4", "chaos-driver")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("reg")
	if err != nil {
		t.Fatal(err)
	}

	crashed := map[string]bool{}
	var acked []string
	write := func(i int) {
		v := fmt.Sprintf("w%03d", i)
		e := eternal.NewEncoder(eternal.BigEndian)
		e.WriteString(v)
		if _, err := obj.InvokeTimeout("set", e.Bytes(), 20*time.Second); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		acked = append(acked, v)
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
					restarted.RegisterFactory("Register", factory)
					crashed[n] = false
					break
				}
			}
		}
	}
	// Let any in-flight recovery settle, then verify the full history.
	deadline := time.Now().Add(30 * time.Second)
	for {
		hs, err := historyE(obj)
		if err == nil && equalStrings(hs, acked) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("history diverged: got %d entries, want %d acked", len(hs), len(acked))
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
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Totem: totem.Config{
			TokenLossTimeout: 150 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        25 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    10 * time.Millisecond,
		AuditInterval:  auditInterval,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	sys.RegisterFactory("Register", func(oid string) eternal.Replica { return &register{} })
	// c2's factory additionally hands us the live instance, so the test
	// can reach around the replication machinery and corrupt it.
	var (
		mu     sync.Mutex
		victim *register
	)
	sys.Node("c2").RegisterFactory("Register", func(oid string) eternal.Replica {
		r := &register{}
		mu.Lock()
		victim = r
		mu.Unlock()
		return r
	})
	err = sys.CreateGroup(eternal.GroupSpec{
		Name: "reg", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2},
		Nodes: nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Client("c1", "audit-driver")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("reg")
	if err != nil {
		t.Fatal(err)
	}
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
	r.mu.Lock()
	r.val = "corrupted-in-place"
	r.mu.Unlock()

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
	nodes := []string{"c1", "c2", "c3", "c4"}
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Totem: totem.Config{
			TokenLossTimeout: 150 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        25 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    10 * time.Millisecond,
		AuditInterval:  auditInterval,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	factory := func(oid string) eternal.Replica { return &register{} }
	sys.RegisterFactory("Register", factory)
	err = sys.CreateGroup(eternal.GroupSpec{
		Name: "reg", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2},
		Nodes: []string{"c1", "c2", "c3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Client("c4", "audit-driver")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("reg")
	if err != nil {
		t.Fatal(err)
	}
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
	restarted.RegisterFactory("Register", factory)
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

func historyE(obj *eternal.ObjectRef) ([]string, error) {
	out, err := obj.InvokeTimeout("history", nil, 5*time.Second)
	if err != nil {
		return nil, err
	}
	d := eternal.NewDecoder(out, eternal.BigEndian)
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	hs := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		s, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		hs = append(hs, s)
	}
	return hs, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
