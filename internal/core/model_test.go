package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/history"
	"eternal/internal/replication"
	"eternal/internal/simnet"
)

// TestRandomizedConsistencyAgainstModel drives a replicated register with
// a random interleaving of writes, replica kills and recoveries, and
// checks the survivors' history against the writes the client made after
// every step (history.Check): every write, each of them acked, is there
// exactly once and in order, regardless of which replicas died when.
// Three seeds, deterministic per seed.
func TestRandomizedConsistencyAgainstModel(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soak")
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nodes := []string{"n1", "n2", "n3"}
			c := newTestCluster(t, simnet.Config{}, nodes...)
			for _, n := range c.nodes {
				n.RegisterFactory("Register", func(oid string) ftcorba.Replica { return &history.Register{} })
			}
			props := ftcorba.Properties{Style: ftcorba.Active, InitialReplicas: 3, MinReplicas: 1}
			spec := replication.GroupSpec{Name: "ctr", TypeName: "Register", Props: props, Nodes: nodes}
			if err := c.nodes["n1"].CreateGroup(spec, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			obj := c.client("n1", "driver", "ctr")

			alive := map[string]bool{"n1": true, "n2": true, "n3": true}
			aliveCount := func() int {
				n := 0
				for _, ok := range alive {
					if ok {
						n++
					}
				}
				return n
			}
			var ops []history.Op
			const steps = 80
			for i := 0; i < steps; i++ {
				switch r := rng.Intn(10); {
				case r < 7: // write
					op := history.Op{Client: "driver", Value: fmt.Sprintf("s%02d", i), Acked: true}
					e := cdr.NewEncoder(cdr.BigEndian)
					e.WriteString(op.Value)
					if _, err := obj.Invoke("set", e.Bytes()); err != nil {
						t.Fatalf("step %d: set: %v", i, err)
					}
					ops = append(ops, op)
				case r < 8 && aliveCount() > 1: // kill a random live replica
					victims := make([]string, 0, 3)
					for n, ok := range alive {
						if ok {
							victims = append(victims, n)
						}
					}
					victim := victims[rng.Intn(len(victims))]
					if err := c.nodes[victim].KillReplica("ctr", 15*time.Second); err != nil {
						t.Fatalf("step %d: kill %s: %v", i, victim, err)
					}
					alive[victim] = false
				default: // recover a dead replica, if any
					for n, ok := range alive {
						if !ok {
							if err := c.nodes[n].RecoverReplica("ctr", 20*time.Second); err != nil {
								t.Fatalf("step %d: recover %s: %v", i, n, err)
							}
							alive[n] = true
							break
						}
					}
				}
				hist, err := history.Read(obj, 15*time.Second)
				if err == nil {
					err = history.Check(ops, hist)
				}
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		})
	}
}

// TestCheckpointQuiescence verifies that get_state() only runs between
// operations (the serial dispatcher is the quiescence mechanism of §5):
// a checkpoint captured while a stream of increments flows must never
// observe a torn intermediate value, which would surface as a promoted
// backup with inconsistent state.
func TestCheckpointQuiescence(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	// Very frequent checkpoints while invocations stream.
	props := ftcorba.Properties{
		Style: ftcorba.WarmPassive, InitialReplicas: 2, MinReplicas: 1,
		CheckpointInterval: 15 * time.Millisecond,
	}
	if err := c.nodes["n1"].CreateGroup(groupSpec("ctr", props, []string{"n1", "n2"}), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	obj := c.client("n2", "driver", "ctr")
	const total = 60
	for i := 0; i < total; i++ {
		add(t, obj, 1)
	}
	// Fail over: the backup's state = last quiescent checkpoint + replayed
	// log must equal the full stream exactly.
	if err := c.nodes["n1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].AwaitPromoted("ctr", "n2", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != total {
		t.Fatalf("after failover with frequent checkpoints: %d, want %d", got, total)
	}
}

// TestGroupMembersView exercises the metadata read API through a
// lifecycle.
func TestGroupMembersView(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	ms, err := c.nodes["n1"].GroupMembers("ctr")
	if err != nil || len(ms) != 2 {
		t.Fatalf("members = %v, %v", ms, err)
	}
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// KillReplica waits for the killing node; other nodes apply the same
	// removal on their own schedule — poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ms, _ = c.nodes["n1"].GroupMembers("ctr")
		if len(ms) == 1 && ms[0].Node == "n1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("members after kill = %v", ms)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.nodes["n1"].GroupMembers("ghost"); err == nil {
		t.Fatal("expected error for unknown group")
	}
	if !c.nodes["n1"].HostsReplica("ctr") || c.nodes["n2"].HostsReplica("ctr") {
		t.Fatal("HostsReplica inconsistent")
	}
}

// TestStatsSurface exercises the node counters through a representative
// lifecycle.
func TestStatsSurface(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	obj := c.client("n1", "driver", "ctr")
	for i := 0; i < 5; i++ {
		add(t, obj, 1)
	}
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].RecoverReplica("ctr", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	add(t, obj, 1)
	time.Sleep(50 * time.Millisecond)

	s1 := c.nodes["n1"].Stats()
	s2 := c.nodes["n2"].Stats()
	if s1.RequestsExecuted < 6 {
		t.Errorf("n1 executed = %d", s1.RequestsExecuted)
	}
	if s1.StateCaptures != 1 {
		t.Errorf("n1 captures = %d", s1.StateCaptures)
	}
	if s2.StateApplied != 1 {
		t.Errorf("n2 applied = %d", s2.StateApplied)
	}
	if s2.HandshakesReplayed == 0 {
		t.Errorf("n2 handshakes replayed = 0")
	}
	if s1.RepliesDelivered < 6 {
		t.Errorf("n1 replies delivered = %d", s1.RepliesDelivered)
	}
	// Two active replicas answer, so one reply per operation is surplus:
	// suppressed at the client's connection if both copies were ordered, or
	// never transmitted by the replica that saw its peer's copy ordered
	// first. Either counter accounts for it. (No exact count: requests
	// still queued at a killed host count as executed without a reply.)
	if s1.DuplicateReplies+s1.RepliesWithdrawn+s2.RepliesWithdrawn == 0 {
		t.Errorf("no surplus reply accounted for: n1 duplicates %d withdrawn %d, n2 withdrawn %d",
			s1.DuplicateReplies, s1.RepliesWithdrawn, s2.RepliesWithdrawn)
	}
}
