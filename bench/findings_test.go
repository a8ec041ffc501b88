package main

import (
	"fmt"
	"os"
	"testing"
	"time"

	"eternal"
)

// The tests in this file state what the system should do in three
// situations where, at the commit that added the benchmark, it does not.
// They are skipped unless ETERNAL_BENCH_FINDINGS is set, so that the
// finding is reproduced on demand and the suite stays green until a later
// change fixes it and drops the gate:
//
//	ETERNAL_BENCH_FINDINGS=1 go test -C bench -run TestFinding -v
func findings(t *testing.T) {
	t.Helper()
	if os.Getenv("ETERNAL_BENCH_FINDINGS") == "" {
		t.Skip("set ETERNAL_BENCH_FINDINGS=1 to reproduce the findings recorded in README.md")
	}
}

// Finding (a): one closed-loop client at the leader of a 2-member ring
// drives the follower ever further behind until requests stop completing.
func TestFindingTwoRingClosedLoopKeepsServing(t *testing.T) {
	findings(t)
	w, _ := findWorkload("active2_open")
	w.OpenRate = 0 // the same group, but the client does not pace itself
	w.ChurnNode = ""
	r, err := runRep(w, 1, 10*time.Second, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	att, failed := r.count(window{0, r.Churn.To})
	c := counterMetrics(r)
	t.Logf("attempted %d, failed %d; follower lag max %v; tombstones %v; view changes %v; stall max %v ms",
		att, failed, c["core.replica_lag_max"], c["totem.tombstones"], c["totem.view_changes"], clientDiagnostics(r)["client.stall_max_ms"])
	first := -1
	for i, s := range r.Samples {
		if !s.OK {
			first = i
			break
		}
	}
	if failed > 0 {
		t.Errorf("%d invocations timed out, the first after %d completed ones", failed, first)
	}
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
}

// Finding (b): under a sustainable open-loop rate the same 2-member ring
// stalls for hundreds of milliseconds now and then.
func TestFindingTwoRingOpenLoopDoesNotStall(t *testing.T) {
	findings(t)
	w, _ := findWorkload("active2_open")
	w.ChurnNode = ""
	for rep := 0; rep < 6; rep++ {
		r, err := runRep(w, int64(rep), 4*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := clientDiagnostics(r)
		t.Logf("repetition %d: stall max %.1f ms, p99 %.0f us, failed share %v", rep, d["client.stall_max_ms"], endToEnd(r)["inv_p99_us"], d["client.fail_share"])
		if d["client.stall_max_ms"] > 10 {
			t.Errorf("repetition %d: an invocation due at 4000/s waited %.0f ms", rep, d["client.stall_max_ms"])
		}
		for _, v := range r.Violations {
			t.Errorf("repetition %d: violation: %s", rep, v)
		}
	}
}

// Finding (c): a node that joins a running one-node domain forms its own
// ring first; when the rings merge the old node is the one told to reset,
// sheds its replica, and every acknowledged write goes with it.
func TestFindingJoiningNodeKeepsTheGroup(t *testing.T) {
	findings(t)
	for attempt := 0; attempt < 5; attempt++ {
		t.Run(fmt.Sprint(attempt), func(t *testing.T) {
			book := newLedger()
			blob := seededBlob(int64(attempt), 64*kib)
			sys, err := eternal.NewSystem(systemConfig(n1))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Shutdown()
			sys.Node("n1").RegisterFactory(typeName, book.factory("n1", blob))
			err = sys.CreateGroup(eternal.GroupSpec{
				Name: groupName, TypeName: typeName, Nodes: n1,
				Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 1, MinReplicas: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := sys.Client("n1", "driver")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			obj, err := cl.Resolve(groupName)
			if err != nil {
				t.Fatal(err)
			}
			// A client keeps writing while the nodes join.
			stop := make(chan struct{})
			done := make(chan uint64)
			go func() {
				var acked uint64
				for {
					select {
					case <-stop:
						done <- acked
						return
					default:
					}
					if _, err := obj.InvokeTimeout("ping", nil, invokeTimeout); err == nil {
						acked++
					}
				}
			}()
			time.Sleep(300 * time.Millisecond)
			for _, nd := range []string{"n2", "n3"} {
				n, err := sys.RestartNode(nd)
				if err != nil {
					t.Fatal(err)
				}
				n.RegisterFactory(typeName, book.factory(nd, blob))
			}
			time.Sleep(500 * time.Millisecond)
			close(stop)
			acked := <-done
			if !sys.Node("n1").HostsReplica(groupName) {
				forensics(sys, os.Stderr)
				t.Fatalf("n1 shed its replica when n2 and n3 joined: %d acknowledged writes are gone", acked)
			}
			if err := sys.Node("n3").RecoverReplica(groupName, 3*time.Second); err != nil {
				t.Fatalf("growing the group onto n3: %v", err)
			}
			if got := book.instance("n3").state().Count; got < acked {
				t.Errorf("n3 recovered to count %d, clients hold %d replies", got, acked)
			}
		})
	}
}
