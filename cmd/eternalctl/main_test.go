package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"eternal"
	"eternal/internal/core"
	"eternal/internal/history"
	"eternal/internal/obs"
	"eternal/internal/totem"
)

func TestParseNodes(t *testing.T) {
	nodes, err := parseNodes("n1=127.0.0.1:8001,n2=127.0.0.1:8002")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes["n1"] != "127.0.0.1:8001" || nodes["n2"] != "127.0.0.1:8002" {
		t.Fatalf("parseNodes = %v", nodes)
	}
	for _, bad := range []string{"n1", "=addr", "n1=", "n1=a,,"} {
		if _, err := parseNodes(bad); err == nil {
			t.Errorf("parseNodes(%q): want error", bad)
		}
	}
}

// TestStatusSaysWhomAnUnsyncedNodeWaitsOn: start-up's "why is it stuck" is
// one line of status, from the sync_waiting list /healthz carries in the
// body of its 503.
func TestStatusSaysWhomAnUnsyncedNodeWaitsOn(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(core.HealthReport{
			Node: "n2", Live: []string{"n1", "n2", "n3"}, SyncWaiting: []string{"n1", "n3"}, Seq: 7,
		})
	}))
	defer srv.Close()
	var out strings.Builder
	nodes := map[string]string{"n2": strings.TrimPrefix(srv.URL, "http://")}
	if printStatus(&out, &http.Client{Timeout: 5 * time.Second}, nodes) {
		t.Fatalf("status failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "synced=false seq=7") || !strings.Contains(out.String(), "waiting on [n1,n3]") {
		t.Fatalf("status does not say whom n2 waits on:\n%s", out.String())
	}
}

// TestClusterTimelineAfterRecovery is the end-to-end check of the
// flight-recorder pipeline: a three-node domain runs an actively
// replicated group, one replica is killed and recovered, and all three
// /events feeds are scraped through eternalctl's fetch + merge logic. The
// merged timeline must be totally ordered by sequence number, contain the
// recovery's synchronization point (member-add) and its set_state exactly
// once, and show zero divergence between the nodes.
func TestClusterTimelineAfterRecovery(t *testing.T) {
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: []string{"n1", "n2", "n3"},
		Totem: totem.Config{
			TokenLossTimeout: 100 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        20 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    10 * time.Millisecond,
		DefaultTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	sys.RegisterFactory("Register", func(oid string) eternal.Replica { return &history.Register{} })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "ctr", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2},
		Nodes: []string{"n1", "n2", "n3"},
	}); err != nil {
		t.Fatal(err)
	}

	// Admin endpoints, exactly as eternald serves them.
	nodes := make(map[string]string)
	for _, name := range []string{"n1", "n2", "n3"} {
		srv := httptest.NewServer(sys.Node(name).AdminHandler())
		defer srv.Close()
		nodes[name] = strings.TrimPrefix(srv.URL, "http://")
	}
	client := &http.Client{Timeout: 5 * time.Second}

	c, err := sys.Client("n1", "driver")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, err := c.Resolve("ctr")
	if err != nil {
		t.Fatal(err)
	}
	set := func(s string) {
		t.Helper()
		e := eternal.NewEncoder(eternal.BigEndian)
		e.WriteString(s)
		if _, err := obj.Invoke("set", e.Bytes()); err != nil {
			t.Fatalf("set(%q): %v", s, err)
		}
	}
	set("before-kill")

	// Kill the replica on n3 (two survivors satisfy MinReplicas, so the
	// resource manager does not re-replicate on its own), then recover it:
	// the member-add synchronization point, the donor's capture and the
	// delivered set_state all land in the recorders.
	if err := sys.Node("n3").KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	set("while-down")
	if err := sys.Node("n3").RecoverReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	set("after-recovery")

	// Scrape all three feeds through the CLI's pagination (page size 4
	// forces multiple round trips). The recovering node records its events
	// at set_state processing time; the donor and the third node record
	// theirs at delivery — poll until every feed caught up.
	var feeds map[string][]obs.Event
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, errs := scrapeFeeds(client, nodes, 0, 4)
		feeds = itemsOf(raw)
		if len(errs) == 0 && len(feeds) == 3 && allHaveSetState(feeds, "ctr") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("feeds never converged: errs=%v feeds=%v", errs, feedSummary(feeds))
		}
		time.Sleep(50 * time.Millisecond)
	}

	m := obs.MergeEvents(feeds)
	if len(m.Divergences) != 0 {
		t.Fatalf("divergences in a healthy cluster: %+v", m.Divergences)
	}
	for i := 1; i < len(m.Entries); i++ {
		if m.Entries[i].Seq < m.Entries[i-1].Seq {
			t.Fatalf("timeline not ordered by seq: entry %d (seq %d) after entry %d (seq %d)",
				i, m.Entries[i].Seq, i-1, m.Entries[i-1].Seq)
		}
	}

	// The recovery's synchronization point and its set_state: exactly once
	// each, agreed on by all three nodes.
	var adds, sets []obs.TimelineEntry
	for _, e := range m.Entries {
		switch {
		case e.Type == obs.EventMemberAdd && e.Group == "ctr":
			adds = append(adds, e)
		case e.Type == obs.EventSetState && e.Group == "ctr":
			sets = append(sets, e)
		}
	}
	if len(adds) != 1 || adds[0].Node != "n3" {
		t.Fatalf("want exactly one member-add for n3, got %+v", adds)
	}
	if len(sets) != 1 || sets[0].XferID != adds[0].XferID {
		t.Fatalf("want exactly one set_state with xfer %d, got %+v", adds[0].XferID, sets)
	}
	if sets[0].Seq <= adds[0].Seq {
		t.Fatalf("set_state (seq %d) not after synchronization point (seq %d)",
			sets[0].Seq, adds[0].Seq)
	}
	for _, e := range []obs.TimelineEntry{adds[0], sets[0]} {
		if len(e.Origins) != 3 {
			t.Fatalf("%s at seq %d reported by %v, want all three nodes", e.Type, e.Seq, e.Origins)
		}
	}

	reports := m.RecoveryReports()
	if len(reports) != 1 {
		t.Fatalf("want one recovery report, got %+v", reports)
	}
	r := reports[0]
	if !r.Complete || r.Group != "ctr" || r.Node != "n3" ||
		r.SyncSeq != adds[0].Seq || r.SetStateSeq != sets[0].Seq {
		t.Fatalf("bad recovery report: %+v", r)
	}
	if r.Enqueued < 0 || len(r.Phases) != 4 {
		t.Fatalf("recovering node's enqueue count or phases missing from report: %+v", r)
	}
	var rec strings.Builder
	printRecoveries(&rec, m, "ctr")
	for _, ph := range r.Phases {
		if want := fmt.Sprintf("phase %-8s %s", ph.Name, ph.Duration); !strings.Contains(rec.String(), want) {
			t.Fatalf("recovery output lacks %q:\n%s", want, rec.String())
		}
	}
	var timeline strings.Builder
	printTimeline(&timeline, m, "ctr")
	if want := fmt.Sprintf(" replay=%s", r.Phases[3].Duration); !strings.Contains(timeline.String(), want) {
		t.Fatalf("timeline's recovered line lacks %q:\n%s", want, timeline.String())
	}

	// `eternalctl status` decodes every node's /healthz report.
	var status strings.Builder
	if printStatus(&status, client, nodes) {
		t.Fatalf("status failed:\n%s", status.String())
	}
	for _, name := range []string{"n1", "n2", "n3"} {
		for _, want := range []string{
			name + " (" + name + "): synced=true seq=",
			"group ctr (ACTIVE) [hosted here]: n1(operational,primary) n2(operational,member) n3(operational,member)",
			"audit: consistent epoch=",
		} {
			if !strings.Contains(status.String(), want) {
				t.Fatalf("status lacks %q:\n%s", want, status.String())
			}
		}
	}

	// Exercise the `eternalctl trace` path against the same admin servers:
	// scrape every node's /spans feed (page size 2 forces cursor resumes),
	// merge by trace id, and render a real invocation's cross-node
	// waterfall. Remote nodes journal their spans on the 200ms idle sweep,
	// so poll until a complete 3-node trace shows up.
	var complete *obs.MergedTrace
	deadline = time.Now().Add(10 * time.Second)
	for complete == nil {
		spanFeeds, errs := scrapeSpans(client, nodes, 2, 16)
		if len(errs) != 0 {
			t.Fatalf("span scrape failed: %v", errs)
		}
		if len(rotationsOf(spanFeeds)) == 0 {
			t.Fatal("no token-rotation samples in any /spans response")
		}
		traces := obs.MergeSpans(itemsOf(spanFeeds))
		for i := range traces {
			if tr := &traces[i]; tr.Complete() && len(tr.Nodes) == 3 {
				complete = tr
				break
			}
		}
		if complete == nil {
			if time.Now().After(deadline) {
				t.Fatalf("no complete 3-node trace in the span feeds (%d traces scraped)", len(traces))
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	var buf strings.Builder
	printTrace(&buf, complete)
	out := buf.String()
	for _, want := range []string{
		"complete", "waterfall", "intercepted", "ordered", "executed",
		"reply-delivered", "critical path:", "segments account for",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace waterfall missing %q:\n%s", want, out)
		}
	}
}

func allHaveSetState(feeds map[string][]obs.Event, group string) bool {
	for _, events := range feeds {
		found := false
		for _, ev := range events {
			if ev.Type == obs.EventSetState && ev.Group == group {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func feedSummary(feeds map[string][]obs.Event) map[string]int {
	out := make(map[string]int)
	for name, events := range feeds {
		out[name] = len(events)
	}
	return out
}

// TestAuditListsAlarmsFromEvents: the alarms audit prints under a node are
// the audit-* events of that node's flight-recorder feed, and only those.
func TestAuditListsAlarmsFromEvents(t *testing.T) {
	feeds := map[string]auditFeed{"n1": {Last: core.AuditPage{Enabled: true, Summary: obs.AuditSummary{Divergences: 1, Stalls: 1}}}}
	events := map[string][]obs.Event{"n1": {
		{Type: obs.EventAuditDivergence, Group: "g", Value: 12, Detail: "a=00000001 b=00000002"},
		{Type: obs.EventMemberAdd, Group: "g", Node: "b"},
		{Type: obs.EventAuditStall, Group: "g", Node: "c", Value: 14},
	}}
	var out strings.Builder
	printAudit(&out, feeds, events, "")
	got := out.String()
	for _, want := range []string{
		"alarm divergence group=g node=- epoch=12 a=00000001 b=00000002",
		"alarm stall      group=g node=c epoch=14",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("audit output lacks %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "alarm ") != 2 {
		t.Fatalf("audit output lists something besides the two alarms:\n%s", got)
	}
}

// TestDrain feeds drain a journal page by page from a fake admin endpoint:
// it follows the cursor until a short page, counts entries the ring evicted
// between two pages as a gap, keeps the last page's extras, and reports a
// non-200 and a cursor that does not advance instead of looping.
func TestDrain(t *testing.T) {
	// The journal holds indices 1..3 and 7..10: 4..6 are evicted once the
	// scrape has read the first page.
	journal := []uint64{1, 2, 3, 7, 8, 9, 10}
	stuck, broken := false, false
	var asked []string // the since of every request
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked = append(asked, r.URL.Query().Get("since"))
		if broken {
			http.Error(w, "no such journal", http.StatusNotFound)
			return
		}
		since, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		page := core.SpansPage{PageHead: core.PageHead{Node: "n1", Dropped: 5, Next: since}}
		for _, idx := range journal {
			if idx > since && len(page.Spans) < n {
				page.Spans = append(page.Spans, obs.Span{Index: idx})
				page.Next = idx
			}
		}
		if stuck {
			page.Next = since
		}
		if len(page.Spans) < n {
			page.Rotations = []obs.TokenRotation{{Round: 42}} // what the short last page carries
		}
		json.NewEncoder(w).Encode(page)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	index := func(sp obs.Span) uint64 { return sp.Index }

	f, err := drain(srv.Client(), addr, "spans?rot=1", 0, 3, spanRows, index)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, sp := range f.Items {
		got = append(got, sp.Index)
	}
	if strings.Join(asked, " ") != "0 3 9" {
		t.Fatalf("asked since = %q, want two full pages and the short one behind them", asked)
	}
	if len(got) != len(journal) || got[3] != 7 || got[6] != 10 {
		t.Fatalf("drained %v, want %v", got, journal)
	}
	if f.Gap != 3 || f.Dropped != 5 {
		t.Fatalf("gap = %d, dropped = %d, want the 3 entries evicted between pages and the server's 5", f.Gap, f.Last.Dropped)
	}
	if len(f.Last.Rotations) != 1 || f.Last.Rotations[0].Round != 42 {
		t.Fatalf("last page's extras = %+v", f.Last.Rotations)
	}

	// A scrape resumed (-since) at the last index of an earlier one finds
	// the same hole in front of its first page.
	if f, err = drain(srv.Client(), addr, "spans?rot=1", 3, 8, spanRows, index); err != nil || len(f.Items) != 4 || f.Gap != 3 {
		t.Fatalf("resumed at 3: %d items, gap %d, err %v; want 7..10 behind a gap of 3", len(f.Items), f.Gap, err)
	}

	stuck = true
	if _, err = drain(srv.Client(), addr, "spans?rot=1", 0, 3, spanRows, index); err == nil || !strings.Contains(err.Error(), "cursor") {
		t.Fatalf("a full page that left the cursor where it was: err = %v", err)
	}
	broken = true
	if _, err = drain(srv.Client(), addr, "spans?rot=1", 0, 3, spanRows, index); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("non-200: err = %v", err)
	}
}
