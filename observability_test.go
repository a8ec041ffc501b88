package eternal_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"eternal"
	"eternal/internal/obs"
)

// awaitSpan polls the node's span journal until some span carries every
// named phase (a span is journalled when its reply is delivered,
// asynchronously with respect to the client's reply read).
func awaitSpan(t *testing.T, node *eternal.Node, phases ...obs.SpanPhase) eternal.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := node.Spans(0, 0)
	next:
		for _, sp := range spans {
			for _, ph := range phases {
				if sp.Phases[ph] == 0 {
					continue next
				}
			}
			return sp
		}
		if time.Now().After(deadline) {
			t.Fatalf("no span with phases %v among %d on %s", phases, len(spans), node.Addr())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObservabilityEndToEnd drives a replicated group through fault-free
// invocations and a kill/recover cycle, then checks that the metrics
// registry, the span journal and the recovery timeline all
// observed it — including through the admin HTTP surface.
func TestObservabilityEndToEnd(t *testing.T) {
	sys := fastSystem(t, "n1", "n2")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1}, "n1", "n1", "n2")

	const invocations = 20
	for i := 0; i < invocations; i++ {
		setVal(t, obj, "observed")
	}

	n1 := sys.Node("n1")
	n2 := sys.Node("n2")

	// End-to-end invocation latency is observed on the client's node.
	inv := n1.Metrics().FindHistogram("eternal_invocation_seconds")
	if inv == nil {
		t.Fatal("eternal_invocation_seconds not registered on n1")
	}
	if s := inv.Summary(); s.Count < invocations {
		t.Fatalf("invocation histogram count = %d, want >= %d", s.Count, invocations)
	} else if s.P50 <= 0 || s.P99 < s.P50 {
		t.Fatalf("implausible invocation percentiles: %+v", s)
	}

	// The client's node hosts a replica too, so one span of its journal
	// holds the full lifecycle of an invocation, in pipeline order.
	lifecycle := []obs.SpanPhase{
		obs.SpanIntercepted, obs.SpanMarshalled, obs.SpanOrdered,
		obs.SpanDelivered, obs.SpanExecuted, obs.SpanReplyDelivered,
	}
	sp := awaitSpan(t, n1, lifecycle...)
	if sp.Group != "reg" || sp.Node != "n1" || sp.Seq == 0 {
		t.Fatalf("span identity = group %q node %q seq %d", sp.Group, sp.Node, sp.Seq)
	}
	for i := 1; i < len(lifecycle); i++ {
		if d := sp.Phases[lifecycle[i]] - sp.Phases[lifecycle[i-1]]; d < 0 {
			t.Fatalf("%v precedes %v by %d ns", lifecycle[i], lifecycle[i-1], -d)
		}
	}
	if sp.End()-sp.Start() <= 0 {
		t.Fatalf("span elapsed = %d ns", sp.End()-sp.Start())
	}

	// Totem-level metrics on the client node saw the multicasts.
	if mc := n1.Metrics().FindHistogram("eternal_totem_mcast_delivery_seconds"); mc == nil {
		t.Fatal("eternal_totem_mcast_delivery_seconds not registered on n1")
	} else if mc.Summary().Count == 0 {
		t.Fatal("totem delivery histogram empty after invocations")
	}

	// Kill and recover n2's replica; the recovering node must produce a
	// complete per-phase timeline whose span fits inside the measured
	// wall-clock of RecoverReplica.
	if err := n2.KillReplica("reg", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	recoverStart := time.Now()
	if err := n2.RecoverReplica("reg", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(recoverStart)

	timelines := n2.RecoveryTimelines()
	if len(timelines) == 0 {
		t.Fatal("no recovery timeline on n2")
	}
	tl := timelines[0]
	if tl.Group != "reg" || tl.Node != "n2" {
		t.Fatalf("timeline identity = %s/%s", tl.Group, tl.Node)
	}
	for _, phase := range []string{obs.PhaseCapture, obs.PhaseTransfer, obs.PhaseApply, obs.PhaseReplay} {
		if tl.PhaseDuration(phase) < 0 {
			t.Fatalf("phase %s negative: %v", phase, tl.PhaseDuration(phase))
		}
	}
	// Transfer is the recovering node's wait minus the donor-measured
	// capture — a difference of two clocks that clamps to zero when the
	// capture covers the whole wait — so only the sum is strictly positive.
	if tl.Total() <= 0 {
		t.Fatalf("recovery timeline measured nothing: %+v", tl.Phases)
	}
	// The phase decomposition cannot exceed what the caller measured: the
	// timeline starts at the synchronization point, which is at or after
	// the RecoverReplica call.
	if total := tl.Total(); total > wall {
		t.Fatalf("sum of phases %v exceeds measured wall-clock %v", total, wall)
	}
	// A recovery has one record: the cluster report merged from both
	// nodes' flight recorders reads the very event the timeline does.
	var report *obs.RecoveryReport
	reports := obs.MergeEvents(map[string][]obs.Event{
		"n1": n1.Events(0, 0), "n2": n2.Events(0, 0),
	}).RecoveryReports()
	for i := range reports {
		if reports[i].XferID == tl.XferID {
			report = &reports[i]
		}
	}
	if report == nil {
		t.Fatalf("no recovery report for xfer %d among %+v", tl.XferID, reports)
	}
	if report.Enqueued != int64(tl.Enqueued) || !slices.Equal(report.Phases, tl.Phases) {
		t.Fatalf("report (enqueued %d, phases %+v) disagrees with timeline (enqueued %d, phases %+v)",
			report.Enqueued, report.Phases, tl.Enqueued, tl.Phases)
	}

	// Recovery histograms: transfer/apply/total on the recovering node,
	// capture on the donor.
	for _, name := range []string{
		"eternal_recovery_transfer_seconds",
		"eternal_recovery_apply_seconds",
		"eternal_recovery_total_seconds",
	} {
		h := n2.Metrics().FindHistogram(name)
		if h == nil || h.Summary().Count == 0 {
			t.Fatalf("%s not populated on the recovering node", name)
		}
	}
	if h := n1.Metrics().FindHistogram("eternal_recovery_capture_seconds"); h == nil || h.Summary().Count == 0 {
		t.Fatal("eternal_recovery_capture_seconds not populated on the donor node")
	}

	// The group still serves, and the admin surface reflects everything.
	if got := getVal(t, obj); got != "observed" {
		t.Fatalf("after recovery: %q", got)
	}
	checkAdminSurface(t, n1, n2)
}

// checkAdminSurface scrapes both nodes' admin handlers over HTTP.
func checkAdminSurface(t *testing.T, n1, n2 *eternal.Node) {
	t.Helper()
	srv1 := httptest.NewServer(n1.AdminHandler())
	defer srv1.Close()
	srv2 := httptest.NewServer(n2.AdminHandler())
	defer srv2.Close()

	// /metrics on the client node: invocation latency, totem histograms
	// and gauges, request counters.
	body, ctype := httpGet(t, srv1.URL+"/metrics")
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Fatalf("metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE eternal_invocation_seconds histogram",
		"eternal_invocation_seconds_bucket{le=\"+Inf\"}",
		"eternal_invocation_seconds_count",
		"# TYPE eternal_totem_sequencer_queue_depth gauge",
		"eternal_totem_mcast_delivery_seconds_bucket",
		"eternal_requests_executed_total",
		"eternal_recovery_capture_seconds_count",
		"eternal_giop_messages_read_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	// Counters that must be non-zero after 20 invocations.
	for _, re := range []string{
		`(?m)^eternal_invocation_seconds_count [1-9]\d*$`,
		`(?m)^eternal_requests_executed_total [1-9]\d*$`,
		`(?m)^eternal_totem_packets_out_total [1-9]\d*$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Fatalf("/metrics: no line matching %s", re)
		}
	}
	// The recovering node's recovery histograms are populated.
	body2, _ := httpGet(t, srv2.URL+"/metrics")
	for _, re := range []string{
		`(?m)^eternal_recovery_transfer_seconds_count [1-9]\d*$`,
		`(?m)^eternal_recovery_apply_seconds_count [1-9]\d*$`,
		`(?m)^eternal_recovery_total_seconds_count [1-9]\d*$`,
	} {
		if !regexp.MustCompile(re).MatchString(body2) {
			t.Fatalf("recovering node /metrics: no line matching %s", re)
		}
	}

	// /healthz: synced, both processors live, the group with both members
	// operational again.
	var health struct {
		Node   string   `json:"node"`
		Synced bool     `json:"synced"`
		Live   []string `json:"live"`
		Groups []struct {
			Name    string `json:"name"`
			Style   string `json:"style"`
			Hosted  bool   `json:"hosted"`
			Members []struct {
				Node  string `json:"node"`
				State string `json:"state"`
			} `json:"members"`
		} `json:"groups"`
	}
	hb, hct := httpGet(t, srv1.URL+"/healthz")
	if !strings.Contains(hct, "application/json") {
		t.Fatalf("healthz content type = %q", hct)
	}
	if err := json.Unmarshal([]byte(hb), &health); err != nil {
		t.Fatalf("healthz decode: %v (%s)", err, hb)
	}
	if health.Node != "n1" || !health.Synced || len(health.Live) != 2 {
		t.Fatalf("healthz = %+v", health)
	}
	foundGroup := false
	for _, g := range health.Groups {
		if g.Name != "reg" {
			continue
		}
		foundGroup = true
		if !g.Hosted || g.Style != "ACTIVE" || len(g.Members) != 2 {
			t.Fatalf("healthz group = %+v", g)
		}
		for _, m := range g.Members {
			if m.State != "operational" {
				t.Fatalf("member %s state = %s after recovery", m.Node, m.State)
			}
		}
	}
	if !foundGroup {
		t.Fatalf("healthz groups missing reg: %+v", health.Groups)
	}

	// /spans pages the span journal as JSON, oldest first, and validates n.
	var page struct {
		Node  string
		Next  uint64
		Spans []struct {
			Index  uint64
			Phases map[string]int64
		}
	}
	sb, _ := httpGet(t, srv1.URL+"/spans?n=5")
	if err := json.Unmarshal([]byte(sb), &page); err != nil {
		t.Fatalf("spans decode: %v", err)
	}
	if page.Node != "n1" || len(page.Spans) == 0 || len(page.Spans) > 5 {
		t.Fatalf("spans page = node %q, %d spans", page.Node, len(page.Spans))
	}
	if len(page.Spans[0].Phases) == 0 || page.Next != page.Spans[len(page.Spans)-1].Index {
		t.Fatalf("span without phases or cursor off the last index: %+v next=%d", page.Spans[0], page.Next)
	}
	for path, want := range map[string]int{
		"/spans?n=bogus": http.StatusBadRequest,
		"/trace":         http.StatusNotFound, // the hop tracer's feed, retired for /spans
	} {
		resp, err := http.Get(srv1.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func httpGet(t *testing.T, url string) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// TestObservabilityEnqueueDuringRecovery checks the §3.3 live path: the
// timeline of a recovery performed under client load reports the replayed
// backlog, and the dispatch-depth gauge exists for it.
func TestObservabilityEnqueueDuringRecovery(t *testing.T) {
	sys := fastSystem(t, "n1", "n2")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1}, "n1", "n1", "n2")
	setVal(t, obj, "seed")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				obj.Invoke("get", nil)
			}
		}
	}()
	n2 := sys.Node("n2")
	for i := 0; i < 3; i++ {
		if err := n2.KillReplica("reg", 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := n2.RecoverReplica("reg", 15*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	timelines := n2.RecoveryTimelines()
	if len(timelines) != 3 {
		t.Fatalf("timelines = %d, want 3", len(timelines))
	}
	for i, tl := range timelines {
		if tl.Enqueued < 0 {
			t.Fatalf("negative enqueued count: %+v", tl)
		}
		if i > 0 && !tl.At.Before(timelines[i-1].At) {
			t.Fatalf("timelines not newest first: %v then %v", timelines[i-1].At, tl.At)
		}
	}
	if g := n2.Metrics().FindGauge("eternal_dispatch_queue_depth"); g == nil {
		t.Fatal("eternal_dispatch_queue_depth not registered")
	}
	if h := n2.Metrics().FindHistogram("eternal_recovery_total_seconds"); h.Summary().Count != 3 {
		t.Fatalf("recovery total count = %d, want 3", h.Summary().Count)
	}
}
