package core

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"

	"eternal/internal/obs"
	"eternal/internal/replication"
)

// AdminHandler returns the node's administrative HTTP surface:
//
//	/metrics  — Prometheus text exposition of the node's registry
//	/healthz  — JSON: sync status, delivery position, flight-recorder
//	          totals, live processors, groups and roles, and the audit
//	          summary with each group's retained digest rows (503 while
//	          the node has not yet synchronized, or while the consistency
//	          audit holds a divergence; the alarms themselves are audit-*
//	          events in /events)
//	/events   — JSON: flight-recorder events (?since=<index>&n=K), paginated
//	          by recorder index for eternalctl's cluster-timeline merge
//	/spans    — JSON: invocation phase spans (?since=<index>&n=K), paginated
//	          like /events; ?rot=K appends the last K token-rotation
//	          profiler samples
//	/debug/pprof/ — the standard Go profiling endpoints
//
// Every JSON endpoint reports Content-Type: application/json, including
// error responses, and paginated feeds echo their resume cursor both in
// the body ("next") and the X-Eternal-Next header. Each JSON body is one
// exported type below; eternalctl decodes into the same types.
//
// eternald serves it when started with -admin; tests drive it through
// httptest.
func (n *Node) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", n.serveMetrics)
	mux.HandleFunc("/healthz", n.serveHealthz)
	mux.HandleFunc("/events", n.serveEvents)
	mux.HandleFunc("/spans", n.serveSpans)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (n *Node) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	n.metrics.WritePrometheus(w)
}

// jsonError reports an error from a JSON endpoint as JSON, keeping the
// Content-Type consistent so clients can always decode the body.
func jsonError(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// HealthMember is one group member in the /healthz report.
type HealthMember struct {
	Node  string `json:"node"`
	State string `json:"state"`
	Role  string `json:"role"`
}

// HealthGroup is one object group in the /healthz report.
type HealthGroup struct {
	Name    string         `json:"name"`
	Style   string         `json:"style"`
	Hosted  bool           `json:"hosted"`
	Members []HealthMember `json:"members"`
}

// HealthReport is the /healthz body: the node's view of the cluster, its
// position in the total order and its flight-recorder totals, so a scraper
// can tell how far each node's view has advanced.
type HealthReport struct {
	Node   string   `json:"node"`
	Synced bool     `json:"synced"`
	Live   []string `json:"live"`
	// SyncWaiting: view members an unsynced node has no sync request from yet.
	SyncWaiting []string      `json:"sync_waiting,omitempty"`
	Groups      []HealthGroup `json:"groups"`
	// Audit is the consistency-audit summary (last audited epoch, per-
	// group digest state and retained epoch rows, alarm totals); nil when
	// the audit is disabled.
	Audit          *obs.AuditSummary `json:"audit,omitempty"`
	Seq            uint64            `json:"seq"`
	EventsRecorded uint64            `json:"events_recorded"`
	EventsDropped  uint64            `json:"events_dropped"`
}

// degraded reports whether the node should answer /healthz with 503:
// not yet synchronized, or the live audit holds a divergence.
func (rep *HealthReport) degraded() bool {
	return !rep.Synced || (rep.Audit != nil && rep.Audit.Diverged)
}

func memberStateName(s replication.MemberState) string {
	switch s {
	case replication.MemberOperational:
		return "operational"
	case replication.MemberRecovering:
		return "recovering"
	default:
		return "unknown"
	}
}

// onLoop runs f on the node's delivery goroutine and waits for it, so f
// can read loop-confined state. It reports false when the node stopped
// before f could run.
func (n *Node) onLoop(f func()) bool {
	done := make(chan struct{})
	select {
	case n.calls <- func() { f(); close(done) }:
	case <-n.stopCh:
		return false
	}
	select {
	case <-done:
		return true
	case <-n.stopCh:
		return false
	}
}

// buildHealthReport assembles the health report; it must run on the
// delivery goroutine (via onLoop).
func (n *Node) buildHealthReport() HealthReport {
	rep := HealthReport{
		Node: n.addr, Synced: n.synced, Live: slices.Clone(n.view.Members),
		Seq: n.lastSeq.Load(), EventsRecorded: n.recorder.Total(), EventsDropped: n.recorder.Dropped(),
	}
	if !n.synced {
		rep.SyncWaiting = slices.DeleteFunc(slices.Clone(n.view.Members), func(m string) bool {
			return slices.Contains(n.syncSeen, m)
		})
	}
	for _, name := range n.table.Names() {
		g, ok := n.table.Get(name)
		if !ok {
			continue
		}
		hg := HealthGroup{
			Name:   name,
			Style:  g.Spec.Props.Style.String(),
			Hosted: n.hosts[name] != nil,
		}
		primary, hasPrimary := g.Primary()
		for _, m := range g.Members {
			role := "member"
			if hasPrimary && m.Node == primary {
				role = "primary"
			}
			hg.Members = append(hg.Members, HealthMember{
				Node: m.Node, State: memberStateName(m.State), Role: role,
			})
		}
		rep.Groups = append(rep.Groups, hg)
	}
	if n.audit != nil {
		s := n.audit.Summary()
		rep.Audit = &s
	}
	return rep
}

func (n *Node) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	var rep HealthReport
	if !n.onLoop(func() { rep = n.buildHealthReport() }) {
		jsonError(w, "node stopped", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if rep.degraded() {
		// Not yet synchronized, or the audit holds a divergence: not
		// healthy to serve, but the body still carries the full report
		// (including the last audited epoch) for diagnosis.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(rep)
}

// PageHead is what the body of every paginated feed (/events, /spans)
// carries besides its entries. Clients resume with ?since=<Next>:
// Next is the cursor the next request should pass — the index of the last
// entry in this page, or the request's own cursor when the page is empty —
// so a reader survives ring wraparound without silently skipping (a gap
// between its cursor and the first returned index means eviction outran
// it; Dropped, the journal's lifetime eviction count, quantifies the loss).
type PageHead struct {
	Node    string `json:"node"`
	Dropped uint64 `json:"dropped"`
	Next    uint64 `json:"next"`
}

// EventsPage is the /events body: one page of the node's flight-recorder
// feed.
type EventsPage struct {
	PageHead
	Events []obs.Event `json:"events"`
}

// queryInt parses a non-negative integer query parameter; def when absent.
func queryInt(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		jsonError(w, "bad "+name, http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// pageParams parses the shared ?since / ?n pagination query parameters.
func pageParams(w http.ResponseWriter, r *http.Request, defCount int) (since uint64, count int, ok bool) {
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			jsonError(w, "bad since", http.StatusBadRequest)
			return 0, 0, false
		}
		since = v
	}
	count, ok = queryInt(w, r, "n", defCount)
	return since, count, ok
}

// writePage finishes and sends one page of a journal feed; /events and
// /spans both paginate through it. page is a pointer to the body, head
// and items point at its head and its entries. head.Next arrives holding
// the request's cursor and leaves holding the one the next request should
// pass: the index of the page's last entry, or the same cursor when the
// page is empty. A nil page is sent as [], and the cursor is repeated in
// X-Eternal-Next.
func writePage[T any](w http.ResponseWriter, page any, head *PageHead, items *[]T, index func(T) uint64) {
	if n := len(*items); n > 0 {
		head.Next = index((*items)[n-1])
	} else {
		*items = []T{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Eternal-Next", strconv.FormatUint(head.Next, 10))
	json.NewEncoder(w).Encode(page)
}

func (n *Node) serveEvents(w http.ResponseWriter, r *http.Request) {
	since, count, ok := pageParams(w, r, 256)
	if !ok {
		return
	}
	page := EventsPage{
		PageHead: PageHead{Node: n.addr, Dropped: n.recorder.Dropped(), Next: since},
		Events:   n.recorder.Since(since, count),
	}
	writePage(w, &page, &page.PageHead, &page.Events, func(e obs.Event) uint64 { return e.Index })
}

// SpansPage is the /spans body: one page of the node's invocation span
// journal, plus (when ?rot=K asks for them) the totem token-rotation
// profiler's most recent samples.
type SpansPage struct {
	PageHead
	Spans     []obs.Span          `json:"spans"`
	Rotations []obs.TokenRotation `json:"rotations,omitempty"`
}

func (n *Node) serveSpans(w http.ResponseWriter, r *http.Request) {
	since, count, ok := pageParams(w, r, 256)
	if !ok {
		return
	}
	rot, ok := queryInt(w, r, "rot", 0)
	if !ok {
		return
	}
	page := SpansPage{
		PageHead: PageHead{Node: n.addr, Dropped: n.spans.Dropped(), Next: since},
		Spans:    n.Spans(since, count),
	}
	if rot > 0 {
		page.Rotations = n.proc.Rotations(rot)
	}
	writePage(w, &page, &page.PageHead, &page.Spans, func(sp obs.Span) uint64 { return sp.Index })
}
