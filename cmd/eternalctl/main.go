// Command eternalctl inspects a running Eternal domain through the admin
// endpoints of its nodes (eternald -admin). It scrapes every node's
// flight-recorder feed and merges them — by Totem sequence number — into
// one cluster-consistent view:
//
//	eternalctl -nodes n1=127.0.0.1:8001,n2=127.0.0.1:8002,n3=127.0.0.1:8003 timeline
//	eternalctl -nodes ... status
//	eternalctl -nodes ... recovery
//
// timeline prints the merged event timeline, totally ordered by sequence
// number: events every node recorded identically collapse into one line
// listing the reporters, per-node observations stay attributed, and any
// position where synchronized nodes disagree is flagged as DIVERGENCE
// (the total order makes ordered events deterministic, so divergence
// means a protocol or instrumentation bug).
//
// status prints each node's /healthz report: sync state, delivery
// position, live processors, every group with member roles, and the audit
// summary.
//
// recovery reconstructs each state transfer visible in the feeds: the
// synchronization point where the recovering replica started enqueueing,
// the donor's capture, the set_state that cured it, the invocations
// buffered in between, and the per-phase durations — the cluster-wide
// form of the paper's Figure 5.
//
// trace scrapes every node's /spans feed and merges the per-node phase
// spans by trace id. Without an argument it lists the merged traces;
// with a trace id (hex or decimal) it renders the invocation's
// cross-node waterfall — every phase timestamp on every node, relative
// to interception — followed by the chained critical-path segments.
//
// critical-path aggregates every complete merged trace into a per-phase
// latency attribution (p50/p95/p99 per pipeline phase, and the share of
// the end-to-end p50 the phases account for), plus each node's
// token-rotation profile: where the token spends its time.
//
// audit reads every node's audit summary from /healthz and prints each
// node's live verdict (last epoch, alarm totals, per-group member
// standing), the alarms in its /events feed, and its collector's retained
// digest rows, then every member digest two nodes' collectors hold
// differently for one epoch. Any diverged row, any such conflict and any
// latched divergence in a node's summary is flagged and makes the exit
// status non-zero.
//
// Any unreachable node is named on stderr and makes the exit status
// non-zero; reachable nodes' data is still merged and printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eternal/internal/core"
	"eternal/internal/obs"
)

func main() {
	var (
		nodesArg = flag.String("nodes", "", "comma-separated admin endpoints: name=host:port,... (required)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
		group    = flag.String("group", "", "restrict timeline/recovery output to this object group")
		since    = flag.Uint64("since", 0, "fetch only events with recorder index > since")
		pageSize = flag.Int("n", 512, "events per page when scraping /events")
	)
	flag.Parse()
	if *nodesArg == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: eternalctl -nodes name=host:port,... [flags] timeline|status|recovery|trace [traceid]|critical-path|audit")
		flag.PrintDefaults()
		os.Exit(2)
	}
	nodes, err := parseNodes(*nodesArg)
	if err != nil {
		fatal(err)
	}
	client := &http.Client{Timeout: *timeout}

	failed := false
	switch cmd := flag.Arg(0); cmd {
	case "timeline":
		feeds, errs := scrapeFeeds(client, nodes, *since, *pageSize)
		failed = reportScrapeErrors(errs)
		m := obs.MergeEvents(itemsOf(feeds))
		printTimeline(os.Stdout, m, *group)
		printFeedHealth(os.Stdout, feeds, "event")
	case "status":
		failed = printStatus(os.Stdout, client, nodes)
	case "recovery":
		feeds, errs := scrapeFeeds(client, nodes, *since, *pageSize)
		failed = reportScrapeErrors(errs)
		m := obs.MergeEvents(itemsOf(feeds))
		printRecoveries(os.Stdout, m, *group)
	case "trace":
		feeds, errs := scrapeSpans(client, nodes, *pageSize, 0)
		failed = reportScrapeErrors(errs)
		traces := obs.MergeSpans(itemsOf(feeds))
		if flag.NArg() < 2 {
			printTraceList(os.Stdout, traces)
			break
		}
		id, err := parseTraceID(flag.Arg(1))
		if err != nil {
			fatal(fmt.Errorf("bad trace id %q: %v", flag.Arg(1), err))
		}
		found := false
		for i := range traces {
			if traces[i].Trace == id {
				printTrace(os.Stdout, &traces[i])
				found = true
				break
			}
		}
		if !found {
			fatal(fmt.Errorf("trace 0x%x not found in any node's span journal (%d traces scraped)", id, len(traces)))
		}
	case "critical-path":
		feeds, errs := scrapeSpans(client, nodes, *pageSize, 256)
		failed = reportScrapeErrors(errs)
		traces := obs.MergeSpans(itemsOf(feeds))
		printCriticalPath(os.Stdout, obs.AttributePhases(traces), len(traces))
		printRotations(os.Stdout, rotationsOf(feeds))
		printFeedHealth(os.Stdout, feeds, "span")
	case "audit":
		reports, errs := scrape(nodes, func(addr string) (core.HealthReport, error) {
			return fetchHealth(client, addr)
		})
		events, eventErrs := scrapeFeeds(client, nodes, 0, *pageSize)
		for name, err := range eventErrs {
			if errs[name] == nil {
				errs[name] = err
			}
		}
		failed = reportScrapeErrors(errs)
		summaries := make(map[string]*obs.AuditSummary, len(reports))
		for name, rep := range reports {
			summaries[name] = rep.Audit
		}
		if printAudit(os.Stdout, summaries, itemsOf(events), *group) {
			failed = true
		}
		printFeedHealth(os.Stdout, events, "event")
	default:
		fatal(fmt.Errorf("unknown command %q (want timeline, status, recovery, trace, critical-path or audit)", cmd))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eternalctl:", err)
	os.Exit(1)
}

// parseNodes parses "name=host:port,..." into name -> admin address.
func parseNodes(s string) (map[string]string, error) {
	nodes := make(map[string]string)
	for _, kv := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(kv, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -nodes entry %q (want name=host:port)", kv)
		}
		nodes[name] = addr
	}
	return nodes, nil
}

// feed is one node's drained journal plus its loss accounting: Last is the
// last page read — /spans carries there what is not paginated —
// Dropped its head's lifetime eviction counter, and Gap counts entries that
// vanished between pages of this scrape (the ring wrapped while we were
// reading — the resume cursor jumped).
type feed[P, T any] struct {
	Items   []T
	Last    P
	Dropped uint64
	Gap     uint64
}

type (
	eventFeed = feed[core.EventsPage, obs.Event]
	spanFeed  = feed[core.SpansPage, obs.Span]
)

// drain reads one node's feed at http://addr/query page by page, resuming
// each page at the server-reported next cursor, until a short page. rows
// picks a page's head and entries, index an entry's journal index. A jump
// between the cursor and the first index of the following page means the
// ring evicted entries mid-scrape; the jump is tallied in Gap rather than
// silently skipped.
func drain[P, T any](client *http.Client, addr, query string, since uint64, pageSize int, rows func(*P) (core.PageHead, []T), index func(T) uint64) (feed[P, T], error) {
	if pageSize <= 0 {
		pageSize = 512
	}
	var f feed[P, T]
	for cursor := since; ; {
		url := fmt.Sprintf("http://%s/%s&since=%d&n=%d", addr, query, cursor, pageSize)
		resp, err := client.Get(url)
		if err != nil {
			return f, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return f, fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		var pg P
		err = json.NewDecoder(resp.Body).Decode(&pg)
		resp.Body.Close()
		if err != nil {
			return f, fmt.Errorf("GET %s: %v", url, err)
		}
		head, items := rows(&pg)
		f.Last, f.Dropped = pg, head.Dropped
		if len(items) > 0 {
			if first := index(items[0]); cursor > 0 && first > cursor+1 {
				f.Gap += first - cursor - 1
			}
			f.Items = append(f.Items, items...)
		}
		if len(items) < pageSize {
			return f, nil
		}
		if head.Next <= cursor {
			return f, fmt.Errorf("GET %s: a full page left the cursor at %d", url, head.Next)
		}
		cursor = head.Next
	}
}

// scrape runs fetch against every node concurrently. Unreachable nodes
// are reported in errs and excluded from the result — a dead node must not
// hide the survivors' timeline.
func scrape[F any](nodes map[string]string, fetch func(addr string) (F, error)) (map[string]F, map[string]error) {
	var mu sync.Mutex
	feeds := make(map[string]F)
	errs := make(map[string]error)
	var wg sync.WaitGroup
	for name, addr := range nodes {
		wg.Add(1)
		go func(name, addr string) {
			defer wg.Done()
			f, err := fetch(addr)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[name] = err
				return
			}
			feeds[name] = f
		}(name, addr)
	}
	wg.Wait()
	return feeds, errs
}

func scrapeFeeds(client *http.Client, nodes map[string]string, since uint64, pageSize int) (map[string]eventFeed, map[string]error) {
	return scrape(nodes, func(addr string) (eventFeed, error) {
		return drain(client, addr, "events?", since, pageSize,
			func(p *core.EventsPage) (core.PageHead, []obs.Event) { return p.PageHead, p.Events },
			func(e obs.Event) uint64 { return e.Index })
	})
}

// itemsOf strips the loss accounting off scraped feeds for a merge.
func itemsOf[P, T any](feeds map[string]feed[P, T]) map[string][]T {
	out := make(map[string][]T, len(feeds))
	for name, f := range feeds {
		out[name] = f.Items
	}
	return out
}

// printFeedHealth surfaces each feed's loss accounting under what was
// merged from it: a wrapped ring means the merge saw only a suffix of that
// node's history. what names the feed's entries.
func printFeedHealth[P, T any](w io.Writer, feeds map[string]feed[P, T], what string) {
	names := make([]string, 0, len(feeds))
	for name := range feeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := feeds[name]
		if f.Dropped == 0 && f.Gap == 0 {
			continue
		}
		fmt.Fprintf(w, "note: %s evicted %d %s(s) from its ring before this scrape", name, f.Dropped, what)
		if f.Gap > 0 {
			fmt.Fprintf(w, " and %d more mid-scrape", f.Gap)
		}
		fmt.Fprintln(w, "; its contribution is a suffix")
	}
}

// reportScrapeErrors names every unreachable node on stderr; the caller
// turns a true return into a non-zero exit status.
func reportScrapeErrors(errs map[string]error) bool {
	names := make([]string, 0, len(errs))
	for name := range errs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "eternalctl: %s unreachable: %v\n", name, errs[name])
	}
	return len(errs) > 0
}

// entryMatches reports whether a timeline entry concerns the group (an
// empty filter matches everything; group-less events like views always
// match, as they affect every group).
func entryMatches(e *obs.TimelineEntry, group string) bool {
	return group == "" || e.Group == "" || e.Group == group
}

func printTimeline(w io.Writer, m *obs.MergedTimeline, group string) {
	diverged := make(map[uint64]bool, len(m.Divergences))
	for _, d := range m.Divergences {
		diverged[d.Seq] = true
	}
	for _, e := range m.Entries {
		if !entryMatches(&e, group) {
			continue
		}
		scope := "local  "
		if e.Ordered {
			scope = "ordered"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "seq %6d  %s  %-14s", e.Seq, scope, e.Type)
		if e.Group != "" {
			fmt.Fprintf(&b, " group=%s", e.Group)
		}
		if e.Node != "" {
			fmt.Fprintf(&b, " node=%s", e.Node)
		}
		if e.XferID != 0 {
			fmt.Fprintf(&b, " xfer=%d", e.XferID)
		}
		if e.Value != 0 {
			fmt.Fprintf(&b, " value=%d", e.Value)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " %s", e.Detail)
		}
		for _, ph := range e.Phases {
			fmt.Fprintf(&b, " %s=%s", ph.Name, ph.Duration)
		}
		fmt.Fprintf(&b, "  [%s]", strings.Join(e.Origins, ","))
		if diverged[e.Seq] && e.Ordered {
			fmt.Fprintf(&b, "  ** DIVERGENCE at this seq **")
		}
		fmt.Fprintln(w, b.String())
	}
	if len(m.Divergences) == 0 {
		fmt.Fprintln(w, "no divergence: all nodes agree on the ordered events")
		return
	}
	fmt.Fprintf(w, "%d DIVERGENT position(s):\n", len(m.Divergences))
	for _, d := range m.Divergences {
		fmt.Fprintf(w, "  seq %d:\n", d.Seq)
		origins := make([]string, 0, len(d.Keys))
		for o := range d.Keys {
			origins = append(origins, o)
		}
		sort.Strings(origins)
		for _, o := range origins {
			if len(d.Keys[o]) == 0 {
				fmt.Fprintf(w, "    %s: (no ordered events)\n", o)
				continue
			}
			fmt.Fprintf(w, "    %s: %s\n", o, strings.Join(d.Keys[o], " ; "))
		}
	}
}

func printRecoveries(w io.Writer, m *obs.MergedTimeline, group string) {
	reports := m.RecoveryReports()
	printed := 0
	for _, r := range reports {
		if group != "" && r.Group != group {
			continue
		}
		printed++
		fmt.Fprintf(w, "recovery of %s into group %s (xfer %d)\n", r.Node, r.Group, r.XferID)
		fmt.Fprintf(w, "  synchronization point: seq %d at %s\n", r.SyncSeq, r.SyncAt.Format(time.RFC3339Nano))
		if r.SetStateSeq != 0 {
			fmt.Fprintf(w, "  set_state from %s delivered at seq %d\n", r.Donor, r.SetStateSeq)
		} else {
			fmt.Fprintln(w, "  set_state: not observed (restart from initial state, or still in flight)")
		}
		if r.Enqueued >= 0 {
			fmt.Fprintf(w, "  invocations enqueued while recovering: %d\n", r.Enqueued)
		}
		for _, ph := range r.Phases {
			fmt.Fprintf(w, "  phase %-8s %s\n", ph.Name, ph.Duration)
		}
		for _, e := range r.During {
			fmt.Fprintf(w, "    during: seq %d %s group=%s node=%s [%s]\n",
				e.Seq, e.Type, e.Group, e.Node, strings.Join(e.Origins, ","))
		}
		if !r.Complete {
			fmt.Fprintln(w, "  status: INCOMPLETE in the scraped window")
		}
	}
	if printed == 0 {
		fmt.Fprintln(w, "no recoveries in the scraped window")
	}
}

func scrapeSpans(client *http.Client, nodes map[string]string, pageSize, rot int) (map[string]spanFeed, map[string]error) {
	return scrape(nodes, func(addr string) (spanFeed, error) {
		return drain(client, addr, fmt.Sprintf("spans?rot=%d", rot), 0, pageSize, spanRows,
			func(sp obs.Span) uint64 { return sp.Index })
	})
}

func spanRows(p *core.SpansPage) (core.PageHead, []obs.Span) { return p.PageHead, p.Spans }

// rotationsOf picks the token-rotation samples out of scraped span feeds.
func rotationsOf(feeds map[string]spanFeed) map[string][]obs.TokenRotation {
	rots := make(map[string][]obs.TokenRotation)
	for name, f := range feeds {
		if len(f.Last.Rotations) > 0 {
			rots[name] = f.Last.Rotations
		}
	}
	return rots
}

// parseTraceID accepts the hex form the trace listing prints (with or
// without 0x) and plain decimal.
func parseTraceID(s string) (uint64, error) {
	if rest, ok := strings.CutPrefix(strings.ToLower(s), "0x"); ok {
		return strconv.ParseUint(rest, 16, 64)
	}
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v, nil
	}
	return strconv.ParseUint(s, 16, 64)
}

func printTraceList(w io.Writer, traces []obs.MergedTrace) {
	if len(traces) == 0 {
		fmt.Fprintln(w, "no spans in any node's journal")
		return
	}
	for i := range traces {
		mt := &traces[i]
		status := "partial"
		if mt.Complete() {
			status = "complete"
		}
		e2e := ""
		if mt.Complete() {
			cs := mt.Spans[mt.Client()]
			e2e = fmt.Sprintf("  %8.1fµs", float64(cs.Phases[obs.SpanReplyDelivered]-cs.Phases[obs.SpanIntercepted])/1e3)
		}
		fmt.Fprintf(w, "trace 0x%016x  seq %6d  group=%-10s nodes=[%s]  %s%s\n",
			mt.Trace, mt.Seq, mt.Group, strings.Join(mt.Nodes, ","), status, e2e)
	}
	fmt.Fprintf(w, "%d trace(s); `eternalctl trace <id>` renders one as a waterfall\n", len(traces))
}

// printTrace renders one merged trace as a cross-node waterfall — every
// phase timestamp on every node, relative to interception — then the
// chained critical-path segments.
func printTrace(w io.Writer, mt *obs.MergedTrace) {
	status := "partial"
	if mt.Complete() {
		status = "complete"
	}
	fmt.Fprintf(w, "trace 0x%016x  group=%s  seq=%d  %s\n", mt.Trace, mt.Group, mt.Seq, status)
	fmt.Fprintf(w, "client=%s executor=%s nodes=[%s]\n",
		orDash(mt.Client()), orDash(mt.Executor()), strings.Join(mt.Nodes, ","))
	if mt.SeqDivergent {
		fmt.Fprintln(w, "** SEQ DIVERGENCE: nodes disagree on the request's total-order position **")
	}
	base := mt.Start()
	total := mt.End() - base
	if base == 0 {
		fmt.Fprintln(w, "no phase timestamps recorded")
		return
	}

	type mark struct {
		at    int64
		node  string
		phase string
	}
	var marks []mark
	for node, sp := range mt.Spans {
		for i, ts := range sp.Phases {
			if ts != 0 {
				marks = append(marks, mark{ts, node, obs.SpanPhase(i).String()})
			}
		}
	}
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].at != marks[j].at {
			return marks[i].at < marks[j].at
		}
		return marks[i].node < marks[j].node
	})
	const width = 48
	fmt.Fprintf(w, "waterfall (offsets from interception, total %.1fµs):\n", float64(total)/1e3)
	for _, mk := range marks {
		off := mk.at - base
		col := 0
		if total > 0 {
			col = int(off * (width - 1) / total)
		}
		fmt.Fprintf(w, "  %10.1fµs  %-10s %-18s |%s*\n",
			float64(off)/1e3, mk.node, mk.phase, strings.Repeat(".", col))
	}

	segs := mt.Segments()
	if len(segs) == 0 {
		return
	}
	fmt.Fprintln(w, "critical path:")
	var accounted int64
	for _, seg := range segs {
		bar := 0
		if total > 0 {
			bar = int(int64(seg.Duration()) * width / total)
		}
		fmt.Fprintf(w, "  %-18s %-10s %10.1fµs  %s\n",
			seg.Phase, seg.Node, float64(seg.Duration().Nanoseconds())/1e3,
			strings.Repeat("#", bar))
		accounted += int64(seg.Duration())
	}
	if total > 0 {
		fmt.Fprintf(w, "  segments account for %.1f%% of the trace's span\n",
			float64(accounted)/float64(total)*100)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// printCriticalPath renders the workload-level phase attribution.
func printCriticalPath(w io.Writer, att obs.PhaseAttribution, scraped int) {
	if att.Traces == 0 {
		fmt.Fprintf(w, "no complete traces (%d partial trace(s) scraped): run traced invocations first\n", scraped)
		return
	}
	fmt.Fprintf(w, "phase attribution over %d complete trace(s) (%d scraped):\n", att.Traces, scraped)
	fmt.Fprintf(w, "  %-18s %6s %10s %10s %10s\n", "phase", "count", "p50(µs)", "p95(µs)", "p99(µs)")
	for _, st := range att.Phases {
		fmt.Fprintf(w, "  %-18s %6d %10.1f %10.1f %10.1f\n", st.Phase, st.Count, st.P50Us, st.P95Us, st.P99Us)
	}
	fmt.Fprintf(w, "  %-18s %6d %10.1f %10.1f %10.1f\n", "end-to-end",
		att.EndToEnd.Count, att.EndToEnd.P50Us, att.EndToEnd.P95Us, att.EndToEnd.P99Us)
	fmt.Fprintf(w, "phases account for %.1f%% of end-to-end time\n", att.AttributedPct)
}

// printRotations summarizes each node's token-rotation profile: how long
// the token is held, how far apart its visits are, and what the hold
// time went to (retransmissions vs. draining the pending queue) — plus
// how the visits ended: the median idle-hop count, how many samples
// left the token paced (and the deepest backoff), resting at the node as
// the ring's only sender or held there for a reply its own replica owed,
// and the most state-transfer messages a visit left waiting in the bulk
// lane.
func printRotations(w io.Writer, rots map[string][]obs.TokenRotation) {
	names := make([]string, 0, len(rots))
	for name := range rots {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return
	}
	fmt.Fprintln(w, "token-rotation profile (per node, medians over recent samples):")
	fmt.Fprintf(w, "  %-10s %8s %12s %10s %11s %9s %7s %8s %6s %6s %6s %7s %5s %5s\n",
		"node", "samples", "interval(µs)", "hold(µs)", "retrans(µs)", "send(µs)", "chunks", "pending", "idle", "paced", "ticks", "resting", "held", "bulk")
	for _, name := range names {
		samples := rots[name]
		med := func(get func(obs.TokenRotation) float64) float64 {
			vals := make([]float64, 0, len(samples))
			for _, s := range samples {
				vals = append(vals, get(s))
			}
			sort.Float64s(vals)
			return vals[len(vals)/2]
		}
		maxPending := 0
		chunks := 0
		paced, maxTicks := 0, 0
		resting, held, maxBulk := 0, 0, 0
		for _, s := range samples {
			switch s.Resting {
			case obs.RestSoleSender:
				resting++
			case obs.RestReplyOwed:
				held++
			}
			maxBulk = max(maxBulk, s.BulkWaiting)
			if s.PendingBefore > maxPending {
				maxPending = s.PendingBefore
			}
			chunks += s.ChunksSent
			if s.Paced {
				paced++
			}
			if s.PaceTicks > maxTicks {
				maxTicks = s.PaceTicks
			}
		}
		fmt.Fprintf(w, "  %-10s %8d %12.1f %10.1f %11.1f %9.1f %7d %8d %6.0f %6d %6d %7d %5d %5d\n",
			name, len(samples),
			med(func(s obs.TokenRotation) float64 { return s.IntervalUs }),
			med(func(s obs.TokenRotation) float64 { return s.HoldUs }),
			med(func(s obs.TokenRotation) float64 { return s.RetransUs }),
			med(func(s obs.TokenRotation) float64 { return s.SendUs }),
			chunks, maxPending,
			med(func(s obs.TokenRotation) float64 { return float64(s.IdleHops) }),
			paced, maxTicks, resting, held, maxBulk)
	}
}

// fetchHealth reads one node's /healthz report. A 503 is a report too: an
// unsynced or diverged node says why in its body.
func fetchHealth(client *http.Client, addr string) (core.HealthReport, error) {
	var rep core.HealthReport
	url := fmt.Sprintf("http://%s/healthz", addr)
	resp, err := client.Get(url)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return rep, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("GET %s: %v", url, err)
	}
	return rep, nil
}

func printStatus(w io.Writer, client *http.Client, nodes map[string]string) (failed bool) {
	names := make([]string, 0, len(nodes))
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep, err := fetchHealth(client, nodes[name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "eternalctl: %s unreachable: %v\n", name, err)
			failed = true
			continue
		}
		fmt.Fprintf(w, "%s (%s): synced=%t seq=%d events=%d dropped=%d live=[%s]\n",
			name, rep.Node, rep.Synced, rep.Seq, rep.EventsRecorded, rep.EventsDropped,
			strings.Join(rep.Live, ","))
		if !rep.Synced {
			fmt.Fprintf(w, "  sync: waiting on [%s] to answer or to ask\n", strings.Join(rep.SyncWaiting, ","))
		}
		for _, g := range rep.Groups {
			var members []string
			for _, mm := range g.Members {
				members = append(members, fmt.Sprintf("%s(%s,%s)", mm.Node, mm.State, mm.Role))
			}
			hosted := ""
			if g.Hosted {
				hosted = " [hosted here]"
			}
			fmt.Fprintf(w, "  group %s (%s)%s: %s\n", g.Name, g.Style, hosted, strings.Join(members, " "))
		}
		if rep.Audit != nil && printAuditSummary(w, "  audit: ", rep.Audit, "") {
			failed = true
		}
	}
	return failed
}

// printAuditSummary prints a node's live audit verdict after head — last
// epoch, observation count and alarm totals — then each member's standing
// in every group group admits ("" admits all). It reports whether the
// summary holds a divergence.
func printAuditSummary(w io.Writer, head string, s *obs.AuditSummary, group string) (diverged bool) {
	verdict := "consistent"
	if s.Diverged {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(w, "%s%s epoch=%d observations=%d alarms(div/lag)=%d/%d\n",
		head, verdict, s.LastEpoch, s.Observations, s.Divergences, s.Lags)
	for _, ga := range s.Groups {
		if group != "" && ga.Group != group {
			continue
		}
		for _, m := range ga.Members {
			flags := ""
			if m.Lagging {
				flags = " LAGGING"
			}
			fmt.Fprintf(w, "    %-12s %-10s epoch=%-6d digest=%08x lag=%d%s\n",
				ga.Group, m.Node, m.Epoch, m.Digest, m.Lag, flags)
		}
	}
	return s.Diverged
}

// printAudit renders each node's verdict (nil: audit disabled), its alarms
// (the audit-* events of its flight-recorder feed) and its collector's
// retained digest rows, then the conflicts between nodes' rows; it reports
// true when any row diverged, any two collectors conflict, or any node
// holds a latched divergence — the caller exits non-zero.
func printAudit(w io.Writer, summaries map[string]*obs.AuditSummary, events map[string][]obs.Event, group string) (bad bool) {
	names := make([]string, 0, len(summaries))
	for name := range summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	enabled := make(map[string]obs.AuditSummary, len(summaries))
	rows := 0
	for _, name := range names {
		s := summaries[name]
		if s == nil {
			fmt.Fprintf(w, "%s: audit disabled\n", name)
			continue
		}
		enabled[name] = *s
		if printAuditSummary(w, name+": ", s, group) {
			bad = true
		}
		for _, ev := range events[name] {
			if kind, ok := strings.CutPrefix(ev.Type, "audit-"); ok {
				fmt.Fprintf(w, "  alarm %-10s group=%s node=%s epoch=%d %s\n",
					kind, ev.Group, orDash(ev.Node), ev.Value, ev.Detail)
			}
		}
		for _, ga := range s.Groups {
			if group != "" && ga.Group != group {
				continue
			}
			for _, row := range ga.Epochs {
				rows++
				var b strings.Builder
				fmt.Fprintf(&b, "  epoch %6d  %-12s", row.Epoch, ga.Group)
				for _, node := range slices.Sorted(maps.Keys(row.Digests)) {
					fmt.Fprintf(&b, "  %s=%08x", node, row.Digests[node])
				}
				if row.Diverged {
					b.WriteString("  ** DIVERGED **")
					bad = true
				}
				fmt.Fprintln(w, b.String())
			}
		}
	}
	if rows == 0 {
		fmt.Fprintln(w, "no audit epochs in the retained windows")
	}
	for _, c := range obs.AuditConflicts(enabled) {
		if group != "" && c.Group != group {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "epoch %6d  %-12s %s: ** CONFLICT **", c.Epoch, c.Group, c.Member)
		for _, node := range slices.Sorted(maps.Keys(c.Digests)) {
			fmt.Fprintf(&b, "  %s holds %08x", node, c.Digests[node])
		}
		fmt.Fprintln(w, b.String())
		bad = true
	}
	return bad
}
