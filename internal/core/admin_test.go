package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// adminServer stands up one synced node's admin surface.
func adminServer(t *testing.T) (*Node, *httptest.Server) {
	t.Helper()
	c := newTestCluster(t, simnet.Config{}, "a1")
	srv := httptest.NewServer(c.nodes["a1"].AdminHandler())
	t.Cleanup(srv.Close)
	return c.nodes["a1"], srv
}

func TestAdminUnknownPath(t *testing.T) {
	_, srv := adminServer(t)
	// /trace was the hop tracer's feed; /spans replaced it. /cluster was
	// /healthz plus three fields; /healthz carries them now. /audit was a
	// second journal of the digests /healthz's audit rows hold.
	for _, path := range []string{"/no-such-endpoint", "/trace", "/cluster", "/audit"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestAdminBadParameters(t *testing.T) {
	_, srv := adminServer(t)
	for _, path := range []string{
		"/spans?since=bogus",
		"/spans?n=-1",
		"/spans?n=1.5",
		"/spans?rot=bogus",
		"/events?since=bogus",
		"/events?since=-1",
		"/events?n=bogus",
		"/events?n=-1",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status = %d (%q), want 400", path, resp.StatusCode, body)
		}
	}
}

func TestAdminContentTypes(t *testing.T) {
	_, srv := adminServer(t)
	for path, want := range map[string]string{
		"/metrics": "text/plain",
		"/healthz": "application/json",
		"/spans":   "application/json",
		"/events":  "application/json",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, want) {
			t.Errorf("GET %s: content type = %q, want %q", path, ct, want)
		}
	}
}

// TestHealthzUnsynced checks readiness semantics: 503 with the full JSON
// report while the node has not yet joined the domain's state, 200 after.
func TestHealthzUnsynced(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ep, err := net.Join("solo")
	if err != nil {
		t.Fatal(err)
	}
	n, err := Start(Config{
		Transport:   totem.NewSimnetTransport(ep),
		Totem:       fastTotem(),
		ManagerTick: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	srv := httptest.NewServer(n.AdminHandler())
	defer srv.Close()

	// Freshly started and alone: synced as soon as its one-member ring has
	// formed and ordered its own sync request, which it may or may not have
	// yet (TestSyncWaitsForASlowAnswer holds a node in the unsynced state).
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var rep HealthReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("healthz body not JSON while unsynced: %v", err)
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if rep.Synced {
			t.Fatalf("503 but synced=true: %+v", rep)
		}
	} else if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 503 (unsynced) or 200 (synced already)", resp.StatusCode)
	}
	if rep.Node != "solo" {
		t.Fatalf("healthz node = %q", rep.Node)
	}

	if err := n.AwaitSynced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rep.Synced {
		t.Fatalf("after sync: status = %d, synced = %t", resp.StatusCode, rep.Synced)
	}
	// The report carries the delivery position and the recorder totals.
	if rep.Seq == 0 || rep.EventsRecorded == 0 {
		t.Fatalf("after sync: seq = %d, events_recorded = %d; want both past 0", rep.Seq, rep.EventsRecorded)
	}
}

// TestEventsEndpoint checks the feed's shape and index-based pagination
// against a node that created a group (which records ordered events).
func TestEventsEndpoint(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "a1", "a2")
	c.createGroup("grp", ftcorba.Active, []string{"a1", "a2"}, 1)
	srv := httptest.NewServer(c.nodes["a1"].AdminHandler())
	defer srv.Close()

	var page EventsPage
	get := func(query string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /events%s: %d", query, resp.StatusCode)
		}
		page.Events = nil
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
	}

	get("")
	if page.Node != "a1" || len(page.Events) == 0 {
		t.Fatalf("events page = %+v", page)
	}
	foundCreate := false
	for _, ev := range page.Events {
		if ev.Type == obs.EventGroupCreate && ev.Group == "grp" {
			foundCreate = true
		}
	}
	if !foundCreate {
		t.Fatalf("no group-create event for grp in %+v", page.Events)
	}

	// Pagination: one event per page, indexes strictly increasing,
	// resuming from the last index yields the next event.
	get("?n=1")
	if len(page.Events) != 1 {
		t.Fatalf("n=1 page has %d events", len(page.Events))
	}
	first := page.Events[0].Index
	get("?since=" + itoa(first) + "&n=1")
	if len(page.Events) != 1 || page.Events[0].Index <= first {
		t.Fatalf("pagination after index %d returned %+v", first, page.Events)
	}
}

func itoa(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestClientDialsAreCountedAsIntercepted: a client ORB on a node dials a
// group through the interceptor, so the node's dial counter moves.
func TestClientDialsAreCountedAsIntercepted(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "a1")
	c.createGroup("ctr", ftcorba.Active, []string{"a1"}, 1)
	if got := add(t, c.client("a1", "driver", "ctr"), 1); got != 1 {
		t.Fatalf("add = %d, want 1", got)
	}
	if n := scrapeCounter(t, c.nodes["a1"], "eternal_intercepted_dials_total"); n < 1 {
		t.Fatalf("eternal_intercepted_dials_total = %d after a client invoked a group, want >= 1", n)
	}
}
