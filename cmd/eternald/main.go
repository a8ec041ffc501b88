// Command eternald runs one Eternal node as an operating-system process,
// communicating with its peers over UDP — the deployment shape of the
// paper's testbed, one daemon per workstation.
//
// A three-node domain on one machine:
//
//	eternald -name n1 -listen 127.0.0.1:7001 -peers n2=127.0.0.1:7002,n3=127.0.0.1:7003 \
//	         -create demo -replicas n1,n2,n3
//	eternald -name n2 -listen 127.0.0.1:7002 -peers n1=127.0.0.1:7001,n3=127.0.0.1:7003
//	eternald -name n3 -listen 127.0.0.1:7003 -peers n1=127.0.0.1:7001,n2=127.0.0.1:7002
//
// Add -drive to run a demo client against the group from this process
// (invocations stream through the full interception + multicast stack).
// Every node registers the demo "Register" replica type.
//
// Add -admin host:port to serve the observability endpoints: /metrics
// (Prometheus text), /healthz (membership, roles, delivery position,
// recorder totals and the consistency audit's verdict and digest rows,
// behind eternalctl status and audit; 503 until synchronized, and while a
// divergence alarm is latched), /events (the flight-recorder feed
// eternalctl merges into a cluster timeline), /spans (per-invocation
// phase spans and the token-rotation profile, the feed behind eternalctl
// trace and critical-path) and /debug/pprof/. The admin server shuts down
// gracefully on SIGINT or SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eternal"
	"eternal/internal/orb"
	"eternal/internal/totem"
)

// registerReplica is the demo type every eternald hosts.
type registerReplica struct {
	val string
}

func (r *registerReplica) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
	switch op {
	case "set":
		d := eternal.NewDecoder(args, order)
		s, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		r.val = s
		return nil, nil
	case "get":
		e := eternal.NewEncoder(order)
		e.WriteString(r.val)
		return e.Bytes(), nil
	default:
		return nil, orb.BadOperation()
	}
}

func (r *registerReplica) GetState() (eternal.Any, error) {
	return eternal.AnyFromString(r.val), nil
}

func (r *registerReplica) SetState(st eternal.Any) error {
	s, ok := st.Value.(string)
	if !ok {
		return eternal.ErrInvalidState
	}
	r.val = s
	return nil
}

func main() {
	var (
		name     = flag.String("name", "", "this node's unique name (required)")
		listen   = flag.String("listen", "127.0.0.1:7001", "UDP listen address")
		peersArg = flag.String("peers", "", "comma-separated peer list: name=host:port,...")
		create   = flag.String("create", "", "create this replicated group after joining")
		replicas = flag.String("replicas", "", "comma-separated placement nodes for -create")
		style    = flag.String("style", "active", "replication style for -create: active|warm|cold")
		minRepl  = flag.Int("min-replicas", 1,
			"MinimumNumberReplicas for -create; below this the Resource Manager re-replicates onto a live node")
		drive    = flag.Bool("drive", false, "run a demo client loop against the -create group")
		logLevel = flag.String("log-level", "", "log mechanism events at this level: debug|info|warn|error (empty disables)")
		admin    = flag.String("admin", "", "serve /metrics, /healthz, /events, /spans and pprof on this host:port")

		auditInterval = flag.Duration("audit-interval", 0,
			"consistency-audit mark period (0 = default 1s, negative disables the audit)")
		tokenTick = flag.Duration("token-tick", 0,
			"totem timer resolution: an idle-paced token moves up to a few ticks per hop, a token resting at the ring's only sender goes round once per tick, a token held for its holder's own reply waits at most one tick, a lazy reply waits one tick; a member counts as the only sender after two ticks (0 = default 2ms)")
	)
	flag.Parse()
	if *name == "" {
		log.Fatal("eternald: -name is required")
	}

	peers := make(map[string]string)
	// The configured domain: this node and every peer named.
	domain := []string{*name}
	if *peersArg != "" {
		for _, kv := range strings.Split(*peersArg, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				log.Fatalf("eternald: bad -peers entry %q", kv)
			}
			peers[k] = v
			domain = append(domain, k)
		}
	}

	tr, err := totem.NewUDPTransport(*name, *listen, peers)
	if err != nil {
		log.Fatal(err)
	}
	nodeCfg := eternal.NodeConfig{
		Transport:     tr,
		AuditInterval: *auditInterval,
	}
	nodeCfg.Totem.Tick = *tokenTick
	nodeCfg.Totem.Nodes = domain
	if *logLevel != "" {
		level, err := eternal.ParseLogLevel(*logLevel)
		if err != nil {
			log.Fatalf("eternald: %v", err)
		}
		nodeCfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}
	node, err := eternal.StartNode(nodeCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Stop()
	node.RegisterFactory("Register", func(oid string) eternal.Replica { return &registerReplica{} })

	var adminSrv *http.Server
	if *admin != "" {
		adminSrv = &http.Server{Addr: *admin, Handler: node.AdminHandler()}
		go func() {
			log.Printf("admin endpoint on http://%s/ (metrics, healthz, events, spans, audit, cluster, debug/pprof)", *admin)
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("admin endpoint: %v", err)
			}
		}()
	}

	log.Printf("eternald %s listening on %s, %d peers", *name, *listen, len(peers))
	if err := node.AwaitSynced(30 * time.Second); err != nil {
		log.Fatalf("never synchronized with the domain: %v", err)
	}
	log.Printf("%s synchronized with the domain", *name)

	if *create != "" {
		nodes := strings.Split(*replicas, ",")
		props := eternal.Properties{
			Style:           map[string]eternal.ReplicationStyle{"active": eternal.Active, "warm": eternal.WarmPassive, "cold": eternal.ColdPassive}[*style],
			InitialReplicas: len(nodes),
			MinReplicas:     *minRepl,
		}
		if props.Style != eternal.Active {
			props.CheckpointInterval = time.Second
		}
		err := node.CreateGroup(eternal.GroupSpec{
			Name: *create, TypeName: "Register", Props: props, Nodes: nodes,
		}, 30*time.Second)
		if err != nil {
			log.Fatalf("creating group %q: %v", *create, err)
		}
		log.Printf("created group %q (%s) on %v", *create, props.Style, nodes)
	}

	if *drive && *create != "" {
		go driveClient(node, *create)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("%s shutting down", *name)
	if adminSrv != nil {
		// Let in-flight scrapes finish; a wedged connection must not hold
		// the daemon past the deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := adminSrv.Shutdown(ctx); err != nil {
			log.Printf("admin endpoint shutdown: %v", err)
		}
	}
}

func driveClient(node *eternal.Node, group string) {
	o := node.ClientORB("eternald-driver", orb.Options{RequestTimeout: 10 * time.Second})
	defer o.Close()
	ref, err := node.GroupIOR(group)
	if err != nil {
		log.Printf("driver: %v", err)
		return
	}
	obj, err := o.Object(ref)
	if err != nil {
		log.Printf("driver: %v", err)
		return
	}
	for i := 0; ; i++ {
		e := eternal.NewEncoder(eternal.BigEndian)
		e.WriteString(fmt.Sprintf("beat-%d", i))
		if _, err := obj.Invoke("set", e.Bytes()); err != nil {
			log.Printf("driver: set: %v", err)
		} else if i%10 == 0 {
			out, err := obj.Invoke("get", nil)
			if err != nil {
				log.Printf("driver: get: %v", err)
			} else {
				d := eternal.NewDecoder(out, eternal.BigEndian)
				s, _ := d.ReadString()
				log.Printf("driver: value=%q", s)
			}
		}
		time.Sleep(time.Second)
	}
}
