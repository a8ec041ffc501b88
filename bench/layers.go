package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"eternal/internal/anyval"
	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/interceptor"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/recovery"
	"eternal/internal/replication"
	"eternal/internal/ring"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// The layers pass times each layer from outside, through its exported
// functions, on one goroutine. It is not a workload: it says what one call
// into a layer costs when nothing else runs, which is the floor under the
// share of an invocation (or a recovery) that layer can be blamed for.

const (
	layerBatches = 5
	// layerBatch is how long one batch of calls runs. The traced run of
	// every workload repeats the whole pass, so it has to stay short.
	layerBatch = 12 * time.Millisecond
)

type layerPass struct {
	tr     *tracer
	parent uint64
	out    values
}

// The sinks keep results alive so the compiler cannot drop the timed calls.
// They are typed so that storing a result does not allocate: only pointers
// go through sinkP.
var (
	sinkN int
	sinkB []byte
	sinkP any
)

// time reports, under name, the median over batches of the mean duration
// of op, in the unit of scale (time.Nanosecond, time.Microsecond, ...).
func (lp *layerPass) time(name string, scale time.Duration, op func()) {
	op() // first call: pools, lazy tables
	t0 := time.Now()
	op()
	once := time.Since(t0)
	n := 1
	if once > 0 && once < layerBatch {
		n = int(layerBatch / once)
	}
	per := make([]float64, layerBatches)
	for b := range per {
		s := lp.tr.begin(name, lp.parent, 0)
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[b] = float64(time.Since(start)) / float64(n) / float64(scale)
		lp.tr.end(s)
	}
	sort.Float64s(per)
	lp.out[name] = per[len(per)/2]
}

// runLayers runs the whole pass. A layer that cannot run here (no
// loopback sockets) reports -1 and says why on standard error.
func runLayers(tr *tracer) values {
	root := tr.begin("layers", 0, 0)
	defer tr.end(root)
	lp := &layerPass{tr: tr, parent: root.ID, out: values{}}
	lp.cdr()
	lp.giop()
	lp.interceptor()
	lp.orb()
	lp.replication()
	lp.recovery()
	lp.small()
	lp.simnet()
	lp.totem()
	return lp.out
}

func filled(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

var (
	arg64  = filled(64)
	blob1m = filled(1 << 20)
	blob64 = filled(64 << 10)
)

func (lp *layerPass) cdr() {
	lp.time("cdr.encode_req_ns", time.Nanosecond, func() {
		e := cdr.AcquireEncoder(cdr.BigEndian)
		e.WriteULong(7)
		e.WriteString("ping")
		e.WriteULongLong(42)
		e.WriteOctetSeq(arg64)
		sinkN = e.Len()
		cdr.ReleaseEncoder(e)
	})
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(7)
	e.WriteString("ping")
	e.WriteULongLong(42)
	e.WriteOctetSeq(arg64)
	enc := e.Bytes()
	lp.time("cdr.decode_req_ns", time.Nanosecond, func() {
		d := cdr.NewDecoder(enc, cdr.BigEndian)
		d.ReadULong()
		d.ReadString()
		d.ReadULongLong()
		sinkB, _ = d.ReadOctetSeq()
	})
	lp.time("cdr.octetseq_1m_us", time.Microsecond, func() {
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteOctetSeq(blob1m)
		sinkB, _ = cdr.NewDecoder(e.Bytes(), cdr.BigEndian).ReadOctetSeq()
	})
}

func (lp *layerPass) giop() {
	reqHdr := &giop.RequestHeader{RequestID: 9, ResponseExpected: true, ObjectKey: []byte("root/bench"), Operation: "ping"}
	repHdr := &giop.ReplyHeader{RequestID: 9}
	buf := make([]byte, 0, 4096)
	lp.time("giop.request_encode_ns", time.Nanosecond, func() {
		buf = giop.EncodeRequest(giop.Version12, cdr.BigEndian, reqHdr, arg64).AppendMarshal(buf[:0])
	})
	reqWire := giop.EncodeRequest(giop.Version12, cdr.BigEndian, reqHdr, arg64).Marshal()
	lp.time("giop.request_parse_ns", time.Nanosecond, func() {
		m, err := giop.ReadMessage(bytes.NewReader(reqWire))
		if err == nil {
			sinkP, _ = giop.ParseRequest(m)
		}
	})
	lp.time("giop.reply_encode_ns", time.Nanosecond, func() {
		buf = giop.EncodeReply(giop.Version12, cdr.BigEndian, repHdr, arg64).AppendMarshal(buf[:0])
	})
	repWire := giop.EncodeReply(giop.Version12, cdr.BigEndian, repHdr, arg64).Marshal()
	lp.time("giop.reply_parse_ns", time.Nanosecond, func() {
		m, err := giop.ReadMessage(bytes.NewReader(repWire))
		if err == nil {
			sinkP, _ = giop.ParseReply(m)
		}
	})
	big := giop.EncodeRequest(giop.Version12, cdr.BigEndian, reqHdr, blob64)
	var stream bytes.Buffer
	lp.time("giop.fragment_64k_us", time.Microsecond, func() {
		stream.Reset()
		giop.WriteMessage(&stream, big, 4096)
		sinkP, _ = giop.NewReader(&stream).Next()
	})
}

func (lp *layerPass) interceptor() {
	reqHdr := &giop.RequestHeader{RequestID: 9, ResponseExpected: true, ObjectKey: []byte("root/bench"), Operation: "ping"}
	msg := giop.EncodeRequest(giop.Version12, cdr.BigEndian, reqHdr, arg64)
	a, b := interceptor.Pipe()
	defer a.Close()
	defer b.Close()
	lp.time("interceptor.pipe_msg_ns", time.Nanosecond, func() {
		msg.WriteTo(a)
		sinkP, _ = giop.ReadMessage(b)
	})
	id := uint32(0)
	lp.time("interceptor.rewrite_id_ns", time.Nanosecond, func() {
		id++
		sinkP, _ = interceptor.RewriteRequestID(msg, id)
	})
}

// pipeDialer connects an ORB to a server through the interceptor's
// in-memory pipe: IIOP with no sockets and no replication.
type pipeDialer struct{ srv *orb.Server }

func (d pipeDialer) Dial(string, uint16) (net.Conn, error) {
	c, s := interceptor.Pipe()
	go d.srv.ServeConn(s)
	return c, nil
}

func (lp *layerPass) orb() {
	echo := orb.ServantFunc(func(op string, args []byte, order cdr.ByteOrder) ([]byte, error) { return args, nil })
	srv := orb.NewServer(orb.ServerOptions{})
	defer srv.Close()
	srv.RootPOA().Activate("x", echo)

	po := orb.NewORB(orb.Options{RequestTimeout: invokeTimeout, Dialer: pipeDialer{srv}})
	defer po.Close()
	if obj, err := po.Object(srv.RootPOA().IOR("IDL:X:1.0", "pipe", 1, "x")); err == nil {
		lp.time("orb.pipe_echo_us", time.Microsecond, func() { sinkB, _ = obj.Invoke("echo", arg64) })
	} else {
		lp.skip("orb.pipe_echo_us", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lp.skip("orb.tcp_echo_us", err)
		return
	}
	go srv.Serve(l) // returns when srv.Close closes the listener
	to := orb.NewORB(orb.Options{RequestTimeout: invokeTimeout})
	defer to.Close()
	port := uint16(l.Addr().(*net.TCPAddr).Port)
	obj, err := to.Object(srv.RootPOA().IOR("IDL:X:1.0", "127.0.0.1", port, "x"))
	if err != nil {
		lp.skip("orb.tcp_echo_us", err)
		return
	}
	lp.time("orb.tcp_echo_us", time.Microsecond, func() { sinkB, _ = obj.Invoke("echo", arg64) })
}

func (lp *layerPass) skip(name string, err error) {
	fmt.Fprintf(os.Stderr, "bench: layer %s not measured: %v\n", name, err)
	lp.out[name] = -1
}

func (lp *layerPass) replication() {
	env := &replication.Envelope{
		Kind: replication.KRequest, Group: groupName,
		Conn: replication.ConnID{Client: "driver0", Group: groupName, Seq: 1},
		OpID: 77, Trace: 1 << 40, Payload: filled(120),
	}
	lp.time("replication.envelope_encode_ns", time.Nanosecond, func() {
		e := cdr.AcquireEncoder(cdr.BigEndian)
		env.EncodeTo(e)
		sinkN = e.Len()
		cdr.ReleaseEncoder(e)
	})
	wire := env.Encode()
	lp.time("replication.envelope_decode_ns", time.Nanosecond, func() { sinkP, _ = replication.Decode(wire) })
	f := replication.NewDupFilter()
	op := uint32(0)
	lp.time("replication.dupfilter_ns", time.Nanosecond, func() {
		op++
		if f.FirstDelivery(env.Conn, op) {
			sinkN++
		}
	})
	conns := make(map[replication.ConnID]uint32, 1024)
	for i := 0; i < 1024; i++ {
		conns[replication.ConnID{Client: fmt.Sprintf("client%04d", i), Group: groupName, Seq: uint64(i)}] = uint32(i)
	}
	filter := replication.EncodeFilterState(conns)
	lp.time("replication.digest_64k_us", time.Microsecond, func() { sinkN = int(replication.DigestState(blob64, filter)) })
	lp.time("replication.filterstate_encode_1k_us", time.Microsecond, func() { sinkB = replication.EncodeFilterState(conns) })
}

func (lp *layerPass) recovery() {
	app, _ := anyval.FromBytes(blob1m).MarshalBytes()
	lp.time("anyval.marshal_1m_us", time.Microsecond, func() { sinkB, _ = anyval.FromBytes(blob1m).MarshalBytes() })
	lp.time("anyval.unmarshal_1m_us", time.Microsecond, func() {
		a, _ := anyval.UnmarshalBytes(app)
		sinkB, _ = a.Bytes()
	})

	bundle := &recovery.Bundle{AppState: app, CaptureNanos: 1}
	lp.time("recovery.bundle_encode_1m_us", time.Microsecond, func() { sinkB = bundle.Encode() })
	enc := bundle.Encode()
	lp.time("recovery.bundle_decode_1m_us", time.Microsecond, func() { sinkP, _ = recovery.DecodeBundle(enc) })
	const chunkBytes = 32 << 10 // the shipped StateChunkBytes
	lp.time("recovery.split_manifest_1m_us", time.Microsecond, func() {
		chunks := recovery.SplitChunks(enc, chunkBytes)
		sinkB = recovery.NewManifest(enc, chunks, chunkBytes).Encode()
	})
	chunks := recovery.SplitChunks(enc, chunkBytes)
	manifest := recovery.NewManifest(enc, chunks, chunkBytes)
	lp.time("recovery.assemble_1m_us", time.Microsecond, func() {
		a := recovery.NewAssembly()
		for i, c := range chunks {
			a.AddChunk(i, c)
		}
		a.SetManifest(manifest)
		sinkB = a.Bytes()
	})
	log := recovery.NewLog()
	env := &replication.Envelope{Kind: replication.KRequest, Group: groupName, Payload: filled(120)}
	lp.time("recovery.log_append_ns", time.Nanosecond, func() {
		if log.Len() >= 4096 {
			log.Reset()
		}
		log.Append(env)
	})
}

// small times the shared utility layers: the queue and the observability
// stamps every invocation pays several times over.
func (lp *layerPass) small() {
	var q ring.Buffer[int]
	lp.time("ring.push_pop_ns", time.Nanosecond, func() {
		q.Push(1)
		sinkN, _ = q.Pop()
	})
	spans := obs.NewSpanRecorder("n1", 0)
	spans.Begin(1, groupName)
	lp.time("obs.span_stamp_ns", time.Nanosecond, func() { spans.Mark(1, obs.SpanEnqueued) })
	h := obs.NewRegistry().Histogram("bench_seconds", "", nil)
	lp.time("obs.histogram_observe_ns", time.Nanosecond, func() { h.Observe(37e-6) })
	rec := obs.NewRecorder(0, "n1")
	lp.time("obs.recorder_record_ns", time.Nanosecond, func() { rec.Record(obs.Event{Type: obs.EventRecovered, Group: groupName}) })
}

func (lp *layerPass) simnet() {
	ideal := simnet.New(simnet.Config{})
	eps := make([]*simnet.Endpoint, 3)
	for i := range eps {
		eps[i], _ = ideal.Join(fmt.Sprintf("s%d", i))
		defer eps[i].Close()
	}
	frame := filled(100)
	lp.time("simnet.broadcast3_ns", time.Nanosecond, func() {
		eps[0].Broadcast(frame)
		for _, ep := range eps {
			<-ep.Recv()
		}
	})
	lp.time("simnet.unicast_ns", time.Nanosecond, func() {
		eps[0].Send("s1", frame)
		<-eps[1].Recv()
	})

	// 1 MiB in full frames over the workloads' medium: the wire time the
	// model charges, which no state transfer of that size can beat.
	lan := simnet.New(lan100())
	a, _ := lan.Join("a")
	b, _ := lan.Join("b")
	defer a.Close()
	defer b.Close()
	full := filled(simnet.EthernetMTU)
	frames := (1<<20 + len(full) - 1) / len(full)
	per := make([]float64, 3)
	for i := range per {
		s := lp.tr.begin("simnet.lan100_1m_ms", lp.parent, 0)
		start := time.Now()
		for f := 0; f < frames; f++ {
			a.Send("b", full)
		}
		for f := 0; f < frames; f++ {
			<-b.Recv()
		}
		per[i] = ms(time.Since(start))
		lp.tr.end(s)
	}
	sort.Float64s(per)
	lp.out["simnet.lan100_1m_ms"] = per[1]
}

// --- totem rings, timed from outside ---

// testRing is a totem ring of one processor per transport, with every
// processor's delivery and view streams drained so none of them backs up.
type testRing struct {
	procs []*totem.Processor
	// own receives the payload length of each message procs[0] delivers.
	own  chan int
	done chan struct{}
}

func startRing(transports []totem.Transport) (*testRing, time.Duration, error) {
	// own has room for a whole pipelined stream, so that the goroutine
	// draining procs[0] never waits on the one measuring.
	r := &testRing{own: make(chan int, 1<<16), done: make(chan struct{})}
	formed := make(chan struct{}, len(transports))
	start := time.Now()
	for i, tr := range transports {
		cfg := benchTotem()
		cfg.Transport = tr
		p, err := totem.Start(cfg)
		if err != nil {
			r.stop()
			return nil, 0, err
		}
		r.procs = append(r.procs, p)
		go func() {
			full := false
			for {
				select {
				case <-r.done:
					return
				case d := <-p.Deliveries():
					if d.View == nil && i == 0 {
						r.own <- len(d.Payload)
					}
				case v := <-p.Views():
					if !full && len(v.Members) == len(transports) {
						full = true
						formed <- struct{}{}
					}
				}
			}
		}()
	}
	deadline := time.After(adminTimeout)
	for range transports {
		select {
		case <-formed:
		case <-deadline:
			r.stop()
			return nil, 0, fmt.Errorf("ring of %d never formed", len(transports))
		}
	}
	return r, time.Since(start), nil
}

func (r *testRing) stop() {
	close(r.done)
	for _, p := range r.procs {
		p.Stop()
	}
}

func simnetTransports(net *simnet.Network, n int) []totem.Transport {
	trs := make([]totem.Transport, n)
	for i := range trs {
		ep, _ := net.Join(fmt.Sprintf("p%d", i))
		trs[i] = totem.NewSimnetTransport(ep)
	}
	return trs
}

// deliverP50 multicasts n small messages from procs[0], one at a time,
// each timed to its own delivery in agreed order, and returns the median.
func (r *testRing) deliverP50(n int, payload []byte) float64 {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if r.procs[0].Multicast(payload) != nil {
			break
		}
		select {
		case <-r.own:
			lat = append(lat, us(time.Since(t0)))
		case <-time.After(invokeTimeout):
			return -1
		}
	}
	return quantile(sorted(lat), 0.5)
}

func (lp *layerPass) totem() {
	msg := filled(100)
	for n := 1; n <= 3; n++ {
		name := fmt.Sprintf("totem.ring%d_deliver_p50_us", n)
		net := simnet.New(simnet.Config{})
		s := lp.tr.begin(name, lp.parent, 0)
		r, _, err := startRing(simnetTransports(net, n))
		if err != nil {
			lp.tr.end(s)
			lp.skip(name, err)
			if n == 3 {
				for _, dependent := range ring3Metrics {
					lp.skip(dependent, err)
				}
			}
			continue
		}
		r.deliverP50(200, msg) // warm-up
		lp.out[name] = r.deliverP50(1500, msg)
		lp.tr.end(s)
		if n == 3 {
			lp.ring3(r, net)
		}
		r.stop()
	}

	// Ring formation from cold start, the floor under setup_s.
	const formName = "totem.ring3_form_ms"
	var form []float64
	for len(form) < 3 {
		s := lp.tr.begin(formName, lp.parent, 0)
		r, took, err := startRing(simnetTransports(simnet.New(simnet.Config{}), 3))
		lp.tr.end(s)
		if err != nil {
			lp.skip(formName, err)
			break
		}
		r.stop()
		form = append(form, ms(took))
	}
	if len(form) == 3 {
		lp.out[formName] = sorted(form)[1]
	}

	lp.udp3(msg)
}

// ring3Metrics are measured on the 3-ring formed for ring3_deliver.
var ring3Metrics = []string{"totem.ring3_stream_msgs_per_s", "totem.ring3_stream_frames_per_msg", "totem.ring3_frag_64k_us"}

// ring3 runs the measurements that need the formed 3-ring: a pipelined
// stream of small messages and single 64 KiB messages.
func (lp *layerPass) ring3(r *testRing, net *simnet.Network) {
	msg := filled(100)
	const streamed = 6000
	s := lp.tr.begin("totem.ring3_stream", lp.parent, 0)
	before := net.Stats().FramesSent
	start := time.Now()
	go func() {
		for i := 0; i < streamed; i++ {
			if r.procs[0].Multicast(msg) != nil {
				return
			}
		}
	}()
	got := 0
	timeout := time.After(adminTimeout)
recv:
	for got < streamed {
		select {
		case <-r.own:
			got++
		case <-timeout:
			break recv
		}
	}
	took := time.Since(start)
	lp.tr.end(s)
	lp.out["totem.ring3_stream_msgs_per_s"] = float64(got) / took.Seconds()
	lp.out["totem.ring3_stream_frames_per_msg"] = ratio(float64(net.Stats().FramesSent-before), float64(got))

	s = lp.tr.begin("totem.ring3_frag_64k_us", lp.parent, 0)
	lp.out["totem.ring3_frag_64k_us"] = r.deliverP50(15, blob64)
	lp.tr.end(s)
}

// udp3 is the 3-ring again over the other medium the repository has:
// totem.UDPTransport on loopback sockets.
func (lp *layerPass) udp3(msg []byte) {
	const name = "totem.udp3_deliver_p50_us"
	names := []string{"u1", "u2", "u3"}
	addrs, err := freeUDPAddrs(len(names))
	if err != nil {
		lp.skip(name, err)
		return
	}
	trs := make([]totem.Transport, len(names))
	for i, nm := range names {
		peers := make(map[string]string)
		for j, peer := range names {
			if j != i {
				peers[peer] = addrs[j]
			}
		}
		tr, err := totem.NewUDPTransport(nm, addrs[i], peers)
		if err != nil {
			for _, open := range trs[:i] {
				open.Close()
			}
			lp.skip(name, err)
			return
		}
		trs[i] = tr
	}
	s := lp.tr.begin(name, lp.parent, 0)
	defer lp.tr.end(s)
	r, _, err := startRing(trs)
	if err != nil {
		lp.skip(name, err)
		return
	}
	defer r.stop()
	r.deliverP50(100, msg)
	lp.out[name] = r.deliverP50(800, msg)
}

// freeUDPAddrs finds n free loopback UDP addresses by binding and
// releasing them.
func freeUDPAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		addrs[i] = c.LocalAddr().String()
	}
	return addrs, nil
}
