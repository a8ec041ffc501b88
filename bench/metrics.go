package main

import (
	"time"

	"eternal"
)

// values are the numbers of one repetition, by metric name.
type values map[string]float64

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The end-to-end metrics: what a user of the replicated object sees. Every
// workload in BENCHMARK.json reports every one of them. setup_s is named by
// the driver's contract; the units are checked against BENCHMARK.json by
// the tests.
var endToEndUnits = map[string]string{
	"setup_s":                 "s",
	"inv_per_s":               "1/s",
	"inv_p99_us":              "us",
	"recovery_p50_ms":         "ms",
	"fg_recovery_wait_p50_us": "us",
}

// latenciesOf returns the latencies, in microseconds and sorted, of the
// samples that keep accepts. Failed requests stay in with the time they
// took to fail: a request that fails misses any latency limit.
func latenciesOf(samples []sample, keep func(s sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, us(s.Lat))
		}
	}
	return sorted(out)
}

func (r *repResult) latencies(keep func(s sample) bool) []float64 {
	return latenciesOf(r.Samples, keep)
}

// measured is the two windows together: what a run's attempted and failed
// counts cover.
func (r *repResult) measured() window { return window{r.Steady.From, r.Churn.To} }

func (r *repResult) inSteady(s sample) bool { return r.Steady.holds(s.At) }

func (r *repResult) inRecovery(s sample) bool {
	for _, w := range r.Recoveries {
		if w.overlaps(s.At, s.Lat) {
			return true
		}
	}
	return false
}

// count returns how many requests of a window were attempted and how many
// of those failed.
func (r *repResult) count(w window) (attempted, failed int) {
	for _, s := range r.Samples {
		if w.holds(s.At) {
			attempted++
			if !s.OK {
				failed++
			}
		}
	}
	return attempted, failed
}

// steadyQuantile is the q-th quantile of steady-window latency as one
// client sees it, averaged over the clients. Clients attached to different
// nodes have different latency distributions; the quantile of their union
// would sit on the boundary between them and jump with their mix.
func (r *repResult) steadyQuantile(q float64) float64 {
	var sum float64
	for _, c := range r.Clients {
		sum += cappedQuantile(latenciesOf(c, r.inSteady), q)
	}
	return ratio(sum, float64(len(r.Clients)))
}

// endToEnd reduces one untraced repetition to the end-to-end metrics. A
// workload without churn reports no recovery metrics.
func endToEnd(r *repResult) values {
	var done int // replies that arrived inside the window
	for _, s := range r.Samples {
		if s.OK && r.Steady.holds(s.At+s.Lat) {
			done++
		}
	}
	v := values{
		"setup_s":    r.SetupS,
		"inv_per_s":  float64(done) / r.Steady.length().Seconds(),
		"inv_p99_us": r.steadyQuantile(0.99),
	}
	if len(r.Recoveries) > 0 {
		// For each recovery, how long it took and the longest foreground
		// invocation that was in flight during it.
		took := make([]float64, len(r.Recoveries))
		waited := make([]float64, len(r.Recoveries))
		for i, w := range r.Recoveries {
			took[i] = ms(w.length())
			for _, s := range r.Samples {
				if w.overlaps(s.At, s.Lat) {
					waited[i] = max(waited[i], us(s.Lat))
				}
			}
		}
		v["recovery_p50_ms"] = quantile(sorted(took), 0.5)
		v["fg_recovery_wait_p50_us"] = quantile(sorted(waited), 0.5)
	}
	return v
}

// clientDiagnostics are the client-side numbers that are too unsteady, or
// too particular to one workload, to carry a regression bound. They come
// from the traced repetition and are reported per layer "client".
func clientDiagnostics(r *repResult) values {
	steady := r.latencies(r.inSteady)
	var slow int
	for _, l := range steady {
		if l > 1000 {
			slow++
		}
	}
	var stall time.Duration
	var late []float64
	for _, s := range r.Samples {
		if r.measured().holds(s.At) {
			stall = max(stall, s.Lat)
		}
		if r.Steady.holds(s.At) {
			late = append(late, us(s.Late))
		}
	}
	att, failed := r.count(r.measured())
	return values{
		"client.inv_mean_us":         mean(steady),
		"client.inv_p50_us":          r.steadyQuantile(0.5),
		"client.inv_p999_us":         cappedQuantile(steady, 0.999),
		"client.slow_share_1ms":      ratio(float64(slow), float64(len(steady))),
		"client.stall_max_ms":        ms(stall),
		"client.gen_late_p99_us":     cappedQuantile(sorted(late), 0.99),
		"client.fail_share":          ratio(float64(failed), float64(att)),
		"client.fg_recovery_p99_us":  cappedQuantile(r.latencies(r.inRecovery), 0.99),
		"client.recoveries_measured": float64(len(r.Recoveries)),
	}
}

// counterMetrics turns the three counter readings of a traced repetition
// into per-invocation and per-recovery numbers. Per-invocation ratios use
// the steady window only, so that a recovery's frames are not billed to
// the invocations beside it.
func counterMetrics(r *repResult) values {
	p := r.Probe
	s0, s1, s2 := p.S[0], p.S[1], p.S[2]
	measured := window{s0.At, s1.At}
	var inv float64
	for _, s := range r.Samples {
		if s.OK && measured.holds(s.At+s.Lat) {
			inv++
		}
	}
	reg := func(a, b snapshot, name string) float64 { return b.Reg[name] - a.Reg[name] }
	perInv := func(name string) float64 { return ratio(reg(s0, s1, name), inv) }
	recs := float64(len(r.Recoveries))
	chunks := reg(s0, s1, "eternal_totem_chunks_sent_total")

	var enq []float64
	phase := map[string][]float64{}
	for _, t := range p.Timelines {
		enq = append(enq, float64(t.Enqueued))
		for _, ph := range t.Phases {
			phase[ph.Name] = append(phase[ph.Name], ms(ph.Duration))
		}
	}

	v := values{
		"simnet.frames_per_inv":     ratio(float64(s1.Net.FramesSent-s0.Net.FramesSent), inv),
		"simnet.wire_bytes_per_inv": ratio(float64(s1.Net.BytesOnWire-s0.Net.BytesOnWire), inv),
		"simnet.frames_lost":        float64(s2.Net.FramesLost - s0.Net.FramesLost),
		"simnet.frames_overrun":     float64(s2.Net.FramesOverrun - s0.Net.FramesOverrun),

		"totem.rotations_per_inv":     perInv("eternal_totem_token_rotations_total"),
		"totem.data_frames_per_inv":   perInv("eternal_totem_data_frames_total"),
		"totem.packed_chunk_share":    ratio(reg(s0, s1, "eternal_totem_packed_messages_total"), chunks),
		"totem.fastpath_chunk_share":  ratio(reg(s0, s1, "eternal_totem_fastpath_chunks_total"), chunks),
		"totem.forwards_per_inv":      perInv("eternal_totem_fastpath_forwards_total"),
		"totem.paced_hops_per_inv":    perInv("eternal_totem_paced_hops_total"),
		"totem.hurries_per_inv":       perInv("eternal_totem_hurries_sent_total"),
		"totem.retransmits":           reg(s0, s2, "eternal_totem_retransmits_total"),
		"totem.tombstones":            reg(s0, s2, "eternal_totem_tombstones_total"),
		"totem.view_changes":          reg(s0, s2, "eternal_totem_view_changes_total"),
		"totem.mcast_delivery_p50_us": p.McastP50 * 1e6,
		"totem.token_hold_mean_us": 1e6 * ratio(reg(s0, s1, "eternal_totem_token_hold_seconds_sum"),
			reg(s0, s1, "eternal_totem_token_hold_seconds_count")),

		"core.executed_per_inv":          perInv("eternal_requests_executed_total"),
		"core.dup_suppressed_per_inv":    perInv("eternal_duplicates_suppressed_total"),
		"core.dup_replies_per_inv":       perInv("eternal_duplicate_replies_total"),
		"core.replica_lag_max":           float64(p.LagMax),
		"core.state_chunks_per_recovery": ratio(reg(s1, s2, "eternal_state_chunks_sent_total"), recs),
		"core.chunk_stalls_per_recovery": ratio(reg(s1, s2, "eternal_state_chunk_stalls_total"), recs),
		"core.retransmit_requests":       reg(s0, s2, "eternal_state_retransmit_requests_total"),

		"recovery.checkpoints_per_s":     ratio(reg(s0, s1, "eternal_state_captures_total"), (s1.At - s0.At).Seconds()),
		"recovery.enqueued_per_recovery": mean(enq),
		"recovery.capture_p50_ms":        quantile(sorted(phase["capture"]), 0.5),
		"recovery.transfer_p50_ms":       quantile(sorted(phase["transfer"]), 0.5),
		"recovery.apply_p50_ms":          quantile(sorted(phase["apply"]), 0.5),
		"recovery.replay_p50_ms":         quantile(sorted(phase["replay"]), 0.5),

		"process.cpu_ms_per_kinv":     ratio(ms(s1.CPU-s0.CPU)*1000, inv),
		"process.allocs_per_inv":      ratio(float64(s1.Mallocs-s0.Mallocs), inv),
		"process.alloc_bytes_per_inv": ratio(float64(s1.AllocB-s0.AllocB), inv),
		"process.heap_peak_mb":        float64(p.HeapPeak) / (1 << 20),
	}
	return v
}

// spanPhases are the segments AttributePhases splits an invocation into,
// in pipeline order.
var spanPhases = []string{
	"marshal", "enqueue", "token-wait", "ordering", "dispatch", "execute",
	"reply-marshal", "reply-token-wait", "reply-ordering", "reply-delivery",
}

// spanMetrics merges the spans the nodes recorded themselves and reports
// the median of each phase over the invocations that started in the steady
// window, and the share of their end-to-end time the phases account for.
func spanMetrics(r *repResult) values {
	epoch := r.Epoch
	from, to := epoch.Add(r.Steady.From).UnixNano(), epoch.Add(r.Steady.To).UnixNano()
	var kept []eternal.MergedTrace
	for _, mt := range eternal.MergeSpans(r.Probe.Spans) {
		if st := mt.Start(); st >= from && st < to {
			kept = append(kept, mt)
		}
	}
	att := eternal.AttributePhases(kept)
	v := values{"span.attributed_share": att.AttributedPct / 100, "span.traces": float64(att.Traces)}
	for _, name := range spanPhases {
		v["span."+name+"_p50_us"] = 0
	}
	for _, ph := range att.Phases {
		v["span."+ph.Phase+"_p50_us"] = ph.P50Us
	}
	return v
}
