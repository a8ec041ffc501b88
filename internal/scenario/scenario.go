// Package scenario is a scripted chaos harness for Eternal clusters: it
// drives an N-node simnet domain (10–50 members) through declarative
// fault schedules — phases of sustained client load composed with
// kill/recover, rolling restart, symmetric and asymmetric partition,
// heal, slow-member and flapping-link steps — and asserts convergence
// oracles at every phase boundary:
//
//   - zero MergeEvents divergences across the phase's flight-recorder
//     window (skipped for phases that deliberately split the medium,
//     where concurrent rings legitimately order different events at
//     overlapping sequence numbers);
//   - a spotless MergeAudits matrix within a bounded epoch budget — a
//     complete per-member digest row with no divergence and no feed
//     conflict, which is also the proof that every member holds
//     identical object state at a totally-ordered point;
//   - acked client writes surviving, in order and once, in the
//     replicated object's history, and nothing in the history that was
//     never issued (history.Check);
//   - no stuck recovery: the group returns to a stable operational
//     membership within the quiesce budget.
//
// Every random choice a schedule makes (victims, partition minorities,
// flap partners) is drawn from a scenario-seeded PRNG, so a failing run
// replays exactly from the seed printed in its failure report (see
// doc/SCENARIOS.md).
package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// StepKind names one fault-schedule step type.
type StepKind string

// The step vocabulary. Kill/Restart/Rolling act on nodes; Partition,
// Asym and Heal act on the medium's reachability; Slow, Flap and Loss
// degrade it without severing it.
const (
	// StepKill crashes a node abruptly (replicas die with it).
	StepKill StepKind = "kill"
	// StepRestart restarts the most recently killed node still down
	// (or Step.Node when set).
	StepRestart StepKind = "restart"
	// StepRolling restarts Count replica-hosting nodes one at a time,
	// waiting for the group to re-stabilize between restarts.
	StepRolling StepKind = "rolling-restart"
	// StepPartition splits the medium symmetrically: a Minority-sized
	// group of nodes is severed from the rest in both directions.
	StepPartition StepKind = "partition"
	// StepAsym severs one node's outbound links only: the victim still
	// hears the cluster, but the cluster never hears the victim — the
	// classic asymmetric-partition failure mode.
	StepAsym StepKind = "asym-partition"
	// StepHeal removes every partition, link override and isolation.
	StepHeal StepKind = "heal"
	// StepSlow adds Latency to every link touching the victim, both
	// directions, without dropping anything.
	StepSlow StepKind = "slow-member"
	// StepFlap toggles the victim↔peer link (both directions) Count
	// times with Gap between transitions. The rendered pair is never
	// ring-adjacent, so the token path survives while retransmissions
	// are exercised.
	StepFlap StepKind = "flap-link"
	// StepLoss sets the global frame loss rate to Loss (the runner
	// restores the configured base rate at phase end).
	StepLoss StepKind = "loss"
)

// Step is one declarative fault-schedule entry. Zero fields are
// resolved deterministically at render time: an empty Node draws a
// victim from the scenario PRNG, a zero At is auto-spaced within the
// phase.
type Step struct {
	Kind StepKind
	// At is the offset from phase start; 0 means auto-spacing
	// (300ms + 600ms per step index).
	At time.Duration
	// Node pins the victim; empty draws one (replica-hosting,
	// never the anchor). For StepRestart, empty means "most recently
	// killed node still down".
	Node string
	// Peer pins the flap partner; empty draws a non-adjacent one.
	Peer string
	// Minority is the partition group size for StepPartition.
	Minority int
	// Count is the rolling-restart node count or flap toggle count.
	Count int
	// Gap is the flap half-period (default 120ms).
	Gap time.Duration
	// Latency is the slow-member extra one-way link latency.
	Latency time.Duration
	// Loss is the StepLoss global loss rate in [0,1).
	Loss float64
}

// Phase is one load window with an embedded fault schedule. Its
// convergence oracles run after the runner heals the medium and
// restarts any still-dead nodes at the phase boundary.
type Phase struct {
	Name string
	// Writes is the minimum number of acked client writes the phase
	// must sustain before it may end.
	Writes int
	// Split marks phases whose faults can produce concurrent rings
	// (symmetric or asymmetric partitions). The event-divergence
	// oracle is skipped for the phase's own window — concurrent rings
	// legitimately order different events at the same sequence
	// numbers — and re-armed for the post-heal window of the next
	// phase.
	Split bool
	Steps []Step
}

// Scenario is one named, seeded chaos script.
type Scenario struct {
	Name string
	Desc string
	// Nodes is the cluster size (ring membership), 3..50.
	Nodes int
	// Replicas is the group's InitialReplicas == MinReplicas, placed
	// on the first Replicas members; must leave spare nodes for
	// re-replication (Replicas < Nodes).
	Replicas int
	// Seed drives every random schedule choice; the runner logs it so
	// failures replay exactly.
	Seed int64
	// Short marks scenarios cheap enough for `go test -short`.
	Short bool
	// Soak marks scenarios heavy enough to hide behind the soak build
	// tag (the dedicated chaos CI job).
	Soak   bool
	Phases []Phase
}

// Action is one rendered, fully-resolved schedule entry.
type Action struct {
	At      time.Duration `json:"at"`
	Kind    StepKind      `json:"kind"`
	Node    string        `json:"node,omitempty"`
	Peer    string        `json:"peer,omitempty"`
	Nodes   []string      `json:"nodes,omitempty"`
	Count   int           `json:"count,omitempty"`
	Gap     time.Duration `json:"gap,omitempty"`
	Latency time.Duration `json:"latency,omitempty"`
	Loss    float64       `json:"loss,omitempty"`
}

// String renders one schedule line, e.g. "+1.2s kill m07".
func (a Action) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "+%s %s", a.At, a.Kind)
	if a.Node != "" {
		b.WriteByte(' ')
		b.WriteString(a.Node)
	}
	if a.Peer != "" {
		fmt.Fprintf(&b, "<->%s", a.Peer)
	}
	if len(a.Nodes) > 0 {
		fmt.Fprintf(&b, " %v", a.Nodes)
	}
	if a.Count > 0 {
		fmt.Fprintf(&b, " x%d", a.Count)
	}
	if a.Latency > 0 {
		fmt.Fprintf(&b, " +%s", a.Latency)
	}
	if a.Loss > 0 {
		fmt.Fprintf(&b, " p=%.3f", a.Loss)
	}
	return b.String()
}

// RenderedPhase is one phase's resolved action list.
type RenderedPhase struct {
	Name    string        `json:"name"`
	Writes  int           `json:"writes"`
	Split   bool          `json:"split"`
	Actions []Action      `json:"actions"`
	End     time.Duration `json:"end"` // latest action completion offset
}

// Schedule is a scenario rendered against a seed: the exact fault
// sequence a run will execute. Rendering is pure — the same scenario
// and seed always produce the identical schedule (step sequence and
// timestamps), which is what makes failed seeds replayable.
type Schedule struct {
	Scenario string          `json:"scenario"`
	Seed     int64           `json:"seed"`
	Members  []string        `json:"members"`
	Replicas []string        `json:"replicas"`
	Phases   []RenderedPhase `json:"phases"`
}

// String prints the full schedule, one action per line.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s seed=%d nodes=%d replicas=%d\n",
		s.Scenario, s.Seed, len(s.Members), len(s.Replicas))
	for _, p := range s.Phases {
		split := ""
		if p.Split {
			split = " [split]"
		}
		fmt.Fprintf(&b, "phase %s writes>=%d%s\n", p.Name, p.Writes, split)
		for _, a := range p.Actions {
			fmt.Fprintf(&b, "  %s\n", a)
		}
	}
	return b.String()
}

// MemberName returns the canonical i-th member address ("m01"…).
// Zero-padded names keep the sorted ring order equal to the placement
// order, so "the anchor" (member 0, the client's node and the group's
// first-placed replica) is also the ring representative.
func MemberName(i int) string { return fmt.Sprintf("m%02d", i+1) }

// Members returns the canonical member list for an n-node scenario.
func Members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = MemberName(i)
	}
	return out
}

// Render resolves a scenario against a seed into the concrete fault
// schedule. All choices come from one rand.Rand seeded with seed, and
// candidate sets are iterated in sorted order, so rendering is a pure
// function of (scenario, seed).
func Render(sc Scenario, seed int64) (*Schedule, error) {
	if sc.Nodes < 3 || sc.Nodes > 50 {
		return nil, fmt.Errorf("scenario %s: Nodes %d outside [3,50]", sc.Name, sc.Nodes)
	}
	if sc.Replicas < 2 || sc.Replicas >= sc.Nodes {
		return nil, fmt.Errorf("scenario %s: Replicas %d outside [2,Nodes)", sc.Name, sc.Replicas)
	}
	members := Members(sc.Nodes)
	replicas := members[:sc.Replicas]
	anchor := members[0]
	rng := rand.New(rand.NewSource(seed))

	// pick draws one element from the candidates not excluded.
	pick := func(cands []string, excluded map[string]bool) (string, bool) {
		avail := make([]string, 0, len(cands))
		for _, c := range cands {
			if !excluded[c] {
				avail = append(avail, c)
			}
		}
		if len(avail) == 0 {
			return "", false
		}
		return avail[rng.Intn(len(avail))], true
	}

	out := &Schedule{
		Scenario: sc.Name,
		Seed:     seed,
		Members:  members,
		Replicas: replicas,
	}
	// down tracks killed-and-not-restarted nodes across phases for
	// StepRestart's "most recently killed" default (a stack).
	var down []string
	for pi, ph := range sc.Phases {
		rp := RenderedPhase{Name: ph.Name, Writes: ph.Writes, Split: ph.Split}
		for si, st := range ph.Steps {
			a := Action{Kind: st.Kind, At: st.At}
			if a.At == 0 {
				a.At = 300*time.Millisecond + time.Duration(si)*600*time.Millisecond
			}
			excluded := map[string]bool{anchor: true}
			for _, d := range down {
				excluded[d] = true
			}
			switch st.Kind {
			case StepKill:
				n := st.Node
				if n == "" {
					var ok bool
					if n, ok = pick(replicas, excluded); !ok {
						return nil, fmt.Errorf("scenario %s phase %d step %d: no kill victim available", sc.Name, pi, si)
					}
				}
				a.Node = n
				down = append(down, n)
			case StepRestart:
				n := st.Node
				if n == "" {
					if len(down) == 0 {
						return nil, fmt.Errorf("scenario %s phase %d step %d: restart with nothing down", sc.Name, pi, si)
					}
					n = down[len(down)-1]
				}
				a.Node = n
				for i, d := range down {
					if d == n {
						down = append(down[:i], down[i+1:]...)
						break
					}
				}
			case StepRolling:
				a.Count = st.Count
				if a.Count <= 0 {
					a.Count = 2
				}
				// Victims are resolved here (not at run time) so the
				// schedule is the complete fault record.
				cands := make([]string, 0, len(replicas))
				for _, r := range replicas[1:] { // never the anchor
					if !excluded[r] {
						cands = append(cands, r)
					}
				}
				if len(cands) < a.Count {
					return nil, fmt.Errorf("scenario %s phase %d step %d: rolling restart of %d with %d candidates", sc.Name, pi, si, a.Count, len(cands))
				}
				rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
				a.Nodes = append([]string(nil), cands[:a.Count]...)
				sort.Strings(a.Nodes)
				a.Count = len(a.Nodes)
			case StepPartition:
				m := st.Minority
				if m <= 0 {
					m = 1
				}
				if m >= sc.Nodes/2 {
					return nil, fmt.Errorf("scenario %s phase %d step %d: minority %d is not a minority of %d", sc.Name, pi, si, m, sc.Nodes)
				}
				group := make([]string, 0, m)
				chosen := map[string]bool{}
				for len(group) < m {
					n, ok := pick(members, mergeExcluded(excluded, chosen))
					if !ok {
						return nil, fmt.Errorf("scenario %s phase %d step %d: cannot fill minority of %d", sc.Name, pi, si, m)
					}
					chosen[n] = true
					group = append(group, n)
				}
				sort.Strings(group)
				a.Nodes = group
			case StepAsym:
				n := st.Node
				if n == "" {
					var ok bool
					if n, ok = pick(replicas, excluded); !ok {
						return nil, fmt.Errorf("scenario %s phase %d step %d: no asym victim available", sc.Name, pi, si)
					}
				}
				a.Node = n
			case StepHeal:
				// no operands
			case StepSlow:
				n := st.Node
				if n == "" {
					var ok bool
					if n, ok = pick(replicas, excluded); !ok {
						return nil, fmt.Errorf("scenario %s phase %d step %d: no slow victim available", sc.Name, pi, si)
					}
				}
				a.Node = n
				a.Latency = st.Latency
				if a.Latency <= 0 {
					a.Latency = 3 * time.Millisecond
				}
			case StepFlap:
				n, p := st.Node, st.Peer
				if n == "" {
					var ok bool
					if n, ok = pick(replicas, excluded); !ok {
						return nil, fmt.Errorf("scenario %s phase %d step %d: no flap victim available", sc.Name, pi, si)
					}
				}
				if p == "" {
					// The token visits members in sorted address order,
					// so a severed adjacent pair would break every
					// rotation; exclude the victim's ring neighbours.
					ex := mergeExcluded(excluded, map[string]bool{n: true})
					for i, m := range members {
						if m == n {
							ex[members[(i+1)%len(members)]] = true
							ex[members[(i+len(members)-1)%len(members)]] = true
						}
					}
					var ok bool
					if p, ok = pick(members, ex); !ok {
						return nil, fmt.Errorf("scenario %s phase %d step %d: no flap peer available", sc.Name, pi, si)
					}
				}
				a.Node, a.Peer = n, p
				a.Count = st.Count
				if a.Count <= 0 {
					a.Count = 4
				}
				a.Gap = st.Gap
				if a.Gap <= 0 {
					a.Gap = 120 * time.Millisecond
				}
			case StepLoss:
				a.Loss = st.Loss
			default:
				return nil, fmt.Errorf("scenario %s phase %d step %d: unknown kind %q", sc.Name, pi, si, st.Kind)
			}
			end := a.At
			if a.Kind == StepFlap {
				end += time.Duration(2*a.Count) * a.Gap
			}
			if end > rp.End {
				rp.End = end
			}
			rp.Actions = append(rp.Actions, a)
		}
		sort.SliceStable(rp.Actions, func(i, j int) bool { return rp.Actions[i].At < rp.Actions[j].At })
		out.Phases = append(out.Phases, rp)
	}
	return out, nil
}

func mergeExcluded(maps ...map[string]bool) map[string]bool {
	out := map[string]bool{}
	for _, m := range maps {
		for k, v := range m {
			if v {
				out[k] = true
			}
		}
	}
	return out
}
