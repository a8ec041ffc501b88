package main

import "fmt"

// liveState is what one live replica instance holds after quiesce.
type liveState struct {
	Node  string
	State stateID
}

// checkInput is what the correctness checker needs from a repetition.
type checkInput struct {
	Live []liveState
	// Acked counts invocations a client got a reply to, Attempted every
	// invocation sent. A timed-out request may or may not have executed.
	Acked, Attempted uint64
	// Captures are the states donors handed out through get_state,
	// Applies the states replicas were assigned through set_state.
	Captures map[stateID]bool
	Applies  []applied
}

func agree(live []liveState) bool {
	for _, l := range live[min(1, len(live)):] {
		if l.State != live[0].State {
			return false
		}
	}
	return true
}

// check returns one line per violated property:
//   - every live replica holds the same count and blob digest;
//   - no acknowledged write is lost (count >= acked) and none executed
//     twice (count <= attempted);
//   - every state a replica was assigned is one a donor captured, so a
//     recovered replica started equal to its donor.
func check(in checkInput) []string {
	var out []string
	if len(in.Live) == 0 {
		return []string{"no live replica after quiesce"}
	}
	if !agree(in.Live) {
		msg := "replicas diverged:"
		for _, l := range in.Live {
			msg += fmt.Sprintf(" %s{%v}", l.Node, l.State)
		}
		out = append(out, msg)
	}
	for _, l := range in.Live {
		if l.State.Count < in.Acked {
			out = append(out, fmt.Sprintf("acknowledged write lost: %s holds count %d, clients hold %d replies", l.Node, l.State.Count, in.Acked))
		}
		if l.State.Count > in.Attempted {
			out = append(out, fmt.Sprintf("write executed twice: %s holds count %d, clients sent %d requests", l.Node, l.State.Count, in.Attempted))
		}
	}
	for _, a := range in.Applies {
		if !in.Captures[a.State] {
			out = append(out, fmt.Sprintf("%s was assigned {%v}, which no donor captured", a.Node, a.State))
		}
	}
	return out
}
