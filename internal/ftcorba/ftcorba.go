// Package ftcorba implements the application-facing surface of the
// Fault-Tolerant CORBA standard that the Eternal system implements
// (OMG orbos/2000-04-04): the Checkpointable interface through which
// application-level state is retrieved and assigned (paper §4.1, Figure 3),
// the standard fault-tolerance properties (replication style, initial and
// minimum numbers of replicas, checkpointing and fault-monitoring
// intervals), and the servant adapter that exposes get_state/set_state as
// ordinary IIOP operations so state transfer travels through the same
// totally-ordered invocation stream as everything else.
package ftcorba

import (
	"errors"
	"fmt"
	"time"

	"eternal/internal/anyval"
	"eternal/internal/cdr"
	"eternal/internal/orb"
)

// ReplicationStyle selects how a group's replicas are coordinated
// (paper §3).
type ReplicationStyle int

const (
	// Active replication: every replica performs every operation; failures
	// are masked without recovery delay (paper §3.1).
	Active ReplicationStyle = iota
	// WarmPassive replication: the primary performs operations; backups
	// are instantiated and periodically synchronized to the primary's
	// checkpoint (paper §3.2).
	WarmPassive
	// ColdPassive replication: only the primary is instantiated; a backup
	// is launched and initialized from the log only after the primary
	// fails (paper §3.2).
	ColdPassive
)

var styleNames = map[ReplicationStyle]string{
	Active: "ACTIVE", WarmPassive: "WARM_PASSIVE", ColdPassive: "COLD_PASSIVE",
}

// String returns the FT-CORBA name of the style.
func (s ReplicationStyle) String() string {
	if n, ok := styleNames[s]; ok {
		return n
	}
	return fmt.Sprintf("ReplicationStyle(%d)", int(s))
}

// Valid reports whether s is a defined style.
func (s ReplicationStyle) Valid() bool { _, ok := styleNames[s]; return ok }

// Exceptions of the Checkpointable interface (Figure 3).
var (
	// ErrNoStateAvailable corresponds to the NoStateAvailable exception.
	ErrNoStateAvailable = errors.New("ftcorba: NoStateAvailable")
	// ErrInvalidState corresponds to the InvalidState exception.
	ErrInvalidState = errors.New("ftcorba: InvalidState")
)

// Checkpointable must be implemented by every replicated object, exactly
// as the FT-CORBA standard requires every replicated CORBA object to
// inherit the Checkpointable IDL interface. GetState returns the complete
// application-level state as a CORBA any; SetState overwrites it.
type Checkpointable interface {
	GetState() (anyval.Any, error)
	SetState(anyval.Any) error
}

// Replica is what a replica factory produces: an invocable servant that is
// also checkpointable.
type Replica interface {
	orb.Servant
	Checkpointable
}

// Factory creates a fresh replica instance for an object id — the
// FT-CORBA GenericFactory, reduced to its essence. The instance starts
// from its type's initial state; the Recovery Mechanisms bring it up to
// date with SetState.
type Factory func(oid string) Replica

// Properties are the FT-CORBA fault-tolerance properties the user fixes
// at deployment time (paper §2, §5: replication style, checkpointing
// interval, fault monitoring interval, initial and minimum numbers of
// replicas).
type Properties struct {
	Style ReplicationStyle
	// InitialReplicas is the number of replicas created at deployment.
	InitialReplicas int
	// MinReplicas is the lower bound the Resource Manager maintains by
	// re-launching replicas after failures.
	MinReplicas int
	// CheckpointInterval is the state-retrieval period for passive
	// replication (ignored for active replication, which transfers state
	// only at recovery — paper §3.3).
	CheckpointInterval time.Duration
	// FaultMonitoringInterval is the fault detector's polling period.
	FaultMonitoringInterval time.Duration
}

// Validate checks the property combination.
func (p Properties) Validate() error {
	if !p.Style.Valid() {
		return fmt.Errorf("ftcorba: invalid replication style %d", int(p.Style))
	}
	if p.InitialReplicas < 1 {
		return errors.New("ftcorba: InitialReplicas must be at least 1")
	}
	if p.MinReplicas < 1 || p.MinReplicas > p.InitialReplicas {
		return errors.New("ftcorba: MinReplicas must be in [1, InitialReplicas]")
	}
	if p.Style != Active && p.CheckpointInterval <= 0 {
		return errors.New("ftcorba: passive replication requires a positive CheckpointInterval")
	}
	return nil
}

// The reserved operation names carrying state transfer through the
// ordinary invocation stream.
const (
	// OpGetState is the get_state() operation of Checkpointable.
	OpGetState = "_get_state"
	// OpSetState is the set_state() operation of Checkpointable.
	OpSetState = "_set_state"
	// OpHandshakeReplay is the side-effect-free operation the Recovery
	// Mechanisms substitute when replaying a stored client handshake
	// message into a new replica's ORB (paper §4.2.2): the ORB absorbs
	// the message's service contexts exactly as it would for a real
	// request, and the reply is discarded.
	OpHandshakeReplay = "_handshake_replay"
	// OpIsAlive is the fault detector's pull-monitoring probe (FT-CORBA
	// PullMonitorable::is_alive). It goes through the replica's ORB like
	// any invocation, so a wedged replica fails the probe.
	OpIsAlive = "_is_alive"
)

// Exception repository ids raised by the servant adapter.
const (
	ExNoStateAvailable = "IDL:omg.org/CORBA/NoStateAvailable:1.0"
	ExInvalidState     = "IDL:omg.org/CORBA/InvalidState:1.0"
)

// Servant wraps a Replica so that get_state()/set_state() are reachable as
// IIOP operations; every other operation is delegated to the replica's own
// Invoke. This is the moral equivalent of the IDL compiler emitting the
// Checkpointable skeleton alongside the application interface's.
func Servant(r Replica) orb.Servant {
	return orb.ServantFunc(func(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
		switch op {
		case OpGetState:
			st, err := r.GetState()
			if err != nil {
				return nil, &orb.UserException{Name: ExNoStateAvailable}
			}
			raw, err := st.MarshalBytes()
			if err != nil {
				return nil, &orb.UserException{Name: ExNoStateAvailable}
			}
			return raw, nil
		case OpSetState:
			st, err := anyval.UnmarshalBytes(args)
			if err != nil {
				return nil, &orb.UserException{Name: ExInvalidState}
			}
			if err := r.SetState(st); err != nil {
				return nil, &orb.UserException{Name: ExInvalidState}
			}
			return nil, nil
		case OpHandshakeReplay:
			// The ORB has already absorbed the replayed message's service
			// contexts by the time dispatch reaches here; nothing touches
			// the application.
			return nil, nil
		case OpIsAlive:
			e := cdr.NewEncoder(order)
			e.WriteBoolean(true)
			return e.Bytes(), nil
		default:
			return r.Invoke(op, args, order)
		}
	})
}
