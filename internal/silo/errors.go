package silo

import (
	"errors"
	"fmt"
)

// Transport fault classes surfaced as typed errors. Every failure mode of
// the resilient fabric resolves to one of these sentinels (via errors.Is),
// so callers can distinguish "the peer is gone, rejoin and resume from the
// last checkpoint" from "the payload failed its checksum, the message must
// be retransmitted" without string matching.
var (
	// ErrPeerDead means a party is unreachable: its connection dropped, it
	// announced a crash, or a bounded retry budget was exhausted against it.
	ErrPeerDead = errors.New("silo: peer dead")
	// ErrCorruptPayload means an envelope arrived whose payload checksum did
	// not match the sender's — the bytes were altered in flight.
	ErrCorruptPayload = errors.New("silo: corrupt payload")
	// ErrBusClosed means a send was attempted on a transport whose Close has
	// already begun; the message was not delivered and never will be.
	ErrBusClosed = errors.New("silo: bus closed")
	// ErrUnknownSender means a training step got a message from a non-client.
	ErrUnknownSender = errors.New("silo: message from unknown sender")
)

// PeerDeadError carries the name of the dead peer; it unwraps to
// ErrPeerDead. Recovery drivers use the name to restart or re-dial exactly
// the party that failed.
type PeerDeadError struct {
	Peer string
	// Cause, when non-nil, is the underlying transport error.
	Cause error
}

func (e *PeerDeadError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("silo: peer %s dead: %v", e.Peer, e.Cause)
	}
	return fmt.Sprintf("silo: peer %s dead", e.Peer)
}

// Unwrap makes errors.Is(err, ErrPeerDead) true.
func (e *PeerDeadError) Unwrap() error { return ErrPeerDead }

// DeadPeerName extracts the peer name from an ErrPeerDead-class error chain,
// or "" when the error carries no peer identity.
func DeadPeerName(err error) string {
	var pd *PeerDeadError
	if errors.As(err, &pd) {
		return pd.Peer
	}
	return ""
}
