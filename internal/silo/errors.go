package silo

import (
	"errors"
	"fmt"
)

// Transport fault classes surfaced as typed errors. Every failure mode of
// the resilient fabric resolves to one of these sentinels (via errors.Is),
// so callers can tell "a peer is gone, the run is over" from "the payload
// failed its checksum" without string matching.
var (
	// ErrPeerDead means a party is unreachable: its stream ended, a write to
	// it failed, or the hub has no stream to it. No send is retried, so the
	// first failure ends the run.
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
// ErrPeerDead, so a caller can tell which party failed the run.
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
