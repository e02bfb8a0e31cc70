package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FlightRecorder is a fixed-capacity, allocation-bounded ring buffer of
// recent telemetry operations — train steps, span ends, bus sends. It
// exists for the moment a run dies: when a typed transport error ends the
// run, the last flightCapDefault operations of every party are dumped to
// results/<run>/postmortem/<party>.json, turning "the run crashed" into a
// readable tail of what each process was doing.
//
// The ring is preallocated at construction; Note overwrites the oldest slot
// in place, so steady-state recording allocates nothing and costs one mutex
// acquisition plus a struct store. A nil *FlightRecorder is a no-op,
// matching the package's recorder contract.
type FlightRecorder struct {
	mu      sync.Mutex // guards every field below
	start   time.Time
	entries []FlightEntry
	next    int
	seq     uint64
	full    bool
}

// FlightEntry is one recorded operation. Op names the operation ("train",
// "span", "send", "corrupt", "peer-down"); Name and Peer carry its labels
// (message kind, span name, peer id); Value carries its number (bytes,
// seconds, loss).
type FlightEntry struct {
	Seq   uint64  `json:"seq"`
	TSec  float64 `json:"t_sec"`
	Op    string  `json:"op"`
	Name  string  `json:"name,omitempty"`
	Peer  string  `json:"peer,omitempty"`
	Value float64 `json:"value,omitempty"`
}

// flightCapDefault is the ring capacity when NewFlightRecorder is given a
// non-positive one: enough to cover the last few phases of a smoke run
// without holding a long run's whole history.
const flightCapDefault = 512

// NewFlightRecorder preallocates a ring of the given capacity
// (flightCapDefault when cap <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = flightCapDefault
	}
	return &FlightRecorder{start: time.Now(), entries: make([]FlightEntry, capacity)}
}

// Note records one operation, overwriting the oldest slot when the ring is
// full. Safe for concurrent use; a nil recorder ignores the call.
func (fr *FlightRecorder) Note(op, name, peer string, value float64) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	e := &fr.entries[fr.next]
	e.Seq = fr.seq
	e.TSec = time.Since(fr.start).Seconds()
	e.Op = op
	e.Name = name
	e.Peer = peer
	e.Value = value
	fr.seq++
	fr.next++
	if fr.next == len(fr.entries) {
		fr.next = 0
		fr.full = true
	}
	fr.mu.Unlock()
}

// Len reports how many entries the ring currently holds.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.full {
		return len(fr.entries)
	}
	return fr.next
}

// Entries returns the recorded operations oldest-first (a copy; the ring
// keeps recording).
func (fr *FlightRecorder) Entries() []FlightEntry {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if !fr.full {
		return append([]FlightEntry{}, fr.entries[:fr.next]...)
	}
	out := make([]FlightEntry, 0, len(fr.entries))
	out = append(out, fr.entries[fr.next:]...)
	out = append(out, fr.entries[:fr.next]...)
	return out
}

// PostmortemDump is the on-disk schema of a flight-recorder dump
// (results/<run>/postmortem/<party>.json).
type PostmortemDump struct {
	Party   string        `json:"party"`
	Cause   string        `json:"cause,omitempty"`
	Time    string        `json:"time"`
	Entries []FlightEntry `json:"entries"`
}

// WriteDump writes the ring as an indented PostmortemDump document. cause
// is the error (or reason) that triggered the dump; empty means on-demand.
func (fr *FlightRecorder) WriteDump(w io.Writer, party, cause string) error {
	if fr == nil {
		fr = &FlightRecorder{} // dump an empty document rather than nothing
	}
	d := PostmortemDump{
		Party:   party,
		Cause:   cause,
		Time:    time.Now().UTC().Format(time.RFC3339Nano),
		Entries: fr.Entries(),
	}
	if d.Entries == nil {
		d.Entries = []FlightEntry{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DumpPostmortem writes runDir/postmortem/<party>.json from the ring and
// returns the written path. cause may be nil (on-demand dump).
func DumpPostmortem(runDir, party string, fr *FlightRecorder, cause error) (string, error) {
	dir := filepath.Join(runDir, "postmortem")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: postmortem dir: %w", err)
	}
	path := filepath.Join(dir, party+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("obs: postmortem: %w", err)
	}
	reason := ""
	if cause != nil {
		reason = cause.Error()
	}
	if err := fr.WriteDump(f, party, reason); err != nil {
		f.Close()
		return "", fmt.Errorf("obs: postmortem write: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("obs: postmortem close: %w", err)
	}
	return path, nil
}
