package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer collects hierarchical spans and exports them in Chrome trace
// format, so a training run can be opened directly in chrome://tracing or
// https://ui.perfetto.dev. Spans are recorded as begin/end ("B"/"E") event
// pairs in the order they actually happen, which keeps exported timestamps
// monotonic by construction.
//
// The tracer targets coarse, phase-level tracing (ae-train, latent-ship,
// diffusion-train, synthesis, ...). Parentage is tracked via the stack of
// currently open spans, so strictly nested use yields an exact hierarchy;
// concurrent span creation is safe but attributed best-effort.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	epoch  int64 // wall-clock tracer start, microseconds since the Unix epoch
	pid    int
	proc   string
	events []traceEvent
	open   []*Span
	nextID int
	onEnd  func(SpanInfo)
}

type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds since tracer start
	Dur   float64        `json:"dur,omitempty"` // complete ("X") event duration, microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    uint64         `json:"id,omitempty"` // flow event binding id
	BP    string         `json:"bp,omitempty"` // flow binding point
	Scope string         `json:"s,omitempty"`  // instant event scope
	Args  map[string]any `json:"args,omitempty"`
}

// Span is one timed region. A nil *Span is a valid no-op: every method
// guards the nil receiver, so span handles from a disabled tracer cost
// nothing to use.
type Span struct {
	tr     *Tracer
	id     int
	parent int // span id, -1 for roots
	name   string
	start  time.Duration
	end    time.Duration
	attrs  map[string]any
	ended  bool
}

// NewTracer creates a tracer whose timestamps are relative to now.
func NewTracer() *Tracer {
	now := time.Now()
	return &Tracer{start: now, epoch: now.UnixMicro(), pid: 1}
}

// SetProcess assigns the tracer a Chrome-trace process lane: every event is
// stamped with pid, and the exported trace carries a process_name metadata
// record so viewers label the lane. Use distinct pids per party (coordinator,
// each silo) so merged traces render one lane per process. Call before any
// spans are recorded; a nil tracer ignores the call.
func (t *Tracer) SetProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pid = pid
	t.proc = name
}

// PID returns the tracer's process lane (1 for the default lane, 0 on nil).
func (t *Tracer) PID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pid
}

// SetOnSpanEnd installs fn as the one span-end hook, replacing any earlier
// one; it runs outside the tracer's lock for every span that ends.
func (t *Tracer) SetOnSpanEnd(fn func(SpanInfo)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onEnd = fn
}

// StartSpan opens a span named name. The caller must End it. Calling on a
// nil tracer returns a nil (no-op) span.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{tr: t, id: t.nextID, parent: -1, name: name, start: time.Since(t.start)}
	t.nextID++
	if n := len(t.open); n > 0 {
		s.parent = t.open[n-1].id
	}
	t.open = append(t.open, s)
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "silofuse", Phase: "B",
		TS: float64(s.start) / float64(time.Microsecond), PID: t.pid, TID: 1,
	})
	return s
}

// FlowSend marks a cross-party message departure: an instant marker on this
// tracer's lane plus a Chrome flow-start event carrying id. The matching
// FlowRecv on the receiver's tracer closes the flow, so a merged trace draws
// an arrow between the two process lanes. A nil tracer ignores the call.
func (t *Tracer) FlowSend(name string, id uint64) {
	if t == nil {
		return
	}
	t.flowEvent(name, id, "s", "send")
}

// FlowRecv marks the arrival of the message whose FlowSend carried the same
// id. A nil tracer ignores the call.
func (t *Tracer) FlowRecv(name string, id uint64) {
	if t == nil {
		return
	}
	t.flowEvent(name, id, "f", "recv")
}

func (t *Tracer) flowEvent(name string, id uint64, phase, verb string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := float64(time.Since(t.start)) / float64(time.Microsecond)
	bp := ""
	if phase == "f" {
		bp = "e" // bind the flow finish to the enclosing slice
	}
	t.events = append(t.events,
		traceEvent{Name: verb + " " + name, Cat: "bus", Phase: "i",
			TS: ts, PID: t.pid, TID: 1, Scope: "t"},
		traceEvent{Name: "msg " + name, Cat: "bus", Phase: phase,
			TS: ts, PID: t.pid, TID: 1, ID: id, BP: bp})
}

// SetAttr attaches a key/value attribute to the span; attributes are
// exported as Chrome trace "args" on the span's end event.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
}

// End closes the span. Ending twice (or ending a nil span) is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	info, ok := s.endLocked()
	fn := s.tr.onEnd
	s.tr.mu.Unlock()
	if ok && fn != nil {
		fn(info)
	}
}

func (s *Span) endLocked() (SpanInfo, bool) {
	if s.ended {
		return SpanInfo{}, false
	}
	s.ended = true
	s.end = time.Since(s.tr.start)
	if s.end < s.start {
		s.end = s.start
	}
	for i, o := range s.tr.open {
		if o == s {
			s.tr.open = append(s.tr.open[:i], s.tr.open[i+1:]...)
			break
		}
	}
	s.tr.events = append(s.tr.events, traceEvent{
		Name: s.name, Cat: "silofuse", Phase: "E",
		TS: float64(s.end) / float64(time.Microsecond), PID: s.tr.pid, TID: 1,
		Args: s.attrs,
	})
	return SpanInfo{
		Name:     s.name,
		StartSec: s.start.Seconds(),
		DurSec:   (s.end - s.start).Seconds(),
		Attrs:    s.attrs,
	}, true
}

// SpanInfo is an exported span summary (for run manifests).
type SpanInfo struct {
	Name     string         `json:"name"`
	Parent   string         `json:"parent,omitempty"`
	StartSec float64        `json:"start_sec"`
	DurSec   float64        `json:"dur_sec"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// chromeTrace is the Chrome trace file envelope (JSON Object Format).
// EpochMicros is this repository's extension (trace viewers ignore unknown
// top-level keys): the tracer's wall-clock start, which lets MergeChromeTraces
// align traces written by different processes onto one timeline.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	EpochMicros     int64        `json:"epochMicros,omitempty"`
}

// WriteChromeTrace writes the collected events as Chrome trace JSON. Spans
// still open are closed at the current time first (innermost first), so the
// output always has matched B/E pairs. When SetProcess named the lane, a
// process_name metadata record is prepended so viewers label it.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var infos []SpanInfo
	for len(t.open) > 0 {
		if info, ok := t.open[len(t.open)-1].endLocked(); ok {
			infos = append(infos, info)
		}
	}
	events := make([]traceEvent, 0, len(t.events)+1)
	if t.proc != "" {
		events = append(events, traceEvent{
			Name: "process_name", Phase: "M", PID: t.pid, TID: 1,
			Args: map[string]any{"name": t.proc},
		})
	}
	events = append(events, t.events...)
	out := chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms", EpochMicros: t.epoch}
	fn := t.onEnd
	t.mu.Unlock()
	if fn != nil {
		for _, info := range infos {
			fn(info)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// MergeChromeTraces stitches several Chrome trace JSON documents (each
// written by WriteChromeTrace, typically one per process of a distributed
// run) into a single trace sharing one timeline. Timestamps are aligned via
// each document's epochMicros (traces lacking it are left unshifted), and
// colliding pids are remapped so every input keeps its own process lane.
// Flow events stitched by trace-context ids then connect lanes end to end.
func MergeChromeTraces(w io.Writer, traces ...io.Reader) error {
	docs := make([]chromeTrace, len(traces))
	for i, r := range traces {
		if err := json.NewDecoder(r).Decode(&docs[i]); err != nil {
			return fmt.Errorf("obs: merge trace %d: %w", i, err)
		}
	}
	var minEpoch int64
	for _, d := range docs {
		if d.EpochMicros > 0 && (minEpoch == 0 || d.EpochMicros < minEpoch) {
			minEpoch = d.EpochMicros
		}
	}
	used := make(map[int]bool)
	nextPID := 1
	var merged []traceEvent
	for _, d := range docs {
		shift := 0.0
		if d.EpochMicros > 0 && minEpoch > 0 {
			shift = float64(d.EpochMicros - minEpoch)
		}
		remap := make(map[int]int)
		for _, ev := range d.TraceEvents {
			pid, ok := remap[ev.PID]
			if !ok {
				pid = ev.PID
				for used[pid] {
					nextPID++
					pid = nextPID
				}
				used[pid] = true
				remap[ev.PID] = pid
			}
			ev.PID = pid
			if ev.Phase != "M" {
				ev.TS += shift
			}
			merged = append(merged, ev)
		}
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].TS < merged[j].TS })
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: merged, DisplayTimeUnit: "ms", EpochMicros: minEpoch})
}

// Spans lists every ended span in start order, reconstructed from the B/E
// event log. Spans still open are excluded; call after the traced work
// finishes (or after WriteChromeTrace, which closes stragglers).
func (t *Tracer) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanInfo
	var stack []int // indexes into out of currently open spans
	ended := make([]bool, 0)
	for _, ev := range t.events {
		switch ev.Phase {
		case "B":
			info := SpanInfo{Name: ev.Name, StartSec: ev.TS / 1e6}
			if len(stack) > 0 {
				info.Parent = out[stack[len(stack)-1]].Name
			}
			out = append(out, info)
			ended = append(ended, false)
			stack = append(stack, len(out)-1)
		case "E":
			if len(stack) == 0 {
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out[top].DurSec = ev.TS/1e6 - out[top].StartSec
			out[top].Attrs = ev.Args
			ended[top] = true
		}
	}
	res := make([]SpanInfo, 0, len(out))
	for i, s := range out {
		if ended[i] {
			res = append(res, s)
		}
	}
	return res
}
