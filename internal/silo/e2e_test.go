//silofuse:bitwise-ok E2EDistr party tests pin the serial protocol's loss bits
package silo

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"silofuse/internal/obs"
)

// e2eParties builds a small E2EDistr pipeline of three clients over bus.
func e2eParties(t *testing.T, bus Bus) *E2EPipeline {
	t.Helper()
	cfg := smallConfig(3)
	cfg.Batch = 32
	p, err := NewE2EPipeline(bus, loanTable(t, 120), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestE2EShortRunReturnsLastLoss: a run of fewer than ten iterations averages
// its last step, where 10% of the run used to round down to no step and
// Train returned 0. For k = 1…9 Train returns the loss the Recorder saw last.
func TestE2EShortRunReturnsLastLoss(t *testing.T) {
	p := e2eParties(t, NewLocalBus())
	rec := obs.NewRecorder()
	p.SetRecorder(rec)
	for k := 1; k <= 9; k++ {
		got, err := p.Train(k)
		if err != nil {
			t.Fatal(err)
		}
		last := rec.Reg.Gauge("e2e_loss").Value()
		if got != last || !(got > 0) || math.IsInf(got, 0) {
			t.Errorf("Train(%d) = %v, last step's loss %v", k, got, last)
		}
	}
}

// errInjected is the failure failBus injects.
var errInjected = errors.New("injected bus failure")

// failBus fails the k-th Send from party, or the k-th Recv by party, of one
// message kind; everything else goes to the wrapped bus.
type failBus struct {
	Bus
	party string
	kind  Kind
	recv  bool
	k     int

	mu sync.Mutex
	n  int
}

// hit counts one operation of the failing kind and reports whether it is the
// k-th.
func (b *failBus) hit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
	return b.n == b.k
}

func (b *failBus) Send(e *Envelope) error {
	if !b.recv && e.From == b.party && e.Kind == b.kind && b.hit() {
		return fmt.Errorf("send %s: %w", e.Kind, errInjected)
	}
	return b.Bus.Send(e)
}

func (b *failBus) Recv(to string) (*Envelope, error) {
	e, err := b.Bus.Recv(to)
	if err == nil && b.recv && to == b.party && e.Kind == b.kind && b.hit() {
		return nil, fmt.Errorf("recv %s: %w", e.Kind, errInjected)
	}
	return e, err
}

// TestE2EPartyFailures is the failure matrix of the party loops: a bus that
// fails the k-th Send or Recv of any party on any kind it sends or receives
// must end Train with an error that wraps the failure, in bounded time, and
// leave no goroutine behind. A party receives only after its peer said the
// message was sent, so no party is left blocked in a Recv.
func TestE2EPartyFailures(t *testing.T) {
	type op struct {
		kind Kind
		recv bool
	}
	clientOps := []op{{KindActivation, false}, {KindDenoised, true}, {KindGradUp, false}, {KindGradDown, true}}
	coordOps := []op{{KindActivation, true}, {KindDenoised, false}, {KindGradUp, true}, {KindGradDown, false}}
	base := runtime.NumGoroutine()
	for _, party := range []string{"coord", "c0", "c2"} {
		ops := clientOps
		if party == "coord" {
			ops = coordOps
		}
		for _, o := range ops {
			for _, k := range []int{1, 3} {
				label := fmt.Sprintf("%s fails %s %d (recv %v)", party, o.kind, k, o.recv)
				bus := &failBus{Bus: NewLocalBus(), party: party, kind: o.kind, recv: o.recv, k: k}
				p := e2eParties(t, bus)
				done := make(chan error, 1)
				go func() {
					_, err := p.Train(4)
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, errInjected) {
						t.Errorf("%s: Train returned %v", label, err)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%s: Train did not return", label)
				}
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the failures, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestE2ETrainAgainAfterFailure: a Train that failed leaves no weight
// gradient pending, so the next Train, over a working bus, runs.
func TestE2ETrainAgainAfterFailure(t *testing.T) {
	for _, c := range []struct {
		party string
		kind  Kind
	}{{"c1", KindGradUp}, {"coord", KindGradDown}} {
		p := e2eParties(t, &failBus{Bus: NewLocalBus(), party: c.party, kind: c.kind, k: 2})
		if _, err := p.Train(3); !errors.Is(err, errInjected) {
			t.Fatalf("%s %s: Train returned %v", c.party, c.kind, err)
		}
		p.Bus = NewLocalBus()
		if _, err := p.Train(2); err != nil {
			t.Fatalf("after %s %s failed: %v", c.party, c.kind, err)
		}
	}
}
