package silo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLocalBusConcurrentSendRecv hammers one bus with parallel senders and a
// concurrent drainer: under -race this exercises the stats lock and the box
// map; without it, it still pins the delivery invariant that every accepted
// Send is received exactly once.
func TestLocalBusConcurrentSendRecv(t *testing.T) {
	const senders, perSender = 8, 200
	bus := NewLocalBus()

	var received int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, err := bus.Recv("sink"); err != nil {
				return
			}
			atomic.AddInt64(&received, 1)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				e := &Envelope{From: "c0", To: "sink", Kind: KindLatents}
				if err := bus.Send(e); err != nil {
					t.Errorf("sender %d: %v", id, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := bus.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-drained

	if got, want := atomic.LoadInt64(&received), int64(senders*perSender); got != want {
		t.Fatalf("received %d messages, want %d", got, want)
	}
	if st := bus.Stats(); st.Messages != int64(senders*perSender) {
		t.Fatalf("Stats.Messages = %d, want %d", st.Messages, senders*perSender)
	}
}

// TestLocalBusCloseDuringSends races Close against in-flight Sends. The
// closeMu protocol guarantees a clean partition: each Send either returns
// ErrBusClosed, or its message is delivered before the inbox closes — so the
// drained count must equal the accepted-send count exactly. Each round lets
// a different number of sends through before Close, so Close lands mid-stream
// rather than before the first send: a Send that released closeMu before its
// channel send would then panic on the closed inbox, or show as a race under
// -race.
func TestLocalBusCloseDuringSends(t *testing.T) {
	for round := 0; round < 20; round++ {
		localBusCloseDuringSends(t, int64(round*40))
	}
}

func localBusCloseDuringSends(t *testing.T, closeAfter int64) {
	const senders, perSender = 8, 300
	bus := NewLocalBus()
	// Materialise the inbox before the Close race starts: Close only closes
	// boxes that exist, and a box created after Close would block the drainer
	// forever.
	bus.box("sink")

	// A closed inbox still yields what it buffered before Recv errors, so
	// draining with Recv alone counts every accepted Send.
	var received, accepted int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, err := bus.Recv("sink"); err != nil {
				return
			}
			atomic.AddInt64(&received, 1)
		}
	}()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perSender; i++ {
				err := bus.Send(&Envelope{From: "c1", To: "sink", Kind: KindLatents})
				if errors.Is(err, ErrBusClosed) {
					return
				}
				if err != nil {
					t.Errorf("Send: %v", err)
					return
				}
				atomic.AddInt64(&accepted, 1)
			}
		}()
	}
	closer := make(chan struct{})
	go func() {
		defer close(closer)
		<-start
		for atomic.LoadInt64(&accepted) < closeAfter {
			runtime.Gosched()
		}
		_ = bus.Close()
		_ = bus.Close() // idempotent under contention
	}()
	close(start)
	wg.Wait()
	<-closer
	<-drained

	if got, want := atomic.LoadInt64(&received), atomic.LoadInt64(&accepted); got != want {
		t.Fatalf("drained %d messages but bus accepted %d", got, want)
	}
	if err := bus.Send(&Envelope{From: "c1", To: "sink", Kind: KindLatents}); !errors.Is(err, ErrBusClosed) {
		t.Fatalf("Send after Close = %v, want ErrBusClosed", err)
	}
}
