// Package guardedby exercises the mutex-discipline analyzer: annotated
// field access, //silofuse:locked helpers, constructor and address-of
// exemptions, unlock pairing, and malformed annotations.
package guardedby

import "sync"

type counterBox struct {
	mu sync.Mutex
	//silofuse:guardedby mu
	n     int
	total int //silofuse:guardedby mu
	name  string
}

func (b *counterBox) good() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
	return b.total
}

func (b *counterBox) bad() int {
	b.n++          // want "access to counterBox.n without holding mu"
	return b.total // want "access to counterBox.total without holding mu"
}

func (b *counterBox) unguardedField() string {
	return b.name // unannotated fields are free
}

// bump runs with mu already held at every call site.
//
//silofuse:locked mu
func (b *counterBox) bump() { b.n++ }

//silofuse:locked
func (b *counterBox) badLocked() { // want "locked annotation on badLocked needs a mutex field name"
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func newBox() *counterBox {
	b := &counterBox{}
	b.n = 1 // fresh object: nobody else can see it yet
	return b
}

func (b *counterBox) leak() {
	b.mu.Lock() // want "mu.Lock in leak has no matching Unlock"
	b.n++
}

type rwBox struct {
	rw sync.RWMutex
	//silofuse:guardedby rw
	v int
}

func (b *rwBox) rleak() int {
	b.rw.RLock() // want "rw.RLock in rleak has no matching RUnlock"
	return b.v
}

func (b *rwBox) read() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.v
}

type badGuard struct {
	//silofuse:guardedby missing
	x int // want "is not a field of struct badGuard"
}

type emptyGuard struct {
	mu sync.Mutex
	//silofuse:guardedby
	y int // want "guardedby annotation on emptyGuard.y needs a mutex field name"
}

type notMutex struct {
	wg sync.WaitGroup
	//silofuse:guardedby wg
	z int // want "guardedby guard notMutex.wg is not a sync.Mutex or sync.RWMutex"
}

func passPointer(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
}
