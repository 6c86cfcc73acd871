// Package mutexcopy is a go vet fixture: the copied-lock property is
// owned by vet's copylocks pass, not by aqppp-lint. The want comments
// mark the lines `go vet ./mutexcopy` must report (TestGoVetOwnsFixtures
// and CI's linter self-test check it); no aqppp-lint rule fires here.
package mutexcopy

import "sync"

// Counter guards n with an embedded mutex; copying it forks the lock.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Snapshot takes the counter by value.
func Snapshot(c Counter) int { // want vet:copylocks
	return c.n
}

// Value uses a value receiver.
func (c Counter) Value() int { // want vet:copylocks
	return c.n
}

// Fork dereferences and assigns, copying the lock.
func Fork(c *Counter) int {
	clone := *c // want vet:copylocks
	return clone.n
}

// Each ranges over counters by value.
func Each(cs []Counter) int {
	total := 0
	for _, c := range cs { // want vet:copylocks
		total += c.n
	}
	return total
}

// Grow copies a bare WaitGroup out of a struct field.
type pool struct {
	wg sync.WaitGroup
}

func Grow(p *pool) sync.WaitGroup {
	wg := p.wg // want vet:copylocks
	return wg  // want vet:copylocks
}

// Inc is the accepted form: pointer receiver, pointer iteration.
func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// EachPtr iterates by index and takes addresses; no copies.
func EachPtr(cs []Counter) int {
	total := 0
	for i := range cs {
		total += (&cs[i]).n
	}
	return total
}
