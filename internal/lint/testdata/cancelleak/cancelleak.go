// Package cancelleak is a go vet fixture: the lost-cancel property is
// owned by vet's lostcancel pass, not by aqppp-lint. The want comments
// mark the lines `go vet ./cancelleak` must report (TestGoVetOwnsFixtures
// and CI's linter self-test check it); no aqppp-lint rule fires here.
package cancelleak

import (
	"context"
	"time"
)

// EarlyReturn drops the cancel on the error branch.
func EarlyReturn(ctx context.Context, bad bool) error {
	ctx, cancel := context.WithCancel(ctx) // want vet:lostcancel
	if bad {
		return context.Canceled
	}
	defer cancel()
	<-ctx.Done()
	return nil
}

// NeverCalled obtains a timeout context and forgets the cancel
// entirely. A documented non-finding: lostcancel counts `_ = cancel` as
// a use, where the deleted cancel-leak rule reported it. This is the one
// seeded behaviour the move to go vet gave up; the module itself
// contains no `_ = cancel`.
func NeverCalled(ctx context.Context) error {
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	_ = cancel
	return waitOn(tctx)
}

// Discarded blanks the cancel func outright.
func Discarded(ctx context.Context) context.Context {
	dctx, _ := context.WithDeadline(ctx, time.Now().Add(time.Second)) // want vet:lostcancel
	return dctx
}

// DeferOK is the accepted pattern.
func DeferOK(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return waitOn(ctx)
}

// CalledOnEveryPath calls cancel explicitly on both branches.
func CalledOnEveryPath(ctx context.Context, fast bool) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	if fast {
		cancel()
		return nil
	}
	err := waitOn(ctx)
	cancel()
	return err
}

// HandedOff passes the cancel onward: responsibility moves with it.
func HandedOff(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	register(cancel)
	return waitOn(ctx)
}

// CapturedOK hands the cancel to a closure.
func CapturedOK(ctx context.Context) func() {
	ctx, cancel := context.WithCancel(ctx)
	_ = ctx
	return func() { cancel() }
}

func waitOn(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

var registered func()

func register(f func()) { registered = f }
