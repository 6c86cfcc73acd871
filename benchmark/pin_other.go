//go:build !linux

package main

// pinProcess does nothing where the harness cannot set its CPU
// affinity: the numbers are then taken on every core, and noisier.
func pinProcess() (unpin func() error, err error) {
	return func() error { return nil }, nil
}
