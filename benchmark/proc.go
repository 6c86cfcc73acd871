package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/aqppp-serve from the repository at root into
// dir and returns the binary's path.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "aqppp-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/aqppp-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/aqppp-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// findRepoRoot walks up from the working directory to the directory
// whose go.mod declares module aqppp.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module aqppp" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module aqppp above the working directory; run from the repository")
		}
		dir = parent
	}
}

// proc is one running aqppp-serve process.
type proc struct {
	cmd *exec.Cmd
	url string
	// stderr collects what the server wrote, for failure reports; it is
	// read only after waited is closed.
	stderr *bytes.Buffer
	// waited is closed once cmd.Wait has returned.
	waited  chan struct{}
	waitErr error
}

// startTimeout bounds one server's start-up (table generation, sample,
// hill climb, cube build) so a wedged child fails the run instead of
// hanging it.
const startTimeout = 150 * time.Second

// startProc launches the server on a free loopback port and returns
// once /readyz answers 200. Canceling ctx drains the server with
// SIGTERM, as stop does.
func startProc(ctx context.Context, bin string, args ...string) (*proc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = stopTimeout
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, stderr: &bytes.Buffer{}, waited: make(chan struct{})}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The "listening on" line is the only thing the server writes to
	// stdout; the reader goroutine ends at EOF, before Wait returns.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		close(addr)
		p.waitErr = cmd.Wait()
		close(p.waited)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			<-p.waited
			return nil, fmt.Errorf("aqppp-serve %s exited before listening: %v\n%s", strings.Join(args, " "), p.waitErr, p.stderr)
		}
		p.url = "http://" + a
	case <-time.After(startTimeout):
		p.stop()
		return nil, fmt.Errorf("aqppp-serve %s did not listen within %v\n%s", strings.Join(args, " "), startTimeout, p.stderr)
	}
	deadline := time.Now().Add(startTimeout)
	for {
		resp, err := http.Get(p.url + "/readyz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("aqppp-serve at %s never became ready: %v", p.url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopTimeout is how long a server gets to drain (its own drain
// deadline is 10 s) before it is killed.
const stopTimeout = 15 * time.Second

// stop drains the server with SIGTERM and waits for it to exit; a
// server that ignores the drain deadline is killed. Stopping twice is
// harmless.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
	case <-time.After(stopTimeout):
		_ = p.cmd.Process.Kill()
		<-p.waited
	}
}

// peakRSSMB reads the process's high-water resident set from /proc;
// ok is false where /proc is not available.
func (p *proc) peakRSSMB() (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}

// deployment is the running server(s) of one workload shape. front is
// the process clients talk to; all lists every process (front last).
type deployment struct {
	front *proc
	all   []*proc
}

func (d *deployment) stop() {
	// Front first: a coordinator should drain before its replicas go.
	for i := len(d.all) - 1; i >= 0; i-- {
		d.all[i].stop()
	}
}

func (d *deployment) peakRSSMB() float64 {
	total := 0.0
	for _, p := range d.all {
		if mb, ok := p.peakRSSMB(); ok {
			total += mb
		}
	}
	return total
}

// deploy starts the workload's shape and returns once every process is
// ready, with the exec-to-ready time. storeFile is the container a
// store shape serves.
func (s spec) deploy(ctx context.Context, bin, storeFile string) (*deployment, time.Duration, error) {
	t0 := time.Now()
	d := &deployment{}
	start := func(args ...string) (*proc, error) {
		p, err := startProc(ctx, bin, args...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.all = append(d.all, p)
		return p, nil
	}
	var err error
	switch s.Shape {
	case shapeResident:
		d.front, err = start(s.serveFlags()...)
	case shapeStore:
		d.front, err = start("-data", storeFile)
	case shapeSharded:
		d.front, err = start(append(s.serveFlags(), "-shards", strconv.Itoa(s.Shards), "-shard-col", shardCol)...)
	case shapeFleet:
		// Replicas start together (each generates the table and keeps
		// its slice); the coordinator needs their addresses, so it
		// starts once they listen.
		replicas := make([]*proc, s.Shards)
		errs := make([]error, s.Shards)
		var wg sync.WaitGroup
		for h := 0; h < s.Shards; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				args := append(s.serveFlags(), "-replica", fmt.Sprintf("%d/%d", h, s.Shards), "-shard-col", shardCol)
				replicas[h], errs[h] = startProc(ctx, bin, args...)
			}(h)
		}
		wg.Wait()
		var peers []string
		for h, p := range replicas {
			if p != nil {
				d.all = append(d.all, p)
				peers = append(peers, p.url)
			}
			if errs[h] != nil && err == nil {
				err = errs[h]
			}
		}
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.front, err = start("-coordinator", "-peers", strings.Join(peers, ","))
	}
	if err != nil {
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// replicaURLs lists a fleet's replica base URLs in shard order.
func (d *deployment) replicaURLs() []string {
	var urls []string
	for _, p := range d.all {
		if p != d.front {
			urls = append(urls, p.url)
		}
	}
	return urls
}

// ensureStore creates the workload's .aqps container once per checkout
// (it is a build product: the same flags always give the same bytes)
// and returns its path. Creation runs the server with -save and stops
// it as soon as it listens.
func (s spec) ensureStore(ctx context.Context, bin, dataDir string) (string, error) {
	path := filepath.Join(dataDir, fmt.Sprintf("tpcd-%d-seed%d-k%d-rate%g.aqps", s.Rows, dataSeed, cellBudget, s.SampleRate))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	p, err := startProc(ctx, bin, append(s.serveFlags(), "-save", tmp)...)
	if err != nil {
		return "", fmt.Errorf("create store container: %w", err)
	}
	p.stop()
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	return path, nil
}
