package harness

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it creates — built
// binaries and temp dirs — relative to the checkout root. The root
// .gitignore names it; nothing is written outside it.
const buildDir = ".bench_build"

// Sandbox owns everything a benchmark run creates outside its own
// memory: the built binaries, temp dirs and child processes. Close
// stops every child still running and removes every temp dir, and a
// SIGINT/SIGTERM does the same before exiting, so no run — failed,
// interrupted or clean — leaves anything behind but the build cache.
type Sandbox struct {
	root string

	mu       sync.Mutex
	children []*Child
	dirs     []string
	closed   bool
}

// NewSandbox roots a sandbox at the current directory, which must be
// the repository root (go run ./benchmark is started there).
func NewSandbox() (*Sandbox, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "locusd")); err != nil {
		return nil, fmt.Errorf("run from the repository root (no cmd/locusd under %s): %w", root, err)
	}
	for _, d := range []string{"bin", "tmp"} {
		if err := os.MkdirAll(filepath.Join(root, buildDir, d), 0o755); err != nil {
			return nil, err
		}
	}
	s := &Sandbox{root: root}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		s.Close()
		os.Exit(130)
	}()
	return s, nil
}

// Bin is the path of a built binary.
func (s *Sandbox) Bin(name string) string { return filepath.Join(s.root, buildDir, "bin", name) }

// Build compiles the named packages (./cmd/locusd ...) into the
// sandbox's bin directory and reports how long the go tool took.
func (s *Sandbox) Build(pkgs ...string) (time.Duration, error) {
	t0 := time.Now()
	args := append([]string{"build", "-o", filepath.Join(s.root, buildDir, "bin") + string(filepath.Separator)}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = s.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build %v: %w\n%s", pkgs, err, out)
	}
	return time.Since(t0), nil
}

// TempDir makes a fresh directory under the sandbox; Close removes it.
func (s *Sandbox) TempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(s.root, buildDir, "tmp"), prefix+"-")
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.dirs = append(s.dirs, dir)
	s.mu.Unlock()
	return dir, nil
}

// Close stops every child still running — SIGTERM first, so a child
// that is itself a benchmark program can clean up after itself, SIGKILL
// after a short grace — waits for each, and removes every temp dir.
// Safe to call more than once and from the signal handler.
func (s *Sandbox) Close() {
	s.mu.Lock()
	children, dirs := s.children, s.dirs
	s.children, s.dirs, s.closed = nil, nil, true
	s.mu.Unlock()
	for _, c := range children {
		c.Signal(syscall.SIGTERM)
	}
	for _, c := range children {
		_ = c.Wait(3 * time.Second) // kills on timeout; the exit status is of no interest here
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// Child is one process under test.
type Child struct {
	cmd    *exec.Cmd
	ready  time.Time // when the child was first known to be up
	stderr tail
	Stdout bytes.Buffer
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after done
}

// Start launches a built binary. Its stderr tail is kept for failure
// reports and its stdout is captured whole. The child dies with the
// benchmark (Pdeathsig), whatever kills the benchmark.
func (s *Sandbox) Start(name string, args ...string) (*Child, error) {
	c := &Child{cmd: exec.Command(s.Bin(name), args...), done: make(chan struct{})}
	c.cmd.Dir = s.root
	c.cmd.Stderr = &c.stderr
	c.cmd.Stdout = &c.Stdout
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("sandbox closed")
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c.ready = time.Now()
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	s.children = append(s.children, c)
	return c, nil
}

// Exited reports whether the child has ended.
func (c *Child) Exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the child ends or the timeout passes, and returns
// its exit error; a timeout kills it and is itself an error.
func (c *Child) Wait(timeout time.Duration) error {
	select {
	case <-c.done:
		return c.err
	case <-time.After(timeout):
		c.Kill()
		return fmt.Errorf("%s did not exit within %v; stderr tail:\n%s", filepath.Base(c.cmd.Path), timeout, c.StderrTail())
	}
}

// Signal sends sig to the child; a child already gone is not an error.
func (c *Child) Signal(sig syscall.Signal) {
	if !c.Exited() {
		_ = c.cmd.Process.Signal(sig) // raced with exit: nothing to signal
	}
}

// Kill sends SIGKILL and waits until the child has ended.
func (c *Child) Kill() {
	c.Signal(syscall.SIGKILL)
	<-c.done
}

// signalGrace is how long a child must have been up (for locusd:
// healthy) before Stop signals it. cmd/locusd answers /v1/healthz before
// it installs its SIGTERM handler, so a SIGTERM in the first instants of
// a healthy daemon kills it undrained — seen here when a restart was
// checked and stopped within 10 ms of its first healthy answer. That
// window is the daemon's to close (ROADMAP item 4); the benchmark just
// stays out of it.
const signalGrace = 100 * time.Millisecond

// Stop asks for a graceful shutdown (SIGTERM) and requires a clean
// exit: locusd drains, closes its store and exits 0.
func (c *Child) Stop() error {
	time.Sleep(signalGrace - time.Since(c.ready))
	c.Signal(syscall.SIGTERM)
	if err := c.Wait(30 * time.Second); err != nil {
		return fmt.Errorf("%s after SIGTERM: %w; stderr tail:\n%s", filepath.Base(c.cmd.Path), err, c.StderrTail())
	}
	return nil
}

// StderrTail is the last few KiB the child wrote to stderr.
func (c *Child) StderrTail() string { return c.stderr.String() }

// ExitCPU is the user+system CPU time the child used over its whole
// life; valid once it has ended.
func (c *Child) ExitCPU() time.Duration {
	ps := c.cmd.ProcessState
	if ps == nil {
		return 0
	}
	return ps.UserTime() + ps.SystemTime()
}

// WatchPeakRSS polls the child's VmHWM until it ends and returns the
// largest value seen, in MB. wait4's ru_maxrss cannot be used for this:
// Go starts children with a vfork-style clone, and at exec Linux folds
// the high-water mark of the address space the child is leaving — this
// process's — into the child's ru_maxrss, so a short-lived child would
// report the benchmark's own size.
func (c *Child) WatchPeakRSS() float64 {
	peak := 0.0
	for {
		if v := c.PeakRSSMB(); v > peak {
			peak = v
		}
		select {
		case <-c.done:
			return peak
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// CPU is the running child's cumulative user+system CPU time, summed
// over its threads from /proc/<pid>/task/*/schedstat, which counts in
// nanoseconds — /proc/<pid>/stat counts in 10 ms ticks, too coarse for
// a server that uses a few percent of a core.
func (c *Child) CPU() time.Duration {
	return taskCPU(strconv.Itoa(c.cmd.Process.Pid))
}

// PeakRSSMB is the running child's peak resident set (VmHWM).
func (c *Child) PeakRSSMB() float64 { return peakRSSMB(strconv.Itoa(c.cmd.Process.Pid)) }

// SelfPeakRSSMB is this process's peak resident set.
func SelfPeakRSSMB() float64 { return peakRSSMB("self") }

// SelfCPU is this process's cumulative user+system CPU time.
func SelfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func taskCPU(pid string) time.Duration {
	tasks, _ := filepath.Glob("/proc/" + pid + "/task/*/schedstat")
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	return time.Duration(ns)
}

func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// tail keeps the last tailMax bytes written to it.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = t.buf[len(t.buf)-tailMax:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// Locusd is a running daemon and the two addresses it listens on.
type Locusd struct {
	*Child
	HTTP string // host:port of the /v1 surface
	Bin  string // host:port of the binary protocol
}

// StartLocusd launches locusd on two free ports with the given extra
// flags and polls until /v1/healthz answers 200 and the binary listener
// accepts a connection (locusd binds it after the HTTP one, so healthy
// does not yet mean both are up). The returned duration is exec to
// ready — the set-up time a deployment pays. A daemon that exits early
// fails with its stderr tail.
func (s *Sandbox) StartLocusd(args ...string) (*Locusd, time.Duration, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	binAddr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	c, err := s.Start("locusd", append([]string{"-addr", httpAddr, "-listen-bin", binAddr}, args...)...)
	if err != nil {
		return nil, 0, err
	}
	d := &Locusd{Child: c, HTTP: httpAddr, Bin: binAddr}
	if err := d.waitHealthy(10 * time.Second); err != nil {
		c.Kill()
		return nil, 0, err
	}
	c.ready = time.Now()
	return d, c.ready.Sub(t0), nil
}

func (d *Locusd) waitHealthy(timeout time.Duration) error {
	url := "http://" + d.HTTP + "/v1/healthz"
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(500 * time.Microsecond) {
		if d.Exited() {
			return fmt.Errorf("locusd exited before it was healthy (%v); stderr tail:\n%s", d.err, d.StderrTail())
		}
		resp, err := client.Get(url)
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		conn, err := net.Dial("tcp", d.Bin)
		if err != nil {
			continue
		}
		conn.Close()
		return nil
	}
	return fmt.Errorf("locusd not healthy on %s within %v; stderr tail:\n%s", d.HTTP, timeout, d.StderrTail())
}
