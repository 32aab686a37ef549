package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// healthTimeout is how long pvserve may take from exec to its first 200 on
// /healthz before the run is abandoned.
const healthTimeout = 120 * time.Second

// env locates the checkout and owns everything a run leaves behind: the
// scratch directory (removed on exit) and the child processes (killed on
// exit). One env per process.
type env struct {
	root    string // checkout root: holds BENCHMARK.json, go.mod, cmd/
	outDir  string // benchmark/out: child stderr, traces, results
	tmpDir  string // per-process scratch under .bench_build/tmp
	pvserve string // built binary

	mu       sync.Mutex
	children []*child
}

// findRoot returns the checkout root: the nearest ancestor of the working
// directory that holds BENCHMARK.json and benchmark/, so the harness works
// from the root (`bash benchmark/run.sh`) and from its own directory
// (`go run .`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "BENCHMARK.json")) && isDir(filepath.Join(dir, "benchmark")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no ancestor directory holds BENCHMARK.json and benchmark/")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	dir, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: dir, outDir: filepath.Join(dir, "benchmark", "out")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	tmpParent := filepath.Join(dir, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return nil, err
	}
	if e.tmpDir, err = os.MkdirTemp(tmpParent, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func isFile(p string) bool { st, err := os.Stat(p); return err == nil && st.Mode().IsRegular() }
func isDir(p string) bool  { st, err := os.Stat(p); return err == nil && st.IsDir() }

// close kills every child still running and removes the scratch directory.
// Safe to call more than once and from a signal handler goroutine.
func (e *env) close() {
	e.mu.Lock()
	children := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	os.RemoveAll(e.tmpDir)
}

// buildPvserve compiles cmd/pvserve from the checkout's sources into
// .bench_build/bin. The go tool's own cache makes the second call cheap.
func (e *env) buildPvserve() error {
	bin := filepath.Join(e.root, ".bench_build", "bin", "pvserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pvserve")
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/pvserve in %s: %w", e.root, err)
	}
	e.pvserve = bin
	return nil
}

// child is one pvserve process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	logf   string
	exited chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after exited
}

// freePort asks the kernel for an unused loopback port. The port is released
// before pvserve binds it, so start retries on the rare collision.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start execs pvserve with args (plus -addr on a free port), its stderr
// captured to benchmark/out/<label>.log, and returns once /healthz answers
// 200. The returned duration is exec → first 200.
func (e *env) start(label string, args ...string) (*child, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, d, err := e.startOnce(label, args)
		if err == nil {
			return c, d, nil
		}
		lastErr = err
		if !errors.Is(err, errExitedEarly) {
			break
		}
	}
	return nil, 0, lastErr
}

var errExitedEarly = errors.New("pvserve exited before becoming healthy")

func (e *env) startOnce(label string, args []string) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	c := &child{
		addr:   "127.0.0.1:" + strconv.Itoa(port),
		logf:   filepath.Join(e.outDir, label+".log"),
		exited: make(chan struct{}),
	}
	logFile, err := os.Create(c.logf)
	if err != nil {
		return nil, 0, err
	}
	c.cmd = exec.Command(e.pvserve, append([]string{"-addr", c.addr}, args...)...)
	c.cmd.Stdout, c.cmd.Stderr = logFile, logFile
	// The child dies with the harness even if the harness is SIGKILLed. The
	// death signal is tied to the OS thread that forked, so that thread is
	// pinned until the child has been waited for.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	t0 := time.Now()
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := c.cmd.Start()
		started <- err
		if err != nil {
			return
		}
		c.err = c.cmd.Wait()
		logFile.Close()
		close(c.exited)
	}()
	if err := <-started; err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("exec %s: %w", e.pvserve, err)
	}
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()

	deadline := time.NewTimer(healthTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("%w: %v\n%s", errExitedEarly, c.err, tail(c.logf, 10))
		case <-deadline.C:
			c.kill()
			return nil, 0, fmt.Errorf("pvserve (%s) not healthy within %v; see %s\n%s", label, healthTimeout, c.logf, tail(c.logf, 10))
		case <-tick.C:
			if healthy(c.addr) {
				return c, time.Since(t0), nil
			}
		}
	}
}

func healthy(addr string) bool {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: pvserve\r\nConnection: close\r\n\r\n"); err != nil {
		return false
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// kill SIGKILLs the process (a crash, not a shutdown: no final checkpoint)
// and waits until it has ended.
func (c *child) kill() {
	select {
	case <-c.exited:
		return
	default:
	}
	c.cmd.Process.Kill()
	<-c.exited
}

func tail(path string, lines int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	parts := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(parts) > lines {
		parts = parts[len(parts)-lines:]
	}
	return strings.Join(parts, "\n")
}

// rssPeakMB reads the child's peak resident set (VmHWM) from /proc.
func (c *child) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// serverStats is the part of /v1/stats the harness reads.
type serverStats struct {
	Objects int `json:"objects"`
	Runtime struct {
		HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
		NumGC          uint32  `json:"num_gc"`
		GCPauseTotalS  float64 `json:"gc_pause_total_s"`
	} `json:"runtime"`
}

func (c *child) stats() (serverStats, error) {
	var st serverStats
	cl, err := dial(c.addr)
	if err != nil {
		return st, err
	}
	defer cl.close()
	status, body, err := cl.do([]byte("GET /v1/stats HTTP/1.1\r\nHost: pvserve\r\n\r\n"))
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", status)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("/v1/stats: %w", err)
	}
	return st, nil
}

// --- wire client -----------------------------------------------------------

// client is one keep-alive HTTP/1.1 connection driven by exactly one
// goroutine: it writes a pre-encoded request and reads the reply in place.
// net/http's Transport is deliberately not used — its per-connection reader
// and writer goroutines would compete with pvserve for the two cores and add
// scheduler noise to every sample.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and returns the status and body. The body is valid
// until the next call.
func (c *client) do(wire []byte) (int, []byte, error) {
	if _, err := c.conn.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}
