//go:build linux

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"pqtls"
	"pqtls/internal/pki"
)

// buildDir is where the benchmark keeps what it builds and what the server
// child writes, relative to the repository root. It is the directory the
// driver reserves for build output, so a run leaves nothing elsewhere.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the directory holding
// go.mod: `go run ./bench/pqperf` starts at the root, `go test` in the
// package directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles the shipped cmd/pqtls-server into dir and reports how
// long that took; the time is outside every setup_s.
func buildServer(ctx context.Context, root, dir string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(dir, "pqtls-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pqtls-server")
	cmd.Dir = root
	start := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/pqtls-server: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// tailBuffer keeps the last bytes a child wrote to stderr, for the error
// message when it dies or misbehaves.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// summaryLine returns the line in which the server sums up what it served,
// or failing that its last line.
func (t *tailBuffer) summaryLine() string {
	lines := strings.Split(t.String(), "\n")
	for _, l := range lines {
		if strings.Contains(l, "served ") {
			return l
		}
	}
	return lines[len(lines)-1]
}

// serverChild is one running cmd/pqtls-server process.
type serverChild struct {
	cmd    *exec.Cmd
	addr   string
	roots  *pqtls.CertPool
	stderr *tailBuffer
	exited chan struct{} // closed once Wait has returned
}

// freeLoopbackPort asks the kernel for an unused port and releases it.
func freeLoopbackPort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the server on a free loopback port and waits until it
// accepts a connection. Another process can take the port between the probe
// and the child's bind; the child then exits and the next attempt picks
// another port.
func startServer(ctx context.Context, bin, dir, kemName, sigName string) (*serverChild, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freeLoopbackPort()
		if err != nil {
			return nil, err
		}
		s, err := startServerOn(ctx, bin, dir, kemName, sigName, port)
		if err == nil {
			return s, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func startServerOn(ctx context.Context, bin, dir, kemName, sigName string, port int) (*serverChild, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	rootFile := filepath.Join(dir, fmt.Sprintf("root-%d-%d.cert", os.Getpid(), port))
	defer os.Remove(rootFile)
	s := &serverChild{addr: addr, stderr: &tailBuffer{}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-listen", addr, "-kem", kemName, "-sig", sigName, "-root", rootFile)
	s.cmd.Stderr = s.stderr
	// The child must not outlive a benchmark that is killed outright.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited before listening on %s: %s", addr, s.stderr)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not accepting on %s after 10s: %s", addr, s.stderr)
		}
	}

	// The server writes the root before it listens, so it is complete here.
	rootBytes, err := os.ReadFile(rootFile)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("reading the server's root certificate: %w", err)
	}
	root, err := pki.Unmarshal(rootBytes)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("parsing the server's root certificate: %w", err)
	}
	s.roots = pqtls.NewCertPool(root)
	return s, nil
}

func (s *serverChild) pid() int { return s.cmd.Process.Pid }

// stop interrupts the server so it drains, and returns once it is reaped. A
// server that ignores the interrupt is killed.
func (s *serverChild) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(8 * time.Second): // the server's own drain grace is 5 s
		s.cmd.Process.Kill()
		<-s.exited
	}
}
