package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"distjoin/internal/datagen"
)

// server is the real distjoin-server binary, running as a child
// process on a loopback port of its own choosing.
type server struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	log    *os.File   // the request log: the server's standard error
	base   string     // http://127.0.0.1:<port>

	stopped bool
}

// serverBinary is where the server is built. The path is stable so
// that a second build finds the first one's result up to date.
func serverBinary(root string) string {
	return filepath.Join(root, ".bench_build", "bin", "distjoin-server")
}

func buildServer(root string) error {
	cmd := exec.Command("go", "build", "-o", serverBinary(root), "./cmd/distjoin-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build distjoin-server: %w\n%s", err, out)
	}
	return nil
}

// startServer writes the two datasets where the server can load them,
// builds and spawns the server with its default admission limits and
// the request log on, and waits until it answers /healthz.
func startServer(root, dir string, ds dataset) (*server, error) {
	left, right := filepath.Join(dir, "left.djds"), filepath.Join(dir, "right.djds")
	if err := datagen.WriteFile(left, ds.streets); err != nil {
		return nil, err
	}
	if err := datagen.WriteFile(right, ds.hydro); err != nil {
		return nil, err
	}
	if err := buildServer(root); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "request.log"))
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(serverBinary(root),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data", "left="+left, "-data", "right="+right)
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start distjoin-server: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1), log: logFile}
	go func() { s.exited <- cmd.Wait() }()
	if err := s.awaitHealthy(addrFile, 30*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) awaitHealthy(addrFile string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if s.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			resp, err := http.Get(s.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return fmt.Errorf("distjoin-server exited during start-up (%v); its log is %s", err, s.log.Name())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("distjoin-server not healthy after %v", limit)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain and waits for it to exit, killing it
// if it has not within ten seconds. A second call does nothing.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.exited:
		return err
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("distjoin-server did not exit within 10 s of SIGTERM; killed")
	}
}

// runtimeVars is the part of the server's /debug/vars the benchmark
// reads.
type runtimeVars struct {
	TotalAlloc   uint64 `json:"total_alloc_bytes"`
	PauseTotalNs uint64 `json:"gc_pause_total_ns"`
}

func (s *server) runtimeVars() (runtimeVars, error) {
	var v struct {
		Runtime runtimeVars `json:"runtime"`
	}
	resp, err := http.Get(s.base + "/debug/vars")
	if err != nil {
		return v.Runtime, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v.Runtime, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.Runtime, nil
}

// scrape does one /metrics GET and returns how long it took.
func (s *server) scrape() (time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return time.Since(t0), nil
}
