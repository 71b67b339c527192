package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mutps/internal/netserver"
)

// repoRoot walks up from the working directory to the checkout that holds
// BENCHMARK.json, so the benchmark runs from the root or from benchmark/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in this directory or any parent")
		}
		dir = parent
	}
}

// buildServer compiles cmd/mutps-server from the checkout's own source into
// .bench_build/. It is not part of setup_s.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "mutps-server")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mutps-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mutps-server: %v\n%s", err, out)
	}
	return bin, nil
}

// serverFlags is the one server shape every workload uses; only the engine
// differs. No -transport and no -autotune: both stay at the server default.
func serverFlags(s spec, addr string) []string {
	return []string{"-addr", addr, "-engine", s.engine, "-workers", "2", "-cr", "1"}
}

// server is a running child mutps-server.
type server struct {
	cmd  *exec.Cmd
	addr string
	ctl  *netserver.Client // idle control connection for stats scrapes
	log  bytes.Buffer      // the child's output; read only after exited closes
	once sync.Once
	// exited closes when the child has been waited for.
	exited chan struct{}
}

// live tracks every child so a signal or the watchdog can reap them all.
var live struct {
	sync.Mutex
	m map[*server]struct{}
}

func killAll() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// startServer execs the server on a free loopback port and returns once a
// connection is accepted: a dial-retry loop, no fixed sleep.
func startServer(bin string, s spec) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	srv := &server{addr: addr}
	srv.cmd = exec.Command(bin, serverFlags(s, addr)...)
	srv.cmd.Stdout = &srv.log
	srv.cmd.Stderr = &srv.log
	// The child must not outlive a benchmark that is killed outright.
	srv.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := srv.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	srv.exited = make(chan struct{})
	go func() {
		_ = srv.cmd.Wait() // a killed child reports an error by design
		close(srv.exited)
	}()
	live.Lock()
	if live.m == nil {
		live.m = map[*server]struct{}{}
	}
	live.m[srv] = struct{}{}
	live.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.ctl, err = netserver.Dial(addr)
		if err == nil {
			return srv, nil
		}
		select {
		case <-srv.exited:
		default:
			if time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
				continue
			}
		}
		srv.stop()
		return nil, fmt.Errorf("server never accepted on %s: %v\n%s", addr, err, srv.log.String())
	}
}

// stop kills the child and waits until it has ended. The store holds no
// state worth a graceful shutdown, and a kill cannot hang.
func (s *server) stop() {
	s.once.Do(func() {
		if s.ctl != nil {
			s.ctl.Close()
		}
		_ = s.cmd.Process.Kill() // already-exited is fine
		<-s.exited
		live.Lock()
		delete(live.m, s)
		live.Unlock()
	})
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stats scrapes the stats2 op over the control connection.
func (s *server) stats() (map[string]float64, error) {
	m, err := s.ctl.StatsMap()
	if err != nil {
		return nil, fmt.Errorf("stats2 scrape: %w", err)
	}
	return m, nil
}

// setup brings a server to the state the measured window starts from:
// exec, first successful dial, pipelined preload over both load
// connections, and (skewed workloads) a non-empty hot set. It returns the
// load connections and how long all of that took.
func setup(bin string, s spec, seed uint64) (*server, []*netserver.PipelineClient, float64, error) {
	t0 := time.Now()
	srv, err := startServer(bin, s)
	if err != nil {
		return nil, nil, 0, err
	}
	depth := max(s.window, preloadDepth)
	if s.open() {
		depth = openDepth
	}
	pipes := make([]*netserver.PipelineClient, conns)
	for c := range pipes {
		pc, err := netserver.DialPipeline(srv.addr, depth)
		if err != nil {
			closePipes(pipes)
			srv.stop()
			return nil, nil, 0, err
		}
		pipes[c] = pc
	}
	if err := preload(pipes, s, seed); err != nil {
		closePipes(pipes)
		srv.stop()
		return nil, nil, 0, fmt.Errorf("preload: %w", err)
	}
	if s.theta > 0 {
		// The refresher installs a view from what the preload touched
		// within its first 100 ms periods; warm-up then converges it.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, err := srv.stats()
			if err == nil && st["mutps_hotset_size"] > 0 {
				break
			}
			if err != nil || time.Now().After(deadline) {
				closePipes(pipes)
				srv.stop()
				return nil, nil, 0, fmt.Errorf("hot set never installed (err=%v)", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return srv, pipes, time.Since(t0).Seconds(), nil
}

func closePipes(pipes []*netserver.PipelineClient) {
	for _, p := range pipes {
		if p != nil {
			p.Close()
		}
	}
}

// procStatus reads one "Key:  value kB" line of /proc/<pid>/status, in MiB.
func procStatusMiB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", key, pid)
}

// procCPU returns the user+system CPU time a process has used. The kernel
// counts in ticks of 1/100 s on every Linux configuration Go supports.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}
