package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lightor/bench/inputs"
)

// server is one lightor-server child process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
}

// Ports for the servers are taken from below the kernel's ephemeral range
// (32768 up on Linux). The obvious way — listen on port 0, close, hand the
// number to the server — fails about once in a few hundred starts: the
// server opens a listener of its own on port 0 first (its simulated platform
// API), the kernel hands it the number just released, and the -addr bind
// then finds the port in use.
const (
	firstPort = 20000
	lastPort  = 32000
)

var nextPort = firstPort + os.Getpid()%(lastPort-firstPort)

// freeAddr returns a loopback address nobody listens on.
func freeAddr() (string, error) {
	var err error
	for range lastPort - firstPort {
		port := nextPort
		if nextPort++; nextPort == lastPort {
			nextPort = firstPort
		}
		var l net.Listener
		if l, err = net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port)); err == nil {
			addr := l.Addr().String()
			l.Close()
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free loopback port in %d–%d: %w", firstPort, lastPort, err)
}

// startServer execs the server binary with flags (plus -addr and -seed)
// and returns once GET /api/ping answers 200, together with the time from
// exec to that answer — the workload's set-up time. The binary is built
// before this is ever called; no compile time is inside the interval.
func startServer(e *env, name string, flags ...string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(e.outDir, "server-"+name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", addr, "-seed", strconv.Itoa(inputs.ServerSeed)}, flags...)
	cmd := exec.Command(e.serverBin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the harness, however the harness dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, addr: addr, log: logf, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(s.exited) }()
	deadline := start.Add(60 * time.Second)
	for {
		if c, err := dial(addr); err == nil {
			status, _, err := c.do("GET", "/api/ping", "", nil)
			c.close()
			if err == nil && status == 200 {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, 0, fmt.Errorf("server %s exited during start-up (see %s)", name, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server %s not ready after 60s (see %s)", name, logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the server and returns once it has ended. SIGKILL, not a
// drain: every workload is done with the process by then, and the
// crash-recovery set-up needs exactly this.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
	s.log.Close()
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat: 100 on every Linux architecture Go runs on.
const clockTick = 100

// procCPUSeconds returns the user+system CPU time a process has used so far.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, so the 12th and 13th after ") ".
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+2:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return float64(ut+st) / clockTick, nil
}

// procPeakRSSMB returns VmHWM, the process's peak resident set, in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds is the server's user+system CPU so far.
func (s *server) cpuSeconds() (float64, error) { return procCPUSeconds(s.cmd.Process.Pid) }

// healthz is the part of GET /api/healthz the benchmark reads back: the
// server's own per-endpoint latency digests and shed counters.
type healthz struct {
	Latency map[string]struct {
		Count uint64  `json:"count"`
		P50Ms float64 `json:"p50_ms"`
	} `json:"latency"`
	Shed map[string]uint64 `json:"shed"`
}

func (s *server) healthz() (healthz, error) {
	var h healthz
	c, err := dial(s.addr)
	if err != nil {
		return h, err
	}
	defer c.close()
	status, _, err := c.do("GET", "/api/healthz", "", nil)
	if err != nil {
		return h, err
	}
	if status != 200 {
		return h, fmt.Errorf("GET /api/healthz: status %d", status)
	}
	return h, json.Unmarshal(c.body.Bytes(), &h)
}
