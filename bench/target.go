package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// target is one running instance of the program under test.
type target struct {
	base string // http://host:port
	pid  int    // the process whose CPU time and memory are the program's
	// stop ends the instance and waits until it is gone; calling it
	// again returns the first call's result.
	stop func() error
}

// launcher starts a fresh target. The benchmark's is spawnDaemon; the
// tests substitute an in-process server.
type launcher func() (*target, error)

// spawnDaemon returns a launcher that starts the pimentod binary with
// default flags on a free loopback port and waits until it answers
// /healthz.
func spawnDaemon(bin string) launcher {
	return func() (*target, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("find a free port: %w", err)
		}
		addr := l.Addr().String()
		l.Close()

		var logs bytes.Buffer
		cmd := exec.Command(bin, "-addr", addr)
		cmd.Stdout, cmd.Stderr = &logs, &logs
		// The daemon must not outlive the benchmark, however it dies.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		t := &target{base: "http://" + addr, pid: cmd.Process.Pid}
		t.stop = sync.OnceValue(func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
			select {
			case <-exited:
				return nil
			case <-time.After(10 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				return fmt.Errorf("pimentod ignored SIGTERM for 10s and was killed; its log:\n%s", logs.String())
			}
		})
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(t.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return t, nil
				}
			}
			select {
			case werr := <-exited:
				return nil, fmt.Errorf("pimentod exited during start-up (%v); its log:\n%s", werr, logs.String())
			default:
			}
			if time.Now().After(deadline) {
				_ = t.stop()
				return nil, errors.New("pimentod did not answer /healthz within 10s")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// clockTick is the kernel's USER_HZ: the unit of /proc/<pid>/stat's
// utime and stime. Linux fixes it at 100 on every architecture Go
// supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU time pid has consumed.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns pid's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
