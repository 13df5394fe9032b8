package main

// daemon.go runs the real cmd/xqd binary as a child process and reads what
// it costs from /proc, so the load generator's own CPU and memory stay out
// of the serve workloads' numbers.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/xqd into dir and returns the binary's path. The
// go tool skips the link when the binary is up to date.
func buildDaemon(moduleRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "xqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xqd")
	cmd.Dir = moduleRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/xqd: %v\n%s", err, out)
	}
	return bin, nil
}

type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
	exit   error         // from cmd.Wait, valid after done
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before xqd binds; startDaemon then fails and the run with it.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs xqd over dataDir with default policy and returns once
// /readyz answers 200.
func startDaemon(bin, dataDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, "-data", dataDir, "-addr", addr, "-quiet")
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start xqd: %w", err)
	}
	d.done = make(chan struct{})
	go func() {
		d.exit = d.cmd.Wait()
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("xqd exited: %v: %s", d.exit, strings.TrimSpace(d.stderr.String()))
		case <-time.After(time.Millisecond):
		}
	}
	_ = d.stop()
	return nil, fmt.Errorf("xqd did not become ready: %s", strings.TrimSpace(d.stderr.String()))
}

// stop sends SIGTERM, which drains the daemon, and waits for it to exit;
// a daemon still alive after ten seconds is killed.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.exit
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("xqd ignored SIGTERM and was killed")
	}
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

// cpu returns the user+system CPU time the daemon has consumed so far.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The second field is the command in parentheses and may hold spaces;
	// the numbered fields start after the last ')'. utime and stime are
	// fields 14 and 15, so 12 and 13 of what follows the state field.
	s := string(raw)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(rest[11], 10, 64)
	stime, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	return procStatusMB(d.cmd.Process.Pid, "VmHWM:")
}

func procStatusMB(pid int, key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}
