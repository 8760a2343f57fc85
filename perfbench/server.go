package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one geacc-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited and been reaped
}

// startServer launches the binary on a free loopback port (persisting
// under dataDir when it is non-empty) and waits for the first 200 from
// /readyz.
func startServer(ctx context.Context, bin, dataDir string, client *http.Client) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed server is the expected exit
		close(s.done)
	}()
	if err := s.waitReady(ctx, client); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *serverProc) waitReady(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return fmt.Errorf("server at %s exited during start-up", s.base)
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("server at %s not ready after 30s", s.base)
}

// stop kills the server and waits for it to exit. A kill, not a graceful
// shutdown: every acknowledged delta is already fsync'd to the WAL, so
// recovery must not depend on an orderly exit.
func (s *serverProc) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only when the process already exited
	<-s.done
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

func (s *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

func (s *serverProc) hwmKB() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func (s *serverProc) totalAllocKB(ctx context.Context, client *http.Client) (float64, error) {
	b, err := get(ctx, client, s.base+"/debug/vars")
	if err != nil {
		return 0, err
	}
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(b, &vars); err != nil {
		return 0, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return float64(vars.Memstats.TotalAlloc) / 1024, nil
}

// metrics scrapes /metrics into series -> value. Label sets stay part of
// the series name, as the exposition writes them.
func (s *serverProc) metrics(ctx context.Context, client *http.Client) (map[string]float64, error) {
	b, err := get(ctx, client, s.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// post sends one request and reads the reply into out, which it resets.
func post(ctx context.Context, client *http.Client, url string, body []byte, out *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	out.Reset()
	_, err = out.ReadFrom(resp.Body)
	return resp.StatusCode, err
}
